"""Tests for planar harmonic maps, subharmonicity, extensions, and moduli."""

import cmath
import heapq
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cgft.harmonic_qr import (
    AliasingError,
    BoundaryFunction1D,
    HARMONIC_SCHWARZ_FACTOR,
    HarmonicPlanarMap,
    InjectivityError,
    OrientationError,
    QuadratureAccuracyError,
    SingularPointError,
    SphereBoundaryFunction,
    alpha_f_disk,
    alternating_cosine_map,
    boundary_modulus,
    boundary_samples_of,
    check_subharmonic,
    closed_modulus,
    grad_abs_f_sq,
    laplacian_abs_f_p,
    laplacian_abs_f_sq,
    modulus_profile,
    poisson_ball3,
    poisson_disk_extend,
    polyline_interior_domain,
    qh_bilipschitz_estimate,
    quasiregularity_constant,
    subharmonic_exponent,
    subharmonic_profile,
    _gauss_legendre,
    _polar_rule,
)


def _random_map(rng, degree=4, scale=0.5):
    g = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    h = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    return HarmonicPlanarMap(tuple(g), tuple(h))


def _coerce_by_loop(seq) -> tuple[complex, ...]:
    """Reference coercion: complex() on each item, then a finiteness check."""
    try:
        items = tuple(complex(c) for c in seq)
    except TypeError as exc:
        raise ValueError("coefficients must be a sequence of numbers") from exc
    if not items:
        return (0j,)
    for c in items:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("coefficients must be finite")
    return items


def _outcome(call):
    """The result of call() as item types and reprs, or its exception type and message."""
    try:
        return [(type(c), repr(c)) for c in call()]
    except Exception as exc:
        return type(exc), str(exc)


def _unit_roots(n: int) -> np.ndarray:
    return np.exp(2j * math.pi * np.arange(n) / n)


def _fd_laplacian(u, z, h=1e-4):
    return (u(z + h) + u(z - h) + u(z + 1j * h) + u(z - 1j * h) - 4.0 * u(z)) / (h * h)


def _fd_grad_sq(u, z, h=1e-4):
    gx = (u(z + h) - u(z - h)) / (2.0 * h)
    gy = (u(z + 1j * h) - u(z - 1j * h)) / (2.0 * h)
    return gx * gx + gy * gy


class TestHarmonicPlanarMap:
    def test_shear_evaluation(self):
        f = HarmonicPlanarMap.shear(0.5)
        z = 0.3 + 0.4j
        assert complex(f(z)) == pytest.approx(z + 0.5 * z.conjugate(), rel=1e-15)

    def test_coefficients_are_coerced_to_complex(self):
        f = HarmonicPlanarMap((1, 2), (0,))
        assert f.g_coeffs == (1 + 0j, 2 + 0j)
        assert f.h_coeffs == (0j,)

    def test_empty_coefficients_mean_zero(self):
        f = HarmonicPlanarMap((), ())
        assert complex(f(0.7j)) == 0j
        assert f.degree == 0

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            HarmonicPlanarMap((math.inf,), (0,))

    @pytest.mark.parametrize(
        "coeffs",
        [
            (np.float32(1.5), np.complex64(1 + 2j), np.int64(3), np.bool_(True), np.float16(0.1)),
            (np.longdouble(1) / 3, np.uint64(2**64 - 1), np.complex128(1e308 - 1e308j)),
            [0.1, -0.0, complex(-0.0, -0.0), 2**53 + 1, 2**70, True, Fraction(1, 3)],
            np.arange(5.0),
            range(4),
            None,
            3.0,
            [None],
            [1, None],
            [[1, 2]],
            [1, [1, 2]],
            [np.array([1.0])],
            [b"1"],
            ["1+"],
            "abc",
            ["1+2j", " 3 "],
            "12",
            [10**400],
            [1, math.nan],
            [complex(1, math.inf)],
            ["nan"],
            [],
            np.zeros(0),
        ],
        ids=lambda c: type(c).__name__,
    )
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_coercion_matches_complex_item_by_item(self, coeffs, as_generator):
        # the array pass accepts and refuses what complex() on each item
        # does, with the same values (signed zeros included) and messages
        def fresh():
            if as_generator and coeffs is not None and not isinstance(coeffs, float):
                return (c for c in coeffs)
            return coeffs

        expected = _outcome(lambda: _coerce_by_loop(fresh()))
        assert _outcome(lambda: HarmonicPlanarMap(fresh(), ()).g_coeffs) == expected

    def test_vectorized_evaluation(self):
        f = HarmonicPlanarMap((0, 1, 0.25j), (0.5, 0.125))
        Z = np.array([[0.1, 0.2j], [0.3 - 0.1j, -0.4]])
        out = f(Z)
        assert out.shape == Z.shape
        assert complex(out[1, 0]) == pytest.approx(complex(f(0.3 - 0.1j)), rel=1e-15)

    def test_derivatives_are_exact_polynomials(self):
        f = HarmonicPlanarMap((1, 2, 3, 4), (0, 1j, -2))
        z = 0.3 - 0.2j
        assert complex(f.g_prime(z)) == pytest.approx(2 + 6 * z + 12 * z * z, rel=1e-15)
        assert complex(f.h_prime(z)) == pytest.approx(1j - 4 * z, rel=1e-15)

    def test_jacobian_sign(self):
        assert float(HarmonicPlanarMap.shear(0.5).jacobian(0.2)) == pytest.approx(0.75)
        assert float(HarmonicPlanarMap((0, 0.5), (0, 1)).jacobian(0.0)) < 0


class TestSubharmonicExponent:
    def test_anchor_values(self):
        assert subharmonic_exponent(0.0) == 0.0
        assert subharmonic_exponent(1.0 / 3.0) == pytest.approx(0.75, abs=1e-15)

    def test_limit_toward_one(self):
        assert subharmonic_exponent(1.0 - 1e-9) == pytest.approx(1.0, abs=1e-12)
        assert subharmonic_exponent(1.0 - 1e-6) < 1.0

    def test_domain_errors(self):
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                subharmonic_exponent(bad)

    @given(st.floats(min_value=0.0, max_value=0.999, exclude_min=False))
    def test_range_and_monotonicity(self, k):
        q = subharmonic_exponent(k)
        assert 0.0 <= q < 1.0
        assert subharmonic_exponent(k + 1e-4) > q if k + 1e-4 < 1.0 else True


class TestLaplacianAbsFSq:
    def test_shear_value_is_constant_five(self):
        f = HarmonicPlanarMap.shear(0.5)
        for z in (0.0, 0.3 + 0.2j, -0.9j):
            assert float(laplacian_abs_f_sq(f, z)) == pytest.approx(5.0, rel=1e-15)

    def test_constant_map_is_flat(self):
        f = HarmonicPlanarMap((2 + 1j,), (3,))
        assert float(laplacian_abs_f_sq(f, 0.4)) == 0.0

    def test_matches_finite_differences(self):
        f = HarmonicPlanarMap((0.2, 1, 0.3j, -0.1), (0, 0.4, 0.2 - 0.1j))
        z = 0.3 + 0.2j
        fd = _fd_laplacian(lambda w: abs(complex(f(w))) ** 2, z)
        assert float(laplacian_abs_f_sq(f, z)) == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestGradAbsFSq:
    def test_identity_map_row(self):
        f = HarmonicPlanarMap((0, 1), (0,))
        for r in (0.25, 0.7):
            assert float(grad_abs_f_sq(f, r)) == pytest.approx(4.0 * r * r, rel=1e-14)

    def test_constant_map_is_flat(self):
        f = HarmonicPlanarMap((5,), (1j,))
        assert float(grad_abs_f_sq(f, -0.3 + 0.1j)) == 0.0

    def test_matches_finite_differences(self):
        f = HarmonicPlanarMap((0.1, 0.8, -0.2), (0, 0.3, 0.1j))
        z = 0.3 + 0.2j
        fd = _fd_grad_sq(lambda w: abs(complex(f(w))) ** 2, z)
        assert float(grad_abs_f_sq(f, z)) == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestLaplacianAbsFP:
    def test_shear_display_at_one(self):
        k = 0.4
        f = HarmonicPlanarMap.shear(k)
        for p in (0.5, 0.9, 2.5):
            expected = p * p * (1 + k * k) * (1 + k) ** (p - 2) + 2 * p * (p - 2) * (
                1 + k
            ) ** (p - 2) * k
            assert float(laplacian_abs_f_p(f, 1.0, p)) == pytest.approx(
                expected, rel=1e-13
            )

    def test_p_two_reduces_to_plain_laplacian(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = _random_map(rng)
            z = complex(*(0.5 * rng.standard_normal(2)))
            if abs(complex(f(z))) < 1e-3:
                continue
            assert float(laplacian_abs_f_p(f, z, 2.0)) == pytest.approx(
                float(laplacian_abs_f_sq(f, z)), rel=1e-12
            )

    def test_vanishes_at_optimal_exponent(self):
        k = 0.5
        q = subharmonic_exponent(k)
        val = float(laplacian_abs_f_p(HarmonicPlanarMap.shear(k), 1.0, q))
        assert abs(val) <= 1e-12

    def test_singularity_at_zero_of_f(self):
        with pytest.raises(SingularPointError):
            laplacian_abs_f_p(HarmonicPlanarMap.shear(0.5), 0.0, 0.9)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            laplacian_abs_f_p(HarmonicPlanarMap.shear(0.5), 0.5, 0.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            laplacian_abs_f_p(HarmonicPlanarMap.shear(0.5), 0.5, p)

    def test_matches_finite_differences(self):
        f = HarmonicPlanarMap((0.9, 1, 0.2), (0, 0.3))
        z = 0.3 + 0.2j
        p = 0.8
        fd = _fd_laplacian(lambda w: abs(complex(f(w))) ** p, z)
        assert float(laplacian_abs_f_p(f, z, p)) == pytest.approx(
            fd, rel=1e-6, abs=1e-6
        )

    def test_power_chain_rule_assembly(self):
        # alpha u^(alpha-1) Lap(u) + alpha(alpha-1) u^(alpha-2) |grad u|^2
        # with u = |f|^2 and alpha = p/2 must reproduce the |f|^p Laplacian.
        rng = np.random.default_rng(20260822)
        done = 0
        while done < 20:
            f = _random_map(rng)
            z = complex(*(0.6 * rng.standard_normal(2)))
            u = abs(complex(f(z))) ** 2
            if u < 0.09:
                continue
            p = float(rng.uniform(0.3, 3.0))
            alpha = p / 2.0
            assembled = alpha * u ** (alpha - 1) * float(
                laplacian_abs_f_sq(f, z)
            ) + alpha * (alpha - 1) * u ** (alpha - 2) * float(grad_abs_f_sq(f, z))
            direct = float(laplacian_abs_f_p(f, z, p))
            assert assembled == pytest.approx(direct, rel=1e-9, abs=1e-9)
            done += 1


class TestCheckSubharmonic:
    def test_above_threshold_is_subharmonic(self):
        f = HarmonicPlanarMap.shear(1.0 / 3.0)
        scan = check_subharmonic(f, 0.75 + 1e-3, 0.95, 96, 1e-9)
        assert scan.min_value >= -1e-9
        assert scan.subharmonic

    def test_at_threshold_is_subharmonic(self):
        f = HarmonicPlanarMap.shear(1.0 / 3.0)
        scan = check_subharmonic(f, 0.75, 0.95, 96, 1e-9)
        assert scan.min_value >= -1e-9

    def test_below_threshold_fails_along_real_direction(self):
        f = HarmonicPlanarMap.shear(1.0 / 3.0)
        scan = check_subharmonic(f, 0.70, 0.95, 96, 1e-9)
        assert scan.min_value < 0.0
        assert not scan.subharmonic
        assert abs(math.sin(cmath.phase(scan.argmin))) < 1e-3

    def test_holomorphic_maps_pass_any_positive_exponent(self):
        f = HarmonicPlanarMap((0.3, 1, -0.2j, 0.1), (0,))
        scan = check_subharmonic(f, 0.1, 0.9, 64, 1e-9)
        assert scan.min_value >= -1e-9

    def test_zero_map_has_nothing_to_scan(self):
        with pytest.raises(ValueError):
            check_subharmonic(HarmonicPlanarMap((0,), (0,)), 0.5, 0.9, 32, 1e-9)

    def test_grid_validation(self):
        f = HarmonicPlanarMap.shear(0.2)
        with pytest.raises(ValueError):
            check_subharmonic(f, 0.5, 1.2, 32, 1e-9)
        with pytest.raises(ValueError):
            check_subharmonic(f, 0.5, 0.9, 2, 1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_refuses_tol_that_is_not_nonnegative_and_finite(self, tol):
        # min_value >= -nan is False on every grid, and >= -inf always True
        with pytest.raises(ValueError, match="tol"):
            check_subharmonic(HarmonicPlanarMap.shear(0.5), 1.0, 0.9, 32, tol)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_refuses_non_finite_p(self, p):
        # p <= 0 let NaN through, and the scan printed "min nan"
        with pytest.raises(ValueError, match="p must be positive and finite"):
            check_subharmonic(HarmonicPlanarMap.shear(0.5), p, 0.9, 16, 1e-9)
        with pytest.raises(ValueError, match="p must be positive and finite"):
            subharmonic_profile(HarmonicPlanarMap.shear(0.5), [0.9, p], grid_N=16)

    def test_profile_rows_match_scans(self):
        f = HarmonicPlanarMap.shear(0.5)
        rows = subharmonic_profile(f, [0.7, 0.95])
        assert [r.p for r in rows] == [0.7, 0.95]
        assert rows[0].min_value < 0 < rows[1].min_value


class TestPoissonDiskExtend:
    def test_constant_boundary_data(self):
        c = 2.0 + 3.0j
        phi = BoundaryFunction1D((c,) * 16)
        f = poisson_disk_extend(phi, 4)
        assert complex(f(0.3 + 0.1j)) == pytest.approx(c, abs=1e-13)

    def test_single_mode_recovers_identity(self):
        phi = BoundaryFunction1D(_unit_roots(32))
        f = poisson_disk_extend(phi, 8)
        for z in (0.5, -0.2 + 0.3j):
            assert complex(f(z)) == pytest.approx(z, abs=1e-12)
        assert abs(f.h_coeffs[1]) < 1e-14

    def test_trig_polynomial_round_trip(self):
        original = HarmonicPlanarMap(
            (0.2, 1.0, -0.3j, 0.05), (0.0, 0.4 + 0.1j, 0.0, -0.2)
        )
        f = poisson_disk_extend(boundary_samples_of(original, 64), 8)
        w = np.exp(1j * np.linspace(0.1, 6.2, 17))
        assert np.max(np.abs(f(w) - original(w))) < 1e-12

    def test_alternating_series_splits_evenly(self):
        series = alternating_cosine_map(12)
        f = poisson_disk_extend(boundary_samples_of(series, 64), 12)
        m = np.arange(1, 13)
        expected = ((-1.0) ** m) / (2.0 * m * m)
        assert np.allclose(np.asarray(f.g_coeffs)[1:], expected, atol=1e-14)
        assert np.allclose(np.asarray(f.h_coeffs)[1:], expected, atol=1e-14)

    def test_nyquist_mode_is_split(self):
        phi = BoundaryFunction1D((_unit_roots(16) ** 8).real)
        f = poisson_disk_extend(phi, 8)
        theta = 0.37
        w = cmath.exp(1j * theta)
        assert complex(f(w)) == pytest.approx(math.cos(8 * theta), abs=1e-12)

    def test_aliasing_error(self):
        phi = BoundaryFunction1D((0j,) * 16)
        with pytest.raises(AliasingError):
            poisson_disk_extend(phi, 9)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            BoundaryFunction1D((0j,) * 12)
        with pytest.raises(ValueError):
            BoundaryFunction1D((0j,) * 4)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf), -math.inf])
    def test_non_finite_samples_refused(self, bad):
        # one NaN sample made boundary_modulus(phi, 0.3) return 0.0
        samples = list(boundary_samples_of(HarmonicPlanarMap.shear(0.5), 64).samples)
        samples[17] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            BoundaryFunction1D(tuple(samples))

    def test_samples_are_a_read_only_complex_copy(self):
        values = HarmonicPlanarMap.shear(0.5).on_polar_grid([1.0], 64)[0]
        phi = BoundaryFunction1D(values)
        assert phi.samples.dtype == complex and phi.samples.shape == (64,)
        assert np.array_equal(phi.samples, values)
        assert not np.shares_memory(phi.samples, values)
        assert not phi.samples.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            phi.samples[0] = 0.0
        values[0] = 7.0  # the caller's array stays the caller's
        assert phi.samples[0] != 7.0
        real = BoundaryFunction1D([1.0] * 8).samples
        assert real.dtype == complex and not real.flags.writeable
        with pytest.raises(ValueError, match="flat"):
            BoundaryFunction1D(values.reshape(8, 8))

    def test_overflowing_boundary_samples_refused(self):
        f = HarmonicPlanarMap((0, 1e308, 1e308), ())
        with pytest.raises(ValueError, match="samples must be finite"):
            boundary_samples_of(f, 64)

    @pytest.mark.parametrize("n", [0, -8, 4, 6, 100])
    def test_sample_count_refused_before_evaluating(self, n, monkeypatch):
        # 0 and -8 were refused by the polar grid as "n_t must be at least
        # 1"; 6 and 100 ran the fold and the FFT first
        def no_grid(f, radii, n_t):
            raise AssertionError("evaluated")

        monkeypatch.setattr(HarmonicPlanarMap, "on_polar_grid", no_grid)
        f = HarmonicPlanarMap.shear(0.5)
        for call in (lambda: boundary_samples_of(f, n), lambda: modulus_profile(f, [0.1], boundary_N=n)):
            with pytest.raises(ValueError, match="^sample count must be a power of two, at least 8$"):
                call()


class TestBoundaryModulus:
    def test_identity_at_exact_chord(self):
        phi = BoundaryFunction1D(_unit_roots(256))
        delta = 2.0 * math.sin(math.pi * 5 / 256)
        assert boundary_modulus(phi, delta) == pytest.approx(delta, rel=1e-12)

    def test_identity_generic_delta_is_nearest_chord(self):
        phi = BoundaryFunction1D(_unit_roots(256))
        got = boundary_modulus(phi, 0.1)
        assert got <= 0.1
        assert got >= 0.1 - 2.0 * math.pi / 256

    def test_constant_is_zero(self):
        phi = BoundaryFunction1D((1j,) * 64)
        assert boundary_modulus(phi, 0.5) == 0.0

    def test_tiny_delta_sees_no_pairs(self):
        phi = BoundaryFunction1D(_unit_roots(64))
        assert boundary_modulus(phi, 1e-6) == 0.0

    def test_full_delta_reaches_diameter(self):
        phi = BoundaryFunction1D(_unit_roots(64))
        assert boundary_modulus(phi, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_monotone_in_delta(self):
        phi = boundary_samples_of(HarmonicPlanarMap.shear(0.5), 512)
        assert boundary_modulus(phi, 0.1) <= boundary_modulus(phi, 0.3)

    def test_rejects_nonpositive_delta(self):
        phi = BoundaryFunction1D((0j,) * 8)
        with pytest.raises(ValueError):
            boundary_modulus(phi, 0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        # delta = NaN returned the diameter 3.0 for the 0.5-shear
        phi = boundary_samples_of(HarmonicPlanarMap.shear(0.5), 64)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            boundary_modulus(phi, delta)


class TestClosedModulus:
    def test_identity_map_attains_delta(self):
        f = HarmonicPlanarMap((0, 1), (0,))
        got = closed_modulus(f, 0.1)
        assert got == pytest.approx(0.1, rel=1e-9)

    def test_constant_is_zero(self):
        f = HarmonicPlanarMap((4 + 2j,), (0,))
        assert closed_modulus(f, 0.5) == 0.0

    def test_dominates_matched_boundary_modulus(self):
        f = HarmonicPlanarMap.shear(0.5)
        omega = boundary_modulus(boundary_samples_of(f, 64), 0.25)
        omega_tilde = closed_modulus(f, 0.25)
        assert omega_tilde >= omega - 1e-12

    def test_monotone_in_delta(self):
        f = HarmonicPlanarMap.shear(0.3)
        assert closed_modulus(f, 0.05) <= closed_modulus(f, 0.2)

    def test_grid_validation(self):
        f = HarmonicPlanarMap((0, 1), (0,))
        with pytest.raises(ValueError):
            closed_modulus(f, -0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_delta(self, delta):
        f = HarmonicPlanarMap.shear(0.5)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            closed_modulus(f, delta)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            modulus_profile(f, [0.1, delta], boundary_N=64)

    def test_rejects_non_finite_grid_values(self):
        # the folded FFT overflows; the scan of an inf grid returned inf
        f = HarmonicPlanarMap((0, 1e308, 1e308), ())
        with pytest.raises(ValueError, match="grid values must be finite"):
            closed_modulus(f, 0.1)

    @pytest.mark.parametrize("delta", [0.5, 0.3, 0.1, 0.03, 0.01])
    @pytest.mark.parametrize("kind", ["shear", "series", "random-0", "random-1", "random-2"])
    def test_at_least_the_full_disk_scan(self, kind, delta):
        # the annulus rows reach what a scan of the whole disk reaches: the
        # full grid has radii linspace(0, 1, max(21, round(2 / delta) + 1))
        if kind == "shear":
            f = HarmonicPlanarMap.shear(0.5)
        elif kind == "series":
            f = alternating_cosine_map(128)
        else:
            rng = np.random.default_rng([int(kind[-1]), 26])
            f = _random_map(rng, degree=int(rng.integers(2, 60)))
        radii = np.linspace(0.0, 1.0, max(21, round(2.0 / delta) + 1))
        full = _lag_by_lag_sup(f.on_polar_grid(radii, 256), radii, delta)
        assert closed_modulus(f, delta) >= full * (1.0 - 1e-12)

    @pytest.mark.parametrize("delta", [0.03, 1e-4])
    def test_shear_reaches_its_exact_modulus(self, delta):
        # the sup over the closed disk is 1.5 delta, at a radial pair ending
        # on the circle; at these deltas a full-disk grid of step about
        # delta / 2 held no such pair (0.044985 at 0.03, 1.4725e-4 at 1e-4)
        got = closed_modulus(HarmonicPlanarMap.shear(0.5), delta)
        assert got == pytest.approx(1.5 * delta, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.3, 0.03, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 0.5, 0.7, 2.0])
    def test_inner_row_is_the_least_double_within_delta(self, delta, monkeypatch):
        # 1 - delta rounds below the exact value at 0.3, 0.03, 1e-3, 1e-6,
        # 1e-8 and 1e-10, which put the outer rows up to half an ulp of 1
        # more than delta apart
        seen = []
        grid = HarmonicPlanarMap.on_polar_grid
        monkeypatch.setattr(
            HarmonicPlanarMap, "on_polar_grid", lambda f, radii, n_t: seen.append(radii) or grid(f, radii, n_t)
        )
        closed_modulus(HarmonicPlanarMap.shear(0.5), delta)
        r = float(seen[0][0])
        assert 1 - Fraction(r) <= Fraction(delta)
        if r > 0.0:
            assert 1 - Fraction(math.nextafter(r, 0.0)) > Fraction(delta)
        if delta <= 0.5:
            assert 1.0 - r == 1 - Fraction(r)  # exact, so the scan sees the same gap

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_rotated_shears_within_rounding_of_their_modulus(self, delta):
        # e^(i theta) (z + 0.5 conj z) is 1.5-Lipschitz and stretches most
        # along the real axis, so its modulus is 1.5 delta.  At these deltas
        # the only grid pairs within delta are radial (the angular step is
        # 2 sin(pi / 256) > 0.024), and the outer rows are 1 - r apart, with
        # delta - ulp(0.75) < 1 - r <= delta; so the exact sup over the grid
        # lies within 0.75 ulp(1.5) below 1.5 delta and never above it.  The
        # computed sup adds the rounding of two grid values, each an inverse
        # FFT of two modes with |f| <= 1.5 that lands within about an ulp of
        # max |f|, and of their difference and its modulus.  So c = 4 ulps of
        # max |f| = 1.5 bounds the distance either way; these ten rotations
        # reach 1.9 over the five deltas.
        ulp = math.ulp(1.5)
        rng = np.random.default_rng(27)
        for theta in rng.uniform(0.0, 2.0 * math.pi, 10):
            turn = cmath.exp(1j * theta)
            f = HarmonicPlanarMap((0.0, turn), (0.0, 0.5 * turn.conjugate()))
            assert abs(closed_modulus(f, delta) - 1.5 * delta) <= 4 * ulp


def _lag_by_lag_sup(F: np.ndarray, radii: np.ndarray, delta: float) -> float:
    """sup |F[a] - F[b]| over polar-grid pairs within delta, every lag scanned.

    Row i of F holds radius radii[i] at n_t equispaced angles, and the
    points (i, j) and (i + k, j + lag) are hypot(r_(i+k) - r_i, 2 sqrt(r_i
    r_(i+k)) sin(pi lag / n_t)) apart.  Each radius offset k and each lag
    in -n_t/2..n_t/2 that keeps some row pair within delta is compared in
    one array operation; nothing is skipped.
    """
    n_r, n_t = F.shape
    cushion = delta * (1.0 + 1e-12) + 1e-15
    sines = np.array([math.sin(math.pi * lag / n_t) for lag in range(n_t // 2 + 1)])
    best = 0.0
    for k in range(n_r):
        dr = radii[k:] - radii[: n_r - k]
        chord = 2.0 * np.sqrt(radii[: n_r - k] * radii[k:])
        near = np.hypot(dr[:, None], chord[:, None] * sines[None, :]) <= cushion
        for lag in range(-(n_t // 2), n_t // 2 + 1):
            rows = near[:, abs(lag)]
            if rows.any():
                a, b = F[: n_r - k][rows], np.roll(F[k:][rows], -lag, axis=1)
                best = max(best, float(np.abs(a - b).max()))
    return best


def _all_pairs_sup(z: np.ndarray, F: np.ndarray, delta: float) -> float:
    """sup |F(a) - F(b)| over every pair of points a, b within delta."""
    z, F = z.ravel(), F.ravel()
    near = np.abs(z[:, None] - z[None, :]) <= delta * (1.0 + 1e-12) + 1e-15
    return float(np.max(np.abs(F[:, None] - F[None, :])[near]))


def _deltas(rng, z: np.ndarray) -> list[float]:
    """A log-uniform delta and one that is exactly a grid-pair distance."""
    gaps = np.abs(z.ravel()[:, None] - z.ravel()[None, :])
    return [float(10.0 ** rng.uniform(-2.5, 0.4)), float(rng.choice(gaps[gaps > 0]))]


class _Recorded:
    """A map whose grid values are recorded as ``closed_modulus`` asks for them."""

    def __init__(self, f):
        self.f, self.grids = f, []

    def on_polar_grid(self, radii, n_t):
        values = self.f.on_polar_grid(radii, n_t)
        self.grids.append((np.asarray(radii), values))
        return values


def _closed_and_all_pairs(f, delta: float) -> tuple[float, float]:
    """closed_modulus(f, delta) and the all-pairs sup over the annulus grid it scanned."""
    recorded = _Recorded(f)
    got = closed_modulus(recorded, delta)
    (radii, F), = recorded.grids
    z = radii[:, None] * _unit_roots(F.shape[1])[None, :]
    return got, _all_pairs_sup_in_slabs(z, F, delta)


def _annulus_deltas(rng) -> list[float]:
    """A log-uniform delta, one of at least 1 (the inner row is then radius 0)
    and one that is exactly a grid-pair distance: a chord of the unit row,
    which every annulus grid holds."""
    unit = _unit_roots(256)
    chord = float(np.abs(unit[0] - unit[int(rng.integers(1, 129))]))
    return [float(10.0 ** rng.uniform(-3.0, 0.0)), float(rng.uniform(1.0, 3.0)), chord]


class TestOnPolarGrid:
    """The folded-FFT grid values agree with pointwise Horner."""

    @staticmethod
    def _assert_agrees(f, radii, n_t):
        angles = np.arange(n_t) * (2.0 * math.pi / n_t)
        z = np.asarray(radii)[:, None] * np.exp(1j * angles)[None, :]
        got = f.on_polar_grid(radii, n_t)
        assert got.shape == z.shape
        # Horner's own error at the rounded roots of unity grows with the
        # degree; the fold is exact up to the FFT's rounding
        scale = 1.0 + np.sum(np.abs(f.g_coeffs)) + np.sum(np.abs(f.h_coeffs))
        assert np.max(np.abs(got - f(z))) <= 1e-13 * scale

    @pytest.mark.parametrize("seed", range(40))
    def test_random_maps_and_grids(self, seed):
        rng = np.random.default_rng([seed, 13])
        # degrees 0-3000 and n_t 8-300, so most grids fold several blocks
        f = _random_map(rng, degree=int(rng.integers(0, 3001)))
        n_t = int(rng.integers(8, 301))
        radii = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 4)])
        self._assert_agrees(f, radii, n_t)

    @pytest.mark.parametrize(
        "degree, n_t", [(0, 8), (7, 8), (8, 8), (9, 8), (300, 17), (3000, 255), (2048, 256)]
    )
    def test_wraps_at_and_below_the_degree(self, degree, n_t):
        f = _random_map(np.random.default_rng([degree, n_t]), degree=degree)
        self._assert_agrees(f, np.linspace(0.0, 1.0, 11), n_t)

    def test_unequal_lengths_of_g_and_h(self):
        f = HarmonicPlanarMap((0.5, -1.0, 0.25j, 2.0, 0.0, 1.0), (0.0, 0.75j))
        self._assert_agrees(f, np.array([0.0, 0.3, 1.0]), 3)

    def test_constant_map(self):
        f = HarmonicPlanarMap((1.5 - 2j,), (0.25j,))
        got = f.on_polar_grid([0.0, 0.5, 1.0], 12)
        assert np.all(got == 1.5 - 2.25j)

    def test_boundary_samples_are_the_unit_row(self):
        f = alternating_cosine_map(100)
        phi = boundary_samples_of(f, 64)
        assert np.array_equal(phi.samples, f.on_polar_grid([1.0], 64)[0])

    def test_n_t_validated(self):
        with pytest.raises(ValueError):
            HarmonicPlanarMap.shear(0.5).on_polar_grid([0.5], 0)

    def test_radius_above_one(self):
        # the table of r^k ran to k = n_t - 1, where 2^k overflows: 0 * inf
        # made the whole row NaN, while f(2) = 3
        f = HarmonicPlanarMap.shear(0.5)
        with np.errstate(all="raise"):
            got = f.on_polar_grid([2.0], 4096)[0]
        z = 2.0 * np.exp(2j * math.pi * np.arange(4096) / 4096)
        assert got[0] == pytest.approx(3.0, abs=1e-14)
        assert np.max(np.abs(got - f(z))) <= 1e-14

    @pytest.mark.parametrize("n_t", [8, 17, 41])
    def test_folded_blocks_above_radius_one(self, n_t):
        f = _random_map(np.random.default_rng(n_t), degree=40)
        radii = np.array([1.25, 2.0])
        z = radii[:, None] * np.exp(2j * math.pi * np.arange(n_t) / n_t)[None, :]
        got = f.on_polar_grid(radii, n_t)
        coeffs = np.abs(f.g_coeffs) + np.abs(f.h_coeffs)
        scale = np.polynomial.polynomial.polyval(radii, coeffs)[:, None]
        assert np.max(np.abs(got - f(z)) / scale) <= 1e-13


class TestModuliMatchAllPairs:
    """Both moduli visit exactly the grid pairs within delta."""

    @pytest.mark.parametrize("seed", range(100))
    def test_closed_modulus(self, seed):
        rng = np.random.default_rng([seed, 11])
        f = _random_map(rng, degree=int(rng.integers(0, 6)))
        for delta in _annulus_deltas(rng):
            got, expected = _closed_and_all_pairs(f, delta)
            assert got == expected

    @pytest.mark.parametrize("seed", range(100))
    def test_boundary_modulus(self, seed):
        rng = np.random.default_rng([seed, 12])
        f = _random_map(rng, degree=int(rng.integers(0, 6)))
        n = 2 ** int(rng.integers(3, 9))
        z = np.exp(2j * math.pi * np.arange(n) / n)
        phi = boundary_samples_of(f, n)
        F = np.asarray(phi.samples)
        for delta in _deltas(rng, z):
            assert boundary_modulus(phi, delta) == _all_pairs_sup(z, F, delta)


def _all_pairs_sup_in_slabs(z: np.ndarray, F: np.ndarray, delta: float) -> float:
    """_all_pairs_sup taken over 256-point slabs of the pair matrix."""
    z, F = z.ravel(), F.ravel()
    best = 0.0
    for s in range(0, z.size, 256):
        near = np.abs(z[s : s + 256, None] - z[None, :]) <= delta * (1.0 + 1e-12) + 1e-15
        best = max(best, float(np.max(np.abs(F[s : s + 256, None] - F[None, :])[near])))
    return best


def _skip_test_maps(kind: str) -> HarmonicPlanarMap:
    """A smooth, a random low-degree, a high-mode and a noise-like map."""
    rng = np.random.default_rng(19)
    if kind == "shear":
        return HarmonicPlanarMap.shear(0.5)
    if kind == "random":
        return _random_map(rng, degree=5)
    if kind == "high-mode":
        g = np.zeros(302, dtype=complex)
        g[1], g[301] = 1.0, 0.05
        return HarmonicPlanarMap(tuple(g), (0.0, 0.3j))
    # degree far above the sample count: the folded grid values look random
    return _random_map(rng, degree=3000)


class TestModuliMatchAllPairsWhereBlocksSkip:
    """Grids large enough that the boundary scan skips blocks of lags: both
    moduli still equal the all-pairs sup, noise samples included."""

    @pytest.mark.parametrize("kind", ["shear", "random", "high-mode", "noise"])
    @pytest.mark.parametrize("n", [1024, 2048])
    def test_boundary_modulus(self, n, kind):
        rng = np.random.default_rng([n, 21])
        z = np.exp(2j * math.pi * np.arange(n) / n)
        if kind == "noise":
            phi = BoundaryFunction1D(tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        else:
            phi = boundary_samples_of(_skip_test_maps(kind), n)
        F = np.asarray(phi.samples)
        for delta in [0.02, 0.3, 1.5, float(np.abs(z[0] - z[int(rng.integers(1, n // 2))]))]:
            assert boundary_modulus(phi, delta) == _all_pairs_sup_in_slabs(z, F, delta)

    @pytest.mark.parametrize("kind", ["shear", "random", "high-mode", "noise"])
    @pytest.mark.parametrize("draws", [6, 12])
    def test_closed_modulus(self, draws, kind):
        # the annulus scan takes every lag within delta, on noise-like grid
        # values as on smooth ones: ``draws`` log-uniform deltas from 1e-3
        # to 3, then the exact grid-pair distances of the unit row
        rng = np.random.default_rng([draws, 22])
        f = _skip_test_maps(kind)
        unit = _unit_roots(256)
        chords = [float(np.abs(unit[0] - unit[lag])) for lag in (1, 5, 128)]
        for delta in [*10.0 ** rng.uniform(-3.0, 0.5, draws), *chords]:
            got, expected = _closed_and_all_pairs(f, float(delta))
            assert got == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_phase_shifted_rows(self, seed):
        # one angular mode per row with its own phase, from a stand-in that
        # serves grid values in place of a map: the pairs from one row to
        # another peak at lags where the pairs back are small, so the scan
        # must take both directions.  Harmonic maps rarely show this on the
        # three annulus rows, where a radial or same-row pair usually holds
        # the sup.
        rng = np.random.default_rng([seed, 6])
        mode = int(rng.integers(1, 4))
        amplitude = rng.uniform(0.5, 1.0, (3, 1))
        phase = rng.uniform(0.0, 2.0 * math.pi, (3, 1))

        class Rows:
            def on_polar_grid(self, radii, n_t):
                theta = 2.0 * math.pi * np.arange(n_t) / n_t
                return amplitude * np.exp(1j * (mode * theta[None, :] + phase))

        for delta in (0.2, 0.4, 0.7):
            got, expected = _closed_and_all_pairs(Rows(), delta)
            assert got == expected

    @pytest.mark.parametrize("kind", ["shear", "noise"])
    def test_boundary_where_the_bisection_goes_deep(self, kind, monkeypatch):
        import cgft.harmonic_qr as hq

        n = 4096
        rng = np.random.default_rng([n, 23])
        z = np.exp(2j * math.pi * np.arange(n) / n)
        if kind == "noise":
            phi = BoundaryFunction1D(tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        else:
            phi = boundary_samples_of(HarmonicPlanarMap.shear(0.5), n)
        F = np.asarray(phi.samples)
        # the level of each run queued, the third entry of a heap item
        levels = []
        push = heapq.heappush
        monkeypatch.setattr(
            hq.heapq, "heappush", lambda heap, item: levels.append(item[2]) or push(heap, item)
        )
        for delta in [0.05, 0.3, 1.2]:
            levels.clear()
            assert boundary_modulus(phi, delta) == _all_pairs_sup_in_slabs(z, F, delta)
            assert max(levels) - min(levels) >= 4

    def test_smooth_maps_skip_most_lags(self, monkeypatch):
        import cgft.harmonic_qr as hq

        calls = []
        kernel = hq._lag_gaps
        monkeypatch.setattr(
            hq, "_lag_gaps", lambda a, b, lag: calls.append(lag) or kernel(a, b, lag)
        )
        # boundary: a scan of every lag makes one call per lag within delta,
        # 1,043 here; the bisection makes about log2 of that, one per level
        # of W, plus the few head lags it evaluates
        boundary_modulus(boundary_samples_of(HarmonicPlanarMap.shear(0.5), 65536), 0.1)
        assert len(calls) <= 24


class TestModulusProfileSharesWork:
    """A profile shares lag gaps and one annulus grid across its deltas and
    gives each delta the value of its own boundary_modulus and
    closed_modulus calls, to the bit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_per_delta_calls(self, seed):
        rng = np.random.default_rng([seed, 32])
        kind = ("random", "series", "shear", "noise")[seed % 4]
        if kind == "random":
            f = _random_map(rng, degree=int(rng.integers(0, 8)))
        elif kind == "series":
            f = alternating_cosine_map(int(rng.integers(1, 2100)))
        elif kind == "shear":
            turn = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            f = HarmonicPlanarMap((0.0, turn), (0.0, rng.uniform(0.0, 0.9) * turn.conjugate()))
        else:  # degree far above the sample count: noise-like samples
            f = _random_map(rng, degree=int(rng.integers(1000, 3001)))
        n = 2 ** int(rng.integers(3, 14))
        chord = 2.0 * math.sin(math.pi / n)
        deltas = [
            *10.0 ** rng.uniform(-4.0, 0.3, 3),  # unsorted
            float(rng.uniform(1.0, 3.0)),  # inner row 0
            float(np.abs(1.0 - _unit_roots(n)[int(rng.integers(1, n // 2 + 1))])),  # exact chord
            2.0 * math.sin(math.pi * int(rng.integers(1, n // 2 + 1)) / n),
            float(rng.uniform(0.0, chord)),  # below the smallest chord
            1e-10,
        ]
        deltas.append(deltas[int(rng.integers(0, len(deltas)))])  # repeated
        rows = modulus_profile(f, deltas, boundary_N=n)
        phi = boundary_samples_of(f, n)
        assert [r.delta for r in rows] == deltas
        assert [r.boundary for r in rows] == [boundary_modulus(phi, d) for d in deltas]
        assert [r.closed for r in rows] == [closed_modulus(f, d) for d in deltas]

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_noise_samples_through_one_table(self, n):
        import cgft.harmonic_qr as hq

        rng = np.random.default_rng([n, 32])
        phi = BoundaryFunction1D(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        deltas = [*10.0 ** rng.uniform(-3.0, 0.3, 6), 2.0 * math.sin(math.pi * 3 / n), 2.0, 0.05]
        gaps = {}
        for delta in deltas:
            assert hq._circle_sup(phi.samples, delta, gaps) == boundary_modulus(phi, delta)

    @pytest.mark.parametrize("theta", [0.0, 2.1])
    def test_counts_on_the_shear_profile(self, theta, monkeypatch):
        # the moduli benchmark's shear profile: 35 passes over the samples
        # when each delta scanned alone, 21 distinct lags; and one grid per
        # delta plus the samples' own, 1 + 3 calls
        import cgft.harmonic_qr as hq

        lags, grids = [], []
        kernel, grid = hq._lag_gaps, HarmonicPlanarMap.on_polar_grid
        monkeypatch.setattr(hq, "_lag_gaps", lambda a, b, lag: lags.append(lag) or kernel(a, b, lag))
        monkeypatch.setattr(
            HarmonicPlanarMap, "on_polar_grid", lambda f, radii, n_t: grids.append(len(radii)) or grid(f, radii, n_t)
        )
        turn = cmath.exp(1j * theta)
        f = HarmonicPlanarMap((0.0, turn), (0.0, 0.5 * turn.conjugate()))
        modulus_profile(f, [0.1, 0.01, 0.001], boundary_N=65536)
        assert len(lags) <= 21 and len(set(lags)) == len(lags)
        assert grids == [1, 7]
        grids.clear()
        closed_modulus(f, 0.01)
        assert grids == [3]
        grids.clear()
        assert modulus_profile(f, [], boundary_N=65536) == []
        assert grids == []


class TestModuliSeparation:
    def test_boundary_lipschitz_but_radial_growth(self):
        f = alternating_cosine_map(256)
        rows = modulus_profile(f, [0.1, 0.01], boundary_N=8192)
        for row in rows:
            assert row.boundary / row.delta <= 1.8
        ratio_coarse = rows[0].closed / rows[0].delta
        ratio_fine = rows[1].closed / rows[1].delta
        assert ratio_fine >= 1.4 * ratio_coarse

    def test_series_boundary_value_at_minus_one(self):
        f = alternating_cosine_map(256)
        m = np.arange(1, 257)
        expected = float(np.sum(1.0 / (m * m)))
        got = complex(f(-1.0))
        assert got.real == pytest.approx(expected, rel=1e-10)
        assert abs(got.imag) < 1e-12

    def test_shear_moduli_track_each_other(self):
        f = HarmonicPlanarMap.shear(0.5)
        rows = modulus_profile(f, [0.1, 0.03], boundary_N=32768)
        ratios = [r.closed / r.boundary for r in rows]
        assert max(ratios) / min(ratios) <= 1.1

    def test_ratio_constant_stable_under_refinement(self):
        f = HarmonicPlanarMap.shear(0.5)
        coarse = modulus_profile(f, [0.1], boundary_N=16384)[0]
        fine = modulus_profile(f, [0.1], boundary_N=32768)[0]
        c_coarse = coarse.closed / coarse.boundary
        c_fine = fine.closed / fine.boundary
        assert abs(c_coarse - c_fine) <= 0.02 * c_fine

    def test_subadditivity_constant_reported_stable(self):
        f = alternating_cosine_map(128)
        consts = []
        for n in (4096, 8192):
            phi = boundary_samples_of(f, n)
            d1, d2 = 0.07, 0.05
            top = boundary_modulus(phi, d1 + d2)
            bottom = boundary_modulus(phi, d1) + boundary_modulus(phi, d2)
            consts.append(top / bottom)
        assert all(c <= 2.0 for c in consts)
        assert abs(consts[0] - consts[1]) <= 0.1 * consts[1]


class TestPoissonBall3:
    def test_constant_reproduced_exactly(self):
        v = np.array([1.0, -2.0, 0.5])
        phi = SphereBoundaryFunction(lambda xi: np.broadcast_to(v, xi.shape), 0.0)
        for x in ([0.0, 0.0, 0.0], [0.1, 0.2, -0.3], [0.0, 0.0, 0.99]):
            out = poisson_ball3(phi, x)
            assert np.max(np.abs(out - v)) < 1e-12

    def test_identity_data_extends_to_identity(self):
        phi = SphereBoundaryFunction(lambda xi: xi, 1.0)
        x = np.array([0.2, -0.1, 0.85])
        out = poisson_ball3(phi, x)
        assert np.max(np.abs(out - x)) < 1e-6

    def test_identity_data_vanishes_at_center(self):
        phi = SphereBoundaryFunction(lambda xi: xi, 1.0)
        out = poisson_ball3(phi, [0.0, 0.0, 0.0])
        assert np.max(np.abs(out)) < 1e-10

    @pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.0, 0.0, 5e-4], [0.1, 0.2, -0.3]])
    def test_oracle_called_once_on_all_nodes(self, x):
        calls = []

        def oracle(xi):
            calls.append(xi.shape)
            return xi

        poisson_ball3(SphereBoundaryFunction(oracle, 1.0), x)
        assert len(calls) == 1
        m, three = calls[0]
        assert three == 3 and m % 64 == 0 and m >= 64 * 64

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_gauss_legendre_is_leggauss_built_once(self, n):
        x, w = _gauss_legendre(n)
        base = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, base[0]) and np.array_equal(w, base[1])
        assert _gauss_legendre(n)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        # the rule below r = 1e-3 is the cached pair itself
        assert _polar_rule(0.0, n)[0] is x

    @pytest.mark.parametrize("r", [0.0, 5e-4, 1e-3, 0.37, 0.99, 0.999])
    def test_polar_rule_panels(self, r):
        u, w = _polar_rule(r, 64)
        assert np.all(np.diff(u) > 0.0) and -1.0 < u[0] and u[-1] < 1.0
        assert np.all(w > 0.0) and math.fsum(w) == pytest.approx(2.0, rel=1e-14)
        # each panel integrates u^3 exactly, so the whole rule does
        assert abs(float(w @ u**3)) < 1e-13
        if r < 1e-3:
            base = np.polynomial.legendre.leggauss(64)
            assert np.array_equal(u, base[0]) and np.array_equal(w, base[1])
        else:
            # the panel next to u = 1 is (1 - r)^2 / (2 r) wide, or all of [-1, 1]
            eps = (1.0 - r) ** 2 / (2.0 * r)
            assert 1.0 - u[-1] < min(eps, 2.0)

    def test_refuses_rather_than_nan_next_to_the_sphere(self):
        # 1 + r^2 - 2 r u cancels to 0 at the kernel peak here; the rule
        # cannot resolve the peak, so the mass check must refuse, with no
        # RuntimeWarning (the suite turns warnings into errors)
        phi = SphereBoundaryFunction(lambda xi: xi, 1.0)
        with pytest.raises(QuadratureAccuracyError):
            poisson_ball3(phi, [0.0, 0.0, 1.0 - 1e-9])

    def test_tangential_derivative_of_identity_is_unit(self):
        phi = SphereBoundaryFunction(lambda xi: xi, 1.0)
        for r in (0.9, 0.99, 0.999):
            h = (1.0 - r) / 10.0
            up = poisson_ball3(phi, [h, 0.0, r])
            um = poisson_ball3(phi, [-h, 0.0, r])
            deriv = (up - um) / (2.0 * h)
            assert np.linalg.norm(deriv) == pytest.approx(1.0, abs=1e-2)

    def test_tangential_derivative_of_lipschitz_data_bounded(self):
        phi = SphereBoundaryFunction(lambda xi: np.abs(xi[:, :1] - 0.3) * [1.0, 0.0, 0.0], 1.0)
        mags = []
        for r in (0.9, 0.99, 0.999):
            h = (1.0 - r) / 10.0
            up = poisson_ball3(phi, [h, 0.0, r])
            um = poisson_ball3(phi, [-h, 0.0, r])
            mags.append(float(np.linalg.norm((up - um) / (2.0 * h))))
        assert max(mags) <= 10.0 * phi.lipschitz_L

    def test_rejects_points_outside_ball(self):
        phi = SphereBoundaryFunction(lambda xi: xi, 1.0)
        with pytest.raises(ValueError):
            poisson_ball3(phi, [0.0, 0.0, 1.0])

    def test_oracle_shape_checked(self):
        bad = [
            lambda xi: np.zeros(2),
            lambda xi: np.array([1.0, -2.0, 0.5]),  # a (3,) return is not broadcast
            lambda xi: xi[:, :2],
            lambda xi: xi.T,
            lambda xi: xi[:-1],
        ]
        for oracle in bad:
            with pytest.raises(ValueError, match=r"\(m, 3\) real array"):
                poisson_ball3(SphereBoundaryFunction(oracle, 1.0), [0.0, 0.0, 0.5])

    def test_lipschitz_constant_validated(self):
        with pytest.raises(ValueError):
            SphereBoundaryFunction(lambda xi: xi, -1.0)


class TestQhBilipschitz:
    PAIRS = [(0.3 + 0.0j, -0.2 + 0.1j), (0.0 + 0.4j, -0.35 + 0.0j)]

    def test_identity_gives_unit_ratios(self):
        f = HarmonicPlanarMap((0, 1), (0,))
        circle = np.exp(2j * math.pi * np.arange(256) / 256)
        got = qh_bilipschitz_estimate(f, self.PAIRS, f(circle))
        assert got.min_ratio == pytest.approx(1.0, abs=0.05)
        assert got.max_ratio == pytest.approx(1.0, abs=0.05)

    def test_rotation_gives_unit_ratios(self):
        f = HarmonicPlanarMap((0, cmath.exp(1j * math.pi / 3)), (0,))
        circle = np.exp(2j * math.pi * np.arange(256) / 256)
        got = qh_bilipschitz_estimate(f, self.PAIRS, f(circle))
        assert got.min_ratio == pytest.approx(1.0, abs=0.05)
        assert got.max_ratio == pytest.approx(1.0, abs=0.05)

    def test_shear_ratios_bounded_and_stable(self):
        f = HarmonicPlanarMap.shear(0.3)
        circle_fine = np.exp(2j * math.pi * np.arange(192) / 192)
        circle_coarse = np.exp(2j * math.pi * np.arange(96) / 96)
        fine = qh_bilipschitz_estimate(f, self.PAIRS, f(circle_fine), tol=0.02)
        coarse = qh_bilipschitz_estimate(f, self.PAIRS, f(circle_coarse), tol=0.02)
        assert 0.2 <= fine.min_ratio <= fine.max_ratio <= 5.0
        assert fine.max_ratio / fine.min_ratio <= 3.0
        assert fine.max_ratio == pytest.approx(coarse.max_ratio, rel=0.1)

    def test_folding_map_raises_injectivity_error(self):
        f = HarmonicPlanarMap((0, 0, 1), (0,))  # z -> z^2 folds antipodes
        circle = np.exp(2j * math.pi * np.arange(16) / 16)
        with pytest.raises(InjectivityError):
            qh_bilipschitz_estimate(f, self.PAIRS, f(circle))

    def test_coincident_pair_rejected(self):
        f = HarmonicPlanarMap((0, 1), (0,))
        circle = np.exp(2j * math.pi * np.arange(64) / 64)
        with pytest.raises(ValueError):
            qh_bilipschitz_estimate(f, [(0.3, 0.3)], f(circle))

    def test_polyline_domain_signed_distance(self):
        square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
        dom = polyline_interior_domain(square)
        inside = dom.dist_to_boundary(np.array([0.0, 0.0]))
        outside = dom.dist_to_boundary(np.array([2.0, 0.0]))
        assert float(inside) == pytest.approx(1.0, rel=1e-12)
        assert float(outside) == pytest.approx(-1.0, rel=1e-12)
        assert dom.diam == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


class TestAlphaF:
    def test_identity_map(self):
        f = HarmonicPlanarMap((0, 1), (0,))
        assert alpha_f_disk(f, 0.3 + 0.1j) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_map(self):
        f = HarmonicPlanarMap((0, 2.5), (0,))
        assert alpha_f_disk(f, -0.2j) == pytest.approx(2.5, rel=1e-12)

    def test_shear_equals_root_jacobian(self):
        f = HarmonicPlanarMap.shear(0.4)
        assert alpha_f_disk(f, 0.25) == pytest.approx(math.sqrt(0.84), rel=1e-12)

    def test_root_jacobian_dominates(self):
        f = HarmonicPlanarMap((0, 1, 0.05), (0, 0.3))
        for z in (0.0, 0.2 + 0.1j, -0.4):
            root_j = math.sqrt(float(f.jacobian(z)))
            assert root_j >= alpha_f_disk(f, z) * (1.0 - 1e-9)

    def test_orientation_error(self):
        f = HarmonicPlanarMap((0, 0.5), (0, 1.0))
        with pytest.raises(OrientationError):
            alpha_f_disk(f, 0.1)

    def test_boundary_point_rejected(self):
        f = HarmonicPlanarMap((0, 1), (0,))
        with pytest.raises(ValueError):
            alpha_f_disk(f, 1.0)


class TestQuasiregularityConstant:
    def test_shear_constant(self):
        assert quasiregularity_constant(HarmonicPlanarMap.shear(0.3)) == pytest.approx(
            0.3, rel=1e-12
        )

    def test_holomorphic_map_is_zero(self):
        f = HarmonicPlanarMap((0, 1, 0.5, -0.2j), (0,))
        assert quasiregularity_constant(f) == 0.0

    def test_degenerate_analytic_derivative_is_inf(self):
        f = HarmonicPlanarMap((0, 0, 1), (0, 1))
        assert quasiregularity_constant(f) == math.inf

    def test_varying_ratio_attains_corner(self):
        f = HarmonicPlanarMap((0, 1, 0.2), (0, 0.3))
        expected = 0.3 / abs(1 + 0.4 * 0.99 * cmath.exp(1j * math.pi))
        assert quasiregularity_constant(f) == pytest.approx(expected, rel=1e-9)


class TestHarmonicSchwarz:
    def test_random_maps_respect_gradient_bound(self):
        rng = np.random.default_rng(42)
        boundary = np.exp(2j * math.pi * np.arange(4096) / 4096)
        radii = np.linspace(0.05, 0.95, 19)
        angles = np.exp(2j * math.pi * np.arange(512) / 512)
        interior = radii[:, None] * angles[None, :]
        for _ in range(12):
            f = _random_map(rng, degree=5)
            f = HarmonicPlanarMap((0,) + f.g_coeffs[1:], (0,) + f.h_coeffs[1:])
            sup_norm = float(np.max(np.abs(f(boundary))))
            if sup_norm == 0.0:
                continue
            ratio = float(np.max(np.abs(f(interior)) / np.abs(interior)))
            assert ratio <= HARMONIC_SCHWARZ_FACTOR * sup_norm * (1.0 + 1e-6)

    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
        st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
    )
    def test_property_gradient_bound(self, gc, hc):
        f = HarmonicPlanarMap((0,) + tuple(gc[1:]), (0,) + tuple(hc[1:]))
        boundary = np.exp(2j * math.pi * np.arange(512) / 512)
        sup_norm = float(np.max(np.abs(f(boundary))))
        if sup_norm == 0.0:
            return
        radii = np.linspace(0.1, 0.9, 9)
        angles = np.exp(2j * math.pi * np.arange(64) / 64)
        interior = radii[:, None] * angles[None, :]
        ratio = float(np.max(np.abs(f(interior)) / np.abs(interior)))
        assert ratio <= HARMONIC_SCHWARZ_FACTOR * sup_norm * (1.0 + 1e-6)


class TestLipschitzExtension:
    def test_extension_of_shear_boundary_is_lipschitz(self):
        original = HarmonicPlanarMap.shear(0.4)
        f = poisson_disk_extend(boundary_samples_of(original, 64), 8)
        assert np.allclose(np.asarray(f.g_coeffs)[:2], [0, 1], atol=1e-13)
        assert np.allclose(np.asarray(f.h_coeffs)[:2], [0, 0.4], atol=1e-13)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(40):
            a = complex(*(0.7 * rng.uniform(-1, 1, 2)))
            b = complex(*(0.7 * rng.uniform(-1, 1, 2)))
            if abs(a - b) < 1e-6:
                continue
            worst = max(worst, abs(complex(f(a)) - complex(f(b))) / abs(a - b))
        assert worst <= 1.4 * (1.0 + 1e-9)
        assert quasiregularity_constant(f) == pytest.approx(0.4, rel=1e-10)
