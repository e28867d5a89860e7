"""Tests for distortion bounds of normalized quasiconformal maps."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cgft.distortion as ds
from cgft.distortion import (
    DistortionBound,
    GENERAL_LINEAR_RATE,
    PLANAR_LINEAR_RATE,
    PreconditionError,
    QUANTITY_LABELS,
    ValidityWindowError,
    annular_image_bounds,
    cylinder_bound,
    distortion_bound,
    eps_to_K,
    eta_star_one_bound,
    id_boundary_euclid_bound,
    id_boundary_rho_bound,
    j_distortion_bound,
    lens_admissible_configs,
    lens_diam_bound_linear,
    lens_diam_bound_sqrt,
    lens_diam_brute,
    lens_diam_exact,
    lens_window,
    radial_stretch_delta,
    tangent_domination_M,
    tangent_domination_endpoint,
    tangent_domination_lhs,
    tangent_domination_rhs,
    two_point_growth_bounds,
)
from cgft.verify import distortion_inequality_report
from cgft.special_functions import Interval, ell_K, tau2_inv


class TestRhoBound:
    def test_identity_map_moves_nothing(self):
        assert id_boundary_rho_bound(2, 1.0) == Interval.exact(0.0)
        assert id_boundary_rho_bound(3, 1.0) == Interval.exact(0.0)

    def test_planar_value_is_log_of_quasisymmetry_at_one(self):
        # the defining constant satisfies (1 - a)/a = tau2_inv(tau2(1)/K)
        got = id_boundary_rho_bound(2, 2.0)
        assert got.is_degenerate
        assert got.lo == pytest.approx(math.log(tau2_inv(1.0)), rel=1e-12)

    def test_planar_two_sided_linear_rates(self):
        K = 1.5
        v = id_boundary_rho_bound(2, K).lo
        assert math.pi * (K - 1.0) < v < PLANAR_LINEAR_RATE * (K - 1.0)

    def test_planar_rate_constant_digits(self):
        assert PLANAR_LINEAR_RATE == pytest.approx(4.376879, abs=1e-5)
        assert PLANAR_LINEAR_RATE == pytest.approx(
            4.0 / math.pi * ell_K(math.sqrt(0.5)) ** 2, rel=1e-15
        )

    def test_higher_dimensional_enclosure_brackets_zero_width_claims(self):
        enc = id_boundary_rho_bound(3, 1.5)
        assert 0.0 <= enc.lo <= enc.hi
        # the dimension-free linear rate must dominate the upper end
        assert enc.hi <= GENERAL_LINEAR_RATE * 0.5 + 1e-12

    def test_exponential_lower_window(self):
        for K in np.arange(1.01, 1.9001, 0.01):
            v = id_boundary_rho_bound(2, float(K)).lo
            assert math.pi * (K - 1.0) < v < PLANAR_LINEAR_RATE * (K - 1.0)

    def test_needs_K_at_least_one(self):
        with pytest.raises(ValueError):
            id_boundary_rho_bound(2, 0.9)

    def test_planar_value_past_the_underflow_of_a(self):
        # a = phi_{1/K}(1/sqrt 2)^2 leaves the normal range from K ~ 225 and
        # is 0 at K = 300, where log((1 - a)/a) divided by zero
        for K in (300.0, 1e4):
            got = id_boundary_rho_bound(2, K)
            assert got.lo == got.hi == math.pi * K - 4.0 * math.log(2.0)
        # the closed form agrees with log((1 - a)/a) where a is still normal
        for K in (20.0, 200.0, 225.0):
            a = ds._boundary_identity_a(2, K).lo
            assert id_boundary_rho_bound(2, K).hi == pytest.approx(
                math.pi * K - 4.0 * math.log(2.0), rel=1e-15
            )
            assert id_boundary_rho_bound(2, K).hi == math.log((1.0 - a) / a)


class TestEuclidBound:
    def test_identity(self):
        assert id_boundary_euclid_bound(2, 1.0) == 0.0

    def test_planar_small_K(self):
        assert id_boundary_euclid_bound(2, 1.1) <= 2.19 * 0.1

    def test_endpoint_dimension_free(self):
        assert id_boundary_euclid_bound(3, 17.0) <= 72.0

    def test_window_error_above_seventeen(self):
        with pytest.raises(ValidityWindowError):
            id_boundary_euclid_bound(3, 17.5)

    def test_planar_any_K_allowed(self):
        assert id_boundary_euclid_bound(2, 30.0) > 0.0

    def test_min_beats_each_published_chain(self):
        for K in (1.05, 1.5, 3.0, 10.0):
            v = id_boundary_euclid_bound(2, K)
            assert v <= 4.5 * (K - 1.0) + 1e-12
            assert v <= 0.5 * PLANAR_LINEAR_RATE * (K - 1.0) + 1e-12

    def test_planar_linear_rate_below_dimension_free_rate(self):
        for K in (1.1, 2.0, 5.0):
            assert 0.5 * PLANAR_LINEAR_RATE * (K - 1.0) <= 4.5 * (K - 1.0)


class TestTangentDomination:
    def test_equality_at_one(self):
        assert tangent_domination_lhs(3, 2, 1.0) == 0.0
        assert tangent_domination_rhs(3, 2, 1.0) == 0.0

    def test_guaranteed_endpoint_exceeds_one(self):
        assert tangent_domination_M(3, 2) > 1.0
        assert tangent_domination_M(1, 1) > 1.0

    def test_fixed_point_exceeds_seventeen(self):
        a = tangent_domination_endpoint(3, 2)
        assert a > 17.0
        assert a < 2.0 ** (2.0 * 3.0 / 2.0) * math.e**2

    def test_fixed_point_residual(self):
        a = tangent_domination_endpoint(3, 2)
        res = abs(tangent_domination_lhs(3, 2, a) - tangent_domination_rhs(3, 2, a))
        assert res <= 1e-8

    def test_domination_on_K_grid(self):
        ks = np.arange(1.0, 17.0001, 0.01)
        slack = np.array(
            [
                tangent_domination_rhs(3, 2, float(k))
                - tangent_domination_lhs(3, 2, float(k))
                for k in ks
            ]
        )
        assert slack.min() >= -1e-12

    def test_overflow_safe_lhs(self):
        # far above the naive exp overflow threshold
        v = tangent_domination_lhs(3, 2, 200.0)
        u = (3 * 200 - 2) * math.log(2.0) + 2 * 200 * math.log(200.0)
        assert v == pytest.approx(u, rel=1e-15)

    @given(
        st.floats(min_value=1.0, max_value=6.0),
        st.floats(min_value=1.0, max_value=6.0),
    )
    def test_guaranteed_endpoint_inside_domination_range(self, m, n):
        M = tangent_domination_M(m, n)
        assert M > 1.0
        x = 0.5 * (1.0 + M)
        assert tangent_domination_lhs(m, n, x) <= tangent_domination_rhs(
            m, n, x
        ) + 1e-10


class TestRadialStretch:
    def test_alpha_half(self):
        assert radial_stretch_delta(2, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_exceeds_1_over_e_chain(self):
        alpha = 2.0 ** (1.0 / (1.0 - 3.0))
        assert radial_stretch_delta(3, 2.0) > (1.0 - alpha) / math.e

    def test_vanishes_as_K_to_one(self):
        assert radial_stretch_delta(2, 1.0 + 1e-9) < 1e-8

    def test_needs_K_above_one(self):
        with pytest.raises(ValueError):
            radial_stretch_delta(2, 1.0)

    def test_below_euclid_upper_bound(self):
        # the sharp lower bound cannot exceed the proved upper bound
        for K in (1.05, 1.2, 1.5):
            assert radial_stretch_delta(2, K) <= id_boundary_euclid_bound(2, K)


class TestAnnularImage:
    def test_conformal_case_degenerate(self):
        got = annular_image_bounds(2, 1.0, 1.0, 1.0, 0.37)
        assert got.is_degenerate
        assert got.lo == pytest.approx(0.37, rel=1e-12)
        got3 = annular_image_bounds(3, 1.0, 1.0, 1.0, 0.5)
        assert got3.lo == pytest.approx(0.5, rel=1e-12)

    def test_origin_upper_matches_one_minus_two_a(self):
        from cgft.distortion import _boundary_identity_a

        a = _boundary_identity_a(2, 2.0).lo
        got = annular_image_bounds(2, 2.0, 1.0, 1.0, 0.0)
        assert got.hi == pytest.approx(1.0 - 2.0 * a, rel=1e-12)

    def test_origin_linear_rate(self):
        got = annular_image_bounds(2, 1.2, 1.0, 1.0, 0.0)
        assert got.hi <= (2.0 + 3.0 * math.log(2.0)) * 0.2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            annular_image_bounds(2, 1.5, 1.1, 1.0, 0.3)
        with pytest.raises(ValueError):
            annular_image_bounds(2, 1.5, 1.0, 0.9, 0.3)
        with pytest.raises(ValueError):
            annular_image_bounds(2, 1.5, 0.5, 2.0, 1.0)

    def test_interval_orders_and_contains_the_conformal_value(self):
        got = annular_image_bounds(2, 1.3, 0.9, 1.2, 0.4)
        assert 0.0 <= got.lo <= got.hi
        # the conformal prediction for m=M=1 lies inside milder windows
        mid = annular_image_bounds(2, 1.3, 1.0, 1.0, 0.4)
        assert mid.lo <= 0.4 <= mid.hi

    def test_higher_dimension_uses_safe_ends(self):
        got = annular_image_bounds(3, 1.5, 1.0, 1.0, 0.25)
        assert got.lo <= 0.25 <= got.hi


class TestCylinder:
    def test_identity(self):
        assert cylinder_bound(2, 1.0) == 0.0

    def test_plug_in(self):
        assert cylinder_bound(3, 1.01) == pytest.approx(
            math.sqrt(math.expm1(0.18)) + 0.18, rel=1e-12
        )

    def test_monotone(self):
        ks = np.linspace(1.0, 3.0, 41)
        vals = [cylinder_bound(2, float(k)) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestEtaStarOne:
    def test_limit_one(self):
        assert eta_star_one_bound(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-6)

    def test_min_of_candidates(self):
        K = 1.1
        c1 = math.exp((4.0 * math.sqrt(2.0) - math.log(K - 1.0)) * (K * K - 1.0))
        c2 = math.exp(4.0 * K * (K + 1.0) * math.sqrt(K - 1.0))
        c3 = 1.0 + 600.0 * (K - 1.0) * math.log(1.0 / (K - 1.0))
        assert eta_star_one_bound(K) == pytest.approx(min(c1, c2, c3), rel=1e-12)

    def test_refined_candidate_gated_to_small_K(self):
        K = 1.5
        c1 = math.exp((4.0 * math.sqrt(2.0) - math.log(K - 1.0)) * (K * K - 1.0))
        c2 = math.exp(4.0 * K * (K + 1.0) * math.sqrt(K - 1.0))
        assert eta_star_one_bound(K) == pytest.approx(min(c1, c2), rel=1e-12)

    @given(st.floats(min_value=1.0001, max_value=20.0))
    def test_at_least_one(self, K):
        assert eta_star_one_bound(K) >= 1.0


class TestGrowthEnvelope:
    def test_unit_radius(self):
        K = 1.5
        c3 = math.exp(60.0 * math.sqrt(K - 1.0))
        got = two_point_growth_bounds(2, K, 1.0)
        assert got.lo == pytest.approx(1.0 / c3, rel=1e-12)
        assert got.hi == pytest.approx(c3, rel=1e-12)

    def test_collapses_as_K_to_one(self):
        got = two_point_growth_bounds(2, 1.0 + 1e-12, 0.5)
        assert got.lo == pytest.approx(0.5, rel=1e-4)
        assert got.hi == pytest.approx(0.5, rel=1e-4)

    def test_ordering(self):
        got = two_point_growth_bounds(3, 1.5, 0.3)
        assert got.lo <= got.hi

    def test_window(self):
        with pytest.raises(ValidityWindowError):
            two_point_growth_bounds(2, 2.5, 0.5)
        with pytest.raises(ValidityWindowError):
            two_point_growth_bounds(2, 1.0, 0.5)

    def test_contains_radial_stretch_modulus(self):
        # |f(x)| = |x|^alpha for the radial stretch, a genuine K-qc map
        for n in (2, 3):
            for K in (1.2, 2.0):
                alpha = K ** (1.0 / (1.0 - n))
                for r in np.linspace(0.05, 2.0, 40):
                    env = two_point_growth_bounds(n, K, float(r))
                    assert env.lo <= r**alpha <= env.hi


class TestLensBounds:
    def test_sqrt_plug_in(self):
        # |x| = 1 <= |x - e1|: min radius 1, bound 4 sqrt(0.01) (1+1)
        assert lens_diam_bound_sqrt((-0.6, 0.8), 0.01) == pytest.approx(0.8)

    def test_sqrt_scaling(self):
        b1 = lens_diam_bound_sqrt((-0.5, 0.0), 0.01)
        b2 = lens_diam_bound_sqrt((-0.5, 0.0), 0.04)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)

    def test_linear_plug_in(self):
        x = (0.7, 0.5)
        got = lens_diam_bound_linear(x, 0.001, math.pi / 16)
        assert got == pytest.approx(0.001 * (1.0 + 70.0 / (math.pi / 16)), rel=1e-12)

    def test_linear_in_eps(self):
        x = (0.7, 0.5)
        w = math.pi / 16
        assert lens_diam_bound_linear(x, 0.002, w) == pytest.approx(
            2.0 * lens_diam_bound_linear(x, 0.001, w), rel=1e-12
        )

    def test_linear_preconditions(self):
        with pytest.raises(PreconditionError):
            lens_diam_bound_linear((2.5, 0.5), 0.001, 0.1)  # |x| >= 2
        with pytest.raises(PreconditionError):
            lens_diam_bound_linear((0.2, 0.1), 0.001, 0.1)  # closer to 0
        with pytest.raises(PreconditionError):
            lens_diam_bound_linear((0.8, 0.3), 0.001, 1.5)  # angle below omega
        with pytest.raises(PreconditionError):
            x = (0.7, 0.5)
            lens_diam_bound_linear(x, lens_window(x) * 1.01, 0.2)

    def test_brute_needs_sample_budget(self):
        with pytest.raises(ValueError):
            lens_diam_brute((-0.5, 0.0), 0.01, 100)

    def test_brute_deterministic(self):
        a = lens_diam_brute((-0.8, 0.0), 0.01, 10**4, seed=7)
        b = lens_diam_brute((-0.8, 0.0), 0.01, 10**4, seed=7)
        assert a == b

    def test_brute_approaches_intersection_point_distance(self):
        # transversal circles meet at x and its mirror image: distance 2 Im x
        x = (0.6, 0.45)
        d_small = lens_diam_brute(x, 0.01, 10**4, seed=1)
        assert d_small == pytest.approx(0.9, abs=0.05)

    def test_brute_empty_region_signals_zero(self):
        # r - eps == r + eps: the annuli have no width in floating point
        for x in ((-0.5, 0.0), (0.6, 0.45)):
            assert lens_diam_brute(x, 1e-300, 10**4, seed=0) == 0.0

    def test_brute_finds_the_thin_sliver(self):
        # the circles touch at x; a sliver 2e-12 wide and about 3.5e-6 long
        # lies along the tangent, and the polar window proposes inside it
        x, eps = (-0.5, 0.0), 1e-12
        assert 0.0 < lens_diam_brute(x, eps, 10**4, seed=0) <= lens_diam_exact(x, eps)

    def test_brute_diameter_does_not_overflow(self):
        # the lens spans about 2e200: squaring the raw hull differences
        # overflowed, while hypot keeps them in range
        import warnings

        x, eps = (-0.5, 0.0), 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            brute = lens_diam_brute(x, eps, 10**4, seed=0)
        assert 1e200 < brute < math.inf
        with pytest.raises(ValueError, match="finite"):
            lens_diam_exact(x, eps)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.inf, math.nan])
    def test_brute_refuses_bad_eps(self, eps):
        with pytest.raises(ValueError, match="lens_diam_brute needs finite eps > 0"):
            lens_diam_brute((-0.5, 0.0), eps, 10**4)

    def test_complex_input_accepted(self):
        assert lens_diam_bound_sqrt(complex(-0.6, 0.8), 0.01) == pytest.approx(0.8)

    def test_brute_below_bounds_on_seeded_configs(self):
        for i, cfg in enumerate(lens_admissible_configs(20, seed=3)):
            brute = lens_diam_brute(cfg["x"], cfg["eps"], 10**4, seed=i)
            assert brute <= lens_diam_bound_sqrt(cfg["x"], cfg["eps"])
            if cfg["omega"] is not None:
                assert brute <= lens_diam_bound_linear(
                    cfg["x"], cfg["eps"], cfg["omega"]
                )


def plain_chain(points):
    """Monotone chain over every point, without the prefilter (reference)."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts

    def half(chain_pts):
        out = []
        for p in chain_pts:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower, upper = half(pts), half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def crescent(rng, k):
    """Points of the unit disk outside a shifted disk, rotated at random."""
    p = rng.uniform(-1.0, 1.0, size=(4 * k, 2))
    p = p[(np.hypot(p[:, 0], p[:, 1]) <= 1.0) & (np.hypot(p[:, 0] - 0.35, p[:, 1]) >= 0.8)]
    a = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    return p[:k] @ rot.T


def box_hits(x, eps, n, rng):
    """n proposals uniform on the bounding box of the two outer disks, kept
    by the hypot test of the lens (reference sampler)."""
    r1, r2 = math.hypot(x[0], x[1]), math.hypot(x[0] - 1.0, x[1])
    out1, in1, out2, in2 = r1 + eps, r1 - eps, r2 + eps, r2 - eps
    px = rng.uniform(max(-out1, 1.0 - out2), min(out1, 1.0 + out2), n)
    py = rng.uniform(-min(out1, out2), min(out1, out2), n)
    d1, d2 = np.hypot(px, py), np.hypot(px - 1.0, py)
    hit = (d1 <= out1) & (d1 >= in1) & (d2 <= out2) & (d2 >= in2)
    return px[hit], py[hit]


class TestLensKernels:
    """The hull prefilter and the sampler's proposal window against plain
    versions."""

    @pytest.mark.parametrize("seed", range(6))
    def test_hull_matches_plain_chain_on_crescents(self, seed):
        pts = crescent(np.random.default_rng(seed), 3000)
        assert np.array_equal(ds._convex_hull(pts), plain_chain(pts))

    @pytest.mark.parametrize(
        "pts",
        [
            np.column_stack((np.arange(9.0), 2.0 * np.arange(9.0) + 1.0)),
            np.column_stack((np.arange(9.0), -np.arange(9.0))),
            np.column_stack((np.arange(9.0), np.full(9, 0.5))),
            np.column_stack((np.full(9, -1.0), np.arange(9.0))),
            np.array([[0.3, 0.4]]),
            np.array([[0.3, 0.4], [0.3, 0.4], [-1.0, 2.0]]),
        ],
        ids=["slope 2", "slope -1", "horizontal", "vertical", "one point", "two points"],
    )
    def test_hull_matches_plain_chain_on_collinear_sets(self, pts):
        rng = np.random.default_rng(1)
        pts = pts[rng.permutation(len(pts))]
        assert np.array_equal(ds._convex_hull(pts), plain_chain(pts))

    @pytest.mark.parametrize("seed", range(4))
    def test_hull_matches_plain_chain_with_duplicates_and_ties(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 6, size=(200, 2)).astype(float)  # many equal x
        copies = np.repeat(crescent(rng, 300), 3, axis=0)
        for pts in (grid, copies[rng.permutation(len(copies))]):
            assert np.array_equal(ds._convex_hull(pts), plain_chain(pts))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_polar_window_holds_every_box_hit(self, seed):
        cases = [(cfg["x"], cfg["eps"]) for cfg in lens_admissible_configs(100, seed)]
        # |x| < eps (no inner circle about 0), |x - e1| < eps as well, and
        # |x| = eps with |x - e1| + eps = 1, where the meeting angle tends to pi/2
        cases += [((0.2, 0.1), 0.3), ((3.0, 0.5), 2.5), ((0.0, 1.0), 0.5)]
        cases += [((0.25, 0.0), 0.25)]
        rng, total = np.random.default_rng(seed), 0
        for x, eps in cases:
            px, py = box_hits(x, eps, 1 << 14, rng)
            r1, r2 = math.hypot(x[0], x[1]), math.hypot(x[0] - 1.0, x[1])
            _, theta_lo, theta_hi = ds._polar_window(r1 - eps, r1 + eps, r2 - eps, r2 + eps)
            theta = np.abs(np.arctan2(py, px))
            assert np.all((theta >= theta_lo) & (theta <= theta_hi)), (x, eps)
            total += px.size
        assert total > 10**5


def caliper_diameter(hull):
    """Largest vertex distance of a counter-clockwise convex polygon, by
    rotating calipers (reference)."""

    def area(a, b, c):
        return abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    m, best, j = len(hull), 0.0, 1
    for i in range(m if m > 1 else 0):
        a, b = hull[i], hull[(i + 1) % m]
        while area(a, b, hull[(j + 1) % m]) > area(a, b, hull[j]):
            j = (j + 1) % m
        best = max(best, math.dist(a, hull[j]), math.dist(b, hull[j]))
    return best


def dense_lens_diam(x, eps, n=4096):
    """Diameter of a dense sample of the lens boundary (reference): n
    points on each of the four circles, kept by a hypot test against the
    other centre, with each arc end refined by bisection in the angle."""
    r1, r2 = math.hypot(x[0], x[1]), math.hypot(x[0] - 1.0, x[1])
    radii = ((r1 - eps, r1 + eps), (r2 - eps, r2 + eps))
    pts = []
    for k in (0, 1):
        lo, hi = radii[1 - k]
        for R in radii[k]:
            if R <= 0.0:
                continue

            def on(th):
                return np.column_stack((k + R * np.cos(th), R * np.sin(th)))

            def inside(th):
                p = on(th)
                d = np.hypot(p[:, 0] - (1 - k), p[:, 1])
                return (d >= lo) & (d <= hi)

            th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            ok = inside(th)
            pts.append(on(th[ok]))
            j = np.flatnonzero(ok != np.roll(ok, -1))
            a, b = th[j], th[j] + 2.0 * math.pi / n
            a, b = np.where(ok[j], a, b), np.where(ok[j], b, a)  # a inside
            for _ in range(60):
                mid = 0.5 * (a + b)
                ins = inside(mid)
                a, b = np.where(ins, mid, a), np.where(ins, b, mid)
            pts.append(on(a))
    return caliper_diameter(plain_chain(np.concatenate(pts)))


class TestLensDiamExact:
    @pytest.mark.parametrize(
        "x, eps",
        [
            ((-0.5, 0.0), 0.05),  # one patch about the negative axis
            ((-1.0, 0.0), 0.01),
            ((0.6, 0.45), 0.01),  # two patches, at x and its mirror image
            ((0.5, 2.0), 0.1),
            ((0.0, 1.0), 0.5),  # the outer arc about 0 holds an antipodal pair
            ((0.2, 0.1), 0.3),  # |x| < eps: no inner circle about 0
            ((3.0, 0.5), 2.5),  # r2 < eps as well
            ((0.5, 0.0), 0.4),
        ],
    )
    def test_matches_dense_boundary_sample(self, x, eps):
        exact, dense = lens_diam_exact(x, eps), dense_lens_diam(x, eps)
        assert exact - 1e-5 <= dense <= exact * (1.0 + 1e-12)

    def test_closed_form_corner_distance(self):
        # x = 1/2: the outer circles cross at Re p = 1/2, height sqrt(0.81 - 0.25)
        assert lens_diam_exact((0.5, 0.0), 0.4) == pytest.approx(
            2.0 * math.sqrt(0.56), rel=1e-15
        )

    def test_antipodal_pair(self):
        # (0, +-1.5) lie in the set, 3 apart; nothing lies farther
        assert lens_diam_exact((0.0, 1.0), 0.5) == 3.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_brute_is_a_witness(self, seed, monkeypatch):
        # every config fills its N points within the 100 N proposals, and the
        # estimate comes within 5 % of the exact diameter without passing it
        real, sizes = ds._convex_hull, []

        def counted(points):
            sizes.append(len(points))
            return real(points)

        monkeypatch.setattr(ds, "_convex_hull", counted)
        for i, cfg in enumerate(lens_admissible_configs(100, seed)):
            exact = lens_diam_exact(cfg["x"], cfg["eps"])
            brute = lens_diam_brute(cfg["x"], cfg["eps"], 10**4, seed=seed + i)
            assert 0.95 * exact <= brute <= exact * (1.0 + 1e-12), (seed, i)
        assert sizes == [10**4] * 100

    @pytest.mark.parametrize(
        "x",
        [(-0.5, 0.0), (0.5, 0.0), (-1.0, 0.0), (0.6, 0.45), (0.3, -0.2), (1.7, 0.9),
         (-2.0, 3.0), (0.2, 0.1)],
    )
    def test_brute_is_a_witness_on_thin_lenses(self, x):
        # down to annuli a few ulps wide, where hypot's rounding alone admits
        # points past the tips of a tangent sliver, and on to no width at all
        for eps in np.geomspace(1e-3, 1e-300, 150):
            exact = lens_diam_exact(x, float(eps))
            assert lens_diam_brute(x, float(eps), 10**4) <= exact * (1.0 + 1e-12), eps

    def test_brute_approaches_exact(self):
        cfg = lens_admissible_configs(100, 0)[0]
        assert cfg["omega"] is None  # collinear
        exact = lens_diam_exact(cfg["x"], cfg["eps"])
        gaps = [
            exact - lens_diam_brute(cfg["x"], cfg["eps"], N, seed=0)
            for N in (10**4, 10**5)
        ]
        assert -1e-12 * exact <= gaps[1] < gaps[0]

    @pytest.mark.parametrize(
        "x", [(-0.5, 0.0), (0.6, 0.45), (0.3, -0.2), (1.7, 0.9), (-2.0, 3.0)]
    )
    @pytest.mark.parametrize("eps", [0.001, 0.05, 0.4, 2.0])
    def test_symmetries(self, x, eps):
        d = lens_diam_exact(x, eps)
        assert lens_diam_exact((x[0], -x[1]), eps) == d
        # x -> 1 - conj(x) swaps the two centres
        assert lens_diam_exact((1.0 - x[0], x[1]), eps) == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("x", [(-0.5, 0.0), (0.6, 0.45), (0.9, 0.1), (2.0, -1.0)])
    def test_monotone_in_eps(self, x):
        values = [lens_diam_exact(x, float(e)) for e in np.geomspace(1e-4, 3.0, 200)]
        for a, b in zip(values, values[1:]):
            assert b >= a * (1.0 - 1e-12)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.inf, math.nan])
    def test_refuses_bad_eps(self, eps):
        with pytest.raises(ValueError, match="finite eps > 0"):
            lens_diam_exact((-0.5, 0.0), eps)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: lens_diam_exact(x, 0.01),
            lambda x: lens_diam_bound_sqrt(x, 0.01),
            lambda x: lens_diam_brute(x, 0.01, 10**4),
            lens_window,
        ],
    )
    @pytest.mark.parametrize(
        "x", [(math.nan, 0.0), (0.5, math.inf), (0.0, 0.0), (1e308, 1e308), (-1.4e154, 0.0)]
    )
    def test_refuses_bad_x(self, fn, x):
        # the last two have squared radii past the double range, where
        # lens_diam_exact read inf and lens_diam_brute 0
        with pytest.raises(ValueError, match="lens construction"):
            fn(x)

    @pytest.mark.parametrize(
        "x, eps", [((-0.5, 0.0), 1e200), ((-0.5, 0.0), 1.4e154), ((-1.3e154, 0.0), 1e153)]
    )
    def test_refuses_eps_that_squares_past_the_range(self, x, eps):
        # the outer radii are squared: at eps = 1e200 the diameter read inf
        with pytest.raises(ValueError, match=r"\(max\(\|x\|, \|x - e1\|\) \+ eps\)\^2 finite"):
            lens_diam_exact(x, eps)

    @pytest.mark.parametrize("x, eps", [((-0.5, 0.0), 1.3e154), ((-1.3e154, 0.0), 1e152)])
    def test_largest_accepted_eps_has_a_finite_diameter(self, x, eps):
        r = math.hypot(*x)
        assert lens_diam_exact(x, eps) == pytest.approx(2.0 * (r + eps), rel=1e-12)

    @pytest.mark.parametrize("x", [(-1.3e154, 0.0), (0.9e154, 0.9e154)])
    def test_largest_accepted_x_has_a_finite_diameter(self, x):
        r = math.hypot(*x)
        assert lens_diam_exact(x, 0.01) == pytest.approx(2.0 * r, rel=1e-12)


class TestEpsToK:
    def test_cap_branch_boundary(self):
        assert eps_to_K(math.e**60 - 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_small_eps(self):
        assert eps_to_K(0.1) == pytest.approx(
            1.0 + (math.log(1.1) / 60.0) ** 2, rel=1e-12
        )

    def test_monotone(self):
        es = np.logspace(-3, 30, 60)
        vals = [eps_to_K(float(e)) for e in es]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestJTransfer:
    def test_limit_one(self):
        assert j_distortion_bound(2, 1.0 + 1e-12, 0.5) == pytest.approx(0.5, rel=1e-4)

    def test_unit_argument_gives_the_constant(self):
        K = 1.5
        alpha = K ** (1.0 / (1.0 - 2.0))
        c3 = math.exp(60.0 * math.sqrt(K - 1.0))
        assert j_distortion_bound(2, K, 1.0) == pytest.approx(c3 / alpha, rel=1e-12)

    def test_linear_branch(self):
        K = 1.2
        alpha = K ** (1.0 / (1.0 - 2.0))
        c3 = math.exp(60.0 * math.sqrt(K - 1.0))
        assert j_distortion_bound(2, K, 4.0) == pytest.approx(4.0 * c3 / alpha)

    def test_window(self):
        with pytest.raises(ValidityWindowError):
            j_distortion_bound(2, 3.0, 1.0)


class TestInequalityReport:
    def test_planar_entry_positive_slack(self):
        report = distortion_inequality_report(1.3)
        by_id = {e["check_id"]: e for e in report["entries"]}
        assert by_id["planar-linear-rate"]["min_slack"] > 0.0
        assert by_id["planar-exponential-lower"]["min_slack"] > 0.0

    def test_t1_margin_is_am_gm_gap(self):
        K = 1.5
        c3 = math.exp(60.0 * math.sqrt(K - 1.0))
        report = distortion_inequality_report(K)
        entry = next(
            e for e in report["entries"] if e["check_id"] == "power-envelope-crossing"
        )
        assert entry["t1_margin"] == pytest.approx(c3 + 1.0 / c3 - 2.0, rel=1e-12)
        assert entry["t1_margin"] >= 0.0

    def test_branch_agreement_slack_zero(self):
        report = distortion_inequality_report(1.4)
        entry = next(
            e
            for e in report["entries"]
            if e["check_id"] == "transfer-branch-agreement"
        )
        assert entry["min_slack"] == 0.0

    def test_all_applicable_entries_nonnegative(self):
        for K in (1.0, 1.05, 1.5, 2.0, 5.0, 16.9):
            report = distortion_inequality_report(K)
            for entry in report["entries"]:
                if entry["applicable"]:
                    assert entry["min_slack"] >= -1e-12, entry["check_id"]

    def test_window_skips(self):
        report = distortion_inequality_report(18.0)
        by_id = {e["check_id"]: e for e in report["entries"]}
        assert not by_id["dimension-free-linear-rate"]["applicable"]
        assert not by_id["power-envelope-crossing"]["applicable"]

    def test_argmin_reported_inside_grid(self):
        report = distortion_inequality_report(1.5, grid_points=501)
        entry = next(
            e for e in report["entries"] if e["check_id"] == "log-power-transfer"
        )
        assert 0.0 < entry["argmin"] <= 50.0
        assert entry["grid_points"] == 1002


class TestDistortionBoundRecord:
    def test_labels_complete(self):
        assert len(QUANTITY_LABELS) == 7

    def test_dispatch_every_quantity(self):
        for quantity in QUANTITY_LABELS:
            if quantity in ("growth_envelope", "j_transfer"):
                got = distortion_bound(quantity, 2, 1.5)
            else:
                got = distortion_bound(quantity, 2, 2.0)
            assert got.quantity == quantity
            assert got.validity and got.provenance

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            DistortionBound("j_transfer", -0.5, "K in (1, 2]", "test")

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError):
            distortion_bound("nonsense", 2, 1.5)

    def test_interval_valued_quantities(self):
        got = distortion_bound("rho_displacement", 3, 1.5)
        assert isinstance(got.value, Interval)
        got2 = distortion_bound("euclid_displacement", 3, 1.5)
        assert isinstance(got2.value, float)
