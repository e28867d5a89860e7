import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cgft.special_functions import (
    Interval,
    agm,
    check_dimension,
    ell_K,
    eta_K_n,
    gamma2,
    gamma2_inv,
    gamma_n_bounds,
    gamma_n_inv_bounds,
    lambda_n_interval,
    mu,
    mu_inv,
    omega_sphere,
    phi_K,
    phi_Kn_lower,
    tau2,
    tau2_inv,
    tau_n_bounds,
    tau_n_inv_bounds,
    teichmuller_p_circle,
)


def ell_K_quadrature(r: float, nodes: int = 200) -> float:
    # independent oracle: Gauss-Legendre on the trigonometric form
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.25 * math.pi * (x + 1.0)
    vals = 1.0 / np.sqrt(1.0 - (r * np.sin(theta)) ** 2)
    return float(0.25 * math.pi * np.sum(w * vals))


def mu_inv_bisect_oracle(y: float) -> float:
    lo, hi = 1e-8, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mu(mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_exact_and_contains(self):
        iv = Interval.exact(3.0)
        assert iv.is_degenerate and iv.width == 0.0 and iv.mid == 3.0
        assert Interval(1.0, 2.0).contains(1.5)
        assert not Interval(1.0, 2.0).contains(2.5)


class TestDimension:
    def test_accepts_integers(self):
        assert check_dimension(2) == 2
        assert check_dimension(7) == 7

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_dimension(bad)


def agm_100_steps(a: float, b: float) -> tuple[float, bool]:
    """agm as it was before the fixed-point stop, where a settled pair runs on
    to 100 steps, and whether every product a * b it took was a normal double."""
    a, b = float(a), float(b)
    normal = True
    for _ in range(100):
        if abs(a - b) <= 1e-16 * a:
            break
        normal = normal and sys.float_info.min <= a * b < math.inf
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b), normal


def agm_ulps_from_mpmath(a: float, b: float) -> float:
    """|agm(a, b) - AGM(a, b)| in ulps of the 50-digit value."""
    with mpmath.workdps(50):
        exact = mpmath.agm(mpmath.mpf(a), mpmath.mpf(b))
        return float(abs(agm(a, b) - exact) / math.ulp(float(exact)))


LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
AGM_PAIRS = st.one_of(
    # both arguments log-uniform in [1e-300, 1e300]
    st.tuples(LOG_UNIFORM, LOG_UNIFORM),
    # (1, r), r in (0, 1), uniform and log-uniform down to ratios near 1e-300
    st.tuples(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    st.tuples(st.just(1.0), st.floats(-300.0, 0.0, exclude_max=True).map(lambda e: 10.0**e)),
    # pairs within 1e-12 of each other, relative
    st.tuples(LOG_UNIFORM, st.floats(-1e-12, 1e-12)).map(lambda p: (p[0], p[0] * (1.0 + p[1]))),
)


class TestAgm:
    @given(AGM_PAIRS)
    @example((1.0, 1e-300))
    @example((1e300, 1e-300))
    @example((1.0, math.nextafter(1.0, 0.0)))
    def test_same_bits_as_the_100_step_loop(self, pair):
        # where a product of the old loop left the normal range its value
        # could be far off (5.9e-231 for (1e-200, 5e-201), inf for (1e300,
        # 1e-300)); those draws are held to the oracle instead
        for a, b in (pair, pair[::-1]):
            old, normal = agm_100_steps(a, b)
            if normal:
                assert agm(a, b) == old
            else:
                assert agm_ulps_from_mpmath(a, b) <= 4

    @pytest.mark.parametrize(
        "a, b", [(1e-200, 5e-201), (1e200, 5e199), (1e300, 1e-300), (1e308, 1.0), (1.5e308, 1e308)]
    )
    def test_products_beyond_the_double_range(self, a, b):
        # the old loop gave 5.9e-231, inf, inf, inf and inf here
        assert agm_ulps_from_mpmath(a, b) <= 4
        assert agm_ulps_from_mpmath(b, a) <= 4

    def test_fixed_points(self):
        assert agm(1.0, 1.0) == 1.0
        assert agm(3.7, 3.7) == pytest.approx(3.7, abs=0)

    def test_gauss_value(self):
        # direct iteration limit, cross-checked against pi/(2 K(1/sqrt 2))
        v = agm(1.0, 1.0 / math.sqrt(2.0))
        assert v == pytest.approx(0.8472130848, abs=1e-10)
        assert v == pytest.approx(math.pi / (2.0 * ell_K(1.0 / math.sqrt(2.0))), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            agm(0.0, 1.0)
        with pytest.raises(ValueError):
            agm(1.0, -2.0)

    @given(
        st.floats(0.01, 100.0),
        st.floats(0.01, 100.0),
        st.floats(0.1, 10.0),
    )
    def test_symmetry_and_scaling(self, a, b, c):
        assert agm(a, b) == pytest.approx(agm(b, a), rel=1e-13)
        assert agm(c * a, c * b) == pytest.approx(c * agm(a, b), rel=1e-13)


class TestEllK:
    def test_zero(self):
        assert ell_K(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_lemniscatic_value(self):
        assert ell_K(1.0 / math.sqrt(2.0)) == pytest.approx(1.8540746773, abs=1e-9)

    @pytest.mark.parametrize("r", [0.1, 0.3, 1.0 / math.sqrt(2.0), 0.9, 0.99])
    def test_against_quadrature(self, r):
        assert ell_K(r) == pytest.approx(ell_K_quadrature(r), rel=1e-13)

    def test_monotone(self):
        grid = np.linspace(0.0, 0.995, 40)
        vals = [ell_K(r) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert ell_K(0.99) > ell_K(0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            ell_K(1.0)
        with pytest.raises(ValueError):
            ell_K(-0.1)


class TestMu:
    def test_symmetric_point(self):
        assert mu(1.0 / math.sqrt(2.0)) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_product_identity(self):
        for r in np.arange(0.05, 0.951, 0.05):
            rp = math.sqrt(1.0 - r * r)
            assert abs(mu(r) * mu(rp) - math.pi**2 / 4.0) <= 1e-11

    def test_decreasing(self):
        grid = np.linspace(0.001, 0.999, 60)
        vals = [mu(r) for r in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert mu(0.999) < mu(0.5)
        assert mu(0.999) > 0

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                mu(bad)


class TestMuInv:
    def test_symmetric_point(self):
        assert mu_inv(math.pi / 2.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_round_trip_examples(self):
        assert mu_inv(mu(0.42)) == pytest.approx(0.42, abs=1e-10)
        assert mu_inv(10.0) < 0.01

    def test_against_bisection_oracle(self):
        for y in [0.3, 0.7, 1.0, 2.0, 5.0, 10.0, 18.0]:
            assert mu_inv(y) == pytest.approx(mu_inv_bisect_oracle(y), rel=1e-9)

    def test_tolerance_contract(self):
        for y in [0.3, 0.5, 1.0, 3.0, 7.0, 15.0, 18.9, 19.5, 25.0]:
            r = mu_inv(y)
            assert 0.0 < r < 1.0
            assert abs(mu(r) - y) <= 1e-11 * max(1.0, y)

    def test_small_y_conditioning_limited(self):
        # below y ~ 0.3 the preimage sits ulps away from 1 and the round trip
        # is limited by the derivative of mu there, not by the inversion
        for y in [0.2, 0.25]:
            r = mu_inv(y)
            assert 0.0 < r < 1.0
            assert abs(mu(r) - y) <= 1e-7
        # below ~ 0.13 the true preimage is unrepresentable; the result stays
        # inside the open interval at the nearest double to 1
        for y in [0.05, 0.1]:
            r = mu_inv(y)
            assert 0.0 < r < 1.0
            assert r == math.nextafter(1.0, 0.0)

    @given(st.floats(0.3, 18.0))
    def test_round_trip_property(self, y):
        assert mu(mu_inv(y)) == pytest.approx(y, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            mu_inv(0.0)


class TestPhiK:
    def test_identity_at_K1(self):
        assert phi_K(1.0, 0.7) == 0.7

    def test_endpoints(self):
        assert phi_K(2.3, 0.0) == 0.0
        assert phi_K(2.3, 1.0) == 1.0

    def test_pythagorean_spot(self):
        K, r = 2.0, 0.6
        rp = math.sqrt(1.0 - r * r)
        assert phi_K(K, r) ** 2 + phi_K(1.0 / K, rp) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_composition_inverse(self):
        assert phi_K(2.0, phi_K(0.5, 0.3)) == pytest.approx(0.3, abs=1e-9)

    def test_increasing_in_r(self):
        grid = np.linspace(0.01, 0.99, 30)
        vals = [phi_K(1.7, r) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(st.floats(0.25, 4.0), st.floats(0.01, 0.99))
    def test_composition_property(self, K, r):
        assert phi_K(1.0 / K, phi_K(K, r)) == pytest.approx(r, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_K(0.0, 0.5)
        with pytest.raises(ValueError):
            phi_K(2.0, 1.5)


class TestRingCapacities:
    def test_spot_values(self):
        assert gamma2(math.sqrt(2.0)) == pytest.approx(4.0, rel=1e-13)
        assert tau2(1.0) == pytest.approx(2.0, rel=1e-13)
        assert tau2(3.0) == pytest.approx(gamma2(2.0) / 2.0, rel=1e-13)

    def test_functional_identity(self):
        for s in np.linspace(1.001, 20.0, 120):
            g = gamma2(s)
            assert abs(g - 2.0 * tau2(s * s - 1.0)) <= 1e-10 * g

    def test_decreasing(self):
        s_grid = np.linspace(1.01, 40.0, 50)
        g_vals = [gamma2(s) for s in s_grid]
        assert all(b < a for a, b in zip(g_vals, g_vals[1:]))
        t_grid = np.linspace(0.05, 40.0, 50)
        t_vals = [tau2(t) for t in t_grid]
        assert all(b < a for a, b in zip(t_vals, t_vals[1:]))

    def test_growth_sandwich(self):
        # exp(2 pi / gamma2(s)) = exp(mu(1/s)) lies in [s, 4 s]
        for s in np.linspace(1.01, 100.0, 150):
            v = math.exp(2.0 * math.pi / gamma2(s))
            assert s * (1.0 - 1e-12) <= v <= 4.0 * s * (1.0 + 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma2(1.0)
        with pytest.raises(ValueError):
            tau2(0.0)


class TestCapacityInverses:
    def test_spot_values(self):
        assert gamma2_inv(4.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert tau2_inv(2.0) == pytest.approx(1.0, rel=1e-12)

    def test_round_trips(self):
        assert tau2_inv(tau2(5.5)) == pytest.approx(5.5, abs=1e-9)
        for t in [0.01, 0.3, 1.0, 4.0, 50.0, 1e4]:
            assert tau2_inv(tau2(t)) == pytest.approx(t, rel=1e-10)
        for s in [1.001, 1.5, 3.0, 20.0, 500.0]:
            assert gamma2_inv(gamma2(s)) == pytest.approx(s, rel=1e-10)

    def test_tiny_results_keep_relative_accuracy(self):
        # the small-t branch must not collapse to 0
        t = 1e-12
        assert tau2_inv(tau2(t)) == pytest.approx(t, rel=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            tau2_inv(0.0)
        with pytest.raises(ValueError):
            gamma2_inv(-1.0)


class TestOmegaSphere:
    def test_values(self):
        assert omega_sphere(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert omega_sphere(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert omega_sphere(4) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


class TestLambdaInterval:
    def test_plane_exact(self):
        iv = lambda_n_interval(2)
        assert iv.lo == iv.hi == 4.0

    def test_three_dimensional_bracket(self):
        iv = lambda_n_interval(3)
        assert iv.lo == 4.0
        assert iv.hi == pytest.approx(2.0 * math.e**2, rel=1e-14)


class TestCapacityBounds:
    def test_plane_degenerate(self):
        assert tau_n_bounds(2, 1.0).lo == tau_n_bounds(2, 1.0).hi == pytest.approx(2.0, rel=1e-13)
        iv = gamma_n_bounds(2, math.sqrt(2.0))
        assert iv.lo == iv.hi == pytest.approx(4.0, rel=1e-13)

    def test_three_dim_example(self):
        iv = tau_n_bounds(3, 1.0)
        assert iv.lo == pytest.approx(4.0 * math.pi * math.log(8.0 * math.e**4) ** -2, rel=1e-13)
        assert iv.hi == pytest.approx(4.0 * math.pi * math.log(2.0) ** -2, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ordering(self, n):
        for t in [0.1, 0.5, 1.0, 3.0, 10.0, 100.0]:
            iv = tau_n_bounds(n, t)
            assert iv.lo <= iv.hi
            if n == 2:
                assert iv.lo == iv.hi == pytest.approx(tau2(t), rel=1e-13)
        for s in [1.1, 2.0, 10.0, 50.0]:
            iv = gamma_n_bounds(n, s)
            assert iv.lo <= iv.hi

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_n_bounds(3, 0.0)
        with pytest.raises(ValueError):
            gamma_n_bounds(3, 1.0)

    def test_upper_end_past_float_range_is_inf(self):
        # log1p(t)^(1-n) and log(s)^(1-n) overflow here; inf is a valid bound
        for iv in (tau_n_bounds(3, 1e-200), gamma_n_bounds(21, 1.0000000000000002)):
            assert iv.hi == math.inf
            assert 0.0 < iv.lo < math.inf


class TestTauInvBounds:
    def test_plane(self):
        iv = tau_n_inv_bounds(2, 2.0)
        assert iv.lo == iv.hi == pytest.approx(1.0, rel=1e-12)
        iv = tau_n_inv_bounds(2, tau2(7.0))
        assert iv.lo == pytest.approx(7.0, abs=1e-9)

    def test_three_dim_against_closed_forms(self):
        n = 3
        om = omega_sphere(n)
        lam_sq = lambda_n_interval(n).hi ** 2
        for y in [0.05, 0.3, 1.0, 5.0]:
            iv = tau_n_inv_bounds(n, y)
            hi_oracle = math.exp(math.sqrt(om / y)) - 1.0
            lo_oracle = max(0.0, math.exp(math.sqrt(om / y)) / lam_sq - 1.0)
            assert iv.hi == pytest.approx(hi_oracle, rel=1e-9)
            if lo_oracle == 0.0:
                assert iv.lo == 0.0
            else:
                assert iv.lo == pytest.approx(lo_oracle, rel=1e-9)
            assert 0.0 <= iv.lo <= iv.hi

    def test_encloses_true_inverse_in_plane_sense(self):
        # sanity: in n=3 the enclosure must contain the midpoint capacity's preimage
        for y in [0.2, 1.0, 3.0]:
            iv = tau_n_inv_bounds(3, y)
            mid_t = 0.5 * (iv.lo + iv.hi)
            cap = tau_n_bounds(3, mid_t if mid_t > 0 else 1e-6)
            assert cap.lo <= y * 1.0001 or cap.hi >= y * 0.9999

    def test_end_past_float_range_is_inf(self):
        # L = 712 puts expm1(L) past float range but not L - 2 log lambda_hi
        y = omega_sphere(3) / 712.0**2
        iv = tau_n_inv_bounds(3, y)
        assert iv.hi == math.inf
        assert iv.lo == pytest.approx(math.expm1(712.0 - 2.0 * math.log(2.0 * math.e**2)))

    @given(st.sampled_from([3, 4, 5]), st.floats(-6.0, 6.0))
    def test_upper_envelope_round_trip(self, n, e):
        # the upper envelope omega log1p(t)^(1-n) inverts exactly by expm1,
        # so t comes back at rounding level even where log(t + 1) cancels
        t = 10.0**e
        hi = tau_n_bounds(n, t).hi
        # relative error, stated directly: approx would add abs=1e-12
        assert abs(tau_n_inv_bounds(n, hi).hi / t - 1.0) <= 1e-13

    def test_plane_where_tau2_inv_underflows(self):
        y = 1000.0 / math.sqrt(2.0)
        assert tau2_inv(y) == 0.0
        iv = tau_n_inv_bounds(2, y)
        assert iv.lo == 0.0 < iv.hi == math.ulp(0.0)

    def test_plane_where_tau2_inv_is_subnormal(self):
        # the last rounding of a subnormal can move it by a whole step
        y = 470.0
        v = tau2_inv(y)
        assert 0.0 < v < sys.float_info.min
        iv = tau_n_inv_bounds(2, y)
        assert iv.lo == math.nextafter(v, 0.0)
        assert iv.hi == math.nextafter(v, math.inf)


class TestGammaInvBounds:
    def test_plane(self):
        for y in (1e-300, 0.1, 4.0, 50.0, 1e300):
            assert gamma_n_inv_bounds(2, y) == Interval.exact(gamma2_inv(y))
        assert gamma_n_inv_bounds(2, 1e-300).hi == math.inf

    @given(st.sampled_from([3, 4, 5]), st.floats(-6.0, 6.0))
    def test_upper_envelope_round_trip(self, n, e):
        s = 1.0 + 10.0**e
        hi = gamma_n_bounds(n, s).hi
        assert abs(gamma_n_inv_bounds(n, hi).hi / s - 1.0) <= 1e-13

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_the_tau_envelopes(self, n):
        # gamma_n(s) = 2^(n-1) tau_n(s^2 - 1) puts both inverses on one pair
        # of envelopes: s^2 - 1 runs over tau_n_inv_bounds(n, y / 2^(n-1))
        for y in (0.01, 0.5, 3.0, 40.0, 1e4):
            s = gamma_n_inv_bounds(n, y)
            h = tau_n_inv_bounds(n, y / 2 ** (n - 1))
            assert 1.0 <= s.lo < s.hi
            assert s.hi == pytest.approx(math.sqrt(1.0 + h.hi), rel=1e-13)
            assert s.lo == pytest.approx(math.sqrt(1.0 + h.lo), rel=1e-13)

    def test_end_past_float_range_is_inf(self):
        # L = 712 puts e^L past float range but not e^L / lambda_hi
        y = omega_sphere(3) / 712.0**2
        iv = gamma_n_inv_bounds(3, y)
        assert iv.hi == math.inf
        assert iv.lo == pytest.approx(math.exp(712.0 - math.log(2.0 * math.e**2)))


class TestEtaKn:
    def test_identity_at_K1(self):
        iv = eta_K_n(2, 1.0, 0.8)
        assert iv.lo == iv.hi == pytest.approx(0.8, abs=1e-10)

    def test_tau_unit_value(self):
        iv = eta_K_n(2, 2.0, 1.0)
        assert iv.lo == pytest.approx(tau2_inv(1.0), rel=1e-12)

    def test_planar_window(self):
        b = 4.0 / math.pi * ell_K(1.0 / math.sqrt(2.0)) ** 2
        for K in [1.2, 1.5, 2.0]:
            v = eta_K_n(2, K, 1.0).lo
            assert math.exp(math.pi * (K - 1.0)) < v < math.exp(b * (K - 1.0))

    def test_planar_subnormal_widened(self):
        t = 1e-320
        iv = eta_K_n(2, 1.0, t)
        assert iv.lo < iv.hi
        assert iv.hi == tau_n_inv_bounds(2, tau2(t)).hi

    def test_three_dim_interval(self):
        # at t = 1 the envelope gap is wide enough that the left end clamps to 0
        iv = eta_K_n(3, 2.0, 1.0)
        assert iv.lo == 0.0
        assert iv.hi > 1.0
        # far out the envelopes tighten and the left end comes off the clamp
        iv_far = eta_K_n(3, 2.0, 100.0)
        assert 0.0 < iv_far.lo < iv_far.hi
        # K = 1 in n = 3 still contains t
        iv1 = eta_K_n(3, 1.0, 1.0)
        assert iv1.lo <= 1.0 <= iv1.hi


class TestPhiKnLower:
    def test_identity_case(self):
        assert phi_Kn_lower(2, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_is_lower_bound_in_plane(self):
        for K in [1.5, 2.0, 3.0]:
            for r in [0.1, 0.4, 0.6, 0.9]:
                assert phi_Kn_lower(2, K, r) <= phi_K(1.0 / K, r) + 1e-14

    def test_three_dim_value(self):
        v = phi_Kn_lower(3, 2.0, 0.5)
        beta = 2.0 ** (1.0 / 2.0)
        lam_hi = 2.0 * math.e**2
        expected = max(
            lam_hi ** (1.0 - beta) * 0.5**beta,
            2.0 ** (1.0 - beta) * 2.0 ** (-beta) * 0.5**beta,
        )
        assert v == pytest.approx(expected, rel=1e-13)
        assert 0.0 < v < 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_Kn_lower(2, 0.5, 0.5)


class TestTeichmullerPCircle:
    def test_antipode(self):
        assert teichmuller_p_circle(math.pi) == pytest.approx(2.0, abs=1e-14)

    def test_conjugation_symmetry(self):
        t = 1.0
        assert teichmuller_p_circle(t) == pytest.approx(
            teichmuller_p_circle(2.0 * math.pi - t), rel=1e-13
        )

    def test_minimum_at_pi(self):
        grid = np.linspace(0.2, 2.0 * math.pi - 0.2, 101)
        vals = [teichmuller_p_circle(t) for t in grid]
        assert min(vals) >= 2.0 - 1e-13
        assert vals[50] == pytest.approx(2.0, abs=1e-12)

    def test_quarter_turn_oracle(self):
        y = 2.0 / math.pi * mu(math.cos(math.pi / 8.0))
        assert teichmuller_p_circle(math.pi / 2.0) == pytest.approx(y + 1.0 / y, rel=1e-12)
        assert teichmuller_p_circle(math.pi / 2.0) > 2.0

    def test_domain(self):
        for bad in (0.0, 2.0 * math.pi, -1.0, 7.0):
            with pytest.raises(ValueError):
                teichmuller_p_circle(bad)


NAN, INF = math.nan, math.inf

NON_FINITE_CALLS = {
    "agm-nan": (agm, (NAN, 1.0)),
    "agm-inf": (agm, (1.0, INF)),
    "mu_inv-nan": (mu_inv, (NAN,)),
    "mu_inv-inf": (mu_inv, (INF,)),
    "gamma2_inv-nan": (gamma2_inv, (NAN,)),
    "gamma2_inv-inf": (gamma2_inv, (INF,)),
    "tau2_inv-nan": (tau2_inv, (NAN,)),
    "tau2_inv-inf": (tau2_inv, (INF,)),
    "tau_n_inv_bounds-nan": (tau_n_inv_bounds, (3, NAN)),
    "tau_n_inv_bounds-inf": (tau_n_inv_bounds, (2, INF)),
    "gamma_n_inv_bounds-nan": (gamma_n_inv_bounds, (3, NAN)),
    "gamma_n_inv_bounds-inf": (gamma_n_inv_bounds, (2, INF)),
    "tau_n_bounds-nan": (tau_n_bounds, (3, NAN)),
    "tau_n_bounds-inf": (tau_n_bounds, (3, INF)),
    "gamma_n_bounds-inf": (gamma_n_bounds, (3, INF)),
    "eta_K_n-K-nan": (eta_K_n, (3, NAN, 1.0)),
    "eta_K_n-t-inf": (eta_K_n, (3, 2.0, INF)),
    "phi_Kn_lower-nan": (phi_Kn_lower, (3, NAN, 0.5)),
    "phi_Kn_lower-inf": (phi_Kn_lower, (3, INF, 0.5)),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("name", list(NON_FINITE_CALLS))
    def test_refused(self, name):
        func, args = NON_FINITE_CALLS[name]
        with pytest.raises(ValueError):
            func(*args)
