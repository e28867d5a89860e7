import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cgft.ball_geometry import (
    BallInclusionReport,
    DegenerateFamilyError,
    antipodal_quartic,
    antipodal_threshold,
    circumscribed_lambda_radius,
    antipodal_irrelevance_radius,
    puncture_irrelevance_radius,
    inner_separating_modulus,
    joining_family_modulus,
    lambda_ball_constants,
    mu_ball_constants,
    outer_separating_modulus,
    punctured_disk_moduli,
    quasiball_radii,
)
from cgft.metrics import quasihyperbolic_exact
from cgft.special_functions import (
    gamma2,
    gamma_n_bounds,
    mu_inv,
    tau2,
    tau2_inv,
    teichmuller_p_circle,
)


class TestReportType:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            BallInclusionReport(1.0, 0.5)

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            BallInclusionReport(-0.1, 1.0)
        with pytest.raises(ValueError):
            BallInclusionReport(0.1, 1.0, aux_constants={"bad": -1.0})


class TestQuasiball:
    def test_log2(self):
        rep = quasiball_radii(math.log(2.0))
        assert rep.inner_euclid_radius_factor == pytest.approx(0.5, rel=1e-15)
        assert rep.outer_euclid_radius_factor == pytest.approx(1.0, rel=1e-15)

    def test_r_R_relation(self):
        for M in (0.2, 0.7, 3.0):
            rep = quasiball_radii(M)
            r, R = rep.inner_euclid_radius_factor, rep.outer_euclid_radius_factor
            assert R == pytest.approx(r / (1.0 - r), rel=1e-13)

    def test_sandwich_around_M(self):
        rep = quasiball_radii(0.5)
        assert rep.inner_euclid_radius_factor < 0.5 < rep.outer_euclid_radius_factor

    def test_domain(self):
        with pytest.raises(ValueError):
            quasiball_radii(0.0)

    @pytest.mark.parametrize("M", [0.2, 0.5, 1.0])
    def test_constructive_inclusion_on_punctured_plane(self, M):
        rep = quasiball_radii(M)
        r = rep.inner_euclid_radius_factor * (1.0 - 1e-3)
        R = rep.outer_euclid_radius_factor * (1.0 + 1e-3)
        x = (1.0, 0.0)
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            inside = (x[0] + r * math.cos(phi), x[1] + r * math.sin(phi))
            outside = (x[0] + R * math.cos(phi), x[1] + R * math.sin(phi))
            assert quasihyperbolic_exact("punctured_space", x, inside) < M
            assert quasihyperbolic_exact("punctured_space", x, outside) > M


class TestLambdaBallConstants:
    def test_gate_closed_exactly_at_threshold(self):
        rep = lambda_ball_constants(2, 2.0 * math.sqrt(2.0))
        assert rep.aux_constants["c3"] == pytest.approx(1.0, rel=1e-10)
        assert "k_radius_outer" not in rep.aux_constants
        assert "omitted" in rep.validity_note

    def test_gate_open_at_four(self):
        rep = lambda_ball_constants(2, 4.0)
        c3 = rep.aux_constants["c3"]
        assert c3 == pytest.approx(tau2_inv(4.0 / math.sqrt(2.0)), rel=1e-13)
        assert c3 < 1.0
        assert rep.aux_constants["k_radius_outer"] == pytest.approx(
            math.log(1.0 / (1.0 - c3)), rel=1e-12
        )

    def test_c2_below_c3(self):
        rep = lambda_ball_constants(2, 4.0)
        u = tau2_inv(8.0)
        assert rep.aux_constants["c2"] == pytest.approx(
            math.sqrt(u / (1.0 + u)), rel=1e-13
        )
        assert rep.aux_constants["c2"] < rep.aux_constants["c3"]

    def test_c1_is_reciprocal_complement(self):
        rep = lambda_ball_constants(2, 4.0)
        assert rep.aux_constants["c1"] == pytest.approx(
            1.0 / (1.0 + rep.aux_constants["c3"]), rel=1e-13
        )

    def test_interval_mode_in_three_dimensions(self):
        rep = lambda_ball_constants(3, 4.0)
        aux = rep.aux_constants
        assert aux["c3_lo"] <= aux["c3_hi"]
        assert aux["c2_lo"] <= aux["c2_hi"]
        assert rep.inner_euclid_radius_factor == aux["c2_lo"]
        assert rep.outer_euclid_radius_factor == aux["c3_hi"]

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda_ball_constants(2, 0.0)


class TestMuBallConstants:
    def test_d2_half_at_gamma2_of_2(self):
        rep = mu_ball_constants(2, gamma2(2.0))
        assert rep.aux_constants["d2"] == pytest.approx(0.5, rel=1e-11)

    def test_gate_closed_at_two(self):
        rep = mu_ball_constants(2, 2.0)
        assert rep.aux_constants["d3"] == pytest.approx(1.0, rel=1e-10)
        assert "k_radius_outer" not in rep.aux_constants

    def test_gate_open_at_one(self):
        rep = mu_ball_constants(2, 1.0)
        d3 = rep.aux_constants["d3"]
        assert d3 == pytest.approx(1.0 / tau2_inv(1.0), rel=1e-12)
        assert d3 < 1.0
        assert "k_radius_outer" in rep.aux_constants

    def test_d2_increasing_and_below_d3(self):
        prev = 0.0
        for t in np.linspace(0.3, 5.0, 25):
            rep = mu_ball_constants(2, float(t))
            d2, d3 = rep.aux_constants["d2"], rep.aux_constants["d3"]
            assert d2 > prev
            assert d2 < d3
            prev = d2

    def test_three_dimensional_intervals_ordered(self):
        rep = mu_ball_constants(3, 1.5)
        aux = rep.aux_constants
        assert aux["d1_lo"] <= aux["d1_hi"]
        assert aux["d2_lo"] <= aux["d2_hi"]
        assert aux["d3_lo"] <= aux["d3_hi"]

    @pytest.mark.parametrize("n", [3, 4])
    def test_d2_encloses_reciprocal_at_gamma_n(self, n):
        # gamma_n(s) = 2^(n-1) tau_n(s^2 - 1), so at t = gamma_n(s) the
        # factor d2 = 1/gamma_n_inv(t) is 1/s
        for s in (1.05, 1.5, 2.0, 3.0, 10.0, 100.0):
            aux = mu_ball_constants(n, gamma_n_bounds(n, s).hi).aux_constants
            assert aux["d2_lo"] <= (1.0 + 1e-12) / s
            assert 1.0 / s <= aux["d2_hi"] * (1.0 + 1e-12)


class TestBallConstantsAnyT:
    def test_raise_nowhere(self):
        # small t sends tau_n_inv to +inf, where d1 and c2 reach their limit 1
        for n in (2, 3, 4):
            for t in np.logspace(-12, 3, 400):
                mu_ball_constants(n, float(t))
                lambda_ball_constants(n, float(t))

    def test_limit_at_small_t(self):
        assert mu_ball_constants(2, 0.005).aux_constants["d1"] == 1.0
        assert lambda_ball_constants(2, 0.004).aux_constants["c2"] == 1.0

    @given(
        st.sampled_from([2, 3, 4]),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_outer_factor_positive(self, n, t):
        # d3 = 1/tau_n_inv(t) is positive for every t > 0, also where
        # tau_n_inv overflows and 1/u falls below the double range
        rep = mu_ball_constants(n, t)
        assert rep.outer_euclid_radius_factor > 0.0
        assert rep.outer_euclid_radius_factor >= rep.inner_euclid_radius_factor
        k = rep.aux_constants.get("k_radius_outer")
        assert k is None or k > 0.0

    def test_outer_factor_beyond_double_range(self):
        tiny = math.nextafter(1.0 / sys.float_info.max, math.inf)
        for n, t in ((2, 0.005), (3, 1e-6), (4, 1e-9)):
            rep = mu_ball_constants(n, t)
            assert rep.outer_euclid_radius_factor == tiny
            assert rep.aux_constants["k_radius_outer"] == tiny

    @given(
        st.sampled_from([3, 4]),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_upper_ends_positive(self, n, t):
        # each _hi end bounds a positive constant from above, also where
        # tau_n_inv overflows and the constant falls below the double range
        for rep in (mu_ball_constants(n, t), lambda_ball_constants(n, t)):
            his = {k: v for k, v in rep.aux_constants.items() if k.endswith("_hi")}
            assert len(his) == 3
            assert all(v > 0.0 for v in his.values()), his

    def test_lambda_constants_where_two_t_overflows(self):
        # u = tau_n_inv(2 t) lies in (0, tau_n_inv(DBL_MAX)] once 2 t overflows
        for n in (2, 3, 4):
            rep = lambda_ball_constants(n, sys.float_info.max)
            assert rep.inner_euclid_radius_factor == 0.0
            if n > 2:
                assert 0.0 < rep.aux_constants["c2_hi"] < 1e-50

    def test_upper_ends_beyond_double_range(self):
        big = sys.float_info.max
        for n, t in ((3, 1e-6), (4, 1e-9)):
            d2_hi = mu_ball_constants(n, t).aux_constants["d2_hi"]
            c1_hi = lambda_ball_constants(n, t).aux_constants["c1_hi"]
            assert d2_hi == math.nextafter(1.0 / big, math.inf)
            assert c1_hi == math.nextafter(1.0 / big, math.inf)

    @given(
        st.sampled_from([2, 3, 4]),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_lambda_outer_factor_positive(self, n, t):
        # c3 = tau_n_inv(t / sqrt 2) is positive for every t > 0, also where
        # tau2_inv underflows and c3 falls below the double range
        rep = lambda_ball_constants(n, t)
        assert rep.outer_euclid_radius_factor > 0.0
        k = rep.aux_constants.get("k_radius_outer")
        assert k is None or k > 0.0

    def test_lambda_outer_factor_where_tau2_inv_underflows(self):
        assert tau2_inv(1000.0 / math.sqrt(2.0)) == 0.0
        rep = lambda_ball_constants(2, 1000.0)
        assert rep.outer_euclid_radius_factor == math.ulp(0.0)
        assert rep.aux_constants["c3"] == math.ulp(0.0)
        assert rep.aux_constants["k_radius_outer"] == math.ulp(0.0)

    def test_lambda_outer_factor_where_tau2_inv_is_subnormal(self):
        # the outer factor is the safe end, one step above the subnormal
        t = 470.0 * math.sqrt(2.0)
        v = tau2_inv(t / math.sqrt(2.0))
        assert 0.0 < v < sys.float_info.min
        rep = lambda_ball_constants(2, t)
        assert rep.outer_euclid_radius_factor == math.nextafter(v, math.inf)


class TestCircumscribedRadius:
    def test_antipodal_limit(self):
        assert circumscribed_lambda_radius(0.5 - 1e-9) == pytest.approx(2.0, abs=1e-3)

    def test_consistency_with_circle_capacity(self):
        # reconstruct the arc angle and check the two-point capacity equals 1/T
        for T in np.linspace(0.01, 0.49, 25):
            T = float(T)
            s = math.sqrt((1.0 - 2.0 * T) * (1.0 + 2.0 * T))
            rp = mu_inv(math.pi * (1.0 + s) / (4.0 * T))
            theta = 4.0 * math.asin(rp)
            assert abs(teichmuller_p_circle(theta) - 1.0 / T) <= 1e-9
            assert circumscribed_lambda_radius(T) == pytest.approx(
                2.0 * math.sin(0.5 * theta), rel=1e-15
            )

    def test_increasing(self):
        grid = np.linspace(0.02, 0.48, 40)
        vals = [circumscribed_lambda_radius(float(T)) for T in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for T in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                circumscribed_lambda_radius(T)


class TestPuncturedDiskModuli:
    def test_triple_values(self):
        r, s = 0.3, 0.6
        m = punctured_disk_moduli(r, s)
        assert m.gamma0 == pytest.approx(
            tau2((s - r) * (1.0 - r * s) / (r * (1.0 - s) ** 2)), rel=1e-13
        )
        assert m.delta0 == pytest.approx(
            0.5 * tau2(4.0 * r * r / (1.0 - r * r) ** 2), rel=1e-13
        )
        assert m.delta1 == pytest.approx(
            tau2(s * (1.0 + r) ** 2 / (r * (1.0 - s) ** 2)), rel=1e-13
        )

    def test_coincident_punctures_rejected(self):
        with pytest.raises(DegenerateFamilyError):
            punctured_disk_moduli(0.5, 0.5)
        with pytest.raises(DegenerateFamilyError):
            joining_family_modulus(0.5, 0.5)

    def test_outer_family_at_coincident_punctures(self):
        assert outer_separating_modulus(0.5, 0.5) == pytest.approx(tau2(9.0), rel=1e-13)

    def test_inner_family_example(self):
        assert inner_separating_modulus(0.5) == pytest.approx(
            0.5 * tau2(16.0 / 9.0), rel=1e-13
        )

    def test_joining_decreasing_in_s(self):
        r = 0.3
        vals = [joining_family_modulus(r, s) for s in np.linspace(0.35, 0.9, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            punctured_disk_moduli(0.6, 0.3)
        with pytest.raises(ValueError):
            punctured_disk_moduli(0.0, 0.5)
        with pytest.raises(ValueError):
            punctured_disk_moduli(0.3, 1.0)


class TestAntipodalThreshold:
    def test_bracket_signs(self):
        assert antipodal_quartic(0.12) <= 0.0 < antipodal_quartic(0.11)
        assert antipodal_quartic(1.0) == pytest.approx(-16.0)

    def test_root(self):
        root = antipodal_threshold()
        assert root <= 0.12
        assert abs(antipodal_quartic(root)) < 1e-10
        # independent bisection oracle on the raw polynomial
        lo, hi = 0.0, 0.12
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if antipodal_quartic(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert root == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_comparison_flips_at_root(self):
        root = antipodal_threshold()
        below, above = root - 0.01, root + 0.01
        assert outer_separating_modulus(below, below) < inner_separating_modulus(below)
        assert outer_separating_modulus(above, above) >= inner_separating_modulus(above)


class TestHeikkala:
    def test_small_delta_limit(self):
        assert puncture_irrelevance_radius(1e-6) == pytest.approx(1.0, abs=1e-11)

    def test_at_two(self):
        assert puncture_irrelevance_radius(2.0) == pytest.approx((math.sqrt(80.0) - 4.0) / 8.0, rel=1e-14)

    def test_decreasing(self):
        vals = [puncture_irrelevance_radius(d) for d in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_cubic_root(self):
        x = antipodal_irrelevance_radius()
        assert x > 0.75
        assert x == pytest.approx(0.7548776662, abs=1e-9)
        assert x**3 + x**2 - 1.0 == pytest.approx(0.0, abs=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            puncture_irrelevance_radius(0.0)
