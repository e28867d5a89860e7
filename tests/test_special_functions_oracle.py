"""Special functions against an independent 50-digit oracle (mpmath).

The oracle evaluates the Jacobi theta functions and the complete elliptic
integral K at high precision, so it shares no code path with the double
precision theta series and AGM in cgft.special_functions.  Points cover the
ends of each range and the switches of the former root-finding code
(mu_inv at y = 1, pi/2 and 19; tau2_inv at 2 and pi).

Where a function is ill conditioned, rounding the argument alone moves the
result by the condition number times one ulp, so those bounds are stated
per unit of EPS times the condition number; each bound is about three
times the largest error measured on its grid.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cgft.special_functions import gamma2_inv, mu, mu_inv, phi_K, tau2_inv

EPS = 2.0**-52
DIGITS = 50


def _theta_ratio(a: int, b: int, log_q, power: int):
    """(theta_a(q) / theta_b(q))^power at nome q = exp(log_q), log_q < 0.

    Near q = 1 theta_4 cancels to about exp(pi^2 / (4 log q)), so the
    working precision grows with that exponent.
    """
    extra = int(mp.pi**2 / (4 * abs(log_q)) / mp.log(10))
    with mp.workdps(DIGITS + extra + 10):
        q = mp.exp(log_q)
        val = (mp.jtheta(a, 0, q) / mp.jtheta(b, 0, q)) ** power
    return val


def mu_inv_oracle(y: float):
    # nome of mu(r) is q = e^(-2 mu(r)); r = theta2^2 / theta3^2
    return _theta_ratio(2, 3, -2 * mp.mpf(y), 2)


def tau2_inv_oracle(y: float):
    # tau2(t) = pi / mu(1 / sqrt(1 + t)): t = (r'/r)^2 = theta4^4 / theta2^4
    return _theta_ratio(4, 2, -2 * mp.pi / mp.mpf(y), 4)


def gamma2_inv_oracle(y: float):
    # gamma2(s) = 2 pi / mu(1/s): s = theta3^2 / theta2^2
    return _theta_ratio(3, 2, -4 * mp.pi / mp.mpf(y), 2)


def phi_K_oracle(K: float, r: float):
    with mp.workdps(DIGITS):
        m = mp.mpf(r) ** 2
        mu_r = mp.pi / 2 * mp.ellipk(1 - m) / mp.ellipk(m)
        y = mu_r / K
    return mu_inv_oracle(y)


def rel_err(got: float, want) -> float:
    with mp.workdps(DIGITS):
        return float(abs(mp.mpf(got) - want) / abs(want))


def _grid(lo: float, hi: float, count: int, *extra: float) -> list[float]:
    return [float(v) for v in np.geomspace(lo, hi, count)] + list(extra)


SWITCHES = (1.0, 0.5 * math.pi, 19.0)
NEIGHBOURS = tuple(
    v for y in SWITCHES for v in (math.nextafter(y, 0.0), y, math.nextafter(y, 99.0))
)


class TestMuInvOracle:
    @pytest.mark.parametrize("y", _grid(0.14, 60.0, 61, *NEIGHBOURS))
    def test_relative_error(self, y):
        # measured largest error on this grid: 5.4e-16
        assert rel_err(mu_inv(y), mu_inv_oracle(y)) <= 2e-15

    @pytest.mark.parametrize("y", [0.14, 0.2, 0.3, 0.5, 1.0])
    def test_complement_near_one(self, y):
        # below pi/2 the series gives r' and r = sqrt((1 - r')(1 + r')), so
        # 1 - r is as accurate as the doubles near 1 allow (their spacing is
        # EPS / 2); measured largest error: 0.22 EPS
        want = mu_inv_oracle(y)
        with mp.workdps(DIGITS):
            gap = float(1 - want)
        got_gap = 1.0 - mu_inv(y)
        assert abs(got_gap - gap) <= EPS


class TestCapacityInverseOracle:
    @pytest.mark.parametrize(
        "y",
        _grid(0.02, 100.0, 41, 2.0, math.pi, math.nextafter(math.pi, 0.0),
              math.nextafter(math.pi, 4.0)),
    )
    def test_tau2_inv(self, y):
        # condition number of tau2_inv at y is about max(pi / y, pi y / 2);
        # measured largest error: 1.7 EPS per unit of it
        cond = max(1.0, math.pi / y, 0.5 * math.pi * y)
        assert rel_err(tau2_inv(y), tau2_inv_oracle(y)) <= 5.0 * EPS * cond

    @pytest.mark.parametrize("y", _grid(0.02, 100.0, 41, 4.0))
    def test_gamma2_inv(self, y):
        # condition number about max(1, 2 pi / y); measured largest error:
        # 1.0 EPS per unit of it
        cond = max(1.0, 2.0 * math.pi / y)
        assert rel_err(gamma2_inv(y), gamma2_inv_oracle(y)) <= 3.0 * EPS * cond


class TestPhiKOracle:
    @pytest.mark.parametrize("K", [0.25, 0.5, 0.9, 1.1, 2.0, 4.0])
    def test_relative_error(self, K):
        # measured largest error over r in [0.01, 0.99]: 2.0e-15
        for r in np.linspace(0.01, 0.99, 25):
            r = float(r)
            assert rel_err(phi_K(K, r), phi_K_oracle(K, r)) <= 6e-15

    def test_mu_matches_the_oracle(self):
        # the oracle's mu agrees with cgft.mu, so phi_K's inputs match;
        # measured largest error: 9.0e-15
        for r in (0.01, 0.5, 0.99):
            with mp.workdps(DIGITS):
                m = mp.mpf(r) ** 2
                want = mp.pi / 2 * mp.ellipk(1 - m) / mp.ellipk(m)
            assert rel_err(mu(r), want) <= 3e-14
