"""Chapter 1 thresholds against independent 50-digit roots (mpmath).

The separating-ring quartic root and the uniform-puncture cubic root come
from closed forms, which must round to the nearest double of the root or
its neighbour.  The sharp tangent-domination endpoint comes from a
bisection run until its ends are adjacent doubles, so the computed sides
must cross between the returned double and the next one up, and the
endpoint must sit within a few ulps of the mpmath root.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import cgft.distortion as ds
from cgft.ball_geometry import antipodal_irrelevance_radius, antipodal_threshold

DIGITS = 50


def _oracle_root(f, a, b):
    """Root of f in the bracket (a, b), at DIGITS digits."""
    with mp.workdps(DIGITS):
        a, b = mp.mpf(a), mp.mpf(b)
        assert f(a) * f(b) < 0
        return mp.findroot(f, (a, b), solver="anderson")


def _within_one_ulp(value: float, root) -> bool:
    with mp.workdps(DIGITS):
        return abs(mp.mpf(value) - root) <= math.ulp(value)


class TestClosedFormRoots:
    def test_quartic_threshold(self):
        root = _oracle_root(
            lambda r: r**4 - 8 * r**3 - 2 * r**2 - 8 * r + 1, 0.11, 0.12
        )
        assert _within_one_ulp(antipodal_threshold(), root)

    def test_cubic_root(self):
        root = _oracle_root(lambda x: x**3 + x**2 - 1, 0.75, 0.76)
        assert _within_one_ulp(antipodal_irrelevance_radius(), root)


def _endpoint_oracle(m: float, n: float):
    def gap(x):
        mm, nn = mp.mpf(m), mp.mpf(n)
        lhs = mp.log(2 ** (mm * x - mm + 1) * x ** (nn * x) - 1)
        return lhs - (2 * mm * mp.log(2) + 2 * nn) * (x - 1)

    cap = 2.0 ** (2.0 * m / n) * math.e**2
    return _oracle_root(gap, ds.tangent_domination_M(m, n), cap)


def _slack(m: float, n: float, x: float) -> float:
    return ds.tangent_domination_rhs(m, n, x) - ds.tangent_domination_lhs(m, n, x)


_CORNERS = [(3.0, 2.0), (1.0, 1.0), (6.0, 6.0), (1.0, 6.0), (6.0, 1.0)]
_SEEDED = [
    (float(m), float(n)) for m, n in np.random.default_rng(0).uniform(1.0, 6.0, (12, 2))
]


class TestTangentDominationEndpoint:
    @pytest.mark.parametrize("m, n", _CORNERS + _SEEDED)
    def test_sides_cross_at_the_next_double(self, m, n):
        a = ds.tangent_domination_endpoint(m, n)
        assert _slack(m, n, a) >= 0.0
        assert _slack(m, n, math.nextafter(a, math.inf)) < 0.0
        root = _endpoint_oracle(m, n)
        with mp.workdps(DIGITS):
            assert abs(mp.mpf(a) - root) <= 1e-13 * root

    def test_unbracketed_raises(self, monkeypatch):
        # a lower end past the crossing, where the lhs already dominates
        monkeypatch.setattr(ds, "tangent_domination_M", lambda m, n: 30.0)
        with pytest.raises(ArithmeticError, match="not bracketed"):
            ds.tangent_domination_endpoint(3, 2)
