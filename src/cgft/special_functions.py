"""Planar conformal invariants and their two-sided bounds for n >= 3.

In dimension 2 everything reduces to the arithmetic-geometric mean: the
complete elliptic integral K(r), the Grotzsch modulus mu(r), and the ring
capacities gamma2 / tau2.  Their inverses are theta series, not root finds:
the nome of mu(r) is q = e^(-2 mu(r)), and r = theta2(q)^2 / theta3(q)^2
(Anderson, Vamanamurthy and Vuorinen 1997, ch. 5; Borwein and Borwein 1987).
In higher dimensions those capacities have no closed form, so they are
represented by Interval enclosures built from the classical growth-function
sandwich, whose envelopes invert in closed form, with the Grotzsch constant
lambda_n known only to lie in [4, 2 e^(n-1)).  Non-finite arguments raise
ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Interval",
    "check_dimension",
    "agm",
    "ell_K",
    "mu",
    "mu_inv",
    "phi_K",
    "gamma2",
    "tau2",
    "gamma2_inv",
    "tau2_inv",
    "omega_sphere",
    "lambda_n_interval",
    "tau_n_bounds",
    "gamma_n_bounds",
    "tau_n_inv_bounds",
    "gamma_n_inv_bounds",
    "eta_K_n",
    "phi_Kn_lower",
    "teichmuller_p_circle",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; degenerate (lo == hi) means exactly known.

    Endpoints are mathematical bounds evaluated in double precision, not
    directed-rounding enclosures.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @staticmethod
    def exact(x: float) -> "Interval":
        return Interval(x, x)


def check_dimension(n: int) -> int:
    """Validate an ambient dimension: an integer n >= 2."""
    if isinstance(n, bool) or int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers.

    The pair (a, b) -> ((a + b)/2, sqrt(ab)) is iterated at most 100
    times, and the loop stops early in two ways: when |a - b| <= 1e-16 a,
    or when a step leaves (a, b) unchanged.  The first rarely holds once
    the pair has settled, since a and b then often sit one ulp (about
    2.2e-16 a) apart.  The second is a fixed point of the rounded step:
    every later step would return the same pair, so stopping there gives
    to the bit what running out the 100 steps would.  Quadratic
    convergence reaches one of the two in 4-6 steps for b/a in [1e-3, 1]
    and 13 at b/a = 1e-300 (Borwein and Borwein 1987).
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("agm needs finite positive arguments")
    a = float(a)
    b = float(b)
    for _ in range(100):
        if abs(a - b) <= 1e-16 * a:
            break
        m, g = 0.5 * (a + b), math.sqrt(a * b)
        if m == a and g == b:
            break
        a, b = m, g
    return 0.5 * (a + b)


def ell_K(r: float) -> float:
    """Complete elliptic integral of the first kind with modulus r.

    K(r) = integral_0^1 dx / sqrt((1 - x^2)(1 - r^2 x^2)) = pi / (2 agm(1, r')),
    r' = sqrt(1 - r^2).
    """
    if not 0 <= r < 1:
        raise ValueError("ell_K needs 0 <= r < 1")
    rp = math.sqrt((1.0 - r) * (1.0 + r))
    return math.pi / (2.0 * agm(1.0, rp))


def mu(r: float) -> float:
    """Modulus of the planar ring between the unit circle and [0, r].

    mu(r) = (pi/2) K(r')/K(r), evaluated as (pi/2) agm(1, r')/agm(1, r) so
    both factors stay well conditioned at either end of (0, 1).
    """
    if not 0 < r < 1:
        raise ValueError("mu needs 0 < r < 1")
    rp = math.sqrt((1.0 - r) * (1.0 + r))
    return 0.5 * math.pi * agm(1.0, rp) / agm(1.0, r)


_MU_SYMMETRIC = math.pi * math.pi / 4.0


def _mu_inv_pair(y: float) -> tuple[float, float]:
    """The modulus r with mu(r) = y and its complement r' = sqrt(1 - r^2).

    With q = e^(-2y), r = theta2(q)^2 / theta3(q)^2
      = 4 e^(-y) (sum_{k>=0} q^(k(k+1)) / (1 + 2 sum_{k>=1} q^(k^2)))^2,
    written so that no q^(1/4) underflows.  Below y = pi/2 the series runs
    at y' = pi^2/(4y) instead, by mu(r) mu(r') = pi^2/4, so q <= e^(-pi)
    always and five terms leave a tail below q^25 < 1e-34.  The series
    gives the smaller of r and r'; the larger is sqrt((1 - s)(1 + s)).
    """
    swap = y < 0.5 * math.pi
    if swap:
        y = _MU_SYMMETRIC / y
    q = math.exp(-2.0 * y)
    # theta2(q) / (2 q^(1/4)) and theta3(q)
    theta2_scaled = sum(q ** (k * (k + 1)) for k in range(5))
    theta3 = 1.0 + 2.0 * sum(q ** (k * k) for k in range(1, 6))
    ratio = theta2_scaled / theta3
    s = 4.0 * math.exp(-y) * ratio * ratio
    c = math.sqrt((1.0 - s) * (1.0 + s))
    return (c, s) if swap else (s, c)


def mu_inv(y: float) -> float:
    """Inverse of mu, in closed form by the theta series of _mu_inv_pair.

    For y below about 0.13 the true preimage rounds to 1; the result then
    stays inside the open interval at the nearest double below 1.  Callers
    that need the complementary modulus accurately should invert
    pi^2/(4 y) instead and keep the small value.
    """
    if not 0 < y < math.inf:
        raise ValueError("mu_inv needs finite y > 0")
    r, _ = _mu_inv_pair(y)
    return min(r, math.nextafter(1.0, 0.0))


def phi_K(K: float, r: float) -> float:
    """Hersch-Pfluger distortion function mu_inv(mu(r)/K) on [0, 1].

    Increasing homeomorphism of [0, 1] onto itself for every K > 0; the
    endpoints are fixed by continuity.
    """
    if K <= 0:
        raise ValueError("phi_K needs K > 0")
    if not 0 <= r <= 1:
        raise ValueError("phi_K needs r in [0, 1]")
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return 1.0
    if K == 1.0:
        return float(r)
    return mu_inv(mu(r) / K)


def gamma2(s: float) -> float:
    """Planar Grotzsch ring capacity, gamma2(s) = 2 pi / mu(1/s) for s > 1.

    Near s = 1 the modulus 1/s rounds to 1, so that side is evaluated
    through the complementary modulus via mu(r) mu(r') = (pi/2)^2.
    """
    if s <= 1.0:
        raise ValueError("gamma2 needs s > 1")
    if s <= math.sqrt(2.0):
        rp = math.sqrt((s - 1.0) * (s + 1.0)) / s
        return 8.0 / math.pi * mu(rp)
    return 2.0 * math.pi / mu(1.0 / s)


def tau2(t: float) -> float:
    """Planar Teichmuller ring capacity, tau2(t) = gamma2(sqrt(t+1))/2.

    For t <= 1 the modulus 1/sqrt(t+1) rounds to 1, so that side goes
    through the complementary modulus sqrt(t/(t+1)) instead.
    """
    if t <= 0.0:
        raise ValueError("tau2 needs t > 0")
    if t <= 1.0:
        return 4.0 / math.pi * mu(math.sqrt(t / (t + 1.0)))
    return math.pi / mu(1.0 / math.sqrt(t + 1.0))


def gamma2_inv(y: float) -> float:
    """Inverse of gamma2 on (0, oo); s = 1 / mu_inv(2 pi / y)."""
    if not 0 < y < math.inf:
        raise ValueError("gamma2_inv needs finite y > 0")
    x = 2.0 * math.pi / y
    # mu_inv underflows to 0 when the true preimage exceeds float range;
    # x overflows for y below 2 pi / DBL_MAX, where it exceeds it as well
    r = mu_inv(x) if x < math.inf else 0.0
    return 1.0 / r if r > 0.0 else math.inf


def tau2_inv(y: float) -> float:
    """Inverse of tau2 on (0, oo): t = (r'/r)^2 with (r, r') = _mu_inv_pair(pi/y).

    Both moduli come from the theta series, so the result keeps its
    relative accuracy at either end of (0, oo).
    """
    if not 0 < y < math.inf:
        raise ValueError("tau2_inv needs finite y > 0")
    r, rp = _mu_inv_pair(math.pi / y)
    # r underflows to 0 when the true result exceeds float range
    ratio = rp / r if r > 0.0 else math.inf
    return ratio * ratio


def omega_sphere(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1): 2 pi^(n/2) / Gamma(n/2)."""
    n = check_dimension(n)
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def lambda_n_interval(n: int) -> Interval:
    """Grotzsch constant bracket: exactly 4 in the plane, [4, 2 e^(n-1)) above.

    The open upper end is returned as a closed endpoint, so enclosures built
    from it are conservative.
    """
    n = check_dimension(n)
    if n == 2:
        return Interval(4.0, 4.0)
    return Interval(4.0, 2.0 * math.exp(float(n - 1)))


def tau_n_bounds(n: int, t: float) -> Interval:
    """Enclosure of the Teichmuller ring capacity in dimension n at t > 0.

    Exact (degenerate) for n = 2.  For n >= 3 the growth-function sandwich
    t + 1 <= Psi(t) <= lambda_n^2 (t + 1) gives

        omega (log(lambda_hi^2 (t+1)))^(1-n) <= tau_n(t) <= omega (log(t+1))^(1-n)

    with omega = omega_sphere(n); log(t+1) is taken as log1p(t).  The right
    end is inf where it passes float range (t below about 1e-154 for n = 3).
    """
    n = check_dimension(n)
    if not 0 < t < math.inf:
        raise ValueError("tau_n_bounds needs finite t > 0")
    if n == 2:
        return Interval.exact(tau2(t))
    log_t1 = math.log1p(t)
    lo = _envelope(n, 2.0 * math.log(lambda_n_interval(n).hi) + log_t1)
    return Interval(lo, _envelope(n, log_t1))


def gamma_n_bounds(n: int, s: float) -> Interval:
    """Enclosure of the Grotzsch ring capacity in dimension n at s > 1.

    Exact for n = 2; for n >= 3,

        omega (log(lambda_hi s))^(1-n) <= gamma_n(s) <= omega (log s)^(1-n),

    with a right end of inf where it passes float range (s next to 1).
    """
    n = check_dimension(n)
    if not 1 < s < math.inf:
        raise ValueError("gamma_n_bounds needs finite s > 1")
    if n == 2:
        return Interval.exact(gamma2(s))
    lo = _envelope(n, math.log(lambda_n_interval(n).hi * s))
    return Interval(lo, _envelope(n, math.log(s)))


def _envelope(n: int, log_value: float) -> float:
    """omega_sphere(n) log_value^(1-n); past float range the answer is inf."""
    try:
        return omega_sphere(n) * log_value ** (1 - n)
    except OverflowError:
        return math.inf


def _expm1(x: float) -> float:
    try:
        return math.expm1(x)
    except OverflowError:  # past float range the answer is inf
        return math.inf


def _falling_hi(f: Callable[[float], float], lo: float) -> float:
    """Upper end f(lo) of a decreasing f at the lower end lo of its argument.

    Where lo overflowed to +inf the argument exceeds DBL_MAX, so its value
    lies below f(DBL_MAX); that, rounded up, bounds it from above and stays
    positive where f(inf) reads 0.
    """
    if lo == math.inf:
        return math.nextafter(f(sys.float_info.max), math.inf)
    return f(lo)


def tau_n_inv_bounds(n: int, y: float) -> Interval:
    """Enclosure of the inverse capacity: any t with tau_n(t) = y lies inside.

    n = 2 is exact via tau2_inv, but one step wider each way where that is
    subnormal or 0, as its last rounding may move it a whole step.  For
    n >= 3 the envelopes behind tau_n_bounds invert in closed form: with
    L = (omega / y)^(1/(n-1)), the right end is expm1(L) and the left end
    expm1(L - 2 log lambda_hi), clamped to 0 when y is at least the lower
    envelope's limit at t = 0.  An end past float range is inf.
    """
    n = check_dimension(n)
    if not 0 < y < math.inf:
        raise ValueError("tau_n_inv_bounds needs finite y > 0")
    if n == 2:
        v = tau2_inv(y)
        if v >= sys.float_info.min:
            return Interval.exact(v)
        return Interval(math.nextafter(v, 0.0), math.nextafter(v, math.inf))
    L = (omega_sphere(n) / y) ** (1.0 / (n - 1))
    lo = max(0.0, _expm1(L - 2.0 * math.log(lambda_n_interval(n).hi)))
    return Interval(lo, _expm1(L))


def gamma_n_inv_bounds(n: int, y: float) -> Interval:
    """Enclosure of the inverse Grotzsch capacity: any s with gamma_n(s) = y.

    n = 2 is exact via gamma2_inv.  For n >= 3 the envelopes behind
    gamma_n_bounds invert in closed form: with L = (omega / y)^(1/(n-1)),
    s lies in [max(1, e^L / lambda_hi), e^L]; an end past float range is
    inf.  These are the envelopes of tau_n_inv_bounds, since
    gamma_n(s) = 2^(n-1) tau_n(s^2 - 1).
    """
    n = check_dimension(n)
    if not 0 < y < math.inf:
        raise ValueError("gamma_n_inv_bounds needs finite y > 0")
    if n == 2:
        return Interval.exact(gamma2_inv(y))
    L = (omega_sphere(n) / y) ** (1.0 / (n - 1))
    lo = 1.0 + _expm1(L - math.log(lambda_n_interval(n).hi))
    return Interval(max(1.0, lo), 1.0 + _expm1(L))


def eta_K_n(n: int, K: float, t: float) -> Interval:
    """Quasisymmetry control eta_{K,n}(t) = tau_n^{-1}(tau_n(t) / K).

    The capacity enclosure ends are pushed through the inverse enclosure in
    the directionally safe order: the capacities decrease, so the smallest
    eta comes from the largest capacity value and the lower inverse end.
    For n = 2 one inversion serves both ends, as the capacity is exact.
    """
    n = check_dimension(n)
    if not 0 < K < math.inf:
        raise ValueError("eta_K_n needs finite K > 0")
    if not 0 < t < math.inf:
        raise ValueError("eta_K_n needs finite t > 0")
    tb = tau_n_bounds(n, t)
    at_hi = tau_n_inv_bounds(n, tb.hi / K)
    at_lo = at_hi if tb.is_degenerate else tau_n_inv_bounds(n, tb.lo / K)
    return Interval(at_hi.lo, at_lo.hi)


def phi_Kn_lower(n: int, K: float, r: float) -> float:
    """Explicit lower bound for phi_{1/K, n}(r) when K >= 1.

    Returns the better of lambda_hi^(1-beta) r^beta and 2^(1-beta) K^(-beta)
    r^beta, beta = K^(1/(n-1)).  The first term uses the upper end of the
    lambda_n bracket, the safe side for a lower bound.
    """
    n = check_dimension(n)
    if not 1 <= K < math.inf:
        raise ValueError("phi_Kn_lower needs finite K >= 1")
    if not 0 <= r <= 1:
        raise ValueError("phi_Kn_lower needs r in [0, 1]")
    beta = K ** (1.0 / (n - 1))
    lam_hi = lambda_n_interval(n).hi
    rb = r**beta
    return max(lam_hi ** (1.0 - beta) * rb, 2.0 ** (1.0 - beta) * K ** (-beta) * rb)


def teichmuller_p_circle(theta: float) -> float:
    """Extremal distance functional of the punctured plane on the unit circle.

    p(e^(i theta)) = y + 1/y with y = (2/pi) mu(cos(theta/4)), which reduces
    to the AGM ratio y = agm(1, sin(theta/4)) / agm(1, cos(theta/4)).  The
    sine and cosine are taken straight from theta, so neither modulus loses
    digits near the endpoints.
    """
    if not 0.0 < theta < 2.0 * math.pi:
        raise ValueError("teichmuller_p_circle needs theta in (0, 2 pi)")
    q = 0.25 * theta
    y = agm(1.0, math.sin(q)) / agm(1.0, math.cos(q))
    return y + 1.0 / y
