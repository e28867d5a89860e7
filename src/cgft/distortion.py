"""Quantitative distortion bounds for quasiconformal maps under boundary
or point normalizations.

Three families of results live here.

* Maps of the closed ball that equal the identity on the boundary sphere:
  hyperbolic and euclidean displacement bounds driven by the constant
  ``a = phi_{1/K,n}(1/sqrt 2)^2``, the cylinder analogue, and the largest
  displacement of the radial stretch, one map of that class.
* Maps of the whole space normalized at 0, e1 and infinity: quasisymmetry
  control of ``|f(x)|``, two-sided power growth envelopes, the lens-set
  geometry bounding ``|f(x) - x|``, and the distance-ratio transfer bound.
* The tangent-line domination machinery ``log(2^(mx-m+1) x^(nx) - 1)
  <= (2m log2 + 2n)(x - 1)`` that calibrates the linear displacement
  rates, including its guaranteed and sharp right endpoints.

Scalar results are plain floats; quantities only known through an
enclosure for n >= 3 come back as ``Interval``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._roots import bisect_monotone
from .special_functions import (
    Interval,
    check_dimension,
    ell_K,
    eta_K_n,
    phi_K,
    phi_Kn_lower,
)

__all__ = [
    "DistortionBound",
    "PreconditionError",
    "ValidityWindowError",
    "GENERAL_LINEAR_RATE",
    "PLANAR_LINEAR_RATE",
    "QUANTITY_LABELS",
    "annular_image_bounds",
    "cylinder_bound",
    "distortion_bound",
    "eps_to_K",
    "eta_star_one_bound",
    "id_boundary_euclid_bound",
    "id_boundary_rho_bound",
    "j_distortion_bound",
    "lens_admissible_configs",
    "lens_diam_bound_linear",
    "lens_diam_bound_sqrt",
    "lens_diam_brute",
    "lens_diam_exact",
    "lens_window",
    "radial_stretch_delta",
    "tangent_domination_endpoint",
    "tangent_domination_lhs",
    "tangent_domination_M",
    "tangent_domination_rhs",
    "two_point_growth_bounds",
]

_LOG2 = math.log(2.0)
_ROOT_HALF = math.sqrt(0.5)

#: Slope of the dimension-free linear displacement rate (K - 1) -> rho bound.
GENERAL_LINEAR_RATE = 4.0 + 6.0 * _LOG2

#: Sharp planar slope: (4 / pi) times the square of the complete elliptic
#: integral at 1/sqrt 2; log eta_{K,2}(1) <= PLANAR_LINEAR_RATE * (K - 1).
PLANAR_LINEAR_RATE = 4.0 / math.pi * ell_K(_ROOT_HALF) ** 2


class ValidityWindowError(ValueError):
    """A bound was requested outside the K (or n) window it is proved in."""


class PreconditionError(ValueError):
    """Geometric preconditions of a bound are not met by the inputs."""


QUANTITY_LABELS = (
    "rho_displacement",
    "euclid_displacement",
    "origin_displacement",
    "cylinder_qh_displacement",
    "growth_envelope",
    "lens_diameter",
    "j_transfer",
)


@dataclasses.dataclass(frozen=True)
class DistortionBound:
    """A named distortion bound together with its validity window.

    ``value`` is a float for scalar bounds and an ``Interval`` when the
    quantity is only enclosed (n >= 3 capacity envelopes).  ``validity``
    spells out the K-range and dimension the bound is proved for, and
    ``provenance`` says which kind of estimate produced it.
    """

    quantity: str
    value: float | Interval
    validity: str
    provenance: str

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITY_LABELS:
            raise ValueError(f"unknown distortion quantity {self.quantity!r}")
        low = self.value.lo if isinstance(self.value, Interval) else self.value
        if not low >= 0.0:
            raise ValueError(f"distortion bound must be nonnegative, got {self.value}")
        if not self.validity or not self.provenance:
            raise ValueError("validity and provenance must be nonempty")


# ---------------------------------------------------------------------------
# Identity-boundary maps of the unit ball
# ---------------------------------------------------------------------------


def _boundary_identity_a(n: int, K: float) -> Interval:
    """Enclosure of a = phi_{1/K,n}(1/sqrt 2)^2; exact for n = 2.

    For K >= 1 the true value never exceeds 1/2, which serves as the upper
    end of the n >= 3 enclosure.
    """
    if n == 2:
        a = phi_K(1.0 / K, _ROOT_HALF) ** 2
        return Interval.exact(a)
    return Interval(phi_Kn_lower(n, K, _ROOT_HALF) ** 2, 0.5)


def id_boundary_rho_bound(n: int, K: float) -> Interval:
    """Hyperbolic displacement bound for K-qc maps fixing the boundary sphere.

    Every point of the ball moves hyperbolic distance at most
    log((1 - a)/a) with a = phi_{1/K,n}(1/sqrt 2)^2, which equals
    log eta_{K,n}(1).  Exact (degenerate interval) for n = 2; for n >= 3
    both routes are intersected: the quasisymmetry enclosure at t = 1 and
    the explicit lower bound on a.
    """
    n = check_dimension(n)
    if K < 1.0:
        raise ValueError("id_boundary_rho_bound needs K >= 1")
    if K == 1.0:
        return Interval.exact(0.0)
    if n == 2:
        a = _boundary_identity_a(n, K).lo
        if a < sys.float_info.min:
            # a = mu_inv(K pi/2)^2 leaves the normal range from K ~ 225, where
            # mu_inv(y) is 4 e^(-y) to double precision, so
            # log((1 - a)/a) = K pi - log 16
            return Interval.exact(math.pi * K - 4.0 * _LOG2)
        return Interval.exact(math.log((1.0 - a) / a))
    eta = eta_K_n(n, K, 1.0)
    a_lo = _boundary_identity_a(n, K).lo
    hi = math.log((1.0 - a_lo) / a_lo)
    if math.isfinite(eta.hi):
        hi = min(hi, math.log(eta.hi))
    lo = math.log(eta.lo) if eta.lo > 1.0 else 0.0
    return Interval(lo, hi)


def id_boundary_euclid_bound(n: int, K: float) -> float:
    """Euclidean displacement bound for K-qc maps fixing the boundary sphere.

    Returns the smallest applicable of three valid bounds: the hyperbolic
    route 2 tanh(rho_bound / 4); the dimension-free linear rate
    (9/2)(K - 1) proved for K <= 17; and for n = 2 the sharp linear rate
    (PLANAR_LINEAR_RATE / 2)(K - 1) valid for every K >= 1.
    """
    n = check_dimension(n)
    if K < 1.0:
        raise ValueError("id_boundary_euclid_bound needs K >= 1")
    if K == 1.0:
        return 0.0
    if n >= 3 and K > 17.0:
        raise ValidityWindowError(
            "the displacement rate for n >= 3 is only proved for K <= 17"
        )
    candidates = [2.0 * math.tanh(0.25 * id_boundary_rho_bound(n, K).hi)]
    if K <= 17.0:
        candidates.append(4.5 * (K - 1.0))
    if n == 2:
        candidates.append(0.5 * PLANAR_LINEAR_RATE * (K - 1.0))
    return min(candidates)


def radial_stretch_delta(n: int, K: float) -> float:
    """Largest displacement (1 - alpha) alpha^(alpha/(1-alpha)) of the radial stretch.

    The radial stretch |z|^(alpha-1) z, alpha = K^(1/(1-n)), is a K-qc map
    fixing the boundary sphere; this value is its own largest displacement
    and always exceeds (1 - alpha)/e.  Other maps of the class move a point
    farther, so it is not the extremal displacement.
    """
    n = check_dimension(n)
    if not K > 1.0:
        raise ValueError("radial_stretch_delta needs K > 1")
    alpha = K ** (1.0 / (1.0 - n))
    return (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))


def cylinder_bound(n: int, K: float) -> float:
    """Quasihyperbolic displacement bound on the infinite cylinder.

    For K-qc maps of the cylinder fixing its boundary the displacement in
    the cylinder's quasihyperbolic metric is at most
    sqrt(e^(18(K-1)) - 1) + 18(K - 1); zero at K = 1 and increasing.
    """
    check_dimension(n)
    if K < 1.0:
        raise ValueError("cylinder_bound needs K >= 1")
    grow = math.expm1(18.0 * (K - 1.0))
    return math.sqrt(grow) + 18.0 * (K - 1.0)


# ---------------------------------------------------------------------------
# Maps normalized at 0, e1, infinity: quasisymmetry control of |f(x)|
# ---------------------------------------------------------------------------


def _solve_upper(eta_hi: float, m: float, M: float) -> float:
    """Upper end of |f(x)|: (eta M - m)/(1 + eta), with the eta -> oo limit."""
    if math.isinf(eta_hi):
        return M
    return (eta_hi * M - m) / (1.0 + eta_hi)


def _solve_lower(eta_lo: float, m: float, M: float) -> float:
    """Lower end of |f(x)|: max(0, (eta' m - M)/(1 + eta'))."""
    if math.isinf(eta_lo):
        return m
    return max(0.0, (eta_lo * m - M) / (1.0 + eta_lo))


def annular_image_bounds(n: int, K: float, m: float, M: float, absx: float) -> Interval:
    """Admissible range of |f(x)| for maps sending the unit ball between
    the balls of radius m and M and fixing infinity.

    With s = (1 + |x|)/(1 - |x|), quasisymmetry control gives
    (m + |f|)/(M - |f|) <= eta_{K,n}(s) and
    eta_{1/K,n}(s) <= (M + |f|)/(m - |f|); both rearrange monotonically,
    yielding the interval
    [max(0, (eta' m - M)/(1 + eta')), (eta M - m)/(1 + eta)].
    For n >= 3 the safe enclosure ends are used on each side.
    """
    n = check_dimension(n)
    if K < 1.0:
        raise ValueError("annular_image_bounds needs K >= 1")
    if m > 1.0 or M < 1.0:
        raise ValueError("annular_image_bounds needs m <= 1 <= M")
    if not 0.0 < m:
        raise ValueError("annular_image_bounds needs m > 0")
    if not 0.0 <= absx < 1.0:
        raise ValueError("annular_image_bounds needs absx in [0, 1)")
    s = (1.0 + absx) / (1.0 - absx)
    if K == 1.0:
        eta_hi = eta_prime_lo = s
    else:
        eta_hi = eta_K_n(n, K, s).hi
        eta_prime_lo = eta_K_n(n, 1.0 / K, s).lo
    return Interval(_solve_lower(eta_prime_lo, m, M), _solve_upper(eta_hi, m, M))


def eta_star_one_bound(K: float) -> float:
    """Best published upper bound for the optimal quasisymmetry constant of
    three-point normalized K-qc maps at argument 1.

    The minimum of exp((4 sqrt 2 - log(K-1))(K^2 - 1)) and
    exp(4K(K+1) sqrt(K-1)), together with the refined candidate
    1 + 600 (K-1) log(1/(K-1)) available for K < 4/3.
    """
    if not K > 1.0:
        raise ValueError("eta_star_one_bound needs K > 1")
    candidates = []
    for exponent in (
        (4.0 * math.sqrt(2.0) - math.log(K - 1.0)) * (K * K - 1.0),
        4.0 * K * (K + 1.0) * math.sqrt(K - 1.0),
    ):
        try:
            candidates.append(math.exp(exponent))
        except OverflowError:
            candidates.append(math.inf)
    if K < 4.0 / 3.0:
        candidates.append(1.0 + 600.0 * (K - 1.0) * math.log(1.0 / (K - 1.0)))
    return min(candidates)


def _growth_constants(n: int, K: float) -> tuple[float, float, float]:
    """alpha = K^(1/(1-n)), beta = 1/alpha and log c3 = 60 sqrt(K-1); the
    envelope constant c3 itself overflows from K ~ 141."""
    alpha = K ** (1.0 / (1.0 - n))
    return alpha, 1.0 / alpha, 60.0 * math.sqrt(K - 1.0)


def two_point_growth_bounds(n: int, K: float, absx: float) -> Interval:
    """Two-sided power envelope for |f(x)| under the 0, e1, infinity
    normalization, valid for K in (1, 2].

    For |x| <= 1 the range is [|x|^beta / c3, c3 |x|^alpha], and for
    |x| > 1 the exponents trade places, with alpha = K^(1/(1-n)),
    beta = 1/alpha and c3 = exp(60 sqrt(K-1)).
    """
    n = check_dimension(n)
    if not 1.0 < K <= 2.0:
        raise ValidityWindowError("two_point_growth_bounds needs K in (1, 2]")
    if not absx > 0.0:
        raise ValueError("two_point_growth_bounds needs absx > 0")
    alpha, beta, log_c3 = _growth_constants(n, K)
    c3 = math.exp(log_c3)
    if absx <= 1.0:
        return Interval(absx**beta / c3, c3 * absx**alpha)
    return Interval(absx**alpha / c3, c3 * absx**beta)


def eps_to_K(eps: float) -> float:
    """Largest K guaranteeing | |f(x)| - |x| | <= eps for normalized maps.

    Equals (log(1 + eps)/60)^2 + 1, capped at 2 because the power
    envelope behind it is only valid for K <= 2.  Increasing in eps.
    """
    if not eps > 0.0:
        raise ValueError("eps_to_K needs eps > 0")
    return min((math.log1p(eps) / 60.0) ** 2 + 1.0, 2.0)


def j_distortion_bound(n: int, K: float, j_xy: float) -> float:
    """Distance-ratio transfer bound for maps of punctured space fixing 0.

    j(f(x), f(y)) <= (c3/alpha) max(j(x,y)^alpha, j(x,y)) with
    alpha = K^(1/(1-n)) and c3 = exp(60 sqrt(K-1)); the factor tends to 1
    as K -> 1.  Valid for K in (1, 2].
    """
    n = check_dimension(n)
    if not 1.0 < K <= 2.0:
        raise ValidityWindowError("j_distortion_bound needs K in (1, 2]")
    if not j_xy >= 0.0:
        raise ValueError("j_distortion_bound needs j_xy >= 0")
    alpha, _, log_c3 = _growth_constants(n, K)
    return math.exp(log_c3) / alpha * max(j_xy**alpha, j_xy)


# ---------------------------------------------------------------------------
# Lens sets: the annulus-intersection geometry bounding |f(x) - x|
# ---------------------------------------------------------------------------


def _planar_point(x: complex | Sequence[float]) -> tuple[float, float]:
    if isinstance(x, complex):
        return float(x.real), float(x.imag)
    arr = np.asarray(x, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"expected a planar point, got shape {arr.shape}")
    return float(arr[0]), float(arr[1])


def _lens_radii(x: complex | Sequence[float]) -> tuple[float, float, float, float]:
    px, py = _planar_point(x)
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError("the lens construction needs a finite x")
    r1 = math.hypot(px, py)
    r2 = math.hypot(px - 1.0, py)
    r = max(r1, r2)
    if not math.isfinite(r * r):  # the lens formulas square the radii
        raise ValueError("the lens construction needs |x|^2 and |x - e1|^2 finite")
    if r1 == 0.0 or r2 == 0.0:
        raise ValueError("the lens construction needs x distinct from 0 and e1")
    return px, py, r1, r2


def lens_diam_bound_sqrt(x: complex | Sequence[float], eps: float) -> float:
    """Square-root diameter bound for the lens set around x.

    The intersection of the spherical annuli of widths 2 eps around the
    circles through x centered at 0 and at e1 has diameter at most
    4 sqrt(eps) (min(|x|, |x - e1|) + 1), for eps < 1.
    """
    _, _, r1, r2 = _lens_radii(x)
    if not 0.0 < eps < 1.0:
        raise ValueError("lens_diam_bound_sqrt needs eps in (0, 1)")
    return 4.0 * math.sqrt(eps) * (min(r1, r2) + 1.0)


def lens_window(x: complex | Sequence[float]) -> float:
    """The eps window of the linear lens bound:
    min(1, (1 + |x-e1| - |x|)/2, (|x| + |x-e1| - 1)/2)."""
    _, _, r1, r2 = _lens_radii(x)
    return min(1.0, 0.5 * (1.0 + r2 - r1), 0.5 * (r1 + r2 - 1.0))


def lens_diam_bound_linear(
    x: complex | Sequence[float], eps: float, omega_angle: float
) -> float:
    """Linear diameter bound eps (1 + 70/omega) for the lens set around x.

    Requires |x| < 2, x at least as close to e1 as to 0, the angle at the
    origin between e1 and x at least omega_angle > 0, and eps inside the
    window min(1, (1 + |x-e1| - |x|)/2, (|x| + |x-e1| - 1)/2).
    """
    px, py, r1, r2 = _lens_radii(x)
    if not omega_angle > 0.0:
        raise PreconditionError("lens_diam_bound_linear needs omega_angle > 0")
    if not r1 < 2.0:
        raise PreconditionError("lens_diam_bound_linear needs |x| < 2")
    if not r2 <= r1:
        raise PreconditionError("lens_diam_bound_linear needs |x - e1| <= |x|")
    angle = math.atan2(abs(py), px)
    if not angle >= omega_angle:
        raise PreconditionError(
            f"angle at the origin {angle:.6f} is below omega_angle {omega_angle:.6f}"
        )
    window = lens_window(x)
    if not 0.0 < eps < window:
        raise PreconditionError(
            f"eps {eps} outside the admissible window (0, {window})"
        )
    return eps * (1.0 + 70.0 / omega_angle)


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull (monotone chain) of an (k, 2) array, k >= 1."""
    # Exact prefilter in x order, ties in any order: a point with higher
    # points both before and after it lies strictly below the upper hull
    # (likewise for lower points and the lower hull), so only running
    # extrema of y from either end can be vertices.
    pts = points[np.argsort(points[:, 0])]
    y = pts[:, 1]
    rev = y[::-1]
    pts = pts[
        (y >= np.maximum.accumulate(y))
        | (y >= np.maximum.accumulate(rev)[::-1])
        | (y <= np.minimum.accumulate(y))
        | (y <= np.minimum.accumulate(rev)[::-1])
    ]
    pts = np.unique(pts, axis=0)  # lexicographic, as the chain needs
    if len(pts) <= 2:
        return pts

    def half(chain_pts: list[list[float]]) -> list[list[float]]:
        out: list[list[float]] = []
        for p in chain_pts:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    rows = pts.tolist()  # Python floats: the same doubles, without numpy scalars
    lower = half(rows)
    upper = half(rows[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def _polar_window(
    in1: float, out1: float, in2: float, out2: float
) -> tuple[float, float, float]:
    """(rho_lo, theta_lo, theta_hi): the lens lies in rho_lo <= |p| <= out1,
    theta_lo <= |arg p| <= theta_hi.  On |p| = rho, |p - e1| <= R holds for
    |arg p| up to the angle where the two circles meet.  It grows with R; over
    rho it is least at an end of [rho_lo, out1] and greatest there or at
    sqrt(1 - R^2).  Its half angle has sin^2 = (R^2 - (rho - 1)^2)/(4 rho),
    taken in exact rationals with cos^2 = 1 - sin^2, so that it stays accurate
    where the circles nearly touch; the window is widened by a relative hair.
    """

    def angle(rho: float, R: float) -> float:  # the limit at rho = 0
        if rho == 0.0:
            return 0.0 if R < 1.0 else math.pi if R > 1.0 else 0.5 * math.pi
        q, S = Fraction(rho), Fraction(R)
        s2 = min(max((S * S - (q - 1) ** 2) / (4 * q), 0), 1)  # in [0, 1]: no overflow
        return 2.0 * math.atan2(math.sqrt(s2), math.sqrt(1 - s2))

    lo = max(in1, 0.0)
    mid = min(max(math.sqrt(max((1.0 - out2) * (1.0 + out2), 0.0)), lo), out1)
    theta_lo = min(angle(rho, max(in2, 0.0)) for rho in (lo, out1))
    theta_hi = max(angle(rho, out2) for rho in (lo, mid, out1))
    return lo, theta_lo * (1.0 - 2.0**-48), min(theta_hi * (1.0 + 2.0**-48), math.pi)


def lens_diam_brute(
    x: complex | Sequence[float], eps: float, N: int, *, seed: int = 0
) -> float:
    """Monte-Carlo lower estimate of the lens-set diameter.

    Rejection-samples up to N points uniformly from the lens {p : |p| in
    [r1 - eps, r1 + eps], |p - e1| in [r2 - eps, r2 + eps]}, as np.hypot
    decides, and returns their largest distance, over the convex hull.  The
    proposals, at most 100 N, are uniform on the lens's ``_polar_window``,
    so the accepted points are uniform on the lens and the estimate is a
    witness that stays below ``lens_diam_exact`` up to rounding.  It is 0
    with fewer than two points accepted, and where an annulus has no width
    in floating point (r - eps == r + eps): hypot's rounding alone would
    admit points there, up to about 2.4e-8 from the set near a tangency.
    """
    if N < 10**4:
        raise ValueError("lens_diam_brute needs N >= 10^4 samples")
    if not 0.0 < eps < math.inf:
        raise ValueError("lens_diam_brute needs finite eps > 0")
    _, _, r1, r2 = _lens_radii(x)
    out1, in1 = r1 + eps, r1 - eps
    out2, in2 = r2 + eps, r2 - eps
    if in1 == out1 or in2 == out2:
        return 0.0
    lo, theta_lo, theta_hi = _polar_window(in1, out1, in2, out2)
    rng = np.random.default_rng(seed)
    budget = 100 * N
    accepted: list[np.ndarray] = []
    got = 0
    while budget > 0 and got < N:
        batch = min(budget, 1 << 16)
        rho = out1 * np.sqrt(rng.uniform((lo / out1) ** 2, 1.0, batch))
        u = rng.uniform(-1.0, 1.0, batch)
        theta = np.copysign(theta_lo, u) + u * (theta_hi - theta_lo)
        px, py = rho * np.cos(theta), rho * np.sin(theta)
        d1, d2 = np.hypot(px, py), np.hypot(px - 1.0, py)
        hit = (d1 <= out1) & (d1 >= in1) & (d2 <= out2) & (d2 >= in2)
        keep = np.column_stack((px[hit], py[hit]))[: N - got]
        accepted.append(keep)
        got += len(keep)
        budget -= batch
    if got < 2:
        return 0.0
    hull = _convex_hull(np.concatenate(accepted))
    diff = hull[:, None, :] - hull[None, :, :]
    return float(np.hypot(diff[..., 0], diff[..., 1]).max())


def lens_diam_exact(x: complex | Sequence[float], eps: float) -> float:
    """Diameter of the lens set around x, the set ``lens_diam_brute`` samples:
    {p : |p| in [r1 - eps, r1 + eps], |p - e1| in [r2 - eps, r2 + eps]}.

    A farthest pair lies on extreme points of the set: corners, or interior
    points of the two outer arcs (an inner arc is concave, so its interior
    points are never extreme).  At a stationary pair, each point inside an
    arc is collinear with that arc's centre and the other point.  So the
    diameter is the largest distance among these candidates:

    * corners: every real intersection of a circle about 0 with one about
      e1, each of which lies in the set (a radius r - eps <= 0 means that
      inner circle is absent);
    * axis points c +- R of each outer circle (centre c, radius R), when in
      the set: a pair inside arcs about both centres lies on the real axis;
    * far points c + R (c - p)/|c - p| of each corner or axis point p on
      each outer circle, when in the set.

    On an outer circle p = c + R d e^(i theta), with d = +-1 pointing to the
    other centre, the distance to that centre is sqrt(R^2 + 1 - 2 R cos
    theta), monotone in |theta|, so membership is one window lo <= cos theta
    <= hi.  Its ends are the corners on the circle, or the axis points where
    the window reaches +-1.  The far point of an end on its own circle is
    its antipode, and when lo <= 0 <= hi, so that the arc holds antipodal
    pairs, one of the two ends has its antipode in the window: the 2 R
    pairs are among the candidates.  The set holds x, so some window is
    nonempty and there are candidates.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("lens_diam_exact needs finite eps > 0")
    _, _, r1, r2 = _lens_radii(x)
    inner = (max(r1 - eps, 0.0), max(r2 - eps, 0.0))
    outer = (r1 + eps, r2 + eps)
    # the corners of the two inner circles; those on an outer circle are the
    # ends of its window
    corners: list[tuple[float, float]] = []
    if min(inner) > 0.0:
        cx = 0.5 * ((inner[0] - inner[1]) * (inner[0] + inner[1]) + 1.0)
        cy2 = (inner[0] - cx) * (inner[0] + cx)
        if cy2 >= 0.0:
            corners += [(cx, math.sqrt(cy2)), (cx, -math.sqrt(cy2))]
    arcs = []
    for k in (0, 1):
        c, d, R = float(k), 1.0 - 2.0 * k, outer[k]
        o, i = outer[1 - k], inner[1 - k]
        lo = max(-1.0, ((R - o) * (R + o) + 1.0) / (2.0 * R))
        hi = min(1.0, ((R - i) * (R + i) + 1.0) / (2.0 * R))
        if lo <= hi:
            arcs.append((c, d, R, lo, hi))
            for ct in (lo, hi):
                sy = R * math.sqrt((1.0 - ct) * (1.0 + ct))
                corners += [(c + R * d * ct, sy), (c + R * d * ct, -sy)]
    points = list(corners)
    for px, py in corners:
        for c, d, R, lo, hi in arcs:
            dist = math.hypot(c - px, py)
            if dist > 0.0 and lo <= d * (c - px) / dist <= hi:
                points.append((c + R * (c - px) / dist, -R * py / dist))
    return max(math.dist(p, q) for p, q in itertools.combinations(points, 2))


def lens_admissible_configs(
    count: int, seed: int = 0
) -> list[dict[str, float | tuple[float, float] | None]]:
    """Deterministic sample of lens configurations for oracle comparisons.

    Returns ``count`` dicts with keys ``x`` (planar point), ``eps`` and
    ``omega`` (None when the linear bound's preconditions do not apply).
    The first half are near-tangent collinear configurations x = -s where
    the lens is a single patch; the second half place x near e1 with a
    controlled origin angle so the linear bound's window is satisfied.
    """
    if count < 2:
        raise ValueError("lens_admissible_configs needs count >= 2")
    rng = np.random.default_rng(seed)
    configs: list[dict[str, float | tuple[float, float] | None]] = []
    n_collinear = count // 2
    for _ in range(n_collinear):
        s = rng.uniform(0.15, 1.5)
        lo, hi = math.log(1e-3), math.log(min(0.5, 0.6 * s))
        eps = math.exp(rng.uniform(lo, hi))
        configs.append({"x": (-s, 0.0), "eps": eps, "omega": None})
    for _ in range(count - n_collinear):
        theta = rng.uniform(0.05, 0.45)
        re = rng.uniform(0.55, 1.1)
        point = (re, re * math.tan(theta))
        # recover the angle exactly as the linear bound does, so the
        # angle >= omega precondition holds to the last ulp
        omega = math.atan2(point[1], point[0])
        window = lens_window(point)
        eps = rng.uniform(0.35, 0.85) * window
        configs.append({"x": point, "eps": eps, "omega": omega})
    return configs


# ---------------------------------------------------------------------------
# Tangent-line domination of the log-power expression
# ---------------------------------------------------------------------------


def _check_tangent_params(m: float, n: float) -> None:
    if not (m >= 1.0 and n >= 1.0):
        raise ValueError("tangent domination needs m >= 1 and n >= 1")


def tangent_domination_lhs(m: float, n: float, x: float) -> float:
    """log(2^(mx - m + 1) x^(nx) - 1), evaluated overflow-safely.

    With u = (mx - m + 1) log 2 + n x log x the value is
    log(e^u - 1) = u + log1p(-e^(-u)); zero at x = 1.
    """
    _check_tangent_params(m, n)
    if not x >= 1.0:
        raise ValueError("tangent_domination_lhs needs x >= 1")
    u = (m * x - m + 1.0) * _LOG2 + n * x * math.log(x)
    if u > 40.0:
        return u + math.log1p(-math.exp(-u))
    return math.log(math.expm1(u))


def tangent_domination_rhs(m: float, n: float, x: float) -> float:
    """The tangent line (2 m log 2 + 2 n)(x - 1) at x = 1 of the lhs."""
    _check_tangent_params(m, n)
    return (2.0 * m * _LOG2 + 2.0 * n) * (x - 1.0)


def tangent_domination_M(m: float, n: float) -> float:
    """Guaranteed right endpoint of the domination interval.

    The greater root of (mx - m + 1) log 2 + n x (x - 1) =
    log(1 + (n + m log 2)^2 / n): with t = (m log 2 - n)/(2n),
    M = sqrt(((m - 1) log 2 + log(1 + (n + m log 2)^2/n))/n + t^2) - t.
    Always exceeds 1.
    """
    _check_tangent_params(m, n)
    t = (m * _LOG2 - n) / (2.0 * n)
    c = (m - 1.0) * _LOG2 + math.log1p((n + m * _LOG2) ** 2 / n)
    return math.sqrt(c / n + t * t) - t


def _tangent_lhs_inverse(m: float, n: float, y: float) -> float:
    """Inverse of the increasing lhs on [1, oo)."""
    if y <= 0.0:
        return 1.0
    hi = 2.0
    while tangent_domination_lhs(m, n, hi) < y:
        hi *= 2.0
        if hi > 1e6:
            raise ArithmeticError("tangent lhs inverse bracket blew up")
    return bisect_monotone(
        lambda v: tangent_domination_lhs(m, n, v), y, 1.0, hi, xtol=1e-13
    )


def tangent_domination_endpoint(m: float, n: float) -> float:
    """Sharp right endpoint of the domination interval.

    The increasing, bounded iteration a_{k+1} = lhs^{-1}(rhs(a_k)) from
    a_0 = tangent_domination_M(m, n) converges to the point where the two
    sides meet again; iteration stops once a step falls below 1e-10.  The
    limit stays below 2^(2m/n) e^2.  For (m, n) = (3, 2) it exceeds 17.
    """
    _check_tangent_params(m, n)
    a = tangent_domination_M(m, n)
    for _ in range(200000):
        nxt = _tangent_lhs_inverse(m, n, tangent_domination_rhs(m, n, a))
        if abs(nxt - a) < 1e-10:
            return nxt
        a = nxt
    raise ArithmeticError("tangent domination endpoint iteration did not settle")


# ---------------------------------------------------------------------------
# Dispatcher producing labeled DistortionBound records
# ---------------------------------------------------------------------------


def distortion_bound(
    quantity: str,
    n: int,
    K: float,
    *,
    absx: float = 1.0,
    j_xy: float = 1.0,
    x: complex | Sequence[float] = (-1.0, 0.0),
    eps: float = 0.01,
) -> DistortionBound:
    """Evaluate a named distortion quantity as a DistortionBound record.

    ``absx`` feeds the growth envelope, ``j_xy`` the distance-ratio
    transfer, and ``x``/``eps`` the lens diameter (which does not depend
    on K).  Raises the underlying validity errors unchanged.
    """
    n = check_dimension(n)
    if quantity == "rho_displacement":
        return DistortionBound(
            quantity,
            id_boundary_rho_bound(n, K),
            f"K >= 1, n = {n}",
            "hyperbolic displacement of identity-boundary maps",
        )
    if quantity == "euclid_displacement":
        return DistortionBound(
            quantity,
            id_boundary_euclid_bound(n, K),
            "K >= 1, n = 2" if n == 2 else f"1 <= K <= 17, n = {n}",
            "euclidean displacement of identity-boundary maps",
        )
    if quantity == "origin_displacement":
        return DistortionBound(
            quantity,
            annular_image_bounds(n, K, 1.0, 1.0, 0.0).hi,
            f"K >= 1, n = {n}",
            "image of the origin under sphere-preserving normalization",
        )
    if quantity == "cylinder_qh_displacement":
        return DistortionBound(
            quantity,
            cylinder_bound(n, K),
            f"K >= 1, n = {n}",
            "quasihyperbolic displacement on the cylinder",
        )
    if quantity == "growth_envelope":
        return DistortionBound(
            quantity,
            two_point_growth_bounds(n, K, absx),
            f"K in (1, 2], n = {n}",
            "two-sided power growth under three-point normalization",
        )
    if quantity == "lens_diameter":
        return DistortionBound(
            quantity,
            lens_diam_bound_sqrt(x, eps),
            "any K (geometric bound), planar slice",
            "square-root diameter bound for the lens set",
        )
    if quantity == "j_transfer":
        return DistortionBound(
            quantity,
            j_distortion_bound(n, K, j_xy),
            f"K in (1, 2], n = {n}",
            "distance-ratio transfer on punctured space",
        )
    raise ValueError(f"unknown distortion quantity {quantity!r}")
