"""Euclidean inclusion radii for metric balls, and planar extremal rings.

For a point x of a proper subdomain, balls of the quasihyperbolic, the
capacity (mu), and the reciprocal-extremal-capacity metrics are squeezed
between Euclidean balls B(x, factor * d(x)); this module computes the
sharp factors.  It also covers a family of planar problems on the
punctured plane and punctured disk: the circumscribed ball of an
extremal-capacity level set, the moduli of three canonical curve
families in the punctured disk, and the algebraic thresholds at which
their comparisons flip.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from ._roots import bisect_monotone
from .special_functions import (
    Interval,
    _falling_hi,
    check_dimension,
    gamma_n_inv_bounds,
    mu_inv,
    tau2,
    tau_n_bounds,
    tau_n_inv_bounds,
)

__all__ = [
    "BallInclusionReport",
    "PuncturedDiskModuli",
    "DegenerateFamilyError",
    "quasiball_radii",
    "lambda_ball_constants",
    "mu_ball_constants",
    "circumscribed_lambda_radius",
    "punctured_disk_moduli",
    "joining_family_modulus",
    "inner_separating_modulus",
    "outer_separating_modulus",
    "antipodal_quartic",
    "antipodal_threshold",
    "puncture_irrelevance_radius",
    "antipodal_irrelevance_radius",
]


class DegenerateFamilyError(ValueError):
    """A curve-family modulus was requested for a degenerate configuration."""


@dataclass(frozen=True)
class BallInclusionReport:
    """Euclidean squeeze of a metric ball.

    The factors multiply the distance d(x) from the center to the
    boundary: B(x, inner * d(x)) is inside the metric ball, which is
    inside B(x, outer * d(x)).  ``aux_constants`` carries the raw
    theorem constants (with _lo/_hi suffixes when only an enclosure is
    available); ``validity_note`` records gates that were open or closed.
    """

    inner_euclid_radius_factor: float | None
    outer_euclid_radius_factor: float | None
    aux_constants: dict[str, float] = field(default_factory=dict)
    validity_note: str = ""

    def __post_init__(self) -> None:
        for v in (self.inner_euclid_radius_factor, self.outer_euclid_radius_factor):
            if v is not None and not v >= 0.0:
                raise ValueError("radius factors are nonnegative")
        inner, outer = self.inner_euclid_radius_factor, self.outer_euclid_radius_factor
        if inner is not None and outer is not None and inner > outer:
            raise ValueError("inner factor exceeds outer factor")
        for k, v in self.aux_constants.items():
            if not v >= 0.0:
                raise ValueError(f"constant {k} must be nonnegative")


class PuncturedDiskModuli(NamedTuple):
    """Moduli of the three canonical curve families in the punctured disk."""

    gamma0: float
    delta0: float
    delta1: float


def quasiball_radii(M: float) -> BallInclusionReport:
    """Euclidean squeeze of the quasihyperbolic ball of radius M.

    The factors 1 - e^(-M) and e^M - 1 hold in every proper subdomain
    and are sharp.
    """
    if not M > 0:
        raise ValueError("quasiball_radii needs M > 0")
    r = -math.expm1(-M)
    R = math.expm1(M)
    return BallInclusionReport(
        inner_euclid_radius_factor=r,
        outer_euclid_radius_factor=R,
        aux_constants={"M": M},
        validity_note="holds in every proper subdomain; factors multiply d(x)",
    )


def lambda_ball_constants(n: int, t: float) -> BallInclusionReport:
    """Euclidean squeeze of the level set {y : extremal capacity >= t}.

    Reports c1 = 1/(1 + tau_n_inv(t/sqrt 2)), c2 = sqrt(u/(1+u)) with
    u = tau_n_inv(2 t), and c3 = tau_n_inv(t/sqrt 2); the level set
    contains B(x, c2 d(x)) and sits inside B(x, c3 d(x)).  The
    quasihyperbolic outer radius log(1/(1 - c3)) is reported only when
    t > sqrt(2) tau_n(1), which forces c3 < 1.  Enclosure ends (suffixed
    _lo/_hi) in higher dimension, chosen so the reported squeeze stays
    valid; in the plane each constant is printed at its safe end.
    """
    n = check_dimension(n)
    if not t > 0:
        raise ValueError("lambda_ball_constants needs t > 0")
    c3 = tau_n_inv_bounds(n, t / math.sqrt(2.0))
    if 2.0 * t < math.inf:
        u = tau_n_inv_bounds(n, 2.0 * t)
    else:
        # 2 t overflows: tau_n_inv falls, so 0 < u <= tau_n_inv(DBL_MAX)
        u = Interval(0.0, tau_n_inv_bounds(n, sys.float_info.max).hi)
    c1_lo = 1.0 / (1.0 + c3.hi)
    c1_hi = _falling_hi(lambda c: 1.0 / (1.0 + c), c3.lo)
    c2_lo = math.sqrt(u.lo / (1.0 + u.lo)) if math.isfinite(u.lo) else 1.0
    c2_hi = math.sqrt(u.hi / (1.0 + u.hi)) if math.isfinite(u.hi) else 1.0

    if n == 2:
        aux = {"c1": c1_lo, "c2": c2_lo, "c3": c3.hi}
    else:
        aux = {
            "c1_lo": c1_lo, "c1_hi": c1_hi,
            "c2_lo": c2_lo, "c2_hi": c2_hi,
            "c3_lo": c3.lo, "c3_hi": c3.hi,
        }
    aux["k_radius_inner"] = math.log1p(c2_lo)
    # strict-inequality gate, conservative by a part in 1e12 so the exact
    # threshold stays closed under roundoff; c3 < 1 guards the formula
    threshold = math.sqrt(2.0) * tau_n_bounds(n, 1.0).hi
    if t > threshold * (1.0 + 1e-12) and c3.hi < 1.0:
        aux["k_radius_outer"] = -math.log1p(-c3.hi)
        note = "quasihyperbolic outer radius included (t > sqrt(2) tau_n(1))"
    else:
        note = "quasihyperbolic outer radius omitted (needs t > sqrt(2) tau_n(1))"
    return BallInclusionReport(
        inner_euclid_radius_factor=c2_lo,
        outer_euclid_radius_factor=c3.hi,
        aux_constants=aux,
        validity_note=note,
    )


def mu_ball_constants(n: int, t: float) -> BallInclusionReport:
    """Euclidean squeeze of the capacity-metric ball {y : mu(x, y) < t}.

    Reports d1 = u/(1+u), d2 = 1/gamma_n_inv(t) and d3 = 1/u with
    u = tau_n_inv(t); the ball contains
    B(x, d2 d(x)) and sits inside B(x, d3 d(x)), and the constants are
    best possible for a domain with connected nondegenerate boundary.
    The quasihyperbolic outer radius log(1/(1 - d3)) is reported only
    when t < tau_n(1), which forces d3 < 1.
    """
    n = check_dimension(n)
    if not t > 0:
        raise ValueError("mu_ball_constants needs t > 0")
    u = tau_n_inv_bounds(n, t)
    d1_lo = u.lo / (1.0 + u.lo) if math.isfinite(u.lo) else 1.0
    d1_hi = u.hi / (1.0 + u.hi) if math.isfinite(u.hi) else 1.0
    s = gamma_n_inv_bounds(n, t)
    d2_lo = 1.0 / s.hi
    d2_hi = _falling_hi(lambda v: 1.0 / v, s.lo)
    d3_lo = 1.0 / u.hi if u.hi > 0.0 else math.inf
    d3_hi = _falling_hi(lambda v: 1.0 / v if v > 0.0 else math.inf, u.lo)

    if n == 2:
        aux = {"d1": d1_lo, "d2": d2_lo, "d3": d3_hi}
    else:
        aux = {
            "d1_lo": d1_lo, "d1_hi": d1_hi,
            "d2_lo": d2_lo, "d2_hi": d2_hi,
            "d3_lo": d3_lo, "d3_hi": d3_hi,
        }
    # strict-inequality gate, conservative by a part in 1e12 so the exact
    # threshold stays closed under roundoff; d3 < 1 guards the formula
    threshold = tau_n_bounds(n, 1.0).lo
    if t < threshold * (1.0 - 1e-12) and d3_hi < 1.0:
        aux["k_radius_outer"] = -math.log1p(-d3_hi)
        note = "quasihyperbolic outer radius included (t < tau_n(1))"
    else:
        note = "quasihyperbolic outer radius omitted (needs t < tau_n(1))"
    return BallInclusionReport(
        inner_euclid_radius_factor=d2_lo,
        outer_euclid_radius_factor=d3_hi,
        aux_constants=aux,
        validity_note=note,
    )


def circumscribed_lambda_radius(T: float) -> float:
    """Diameter bound for an extremal-capacity level set on the punctured plane.

    For the set of points y on the unit circle whose reciprocal extremal
    capacity against e1 is at most T (0 < T < 1/2), the circumscribed
    Euclidean radius is R_T = 2 sin(theta/2) where theta is the largest
    admissible arc angle.  theta is recovered by inverting the planar
    ring modulus; the inversion runs through the complementary modulus,
    which keeps full precision for small T where the direct preimage
    would round to 1.
    """
    if not 0.0 < T < 0.5:
        raise ValueError("circumscribed_lambda_radius needs 0 < T < 1/2")
    s = math.sqrt((1.0 - 2.0 * T) * (1.0 + 2.0 * T))
    # direct argument pi*T/(1+s) <= pi/2; at its complementary value
    # (pi/2)^2 / arg >= pi/2 the preimage is the smaller modulus, which
    # mu_inv takes straight from its theta series at full relative precision
    comp = math.pi * (1.0 + s) / (4.0 * T)
    rp = mu_inv(comp)
    theta = 4.0 * math.asin(rp)
    return 2.0 * math.sin(0.5 * theta)


def _check_puncture_radii(r: float, s: float) -> None:
    if not 0.0 < r <= s < 1.0:
        raise ValueError("puncture radii need 0 < r <= s < 1")


def joining_family_modulus(r: float, s: float) -> float:
    """Modulus of the family joining the inner circle to the unit circle
    past punctures at radii r < s; degenerate when the punctures coincide."""
    _check_puncture_radii(r, s)
    if s == r:
        raise DegenerateFamilyError(
            "the joining family degenerates when the punctures coincide (s = r)"
        )
    return tau2((s - r) * (1.0 - r * s) / (r * (1.0 - s) ** 2))


def inner_separating_modulus(r: float) -> float:
    """Modulus of the family surrounding the puncture pair at radius r."""
    if not 0.0 < r < 1.0:
        raise ValueError("puncture radius needs 0 < r < 1")
    return 0.5 * tau2(4.0 * r * r / ((1.0 - r * r) ** 2))


def outer_separating_modulus(r: float, s: float) -> float:
    """Modulus of the family separating both punctures from the unit circle;
    well defined also when the punctures coincide."""
    _check_puncture_radii(r, s)
    return tau2(s * (1.0 + r) ** 2 / (r * (1.0 - s) ** 2))


def punctured_disk_moduli(r: float, s: float) -> PuncturedDiskModuli:
    """Moduli of three canonical curve families in the punctured unit disk.

    With punctures at radii r <= s in (0, 1): gamma0 joins the two
    boundary components separated by both punctures, delta0 surrounds
    the inner puncture, delta1 separates both punctures from the unit
    circle.  All three reduce to planar ring capacities; the triple is
    rejected at s = r, where the joining family degenerates (the
    separating moduli stay individually available).
    """
    _check_puncture_radii(r, s)
    return PuncturedDiskModuli(
        gamma0=joining_family_modulus(r, s),
        delta0=inner_separating_modulus(r),
        delta1=outer_separating_modulus(r, s),
    )


def antipodal_quartic(r: float) -> float:
    """The quartic r^4 - 8 r^3 - 2 r^2 - 8 r + 1 deciding a moduli comparison.

    Nonpositive exactly where the separating family of the doubled
    puncture is no stronger than the joining one.
    """
    return ((r - 8.0) * r - 2.0) * r * r - 8.0 * r + 1.0


def antipodal_threshold() -> float:
    """Unique root of the comparison quartic in (0, 1), to 1e-12.

    The root is slightly below 0.12; the often-quoted 0.12 is a rounded
    sufficient bound, not the exact threshold.
    """
    return bisect_monotone(antipodal_quartic, 0.0, 0.0, 0.12, xtol=1e-12)


def puncture_irrelevance_radius(delta: float) -> float:
    """Radius threshold (sqrt(delta^4 + 64) - delta^2)/8 above which the
    punctured-ball extremal invariant of a delta-separated pair agrees
    with the full-ball one, so the puncture stops mattering.

    Evaluated in the rationalized form 8/(sqrt(delta^4+64) + delta^2)
    to avoid cancellation for small delta.
    """
    if not delta > 0:
        raise ValueError("puncture_irrelevance_radius needs delta > 0")
    d2 = delta * delta
    return 8.0 / (math.sqrt(d2 * d2 + 64.0) + d2)


def antipodal_irrelevance_radius() -> float:
    """Real root of x^3 + x^2 - 1 in (0, 1), to 1e-12; it exceeds 0.75."""
    return bisect_monotone(lambda x: x * x * x + x * x - 1.0, 0.0, 0.0, 1.0, xtol=1e-12)
