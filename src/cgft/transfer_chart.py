"""Modulus-of-continuity transfer between hyperbolic-type metrics.

Between seven metric-like quantities on a proper subdomain G of R^n
(distance ratio j, quasihyperbolic k, capacity metric mu, reciprocal
extremal capacity 1/lambda, absolute ratio delta, Apollonian alpha,
Euclidean distance) many uniform-continuity comparisons of the shape

    target(x, y) <= zeta(source(x, y))

are classical, each valid under stated hypotheses on G.  This module
packages those comparisons as a directed graph of gated edges.  Each
edge carries a nondecreasing transfer function and the list of domain
facts it needs; a query enumerates every simple path whose gates are
open and returns the best composed bound.

Edges are built for a fixed dimension n.  For n >= 3 the planar ring
capacities are replaced by rigorous two-sided enclosures, and each
formula uses the enclosure end that keeps the transfer a valid upper
bound for its target; a few bounds degrade to +inf where the enclosure
is too weak, which is still a correct (vacuous) bound.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum

from .special_functions import (
    _expm1,
    _falling_hi,
    check_dimension,
    gamma2,
    gamma_n_bounds,
    omega_sphere,
    tau2,
    tau2_inv,
    tau_n_bounds,
    tau_n_inv_bounds,
)

__all__ = [
    "MetricId",
    "DomainProps",
    "ZetaEdge",
    "TransferChart",
    "TransferResult",
    "MissingPropertyError",
    "TransferRangeError",
    "builtin_chart",
    "eval_edge",
    "query",
    "union_modulus",
    "chart_rows",
]


class MetricId(str, Enum):
    """The metric-like quantities the chart transfers between."""

    J = "j"
    K = "k"
    MU = "mu"
    LAMBDA_INV = "lambda_inv"
    DELTA = "delta"
    ALPHA = "alpha"
    EUCLID = "euclid"


class MissingPropertyError(ValueError):
    """An edge was evaluated without the domain facts it is gated on."""

    def __init__(self, edge: "ZetaEdge", missing: Sequence[str]):
        self.missing = tuple(missing)
        super().__init__(
            f"transfer {edge.frm.value} -> {edge.to.value} "
            f"({edge.provenance}) needs: {', '.join(self.missing)}"
        )


class TransferRangeError(ValueError):
    """The input lies outside an edge's validity window."""


@dataclass(frozen=True)
class DomainProps:
    """Caller-asserted facts about the domain; nothing is ever inferred.

    ``uniform_constant`` and ``qed_constant`` are the growth/capacity
    comparison constants of the respective domain classes; no domain has
    a uniform constant below 1 (j <= k) or a QED constant above 1
    (M(Gamma; G) <= M(Gamma; R^n)).  ``cn_constant`` is the constant in
    cn * j <= mu for domains with connected boundary; it depends only on
    the dimension, but has no closed form, so the caller supplies it.
    ``locality``
    set to "local" asserts that the point pairs of interest are confined
    to a small ball, which some transfers require; they carry no
    explicit radius, so the assertion is the caller's responsibility.
    """

    uniform_constant: float | None = None
    qed_constant: float | None = None
    cn_constant: float | None = None
    boundary_connected: bool = False
    boundary_nondegenerate: bool = False
    boundary_card_ge_2: bool = False
    convex: bool = False
    bounded_with_diam: float | None = None
    locality: str = "global"

    def __post_init__(self) -> None:
        for label in ("uniform_constant", "qed_constant", "cn_constant", "bounded_with_diam"):
            v = getattr(self, label)
            if v is not None and not 0 < v < math.inf:
                raise ValueError(f"{label} must be positive and finite when present")
        if self.uniform_constant is not None and self.uniform_constant < 1:
            raise ValueError("uniform_constant must be >= 1")
        if self.qed_constant is not None and self.qed_constant > 1:
            raise ValueError("qed_constant must be <= 1")
        if self.locality not in ("global", "local"):
            raise ValueError("locality must be 'global' or 'local'")


#: requirement id -> predicate on DomainProps
_REQUIREMENT_CHECKS: dict[str, Callable[[DomainProps], bool]] = {
    "uniform_constant": lambda p: p.uniform_constant is not None,
    "qed_constant": lambda p: p.qed_constant is not None,
    "boundary_connected": lambda p: p.boundary_connected,
    "boundary_nondegenerate": lambda p: p.boundary_nondegenerate,
    "boundary_card_ge_2": lambda p: p.boundary_card_ge_2,
    "convex": lambda p: p.convex,
    "bounded_with_diam": lambda p: p.bounded_with_diam is not None,
    "locality=local": lambda p: p.locality == "local",
    "cn_constant": lambda p: p.cn_constant is not None,
}


@dataclass(frozen=True)
class ZetaEdge:
    """One gated transfer: to-metric <= fn(from-metric) when gates open."""

    frm: MetricId
    to: MetricId
    fn: Callable[[float, DomainProps], float] = field(compare=False)
    requires: tuple[str, ...]
    provenance: str
    formula: str
    window: str = "t >= 0"

    def __post_init__(self) -> None:
        for r in self.requires:
            if r not in _REQUIREMENT_CHECKS:
                raise ValueError(f"unknown requirement id {r!r}")

    @property
    def validity(self) -> str:
        """Scope of the bound: "local_only" when gated on local pairs, else "global"."""
        return "local_only" if "locality=local" in self.requires else "global"

    def missing(self, props: DomainProps) -> tuple[str, ...]:
        return tuple(r for r in self.requires if not _REQUIREMENT_CHECKS[r](props))


@dataclass(frozen=True)
class TransferChart:
    """An immutable edge set; queries are pure functions of it."""

    edges: tuple[ZetaEdge, ...]
    dimension: int = 2

    def __post_init__(self) -> None:
        seen = set()
        for e in self.edges:
            key = (e.frm, e.to, e.provenance)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    def edges_from(self, frm: MetricId) -> tuple[ZetaEdge, ...]:
        return tuple(e for e in self.edges if e.frm is frm)

    def edges_between(self, frm: MetricId, to: MetricId) -> tuple[ZetaEdge, ...]:
        return tuple(e for e in self.edges if e.frm is frm and e.to is to)


@dataclass(frozen=True)
class TransferResult:
    """Best composed bound found by a query, with the winning path."""

    value: float
    nodes: tuple[MetricId, ...]
    edges: tuple[ZetaEdge, ...]


def eval_edge(edge: ZetaEdge, props: DomainProps, t: float) -> float:
    """Apply one transfer: a bound t on the source metric yields fn(t).

    Raises MissingPropertyError when a gate is closed (naming every
    missing fact) and TransferRangeError when t lies outside the edge's
    validity window.
    """
    if not t >= 0.0:
        raise ValueError("transfer inputs are nonnegative")
    missing = edge.missing(props)
    if missing:
        raise MissingPropertyError(edge, missing)
    if t == 0.0:
        return 0.0
    return edge.fn(t, props)


def query(
    chart: TransferChart,
    frm: MetricId,
    to: MetricId,
    props: DomainProps,
    t: float,
) -> TransferResult | None:
    """Best bound on ``to`` given ``to_from`` <= t, over all open paths.

    Enumerates every simple path (the graph has at most seven nodes),
    skipping edges whose gates are closed or whose window excludes the
    running value, and returns the pointwise-minimal composition; None
    means no transfer is available under the given facts.
    """
    if not t >= 0.0:
        raise ValueError("transfer inputs are nonnegative")
    if frm is to:
        return TransferResult(float(t), (frm,), ())

    best: TransferResult | None = None

    def walk(node: MetricId, value: float, nodes: list[MetricId], used: list[ZetaEdge]) -> None:
        nonlocal best
        for edge in chart.edges_from(node):
            if edge.to in nodes or edge.missing(props):
                continue
            try:
                nxt = eval_edge(edge, props, value)
            except TransferRangeError:
                continue
            if edge.to is to:
                if best is None or nxt < best.value:
                    best = TransferResult(nxt, tuple(nodes) + (to,), tuple(used) + (edge,))
            else:
                nodes.append(edge.to)
                used.append(edge)
                walk(edge.to, nxt, nodes, used)
                nodes.pop()
                used.pop()

    walk(frm, float(t), [frm], [])
    return best


def union_modulus(
    omega1: Callable[[float], float],
    omega2: Callable[[float], float],
    c: float,
) -> tuple[Callable[[float], float], float]:
    """Combine moduli for two overlapping pieces of a domain.

    Given moduli of continuity valid on each piece and the overlap
    parameter c in (0, 1), returns (omega, radius) where
    omega(t) = max(omega1(4 t / c), omega2(4 t / c)) is a modulus for
    the union, valid for t <= radius = log(1 + c/4).
    """
    if not 0.0 < c < 1.0:
        raise ValueError("overlap parameter c must lie in (0, 1)")
    radius = math.log1p(0.25 * c)
    scale = 4.0 / c

    def omega(t: float) -> float:
        if not t >= 0.0:
            raise ValueError("modulus arguments are nonnegative")
        if t > radius:
            raise TransferRangeError(
                f"union modulus is valid only for t <= {radius!r}"
            )
        return max(omega1(scale * t), omega2(scale * t))

    return omega, radius


# ---------------------------------------------------------------------------
# the builtin chart


def _decreasing_inverse(
    *, upper: bool
) -> Callable[[Callable[[float], float]], Callable[[float], float]]:
    """Extend the inverse of a decreasing map of (0, inf) onto itself to
    y = 0, where it is inf, and to y = inf, so a path carrying an infinite
    or vanishing bound gives a limit instead of raising.

    y = inf stands for a value past DBL_MAX, whose inverse lies in
    (0, inv(DBL_MAX)): a lower end takes the limit 0, an upper end
    inv(DBL_MAX) as it is.  An upper inv already returns an upper end at
    DBL_MAX, and every larger argument has a smaller inverse, so rounding it
    up once more would only loosen the bound.
    """

    def extend(inv: Callable[[float], float]) -> Callable[[float], float]:
        def inverse(y: float) -> float:
            if y == 0.0:
                return math.inf
            if y == math.inf:
                return inv(sys.float_info.max) if upper else 0.0
            return inv(y)

        return inverse

    return extend


def builtin_chart(n: int = 2) -> TransferChart:
    """The full transfer graph in dimension n; it depends on n alone.

    Every domain constant an edge needs, ``cn_constant`` among them, is
    read from the DomainProps of the query.  For n >= 3 the
    ring-capacity functions are replaced by their enclosure ends chosen
    so every edge remains a valid upper bound.  The upper ring inverse
    takes the enclosure's upper end in the plane too: ``tau2_inv(y)``
    underflows to 0 for y above about 477, below the true inverse, and
    the enclosure keeps a positive end there.
    """
    n = check_dimension(n)

    if n == 2:
        def g_hi(s: float) -> float:
            return gamma2(s)

        def tau_lo(s: float) -> float:
            return tau2(s)

        @_decreasing_inverse(upper=False)
        def tinv_lo(y: float) -> float:
            return tau2_inv(y)
    else:
        def g_hi(s: float) -> float:
            return gamma_n_bounds(n, s).hi

        def tau_lo(s: float) -> float:
            return tau_n_bounds(n, s).lo

        @_decreasing_inverse(upper=False)
        def tinv_lo(y: float) -> float:
            return tau_n_inv_bounds(n, y).lo

    @_decreasing_inverse(upper=True)
    def tinv_hi(y: float) -> float:
        return tau_n_inv_bounds(n, y).hi

    omega_n = omega_sphere(n)
    log2 = math.log(2.0)

    def small_ball_capacity(t: float, props: DomainProps) -> float:
        if t >= log2:
            raise TransferRangeError("capacity form needs t < log 2")
        # 1 / expm1(t) overflows for subnormal t; gamma_n falls
        return _falling_hi(g_hi, 1.0 / math.expm1(t))

    def log_power_upper(t: float, props: DomainProps) -> float:
        if t >= 1.0:
            raise TransferRangeError("log-power form needs t < 1")
        return omega_n * (-math.log(t)) ** (1 - n)

    ALPHA_H2 = 9.0 / 8.0 * log2  # planar piecewise constant

    def planar_piecewise(t: float, props: DomainProps) -> float:
        if t <= 1.0 / 12.0:
            return -2.0 * math.pi * ALPHA_H2 / math.log(6.0 * t)
        return 324.0 * math.pi * t * t

    def qed_capacity(t: float, props: DomainProps) -> float:
        s = _expm1(2.0 * t)
        if not math.isfinite(s):
            return math.inf
        v = props.qed_constant * tau_lo(s)
        return 1.0 / v if v > 0.0 else math.inf

    def ring_to_j(t: float, props: DomainProps) -> float:
        return math.log1p(tinv_hi(1.0 / (math.sqrt(2.0) * t)))

    def ring_to_k(t: float, props: DomainProps) -> float:
        v = tinv_hi(1.0 / (math.sqrt(2.0) * t))
        if v >= 1.0:
            raise TransferRangeError(
                "quasihyperbolic form needs t below 1/(sqrt(2) tau_n(1))"
            )
        return -math.log1p(-v)

    def cap_to_delta(t: float, props: DomainProps) -> float:
        return _falling_hi(
            lambda v: math.log1p(1.0 / v) if v > 0.0 else math.inf, tinv_lo(t)
        )

    def ring_to_delta(t: float, props: DomainProps) -> float:
        return math.log1p(2.0 * tinv_hi(1.0 / t))

    def mu_to_j(t: float, props: DomainProps) -> float:
        # a subnormal or vanishing t / c_n may have rounded down by a whole
        # step; the next double up bounds it, and every later edge increases
        q = t / props.cn_constant
        return q if q >= sys.float_info.min else math.nextafter(q, math.inf)

    def compose_mu_to_ring(t: float, props: DomainProps) -> float:
        return qed_capacity(mu_to_j(t, props), props)

    def compose_ring_to_cap(t: float, props: DomainProps) -> float:
        u = ring_to_j(t, props)
        if u == 0.0:
            return 0.0
        return small_ball_capacity(u, props)

    J, K, MU, LI, DE, AL, EU = (
        MetricId.J,
        MetricId.K,
        MetricId.MU,
        MetricId.LAMBDA_INV,
        MetricId.DELTA,
        MetricId.ALPHA,
        MetricId.EUCLID,
    )

    edges = [
        ZetaEdge(
            K, J, lambda t, p: t, (),
            "distance-ratio-below-quasihyperbolic", "t",
        ),
        ZetaEdge(
            J, K, lambda t, p: p.uniform_constant * t,
            ("uniform_constant",),
            "uniform-domain-growth", "c_uniform * t",
        ),
        ZetaEdge(
            J, MU, small_ball_capacity, ("locality=local",),
            "small-ball-ring-capacity", "gamma_n(1 / (exp(t) - 1))",
            window="0 <= t < log 2",
        ),
        ZetaEdge(
            J, MU, log_power_upper, ("locality=local",),
            "log-power-capacity-upper", "omega_{n-1} * log(1/t)^(1-n)",
            window="0 <= t < 1",
        ),
        ZetaEdge(
            K, MU, small_ball_capacity,
            ("boundary_connected", "boundary_nondegenerate"),
            "connected-boundary-capacity-bound", "gamma_n(1 / (exp(t) - 1))",
            window="0 <= t < log 2",
        ),
        ZetaEdge(
            MU, J, mu_to_j,
            ("boundary_connected", "cn_constant"),
            "capacity-dominates-distance-ratio", "t / c_n",
        ),
        ZetaEdge(
            MU, K, lambda t, p: p.uniform_constant * t,
            ("uniform_constant", "boundary_connected"),
            "uniform-capacity-growth", "c_uniform * t",
        ),
        ZetaEdge(
            J, LI, qed_capacity, ("qed_constant",),
            "qed-capacity-comparison", "1 / (c_qed * tau_n(exp(2 t) - 1))",
        ),
        ZetaEdge(
            K, LI, qed_capacity, ("qed_constant",),
            "qed-capacity-comparison-via-quasihyperbolic",
            "1 / (c_qed * tau_n(exp(2 t) - 1))",
        ),
        ZetaEdge(
            MU, LI, compose_mu_to_ring,
            ("boundary_connected", "cn_constant", "qed_constant"),
            "composed-capacity-route",
            "1 / (c_qed * tau_n(exp(2 t / c_n) - 1))",
        ),
        ZetaEdge(
            LI, J, ring_to_j, (),
            "separating-ring-lower-bound",
            "log(1 + tau_n_inv(1 / (sqrt(2) t)))",
        ),
        ZetaEdge(
            LI, K, ring_to_k, (),
            "separating-ring-quasihyperbolic-bound",
            "log(1 / (1 - tau_n_inv(1 / (sqrt(2) t))))",
            window="0 <= t < 1 / (sqrt(2) tau_n(1))",
        ),
        ZetaEdge(
            LI, MU, compose_ring_to_cap, ("locality=local",),
            "composed-ring-capacity-route",
            "gamma_n(1 / (exp(log(1 + tau_n_inv(1 / (sqrt(2) t)))) - 1))",
            window="composed window of the two factors",
        ),
        ZetaEdge(
            J, DE, lambda t, p: 2.0 * t, (),
            "absolute-ratio-two-sided", "2 t",
        ),
        ZetaEdge(
            DE, J, lambda t, p: t, (),
            "absolute-ratio-dominates-distance-ratio", "t",
        ),
        ZetaEdge(
            AL, J, lambda t, p: t, ("convex",),
            "apollonian-dominates-distance-ratio", "t",
        ),
        ZetaEdge(
            MU, DE, cap_to_delta,
            ("boundary_connected", "boundary_card_ge_2"),
            "capacity-controls-absolute-ratio",
            "log(1 + 1 / tau_n_inv(t))",
        ),
        ZetaEdge(
            LI, DE, ring_to_delta, ("boundary_card_ge_2",),
            "ring-bound-on-absolute-ratio",
            "log(1 + 2 tau_n_inv(1 / t))",
        ),
        ZetaEdge(
            J, EU, lambda t, p: _expm1(t) * p.bounded_with_diam,
            ("bounded_with_diam",),
            "exponential-distance-ratio-ball", "(exp(t) - 1) * diam",
        ),
        ZetaEdge(
            DE, EU, lambda t, p: _expm1(t) * p.bounded_with_diam,
            ("bounded_with_diam",),
            "exponential-absolute-ratio-ball", "(exp(t) - 1) * diam",
        ),
        ZetaEdge(
            K, EU, lambda t, p: t * p.bounded_with_diam,
            ("bounded_with_diam",),
            "quasihyperbolic-above-relative-distance", "t * diam",
        ),
        ZetaEdge(
            LI, EU,
            lambda t, p: tinv_hi(1.0 / (math.sqrt(2.0) * t)) * p.bounded_with_diam,
            ("bounded_with_diam",),
            "separating-ring-distance-bound",
            "tau_n_inv(1 / (sqrt(2) t)) * diam",
        ),
    ]
    if n == 2:
        edges.append(
            ZetaEdge(
                K, MU, planar_piecewise,
                ("boundary_connected", "boundary_nondegenerate"),
                "planar-piecewise-capacity-bound",
                "2 pi a / log(1/(6t)) for t <= 1/12 else 324 pi t^2, "
                "a = (9/8) log 2",
            )
        )
    return TransferChart(edges=tuple(edges), dimension=n)


def chart_rows(chart: TransferChart) -> list[dict[str, str]]:
    """One machine-readable row per edge, for tabular export."""
    return [
        {
            "from": e.frm.value,
            "to": e.to.value,
            "formula": e.formula,
            "window": e.window,
            "requires": ";".join(e.requires) if e.requires else "none",
            "validity": e.validity,
            "provenance": e.provenance,
        }
        for e in chart.edges
    ]
