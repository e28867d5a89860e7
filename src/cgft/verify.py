"""Built-in numerical verification suite.

Every implementable inequality and identity exposed by the library is
registered here as a named check.  A check evaluates its statement on a
documented grid and reports the minimum slack (how far the worst grid
point sits on the safe side), the location attaining it, and a verdict:
``passed`` iff ``min_slack >= -tolerance``.

Identity components inside composite checks contribute a shifted slack
``component_tol - |residual|`` so a single minimum still decides the
verdict.  Checks that need externally supplied comparison constants
(``cn``, ``uniform_c``, ``qed_c``) are reported as skipped until those
constants are configured.

The registry is append-only and evaluated in registration order;
``DOCUMENTED_TOTAL`` is the advertised number of checks.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import ball_geometry as bg
from . import distortion as ds
from . import harmonic_qr as hq
from . import metrics as mt
from . import special_functions as sf
from . import transfer_chart as tc

__all__ = [
    "DOCUMENTED_TOTAL",
    "VerifyConfig",
    "VerifyEntry",
    "VerifyReport",
    "distortion_inequality_report",
    "registered_check_ids",
    "run_verify",
]

SKIP_NOTE = "skipped: unconfigured constant"


@dataclass(frozen=True)
class VerifyConfig:
    """Inputs shared by every check: the seed and optional constants."""

    seed: int = 0
    cn: float | None = None
    uniform_c: float | None = None
    qed_c: float | None = None


@dataclass(frozen=True)
class VerifyEntry:
    check_id: str
    provenance: str
    grid_spec: str
    min_slack: float
    argmin: str
    passed: bool
    tolerance: float = 0.0
    note: str = ""

    @property
    def skipped(self) -> bool:
        return self.note == SKIP_NOTE

    def to_dict(self) -> dict:
        d = asdict(self)
        # strict JSON has no NaN or infinity: a non-finite slack becomes null
        if not math.isfinite(self.min_slack):
            d["min_slack"] = None
        return d


@dataclass(frozen=True)
class VerifyReport:
    entries: tuple[VerifyEntry, ...]

    def summary(self) -> dict:
        skipped = sum(1 for e in self.entries if e.skipped)
        failed = sum(1 for e in self.entries if not e.passed)
        return {
            "total": len(self.entries),
            "passed": len(self.entries) - failed - skipped,
            "failed": failed,
            "skipped": skipped,
        }

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "summary": self.summary(),
        }


class _Tracker:
    """Running minimum slack with the grid label attaining it.

    A NaN slack fails its check: it becomes the minimum, the first one
    gives the argmin, and no later slack replaces it.  A tracker that saw
    no slack at all reports NaN at "empty grid", so an empty grid fails too.
    """

    def __init__(self) -> None:
        self.min_slack = math.nan
        self.argmin = "empty grid"
        self.empty = True

    def add(self, slack: float, where: object) -> None:
        slack = float(slack)
        # "not >=" also holds for a NaN slack
        below = not math.isnan(self.min_slack) and not slack >= self.min_slack
        if self.empty or below:
            self.min_slack = slack
            self.argmin = where
            self.empty = False

    def residual(self, value: float, target: float, tol: float, where: str) -> None:
        """Identity component: shifted slack tol - |value - target|."""
        self.add(tol - abs(value - target), where)


class _Check(NamedTuple):
    check_id: str
    provenance: str
    grid_spec: str
    tolerance: float
    needs: tuple[str, ...]
    fn: Callable[[VerifyConfig, "_Tracker"], None]


_REGISTRY: list[_Check] = []


def _register(
    check_id: str,
    provenance: str,
    grid_spec: str,
    tolerance: float = 0.0,
    needs: tuple[str, ...] = (),
):
    def deco(fn):
        if any(c.check_id == check_id for c in _REGISTRY):
            raise ValueError(f"duplicate check id {check_id}")
        _REGISTRY.append(_Check(check_id, provenance, grid_spec, tolerance, needs, fn))
        return fn

    return deco


def _g(x: float) -> str:
    return f"{float(x):.6g}"


def _rising(t: _Tracker, vals, labels, relative: bool = False) -> None:
    """A sequence that must not fall: add each step b - a (divided by
    max(|a|, 1e-300) if relative).  Negate a sequence that must not rise.
    Equal neighbours step by 0, also where both are infinite."""
    for a, b, where in zip(vals, vals[1:], labels):
        step = 0.0 if a == b else b - a
        t.add(step / max(abs(a), 1e-300) if relative else step, where)


# ---------------------------------------------------------------------------
# Conformal special functions
# ---------------------------------------------------------------------------


@_register(
    "mu-product-identity",
    "plane-grotzsch-modulus-reflection",
    "r in {0.01..0.99} step 0.01",
    1e-11,
)
def _chk_mu_product(cfg, t):
    target = math.pi * math.pi / 4.0
    for r in np.arange(0.01, 0.995, 0.01):
        r = float(r)
        rp = math.sqrt((1.0 - r) * (1.0 + r))
        t.residual(sf.mu(r) * sf.mu(rp), target, 1e-11, f"r={_g(r)}")


@_register(
    "mu-inverse-round-trip",
    "plane-grotzsch-modulus-inversion",
    "r in {0.01..0.99} step 0.01",
    1e-10,
)
def _chk_mu_roundtrip(cfg, t):
    for r in np.arange(0.01, 0.995, 0.01):
        r = float(r)
        t.residual(sf.mu_inv(sf.mu(r)), r, 1e-10, f"r={_g(r)}")


@_register(
    "phipythagorean-complement",
    "distortion-function-pythagorean-complement",
    "K in {1.1..5.0} step 0.1 x r in {0.05..0.95} step 0.05",
    1e-9,
)
def _chk_phipyth(cfg, t):
    for K in np.arange(1.1, 5.05, 0.1):
        K = float(K)
        for r in np.arange(0.05, 0.96, 0.05):
            r = float(r)
            rp = math.sqrt((1.0 - r) * (1.0 + r))
            val = sf.phi_K(K, r) ** 2 + sf.phi_K(1.0 / K, rp) ** 2
            t.residual(val, 1.0, 1e-9, f"K={_g(K)},r={_g(r)}")


@_register(
    "gamma-tau-quadratic-relation",
    "grotzsch-teichmuller-ring-relation",
    "s in (1,20], 120 log-spaced points",
    1e-10,
)
def _chk_gamma_tau(cfg, t):
    for ds_ in np.geomspace(1e-3, 19.0, 120):
        s = 1.0 + float(ds_)
        g = sf.gamma2(s)
        t.residual(2.0 * sf.tau2(s * s - 1.0) / g, 1.0, 1e-10, f"s={_g(s)}")


@_register(
    "gamma-tau-spot-values",
    "grotzsch-teichmuller-ring-relation",
    "s=sqrt(2); t=1",
    1e-12,
)
def _chk_spot_values(cfg, t):
    t.residual(sf.gamma2(math.sqrt(2.0)), 4.0, 1e-12, "gamma2(sqrt2)")
    t.residual(sf.tau2(1.0), 2.0, 1e-12, "tau2(1)")


@_register(
    "special-function-monotonicity",
    "complete-elliptic-monotonicity",
    "99-point r grid; 80-point s,t grids",
)
def _chk_monotone(cfg, t):
    rs = np.linspace(0.01, 0.99, 99)
    mus = [-sf.mu(float(r)) for r in rs]
    _rising(t, mus, (f"mu decreasing at r={_g(r)}" for r in rs))
    ss = 1.0 + np.geomspace(1e-2, 30.0, 80)
    gs = [-sf.gamma2(float(s)) for s in ss]
    _rising(t, gs, (f"gamma2 decreasing at s={_g(s)}" for s in ss))
    ts = np.geomspace(1e-2, 30.0, 80)
    taus = [-sf.tau2(float(x)) for x in ts]
    _rising(t, taus, (f"tau2 decreasing at t={_g(x)}" for x in ts))
    phis = [sf.phi_K(2.0, float(r)) for r in rs]
    _rising(t, phis, (f"phi_2 increasing at r={_g(r)}" for r in rs))


@_register(
    "grotzsch-ring-growth-envelope",
    "grotzsch-ring-growth-envelope",
    "s in (1,100], 160 log-spaced points; slack relative to s",
    1e-12,
)
def _chk_envelope(cfg, t):
    for ds_ in np.geomspace(5e-4, 99.0, 160):
        s = 1.0 + float(ds_)
        phi = math.exp(2.0 * math.pi / sf.gamma2(s))
        t.add((phi - s) / s, f"lower,s={_g(s)}")
        t.add((4.0 * s - phi) / s, f"upper,s={_g(s)}")


@_register(
    "ring-capacity-dimension-brackets",
    "ring-capacity-dimension-brackets",
    "n in {2,3,4} x t in {0.1,0.5,1,2,10}",
)
def _chk_tau_brackets(cfg, t):
    for n in (2, 3, 4):
        for x in (0.1, 0.5, 1.0, 2.0, 10.0):
            iv = sf.tau_n_bounds(n, x)
            t.add(iv.hi - iv.lo, f"width,n={n},t={_g(x)}")
            if n == 2:
                exact = sf.tau2(x)
                t.residual(iv.lo, exact, 1e-10, f"lo,n=2,t={_g(x)}")
                t.residual(iv.hi, exact, 1e-10, f"hi,n=2,t={_g(x)}")


@_register(
    "distortion-degenerates-at-one",
    "distortion-degenerates-at-one",
    "t in {0.1,0.3,1,3,10}",
    1e-10,
)
def _chk_eta_k1(cfg, t):
    for x in (0.1, 0.3, 1.0, 3.0, 10.0):
        iv = sf.eta_K_n(2, 1.0, x)
        t.residual(iv.mid / x, 1.0, 1e-10, f"t={_g(x)}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _ball_points(rng, count):
    pts = []
    while len(pts) < count:
        p = rng.uniform(-1.0, 1.0, 2)
        if np.linalg.norm(p) < 0.95:
            pts.append((float(p[0]), float(p[1])))
    return pts


def _punctured_points(rng, count):
    pts = []
    while len(pts) < count:
        p = rng.uniform(-3.0, 3.0, 2)
        if np.linalg.norm(p) > 1e-2:
            pts.append((float(p[0]), float(p[1])))
    return pts


def _sampled_metrics() -> dict:
    """name -> (distance, point sampler) for the sampled metric axioms."""
    punctured = mt.canonical_domain("punctured_space", 2)
    return {
        "chordal": (lambda a, b: mt.chordal(a, b), _punctured_points),
        "j": (lambda a, b: mt.j_metric(punctured, a, b), _punctured_points),
        "hyperbolic": (mt.hyperbolic_ball, _ball_points),
        "quasihyperbolic": (
            lambda a, b: mt.quasihyperbolic_exact("punctured_space", a, b),
            _punctured_points,
        ),
    }


@_register(
    "metric-axioms-sampled",
    "metric-axioms",
    "20 seeded point triples per metric",
    1e-12,
)
def _chk_axioms(cfg, t):
    rng = np.random.default_rng(cfg.seed + 101)
    for name, (d, sampler) in _sampled_metrics().items():
        for i in range(20):
            x, y = sampler(rng, 2)
            dxy = d(x, y)
            t.add(dxy, f"{name} nonneg #{i}")
            t.add(-abs(d(x, x)), f"{name} identity #{i}")
            scale = max(dxy, 1e-12)
            t.add(1e-12 - abs(dxy - d(y, x)) / scale, f"{name} symmetry #{i}")


@_register(
    "metric-triangle-inequality",
    "metric-triangle-inequality",
    "20 seeded point triples per metric",
    1e-9,
)
def _chk_triangle(cfg, t):
    rng = np.random.default_rng(cfg.seed + 102)
    for name, (d, sampler) in _sampled_metrics().items():
        for i in range(20):
            x, y, z = sampler(rng, 3)
            t.add(d(x, y) + d(y, z) - d(x, z), f"{name} #{i}")


@_register(
    "distance-ratio-below-quasihyperbolic",
    "distance-ratio-below-quasihyperbolic",
    "40 seeded pairs on the punctured plane",
    1e-12,
)
def _chk_j_below_k(cfg, t):
    rng = np.random.default_rng(cfg.seed + 103)
    punctured = mt.canonical_domain("punctured_space", 2)
    for i in range(40):
        x, y = _punctured_points(rng, 2)
        j = mt.j_metric(punctured, x, y)
        k = mt.quasihyperbolic_exact("punctured_space", x, y)
        t.add(k - j, f"pair #{i}")


@_register(
    "absolute-ratio-metric-sandwich",
    "absolute-ratio-metric-sandwich",
    "punctured plane: 25 pairs exact; half plane: 15 pairs sampled sup, "
    "161 samples plus both feet and infinity",
)
def _chk_sandwich(cfg, t):
    rng = np.random.default_rng(cfg.seed + 104)
    punctured = mt.canonical_domain("punctured_space", 2)
    for i in range(25):
        x, y = _punctured_points(rng, 2)
        j = mt.j_metric(punctured, x, y)
        d = mt.seittenranta(punctured, x, y).value
        t.residual(d, j, max(1e-12, 1e-12 * j), f"punctured exact #{i}")
    half = mt.canonical_domain("half_space", 2, boundary_samples=161)
    for i in range(15):
        x = (float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2.0)))
        y = (float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2.0)))
        # the feet of x and y with infinity give |foot, x, oo, y| = |x-y|/d(x)
        # and its y counterpart, so the sampled sup reaches j up to rounding
        feet = (mt.ExtendedPoint((x[0], 0.0)), mt.ExtendedPoint((y[0], 0.0)))
        sampled = half.with_flags(boundary_samples=half.boundary_samples + feet)
        j = mt.j_metric(half, x, y)
        d = mt.seittenranta(sampled, x, y).value
        t.add(2.0 * j + 1e-9 - d, f"half upper #{i}")
        t.add(d - j + 1e-12 * max(1.0, j), f"half lower #{i}")


@_register(
    "quasihyperbolic-isometry-invariance",
    "quasihyperbolic-isometry-invariance",
    "punctured plane rotations; half plane shifts and dilations; 15 seeded pairs each",
    1e-10,
)
def _chk_isometry(cfg, t):
    rng = np.random.default_rng(cfg.seed + 105)
    for i in range(15):
        x, y = _punctured_points(rng, 2)
        base = mt.quasihyperbolic_exact("punctured_space", x, y)
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        c, s = math.cos(a), math.sin(a)
        rx = (c * x[0] - s * x[1], s * x[0] + c * x[1])
        ry = (c * y[0] - s * y[1], s * y[0] + c * y[1])
        moved = mt.quasihyperbolic_exact("punctured_space", rx, ry)
        t.residual(moved, base, max(1e-10, 1e-10 * base), f"rotation #{i}")
    for i in range(15):
        x = (float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2.0)))
        y = (float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2.0)))
        base = mt.quasihyperbolic_exact("half_space", x, y)
        shift = float(rng.uniform(-3, 3))
        scale = float(rng.uniform(0.5, 2.0))
        mx = (scale * (x[0] + shift), scale * x[1])
        my = (scale * (y[0] + shift), scale * y[1])
        moved = mt.quasihyperbolic_exact("half_space", mx, my)
        t.residual(moved, base, max(1e-10, 1e-10 * base), f"shift-dilate #{i}")


@_register(
    "absolute-cross-ratio-mobius-invariance",
    "absolute-cross-ratio-mobius-invariance",
    "15 seeded quadruples; unit-sphere inversion and similarity",
    1e-10,
)
def _chk_cross_ratio(cfg, t):
    rng = np.random.default_rng(cfg.seed + 106)

    def invert(p):
        n2 = p[0] * p[0] + p[1] * p[1]
        return (p[0] / n2, p[1] / n2)

    for i in range(15):
        quad = _punctured_points(rng, 4)
        base = mt.cross_ratio(*quad)
        inv = mt.cross_ratio(*[invert(p) for p in quad])
        t.residual(inv / base, 1.0, 1e-10, f"inversion #{i}")
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        c, s = math.cos(a), math.sin(a)
        moved = [
            (1.3 * (c * p[0] - s * p[1]) + 0.7, 1.3 * (s * p[0] + c * p[1]) - 0.2)
            for p in quad
        ]
        sim = mt.cross_ratio(*moved)
        t.residual(sim / base, 1.0, 1e-10, f"similarity #{i}")


@_register(
    "hyperbolic-tanh-chord-bound",
    "hyperbolic-tanh-chord-bound",
    "30 seeded ball pairs; equality at x=-y for |x|=0.3",
    1e-12,
)
def _chk_tanh(cfg, t):
    rng = np.random.default_rng(cfg.seed + 107)
    for i in range(30):
        x, y = _ball_points(rng, 2)
        rho = mt.hyperbolic_ball(x, y)
        chord = math.hypot(x[0] - y[0], x[1] - y[1])
        t.add(2.0 * math.tanh(rho / 4.0) - chord, f"pair #{i}")
    x = (0.3, 0.0)
    rho = mt.hyperbolic_ball(x, (-0.3, 0.0))
    t.residual(2.0 * math.tanh(rho / 4.0), 0.6, 1e-12, "equality x=-y")


# ---------------------------------------------------------------------------
# Transfer chart
# ---------------------------------------------------------------------------


def _local_props(**facts) -> tc.DomainProps:
    """Local pairs in a domain with a connected, nondegenerate boundary."""
    return tc.DomainProps(
        boundary_connected=True,
        boundary_nondegenerate=True,
        boundary_card_ge_2=True,
        locality="local",
        **facts,
    )


_FULL_PROPS = _local_props(
    uniform_constant=2.0, qed_constant=0.5, convex=True, bounded_with_diam=2.0
)

_FAST_TARGETS = {tc.MetricId.J, tc.MetricId.K, tc.MetricId.DELTA, tc.MetricId.EUCLID}


def _edge_window_hi(edge) -> float:
    windows = {
        "small-ball-ring-capacity": 0.99 * math.log(2.0),
        "connected-boundary-capacity-bound": 0.99 * math.log(2.0),
        "log-power-capacity-upper": 0.99,
        "separating-ring-quasihyperbolic-bound": 0.99
        / (math.sqrt(2.0) * sf.tau2(1.0)),
        "composed-ring-capacity-route": 0.2,
    }
    return windows.get(edge.provenance, 10.0)


def _edge_grid(t: _Tracker, e, props: tc.DomainProps) -> None:
    """Relative steps of an edge on a 40-point log grid over its window."""
    grid = np.geomspace(1e-6, _edge_window_hi(e), 40)
    vals = [tc.eval_edge(e, props, float(x)) for x in grid]
    _rising(t, vals, (f"{e.provenance} t={_g(x)}" for x in grid), relative=True)


def _gated_edges(t: _Tracker, name: str, props: tc.DomainProps) -> list:
    """The planar edges gated on the ``name`` constant that ``props``
    opens; if none opens, the check fails."""
    gate = f"{name}_constant"
    edges = [
        e for e in tc.builtin_chart(2).edges if gate in e.requires and not e.missing(props)
    ]
    if not edges:
        t.add(-1.0, f"no {name}-gated edge opened")
    return edges


@_register(
    "transfer-zero-limit",
    "transfer-zero-limit",
    "all open global edges at t in {1e-6,1e-60,1e-300}",
)
def _chk_chart_zero(cfg, t):
    chart = tc.builtin_chart(2)
    for e in chart.edges:
        if e.validity != "global" or e.missing(_FULL_PROPS):
            continue
        if e.to in _FAST_TARGETS:
            scale = (
                _FULL_PROPS.bounded_with_diam if e.to is tc.MetricId.EUCLID else 1.0
            )
            v = tc.eval_edge(e, _FULL_PROPS, 1e-6)
            t.add(1e-3 * scale - v, f"fast {e.provenance}")
        else:
            v6 = tc.eval_edge(e, _FULL_PROPS, 1e-6)
            v60 = tc.eval_edge(e, _FULL_PROPS, 1e-60)
            v300 = tc.eval_edge(e, _FULL_PROPS, 1e-300)
            t.add(v60 - v300, f"slow order {e.provenance}")
            t.add(v6 - v60, f"slow order {e.provenance}")
            t.add(1e-2 - v300, f"slow limit {e.provenance}")


@_register(
    "transfer-chain-consistency",
    "transfer-chain-consistency",
    "composed edges vs best path at 5% and 25% of each window",
    1e-12,
)
def _chk_chart_chain(cfg, t):
    chart = tc.builtin_chart(2)
    for e in chart.edges:
        if not e.provenance.startswith("composed") or e.missing(_FULL_PROPS):
            continue
        for frac in (0.05, 0.25):
            x = frac * _edge_window_hi(e)
            try:
                direct = tc.eval_edge(e, _FULL_PROPS, x)
            except tc.TransferRangeError:
                continue
            best = tc.query(chart, e.frm, e.to, _FULL_PROPS, x)
            slack = (direct - best.value) / max(abs(direct), 1e-300)
            t.add(slack, f"{e.provenance} t={_g(x)}")


@_register(
    "transfer-gating",
    "transfer-gating",
    "every gated edge against empty domain facts",
)
def _chk_chart_gating(cfg, t):
    chart = tc.builtin_chart(2)
    bare = tc.DomainProps()
    for e in chart.edges:
        if not e.missing(bare):
            continue
        try:
            tc.eval_edge(e, bare, 0.5)
            t.add(-1.0, f"{e.provenance} evaluated while gated")
        except tc.MissingPropertyError:
            t.add(0.0, f"{e.provenance} gated")


@_register(
    "transfer-monotonicity",
    "transfer-monotonicity",
    "40-point log grid per open edge within its validity window",
    1e-12,
)
def _chk_chart_monotone(cfg, t):
    chart = tc.builtin_chart(2)
    for e in chart.edges:
        if not e.missing(_FULL_PROPS):
            _edge_grid(t, e, _FULL_PROPS)


# ---------------------------------------------------------------------------
# Ball geometry
# ---------------------------------------------------------------------------


@_register(
    "quasihyperbolic-ball-euclidean-squeeze",
    "quasihyperbolic-ball-euclidean-squeeze",
    "punctured plane, x=e1, M in {0.2,0.5,1.0}, 16 directions, margin 1e-3",
    1e-12,
)
def _chk_quasiball(cfg, t):
    x = (1.0, 0.0)
    for M in (0.2, 0.5, 1.0):
        rep = bg.quasiball_radii(M)
        r_in = rep.inner_euclid_radius_factor * (1.0 - 1e-3)
        r_out = rep.outer_euclid_radius_factor * (1.0 + 1e-3)
        for a in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            u = (math.cos(float(a)), math.sin(float(a)))
            y_in = (x[0] + r_in * u[0], x[1] + r_in * u[1])
            k = mt.quasihyperbolic_exact("punctured_space", x, y_in)
            t.add(M - k, f"inner M={_g(M)} angle={_g(float(a))}")
            y_out = (x[0] + r_out * u[0], x[1] + r_out * u[1])
            k = mt.quasihyperbolic_exact("punctured_space", x, y_out)
            t.add(k - M, f"outer M={_g(M)} angle={_g(float(a))}")


@_register(
    "capacity-ball-constants-ordering",
    "capacity-ball-constants-ordering",
    "n=2, t in {0.5,1,2,4}",
    1e-12,
)
def _chk_mu_ball(cfg, t):
    ts = (0.5, 1.0, 2.0, 4.0)
    d2s = []
    for x in ts:
        aux = bg.mu_ball_constants(2, x).aux_constants
        d2s.append(aux["d2"])
        t.add(aux["d3"] - aux["d2"], f"d2<d3 at t={_g(x)}")
    _rising(t, d2s, (f"d2 increasing at t={_g(x)}" for x in ts))


@_register(
    "teichmuller-circumscribed-radius",
    "teichmuller-circumscribed-radius",
    "T in {0.05..0.45} step 0.05",
    1e-9,
)
def _chk_circumscribed(cfg, t):
    for T in np.arange(0.05, 0.46, 0.05):
        T = float(T)
        s = math.sqrt((1.0 - 2.0 * T) * (1.0 + 2.0 * T))
        rp = sf.mu_inv(math.pi * (1.0 + s) / (4.0 * T))
        theta = 4.0 * math.asin(rp)
        t.residual(
            sf.teichmuller_p_circle(theta) * T, 1.0, 1e-9 * T, f"T={_g(T)}"
        )
        t.residual(
            bg.circumscribed_lambda_radius(T),
            2.0 * math.sin(0.5 * theta),
            1e-12,
            f"radius T={_g(T)}",
        )


@_register(
    "circumscribed-radius-antipodal-limit",
    "circumscribed-radius-antipodal-limit",
    "T in {0.494..0.4999}: monotone approach to 2; 1% window at T=0.499",
)
def _chk_antipodal_limit(cfg, t):
    Ts = (0.494, 0.496, 0.498, 0.499, 0.4995, 0.4999)
    Rs = [bg.circumscribed_lambda_radius(T) for T in Ts]
    _rising(t, Rs, (f"monotone toward 2 at T={_g(T)}" for T in Ts[1:]))
    for T, R in zip(Ts, Rs):
        t.add(2.0 - R, f"below the limit at T={_g(T)}")
    # the deviation 2 - R_T decays linearly in 1/T - 2 with rate ~4.79,
    # so the 1%-of-limit window opens at T = 0.499 and the absolute
    # 0.01 window only at T ~ 0.4995
    t.add(0.01 - abs(Rs[3] - 2.0) / 2.0, "relative window at T=0.499")
    t.add(0.01 - abs(Rs[4] - 2.0), "absolute window at T=0.4995")
    t.add(0.002 - abs(Rs[5] - 2.0), "absolute window at T=0.4999")


@_register(
    "puncture-separation-threshold",
    "puncture-separation-threshold",
    "r in {0.12,0.5,0.9} above the root; r=0.10 below",
    1e-12,
)
def _chk_threshold(cfg, t):
    for r in (0.12, 0.5, 0.9):
        margin = bg.outer_separating_modulus(r, r) - bg.inner_separating_modulus(r)
        t.add(margin, f"holds at r={_g(r)}")
    flipped = bg.inner_separating_modulus(0.10) - bg.outer_separating_modulus(0.10, 0.10)
    t.add(flipped, "fails at r=0.10")


@_register(
    "separating-ring-quartic-root",
    "separating-ring-quartic-root",
    "bracket (0.11, 0.12]",
    1e-12,
)
def _chk_quartic(cfg, t):
    root = bg.antipodal_threshold()
    t.add(root - 0.11, "root above 0.11")
    t.add(0.12 - root, "root at most 0.12")
    t.add(-bg.antipodal_quartic(0.12), "quartic(0.12) <= 0")
    t.add(1e-10 - abs(bg.antipodal_quartic(root)), "residual at root")


@_register(
    "uniform-puncture-cubic-root",
    "uniform-puncture-cubic-root",
    "bracket (0.75, 0.76)",
    1e-12,
)
def _chk_cubic(cfg, t):
    root = bg.antipodal_irrelevance_radius()
    t.add(root - 0.75, "root above 0.75")
    t.add(0.76 - root, "root below 0.76")
    t.add(1e-9 - abs(root**3 + root**2 - 1.0), "cubic residual")


# ---------------------------------------------------------------------------
# Distortion bounds
# ---------------------------------------------------------------------------


@_register(
    "planar-linear-distortion-bracket",
    "planar-linear-distortion-bracket",
    "K in {1.01..1.9} step 0.01",
)
def _chk_eta_bracket(cfg, t):
    b = ds.PLANAR_LINEAR_RATE
    for K in np.arange(1.01, 1.905, 0.01):
        K = float(K)
        log_eta = math.log(sf.eta_K_n(2, K, 1.0).mid)
        t.add(log_eta - math.pi * (K - 1.0), f"lower K={_g(K)}")
        t.add(b * (K - 1.0) - log_eta, f"upper K={_g(K)}")


@_register(
    "planar-linear-rate-digits",
    "planar-linear-rate-digits",
    "single value",
)
def _chk_rate_digits(cfg, t):
    t.add(1e-5 - abs(ds.PLANAR_LINEAR_RATE - 4.376879), "b digits")
    b = (4.0 / math.pi) * sf.ell_K(1.0 / math.sqrt(2.0)) ** 2
    t.add(1e-13 - abs(ds.PLANAR_LINEAR_RATE - b), "b construction")


@_register(
    "iterate-count-linear-domination",
    "iterate-count-linear-domination",
    "K in [1,17] step 0.01",
    1e-12,
)
def _chk_mn_inequality(cfg, t):
    for K in np.arange(1.0, 17.005, 0.01):
        K = float(K)
        slack = ds.tangent_domination_rhs(3, 2, K) - ds.tangent_domination_lhs(3, 2, K)
        t.add(slack, f"K={_g(K)}")


@_register(
    "iterate-domination-endpoint",
    "iterate-domination-endpoint",
    "m=3, n=2 fixed point",
)
def _chk_mn_endpoint(cfg, t):
    a = ds.tangent_domination_endpoint(3, 2)
    t.add(a - 17.0, "endpoint beyond 17")
    t.add(2.0**3 * math.e**2 - a, "endpoint below closed-form cap")
    res = abs(ds.tangent_domination_lhs(3, 2, a) - ds.tangent_domination_rhs(3, 2, a))
    t.add(1e-8 - res, "fixed-point residual")


@_register(
    "planar-bound-below-spatial",
    "planar-bound-below-spatial",
    "K in {1.01..2.5} step 0.05",
    1e-12,
)
def _chk_planar_below(cfg, t):
    for K in np.arange(1.01, 2.505, 0.05):
        K = float(K)
        t.add(4.5 * (K - 1.0) - ds.id_boundary_euclid_bound(2, K), f"K={_g(K)}")


@_register(
    "lens-diameter-bounds",
    "lens-diameter-bounds",
    "100 seeded admissible configurations, 1e4 hull samples each",
    1e-12,
)
def _chk_lens(cfg, t):
    configs = ds.lens_admissible_configs(100, seed=cfg.seed)
    for i, c in enumerate(configs):
        x, eps = c["x"], float(c["eps"])
        brute = ds.lens_diam_brute(x, eps, 10**4, seed=cfg.seed + i)
        t.add(ds.lens_diam_bound_sqrt(x, eps) - brute, f"sqrt config #{i}")
        if c["omega"] is not None:
            lin = ds.lens_diam_bound_linear(x, eps, float(c["omega"]))
            t.add(lin - brute, f"linear config #{i}")


@_register(
    "radial-stretch-growth-envelope",
    "radial-stretch-growth-envelope",
    "n in {2,3} x K in {1.2,2.0} x |x| in [0.05,2], 40 points",
    1e-12,
)
def _chk_growth_envelope(cfg, t):
    for n in (2, 3):
        for K in (1.2, 2.0):
            alpha = K ** (1.0 / (1.0 - n))
            for r in np.linspace(0.05, 2.0, 40):
                r = float(r)
                env = ds.two_point_growth_bounds(n, K, r)
                val = r**alpha
                t.add(val - env.lo, f"lower n={n},K={_g(K)},r={_g(r)}")
                t.add(env.hi - val, f"upper n={n},K={_g(K)},r={_g(r)}")


# ---------------------------------------------------------------------------
# Harmonic quasiregular maps
# ---------------------------------------------------------------------------


def _seeded_harmonic_map(rng, degree=4, scale=0.5):
    g = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    h = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    return hq.HarmonicPlanarMap(tuple(g), tuple(h))


@_register(
    "power-chain-rule-identity",
    "power-chain-rule-identity",
    "20 seeded (map, point, exponent) triples, relative residual",
    1e-9,
)
def _chk_chain_rule(cfg, t):
    rng = np.random.default_rng(cfg.seed + 301)
    done = 0
    while done < 20:
        f = _seeded_harmonic_map(rng)
        z = complex(*(0.6 * rng.standard_normal(2)))
        u = abs(complex(f(z))) ** 2
        if u < 0.09:
            continue
        p = float(rng.uniform(0.3, 3.0))
        alpha = 0.5 * p
        assembled = alpha * u ** (alpha - 1.0) * float(
            hq.laplacian_abs_f_sq(f, z)
        ) + alpha * (alpha - 1.0) * u ** (alpha - 2.0) * float(hq.grad_abs_f_sq(f, z))
        direct = float(hq.laplacian_abs_f_p(f, z, p))
        scale = max(1.0, abs(direct))
        t.add(1e-9 - abs(assembled - direct) / scale, f"triple #{done}")
        done += 1


@_register(
    "harmonic-laplacian-closed-forms",
    "harmonic-laplacian-closed-forms",
    "12 seeded triples vs five-point finite differences, h=1e-4",
    1e-6,
)
def _chk_fd_oracles(cfg, t):
    rng = np.random.default_rng(cfg.seed + 302)
    h = 1e-4
    done = 0
    while done < 12:
        f = _seeded_harmonic_map(rng, degree=3, scale=0.4)
        z = complex(*(0.4 * rng.standard_normal(2)))
        if abs(complex(f(z))) < 0.5:
            continue
        p = float(rng.uniform(0.5, 2.5))

        def u2(w):
            return abs(complex(f(w))) ** 2

        def up(w, p=p):
            return abs(complex(f(w))) ** p

        fd_lap = (u2(z + h) + u2(z - h) + u2(z + 1j * h) + u2(z - 1j * h) - 4 * u2(z)) / (
            h * h
        )
        got = float(hq.laplacian_abs_f_sq(f, z))
        t.add(1e-6 - abs(got - fd_lap) / max(1.0, abs(got)), f"p2-lap #{done}")
        gx = (u2(z + h) - u2(z - h)) / (2 * h)
        gy = (u2(z + 1j * h) - u2(z - 1j * h)) / (2 * h)
        got = float(hq.grad_abs_f_sq(f, z))
        t.add(
            1e-6 - abs(got - (gx * gx + gy * gy)) / max(1.0, abs(got)),
            f"p2-grad #{done}",
        )
        fd_p = (up(z + h) + up(z - h) + up(z + 1j * h) + up(z - 1j * h) - 4 * up(z)) / (
            h * h
        )
        got = float(hq.laplacian_abs_f_p(f, z, p))
        t.add(1e-6 - abs(got - fd_p) / max(1.0, abs(got)), f"p-lap #{done}")
        done += 1


@_register(
    "subharmonic-exponent-optimality",
    "subharmonic-exponent-optimality",
    "k in {0.2, 1/3, 0.6}, exponent bracket q +/- 1e-3 at z=1",
)
def _chk_sign_flip(cfg, t):
    for k in (0.2, 1.0 / 3.0, 0.6):
        f = hq.HarmonicPlanarMap.shear(k)
        q = hq.subharmonic_exponent(k)
        above = float(hq.laplacian_abs_f_p(f, 1.0, q + 1e-3))
        below = float(hq.laplacian_abs_f_p(f, 1.0, q - 1e-3))
        t.add(above, f"positive above q, k={_g(k)}")
        t.add(-below, f"negative below q, k={_g(k)}")


@_register(
    "subharmonic-at-critical-exponent",
    "subharmonic-at-critical-exponent",
    "k=1/3 shear, 96x96 polar grid of radius 0.95, zeros excluded",
    1e-9,
)
def _chk_critical_exponent(cfg, t):
    f = hq.HarmonicPlanarMap.shear(1.0 / 3.0)
    scan = hq.check_subharmonic(f, 0.75, 0.95, 96, 1e-9)
    t.add(scan.min_value, f"argmin z={scan.argmin:.6g}")


@_register(
    "harmonic-schwarz-gradient-bound",
    "harmonic-schwarz-gradient-bound",
    "10 seeded vanishing-at-0 harmonic polynomials; 4096 boundary, 19x512 interior",
)
def _chk_schwarz(cfg, t):
    rng = np.random.default_rng(cfg.seed + 303)
    boundary = np.exp(2j * math.pi * np.arange(4096) / 4096)
    radii = np.linspace(0.05, 0.95, 19)
    angles = np.exp(2j * math.pi * np.arange(512) / 512)
    interior = radii[:, None] * angles[None, :]
    for i in range(10):
        f = _seeded_harmonic_map(rng, degree=5)
        f = hq.HarmonicPlanarMap((0,) + f.g_coeffs[1:], (0,) + f.h_coeffs[1:])
        sup = float(np.max(np.abs(f(boundary))))
        ratio = float(np.max(np.abs(f(interior)) / np.abs(interior)))
        t.add(
            hq.HARMONIC_SCHWARZ_FACTOR * sup * (1.0 + 1e-6) - ratio, f"map #{i}"
        )


@_register(
    "modulus-subadditivity",
    "modulus-subadditivity",
    "128-mode series; delta split 0.07+0.05; 4096 vs 8192 boundary samples",
)
def _chk_subadditivity(cfg, t):
    f = hq.alternating_cosine_map(128)
    consts = []
    for n in (4096, 8192):
        phi = hq.boundary_samples_of(f, n)
        top = hq.boundary_modulus(phi, 0.12)
        bottom = hq.boundary_modulus(phi, 0.07) + hq.boundary_modulus(phi, 0.05)
        consts.append(top / bottom)
    t.add(2.0 - max(consts), f"constant C={_g(max(consts))}")
    t.add(0.1 * consts[1] - abs(consts[0] - consts[1]), "stability across refinement")


@_register(
    "boundary-interior-modulus-separation",
    "boundary-interior-modulus-separation",
    "256-mode series; delta in {0.1, 0.01}; 8192 boundary samples",
)
def _chk_separation(cfg, t):
    f = hq.alternating_cosine_map(256)
    rows = hq.modulus_profile(f, [0.1, 0.01], boundary_N=8192)
    for row in rows:
        t.add(1.8 - row.boundary / row.delta, f"boundary ratio delta={_g(row.delta)}")
    coarse = rows[0].closed / rows[0].delta
    fine = rows[1].closed / rows[1].delta
    t.add(fine - 1.4 * coarse, f"interior growth {_g(coarse)} -> {_g(fine)}")


@_register(
    "quasiregular-modulus-transfer",
    "quasiregular-modulus-transfer",
    "0.5-shear; delta in {0.1, 0.03}; 32768 boundary samples",
)
def _chk_qr_transfer(cfg, t):
    f = hq.HarmonicPlanarMap.shear(0.5)
    rows = hq.modulus_profile(f, [0.1, 0.03], boundary_N=32768)
    ratios = [r.closed / r.boundary for r in rows]
    t.add(1.1 - max(ratios) / min(ratios), f"spread={_g(max(ratios) / min(ratios))}")


@_register(
    "poisson-kernel-normalization",
    "poisson-kernel-normalization",
    "constant data at |x| in {0, 0.37, 0.99}",
)
def _chk_poisson_constant(cfg, t):
    v = np.array([1.0, -2.0, 0.5])
    phi = hq.SphereBoundaryFunction(lambda xi: v, 0.0)
    for x in ([0.0, 0.0, 0.0], [0.1, 0.2, -0.3], [0.0, 0.0, 0.99]):
        out = hq.poisson_ball3(phi, x)
        err = float(np.max(np.abs(out - v)))
        t.add(1e-12 - err, f"|x|={_g(float(np.linalg.norm(x)))}")


@_register(
    "poisson-linear-reproduction",
    "poisson-linear-reproduction",
    "identity boundary data at two interior points",
)
def _chk_poisson_identity(cfg, t):
    phi = hq.SphereBoundaryFunction(lambda xi: xi, 1.0)
    for x in ([0.2, -0.1, 0.85], [0.0, 0.0, 0.9]):
        out = hq.poisson_ball3(phi, x)
        err = float(np.max(np.abs(out - np.asarray(x))))
        t.add(1e-6 - err, f"x={x}")


@_register(
    "mean-jacobian-below-pointwise",
    "mean-jacobian-below-pointwise",
    "8 seeded orientation-preserving maps x 3 interior points",
)
def _chk_alpha(cfg, t):
    rng = np.random.default_rng(cfg.seed + 304)
    done = 0
    while done < 8:
        g = (0.0, 1.0) + tuple(0.1 * rng.standard_normal(2) * 1j + 0.0)
        h = (0.0,) + tuple(0.2 * rng.standard_normal(2))
        f = hq.HarmonicPlanarMap(g, h)
        try:
            for z in (0.0, 0.2 + 0.1j, -0.4):
                root_j = math.sqrt(float(f.jacobian(z)))
                t.add(
                    root_j - hq.alpha_f_disk(f, z) * (1.0 - 1e-9),
                    f"map #{done} z={z}",
                )
        except hq.OrientationError:
            continue
        done += 1


@_register(
    "lipschitz-harmonic-extension",
    "lipschitz-harmonic-extension",
    "0.4-shear boundary data; 40 seeded interior pairs",
)
def _chk_lipschitz_extension(cfg, t):
    original = hq.HarmonicPlanarMap.shear(0.4)
    f = hq.poisson_disk_extend(hq.boundary_samples_of(original, 64), 8)
    rng = np.random.default_rng(cfg.seed + 305)
    for i in range(40):
        a = complex(*(0.7 * rng.uniform(-1.0, 1.0, 2)))
        b = complex(*(0.7 * rng.uniform(-1.0, 1.0, 2)))
        if abs(a - b) < 1e-6:
            continue
        ratio = abs(complex(f(a)) - complex(f(b))) / abs(a - b)
        t.add(1.4 * (1.0 + 1e-9) - ratio, f"pair #{i}")
    t.add(1e-10 - abs(hq.quasiregularity_constant(f) - 0.4), "recovered dilatation")


# ---------------------------------------------------------------------------
# Checks gated on externally supplied constants
# ---------------------------------------------------------------------------


@_register(
    "capacity-distance-ratio-constant",
    "capacity-dominates-distance-ratio",
    "cn-gated edges: 40-point monotonicity grid",
    1e-12,
    needs=("cn",),
)
def _chk_cn_edges(cfg, t):
    props = replace(_FULL_PROPS, cn_constant=cfg.cn)
    for e in _gated_edges(t, "cn", props):
        _edge_grid(t, e, props)


@_register(
    "uniform-domain-growth-constant",
    "uniform-domain-growth",
    "uniform-gated edges: zero limit and 40-point monotonicity grid",
    1e-12,
    needs=("uniform_c",),
)
def _chk_uniform_edges(cfg, t):
    props = _local_props(uniform_constant=cfg.uniform_c)
    for e in _gated_edges(t, "uniform", props):
        v = tc.eval_edge(e, props, 1e-6 / cfg.uniform_c)
        t.add(1e-3 - v, f"{e.provenance} zero limit")
        _edge_grid(t, e, props)


@_register(
    "qed-capacity-comparison-constant",
    "qed-capacity-comparison",
    "qed-gated edges: decay ordering and 40-point monotonicity grid",
    1e-12,
    needs=("qed_c",),
)
def _chk_qed_edges(cfg, t):
    props = _local_props(qed_constant=cfg.qed_c)
    for e in _gated_edges(t, "qed", props):
        v6 = tc.eval_edge(e, props, 1e-6)
        v60 = tc.eval_edge(e, props, 1e-60)
        t.add(v6 - v60, f"{e.provenance} decay ordering")
        _edge_grid(t, e, props)


DOCUMENTED_TOTAL = 49

if len(_REGISTRY) != DOCUMENTED_TOTAL:  # pragma: no cover
    raise RuntimeError(
        f"check registry holds {len(_REGISTRY)} checks, documented {DOCUMENTED_TOTAL}"
    )


def registered_check_ids() -> tuple[str, ...]:
    return tuple(c.check_id for c in _REGISTRY)


def _run_check(check: _Check, cfg: VerifyConfig) -> VerifyEntry:
    tol = check.tolerance
    entry = functools.partial(
        VerifyEntry, check.check_id, check.provenance, check.grid_spec, tolerance=tol
    )
    if any(getattr(cfg, need) is None for need in check.needs):
        return entry(min_slack=0.0, argmin="-", passed=True, note=SKIP_NOTE)
    t = _Tracker()
    try:
        check.fn(cfg, t)
    except Exception as exc:  # a check that raises fails; the others still run
        note = f"raised {type(exc).__name__}: {exc}"
        return entry(min_slack=math.nan, argmin="-", passed=False, note=note)
    # False for NaN: a NaN slack or an empty grid fails
    return entry(min_slack=t.min_slack, argmin=t.argmin, passed=t.min_slack >= -tol)


def run_verify(
    filter_regex: str | None = None, config: VerifyConfig | None = None
) -> VerifyReport:
    """Run every registered check (or those matching ``filter_regex``).

    Entry order follows registration order.  Checks whose required
    constants are absent from ``config`` are reported as skipped with
    ``passed=True`` so they never fail a run they cannot participate in.
    A check that raises is reported as failed, with the exception in its
    ``note``, and the run goes on.
    """
    cfg = config or VerifyConfig()
    pattern = re.compile(filter_regex) if filter_regex else None
    checks = [c for c in _REGISTRY if pattern is None or pattern.search(c.check_id)]
    return VerifyReport(tuple(_run_check(c, cfg) for c in checks))


# ---------------------------------------------------------------------------
# Distortion inequality report
# ---------------------------------------------------------------------------


def _at_K(slack):
    """A row evaluated at the single point K."""
    return lambda K, n, grid_points: ([K], [slack(K, n)])


def _power_envelope_crossing(K, n, grid_points):
    alpha, beta, log_c3 = ds._growth_constants(n, K)
    c3 = math.exp(log_c3)
    ts_low = np.linspace(1e-6, 1.0, grid_points)
    ts_high = np.linspace(1.0, 10.0, grid_points)
    slack_low = c3 * ts_low**alpha - 2.0 * ts_low + ts_low**beta / c3
    slack_high = c3 * ts_high**beta - 2.0 * ts_high + ts_high**alpha / c3
    return np.concatenate([ts_low, ts_high]), np.concatenate([slack_low, slack_high])


def _log_power_transfer(K, n, grid_points):
    # log(1 + c3 t^p) in log space, since c3 overflows from K ~ 141; a right
    # side past float range is inf, and so is its slack
    alpha, beta, log_c3 = ds._growth_constants(n, K)
    ts_low = np.linspace(1e-6, 1.0, grid_points)
    ts_high = np.linspace(1.0, 50.0, grid_points)
    powers = np.concatenate([alpha * np.log(ts_low), beta * np.log(ts_high)])
    lhs = np.logaddexp(0.0, log_c3 + powers)
    with np.errstate(over="ignore"):
        scale = np.exp(log_c3) / alpha
        rhs = scale * np.concatenate([np.log1p(ts_low) ** alpha, np.log1p(ts_high)])
    return np.concatenate([ts_low, ts_high]), rhs - lhs


def _branch_agreement(K, n, grid_points):
    alpha = ds._growth_constants(n, K)[0]
    return [1.0], [0.0 if 1.0**alpha == 1.0 else -abs(1.0**alpha - 1.0)]


#: check id, statement, window, K-window predicate and
#: (K, n, grid_points) -> (points, slacks)
_REPORT_ROWS = (
    (
        "planar-linear-rate",
        "planar identity-boundary rho bound below the sharp linear rate",
        "K >= 1, n = 2",
        lambda K: True,
        _at_K(
            lambda K, n: ds.PLANAR_LINEAR_RATE * (K - 1.0)
            - ds.id_boundary_rho_bound(2, K).hi
        ),
    ),
    (
        "planar-exponential-lower",
        "exp(pi (K-1)) stays below the planar quasisymmetry value at 1",
        "K > 1, n = 2",
        lambda K: K > 1.0,
        _at_K(lambda K, n: ds.id_boundary_rho_bound(2, K).hi - math.pi * (K - 1.0)),
    ),
    (
        "dimension-free-linear-rate",
        "log-power chain value below (4 + 6 log 2)(K - 1)",
        "1 <= K <= 17, any n",
        lambda K: K <= 17.0,
        _at_K(
            lambda K, n: ds.tangent_domination_rhs(3, 2, K)
            - ds.tangent_domination_lhs(3, 2, K)
        ),
    ),
    (
        "power-envelope-crossing",
        "upper envelope overshoot dominates lower envelope undershoot",
        "K in (1, 2]",
        lambda K: 1.0 < K <= 2.0,
        _power_envelope_crossing,
    ),
    (
        "log-power-transfer",
        "log of the quasisymmetry growth below the log-power transfer",
        "K > 1 (c3 > 1)",
        lambda K: K > 1.0,
        _log_power_transfer,
    ),
    (
        "transfer-branch-agreement",
        "the branches of max(j^alpha, j) coincide at j = 1",
        "K > 1",
        lambda K: K > 1.0,
        _branch_agreement,
    ),
)


def distortion_inequality_report(
    K: float, n: int = 2, *, grid_points: int = 2001
) -> dict:
    """Slack report for the scalar inequalities behind the linear rates,
    the power envelope and the distance-ratio transfer, at a given K.

    Each entry carries the minimal slack (right side minus left side) over
    its grid and the grid point attaining it, found as in the verify checks;
    entries whose K window excludes K are marked inapplicable.
    """
    n = sf.check_dimension(n)
    if not 1.0 <= K < math.inf:
        raise ValueError(f"distortion_inequality_report needs finite K >= 1, got K={K}")
    entries = []
    for check_id, description, window, applies, evaluate in _REPORT_ROWS:
        entry = {"check_id": check_id, "description": description, "window": window}
        entry.update(applicable=applies(K), min_slack=None, argmin=None, grid_points=0)
        if entry["applicable"]:
            points, slacks = evaluate(K, n, grid_points)
            tracker = _Tracker()
            for slack, at in zip(slacks, points):
                tracker.add(slack, at)
            entry["min_slack"] = tracker.min_slack
            entry["argmin"] = float(tracker.argmin)
            entry["grid_points"] = len(points)
            if check_id == "power-envelope-crossing":
                c3 = math.exp(ds._growth_constants(n, K)[2])
                entry["t1_margin"] = c3 + 1.0 / c3 - 2.0
        entries.append(entry)
    return {"K": float(K), "n": n, "entries": entries}
