"""Per-layer metrics computed from the spans of one traced unit."""

from __future__ import annotations

import math
from collections import defaultdict

from spans import LAYERS, self_times

# the five slowest configured checks at seed 0; the rest are summed
SLOW_CHECKS = (
    "absolute-ratio-metric-sandwich",
    "lens-diameter-bounds",
    "phipythagorean-complement",
    "quasiregular-modulus-transfer",
    "boundary-interior-modulus-separation",
)

SF_PER_CALL = ("mu", "mu_inv", "phi_K", "tau2_inv")


def _outermost(spans, idx: int, key: int) -> bool:
    """True when no ancestor of span ``idx`` shares its field ``key``."""
    value, parent = spans[idx][key], spans[idx][4]
    while parent >= 0:
        if spans[parent][key] == value:
            return False
        parent = spans[parent][4]
    return True


def _median_op(res):
    """Index and latency of the operation at the median latency."""
    order = sorted(range(len(res.latencies)), key=lambda i: res.latencies[i][1])
    i = order[max(0, math.ceil(0.5 * len(order)) - 1)]
    return i, res.latencies[i][1]


def per_layer(spans, res, base, dist) -> dict:
    """Metrics of the traced unit ``res``; ``base`` is the untraced unit before it."""
    own = self_times(spans)
    busy = defaultdict(float)  # function name -> time inside it
    calls = defaultdict(int)
    work = defaultdict(int)
    self_by_name = defaultdict(float)
    layer_busy = defaultdict(float)
    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        name, layer, dur = s[0], s[1], s[3] - s[2]
        calls[name] += 1
        work[name] += s[6]
        self_by_name[name] += own[i]
        layer_self[layer] += own[i]
        if _outermost(spans, i, 0):
            busy[name] += dur
        if _outermost(spans, i, 1):
            layer_busy[layer] += dur

    def per_call(name: str, scale: float) -> float:
        return scale * busy[name] / calls[name] if calls[name] else 0.0

    lens = "distortion.lens_diam_brute"
    m = {
        "metrics.seittenranta.busy_s": (busy["metrics.seittenranta"], "s"),
        "metrics.apollonian.busy_s": (busy["metrics.apollonian"], "s"),
        "metrics.sup.pairs": (work["metrics.seittenranta"] + work["metrics.apollonian"], "count"),
        "metrics.quasihyperbolic_numeric.busy_s": (busy["metrics.quasihyperbolic_numeric"], "s"),
        "metrics.quasihyperbolic_numeric.calls": (calls["metrics.quasihyperbolic_numeric"], "count"),
        "metrics.qh.dist_calls": (dist["calls"], "count"),
        "metrics.qh.dist_points": (dist["points"], "count"),
        "metrics.qh.dist_s": (dist["seconds"], "s"),
        "metrics.qh.points_per_call": (
            dist["points"] / dist["calls"] if dist["calls"] else 0.0, "count"
        ),
        f"{lens}.busy_s": (busy[lens], "s"),
        f"{lens}.samples_per_s": (work[lens] / busy[lens] if busy[lens] else 0.0, "1/s"),
        "harmonic_qr.map_eval.busy_s": (busy["harmonic_qr.map_eval"], "s"),
        "harmonic_qr.map_eval.point_terms": (work["harmonic_qr.map_eval"], "count"),
        "harmonic_qr.closed_modulus.self_s": (self_by_name["harmonic_qr.closed_modulus"], "s"),
        "harmonic_qr.boundary_modulus.busy_s": (busy["harmonic_qr.boundary_modulus"], "s"),
        "harmonic_qr.poisson_ball3.busy_s": (busy["harmonic_qr.poisson_ball3"], "s"),
    }
    for fn in SF_PER_CALL:
        m[f"special_functions.{fn}.us"] = (per_call(f"special_functions.{fn}", 1e6), "us")
    m["special_functions.busy_s"] = (layer_busy["special_functions"], "s")
    m["transfer_chart.query.busy_s"] = (busy["transfer_chart.query"], "s")
    m["ball_geometry.busy_s"] = (layer_busy["ball_geometry"], "s")
    m["cli.build_parser.ms"] = (per_call("cli.build_parser", 1e3), "ms")
    main_calls = calls["cli.main"]
    m["cli.main.self_ms"] = (
        1e3 * self_by_name["cli.main"] / main_calls if main_calls else 0.0, "ms"
    )
    op, latency = _median_op(res)
    cli_self = sum(own[i] for i, s in enumerate(spans) if s[5] == op and s[1] == "cli")
    m["cli.median_op_share"] = (cli_self / latency if latency else 0.0, "frac")

    # per-check times of the untraced unit; only verify's operations are checks
    check_s = dict(base.latencies)
    if not any(cid in check_s for cid in SLOW_CHECKS):
        check_s = {}
    for cid in SLOW_CHECKS:
        m[f"verify.check.{cid}_s"] = (check_s.get(cid, 0.0), "s")
    rest = sum(v for k, v in check_s.items() if k not in SLOW_CHECKS)
    m["verify.check.rest_s"] = (rest, "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.spans"] = (len(spans), "count")
    return m


def dominant(spans, res) -> list[str]:
    """Readable summary: layers and functions by self time, and the median op."""
    own = self_times(spans)
    wall = sum(dt for _, dt in res.latencies)
    by_layer = defaultdict(float)
    by_name = defaultdict(float)
    for i, s in enumerate(spans):
        by_layer[s[1]] += own[i]
        by_name[s[0]] += own[i]
    lines = []
    for label, table in (("layer", by_layer), ("function", by_name)):
        top = sorted(table.items(), key=lambda kv: -kv[1])[:3]
        lines.append(
            f"{label} by self time: "
            + ", ".join(f"{k} {v:.3f} s ({100 * v / wall:.0f}%)" for k, v in top)
        )
    op, latency = _median_op(res)
    shares = defaultdict(float)
    for i, s in enumerate(spans):
        if s[5] == op:
            shares[s[1]] += own[i]
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
    lines.append(
        f"median op {res.latencies[op][0]} {1e3 * latency:.2f} ms: "
        + ", ".join(f"{k} {1e3 * v:.2f} ms" for k, v in top)
    )
    return lines
