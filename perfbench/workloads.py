"""The benchmark's three closed-loop workloads.

Each workload turns a seed into plain-data inputs (so two runs can be shown
to have measured the same work by their digest) and runs them as one
client that waits for every answer before asking the next question.  A
unit of work returns, per operation, its latency and whether its output
matched an independent reference (``refs``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import time

import numpy as np

import refs


@dataclasses.dataclass
class UnitResult:
    latencies: list[tuple[str, float]]  # (operation label, seconds)
    outcomes: list[tuple[str, bool, str]]  # (reference label, passed, note)
    qh_errs: list[float]  # relative errors of numeric quasihyperbolic values


class Context:
    """What a unit needs from the runner: op marking and domain building.

    ``per_check`` asks the verify workload for one request per check
    instead of one suite run, so that a traced run can time each check.
    """

    def __init__(self, tracer=None, per_check: bool = False) -> None:
        self.tracer = tracer
        self.per_check = per_check
        self.dist = {"calls": 0, "points": 0, "seconds": 0.0}

    def operation(self, op_id: int):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.operation(op_id)

    def domain(self, name: str, n: int):
        """A canonical domain; when tracing, its boundary distance is counted."""
        import cgft.metrics as mt

        D = mt.canonical_domain(name, n)
        if self.tracer is None:
            return D
        inner, dist, clock = D.dist_to_boundary, self.dist, time.perf_counter

        def counted(X):
            t0 = clock()
            out = inner(X)
            dist["seconds"] += clock() - t0
            dist["calls"] += 1
            dist["points"] += int(np.size(X)) // n
            return out

        return dataclasses.replace(D, dist_to_boundary=counted)


def digest(inputs) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _timed(ctx, op_id, fn, *args, **kwargs):
    """Run one operation; return (seconds, result, error text)."""
    with ctx.operation(op_id):
        t0 = time.perf_counter()
        try:
            out, err = fn(*args, **kwargs), ""
        except Exception as exc:  # a raising operation counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, out, err


# ---------------------------------------------------------------------------
# exact symmetries that map a domain's grid graph onto itself


def _d4(rng) -> tuple[tuple[float, ...], ...]:
    """A random element of the square's symmetry group as a 2x2 matrix."""
    k, flip = int(rng.integers(4)), bool(rng.integers(2))
    c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[k]
    m = ((c, -s), (s, c))
    return ((m[0][0], -m[0][1]), (m[1][0], -m[1][1])) if flip else m


def _signed_permutation(rng, n: int):
    perm = rng.permutation(n)
    signs = rng.choice((-1.0, 1.0), size=n)
    return tuple(tuple(float(signs[i]) if j == perm[i] else 0.0 for j in range(n)) for i in range(n))


def _apply(m, p) -> tuple[float, ...]:
    return tuple(float(sum(m[i][j] * p[j] for j in range(len(p)))) for i in range(len(p)))


def move_pair(rng, domain: str, x, y):
    """Move a pair by a random exact symmetry of ``domain`` and its grid.

    The numeric quasihyperbolic search centres an axis-aligned grid on the
    pair and scales it with the pair, so these maps leave the graph, its
    refinement depth and hence the cost unchanged, and change the value
    only in rounding.  Half space: horizontal reflection, shift and
    dilation.  Punctured space: square symmetries and dilation.  Ball and
    punctured ball: square (or cube) symmetries.  Plane minus {0, 1}: the
    reflections z -> conj(z) and z -> 1 - conj(z).
    """
    if rng.integers(2):
        x, y = y, x
    if domain == "half_space":
        sign = float(rng.choice((-1.0, 1.0)))
        shift = float(rng.uniform(-3.0, 3.0))
        scale = float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        move = lambda p: (scale * (sign * p[0] + shift), scale * p[1])  # noqa: E731
    elif domain == "punctured_space":
        m = _d4(rng)
        scale = float(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        move = lambda p: tuple(scale * c for c in _apply(m, p))  # noqa: E731
    elif domain in ("ball", "punctured_ball"):
        m = _d4(rng) if len(x) == 2 else _signed_permutation(rng, len(x))
        move = lambda p: _apply(m, p)  # noqa: E731
    elif domain == "plane_minus_0_1":
        fx, fy = bool(rng.integers(2)), bool(rng.integers(2))
        move = lambda p: (1.0 - p[0] if fx else p[0], -p[1] if fy else p[1])  # noqa: E731
    else:
        raise ValueError(domain)
    return list(move(x)), list(move(y))


# ---------------------------------------------------------------------------
# verify: the configured suite


VERIFY_CONSTANTS = {"cn": 0.15, "uniform_c": 2.0, "qed_c": 0.5}


class Verify:
    """``run_verify(None, cfg)`` as one request, each entry checked for a pass.

    With ``ctx.per_check`` every check is its own filtered request
    ``run_verify("^id$", cfg)``; the checks are seeded independently, so
    the entries are the same.
    """

    name = "verify"

    def inputs(self, seed: int):
        from cgft.verify import registered_check_ids

        return {"seed": seed, **VERIFY_CONSTANTS, "checks": list(registered_check_ids())}

    def run_unit(self, inputs, ctx: Context) -> UnitResult:
        from cgft.verify import VerifyConfig, run_verify

        cfg = VerifyConfig(inputs["seed"], **VERIFY_CONSTANTS)
        if ctx.per_check:
            requests = [(cid, f"^{re.escape(cid)}$") for cid in inputs["checks"]]
        else:
            requests = [("suite", None)]
        res = UnitResult([], [], [])
        entries = []
        for i, (label, pattern) in enumerate(requests):
            dt, report, err = _timed(ctx, i, run_verify, pattern, cfg)
            res.latencies.append((label, dt))
            if err:
                res.outcomes.append((label, False, err))
            else:
                entries += report.entries
        seen = [e.check_id for e in entries]
        if seen != inputs["checks"] and all(ok for _, ok, _ in res.outcomes):
            res.outcomes.append(("registry", False, f"entries {seen}"))
        for e in entries:
            ok = e.passed and not e.note
            res.outcomes.append((e.check_id, ok, "" if ok else json.dumps(e.to_dict())))
        return res


# ---------------------------------------------------------------------------
# moduli: acceptance criterion 11 on a phase-rotated map


MODULI_DELTAS = (1e-1, 1e-2, 1e-3)
SHEAR_K = 0.5


def _rotated(f, theta: float):
    """e^{i theta} f, as g -> e^{i theta} g and h -> e^{-i theta} h."""
    from cgft.harmonic_qr import HarmonicPlanarMap

    w = complex(math.cos(theta), math.sin(theta))
    return HarmonicPlanarMap(
        tuple(w * c for c in f.g_coeffs), tuple(w.conjugate() * c for c in f.h_coeffs)
    )


class Moduli:
    name = "moduli"

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        return {
            "theta": float(rng.uniform(0.0, 2.0 * math.pi)),
            "series": {"modes": 2048, "boundary_N": 8192},
            "shear": {"k": SHEAR_K, "boundary_N": 65536},
            "deltas": list(MODULI_DELTAS),
        }

    def run_unit(self, inputs, ctx: Context) -> UnitResult:
        import cgft.harmonic_qr as hq

        theta, deltas = inputs["theta"], inputs["deltas"]
        res = UnitResult([], [], [])
        start = time.monotonic()
        series = _rotated(hq.alternating_cosine_map(inputs["series"]["modes"]), theta)
        dt, rows, err = _timed(
            ctx, 0, hq.modulus_profile, series, deltas, boundary_N=inputs["series"]["boundary_N"]
        )
        res.latencies.append(("series", dt))
        shear = _rotated(hq.HarmonicPlanarMap.shear(inputs["shear"]["k"]), theta)
        dt2, shear_rows, err2 = _timed(
            ctx, 1, hq.modulus_profile, shear, deltas, boundary_N=inputs["shear"]["boundary_N"]
        )
        res.latencies.append(("shear", dt2))
        elapsed = time.monotonic() - start

        def claim(label, test, note):
            res.outcomes.append((label, bool(test), "" if test else note))

        if err or err2:
            for label in ("boundary-lipschitz", "closed-growth", "shear-spread", "shear-exact"):
                claim(label, False, err or err2)
        else:
            rb = [r.boundary / r.delta for r in rows]
            rc = [r.closed / r.delta for r in rows]
            spread = [r.closed / r.boundary for r in shear_rows]
            claim("boundary-lipschitz", max(rb) <= 1.8, f"boundary ratios {rb}")
            claim("closed-growth", rc[2] >= 2.0 * rc[0], f"closed ratios {rc}")
            claim("shear-spread", max(spread) / min(spread) < 1.10, f"spread {spread}")
            # a sampled supremum cannot exceed the exact modulus (1 + k) delta
            exact = [(1.0 + inputs["shear"]["k"]) * r.delta for r in shear_rows]
            worst = max(r.closed / e for r, e in zip(shear_rows, exact))
            claim("shear-exact", worst <= 1.0 + 1e-12, f"closed / exact {worst!r}")
        claim("wall-60s", elapsed <= 60.0, f"{elapsed:.1f} s")
        return res


# ---------------------------------------------------------------------------
# queries: a seeded stream of single questions


# Numeric quasihyperbolic pairs (domain, x, y, copies per stream), grouped by
# the grid level at which the search meets tol 1e-3.  Distance-ratio j alone
# does not predict that level (j = 0.92 can stop at level 1 while j = 0.75
# needs level 4), so the pairs are stratified by measured depth.  Every seed
# asks each pair the same number of times, each copy moved by its own random
# exact symmetry, so every seed gets the same spread of depths.
QH_SHALLOW = (  # level 1: the straight segment already wins
    ("half_space", (0.0, 1.0), (0.6, 1.3), 1),
    ("punctured_space", (1.0, 0.0), (1.8, 0.9), 1),
    ("ball", (0.2, 0.1), (-0.4, 0.3), 1),
    ("ball", (0.1, 0.0), (0.6, 0.0), 1),
    ("punctured_ball", (0.4, 0.0), (0.6, 0.1), 1),
    ("plane_minus_0_1", (0.5, 0.5), (0.5, -0.5), 1),
    ("plane_minus_0_1", (0.5, 1.0), (0.5, -0.6), 1),
    ("ball", (0.1, 0.2, 0.0), (-0.3, 0.1, 0.2), 1),
    ("ball", (0.4, 0.0, 0.0), (-0.4, 0.0, 0.0), 1),
    ("ball", (0.3, 0.3, 0.0), (-0.3, 0.0, 0.4), 1),
)
# Level 2.  The eight copies of the first pair, the dearest of the ball and
# punctured-ball group, straddle the 90th percentile of the whole stream, so
# query_p90_ms is a middle order statistic of one question asked eight
# times, not a jump between two kinds of question.
QH_MID = (
    ("ball", (0.327, 0.496), (0.307, 0.153), 8),
    ("ball", (-0.3, 0.0), (0.55, 0.0), 5),
    ("punctured_ball", (0.5, 0.0), (0.0, 0.5), 5),
    ("punctured_ball", (-0.21, -0.09), (0.46, -0.06), 5),
    ("punctured_ball", (0.4, 0.02), (-0.44, 0.16), 5),
    ("half_space", (0.0, 1.0), (1.84, 0.65), 1),
    ("punctured_space", (1.0, 0.0), (-1.35, 2.08), 1),
    ("punctured_space", (1.0, 0.0), (-0.99, 0.06), 1),
    ("punctured_space", (1.0, 0.0), (0.6, 0.8), 1),
)
QH_DEEP = (  # level 4
    ("half_space", (0.0, 1.0), (1.0, 1.5), 1),
    ("punctured_ball", (0.3, 0.1), (-0.2, 0.4), 1),
)
QH_STRATA = (("shallow", QH_SHALLOW), ("mid", QH_MID), ("deep", QH_DEEP))

# the CLI answers these two from closed forms, so they go to the library
LIBRARY_QH = ("half_space", "punctured_space")

# cheap CLI questions per stream, by kind
CHEAP_COUNTS = {
    "sf.mu": 10,
    "sf.mu-inv": 7,
    "sf.phik": 10,
    "sf.tau2-inv": 7,
    "chart.query": 12,
    "ball.circumscribed": 7,
    "metric.hyperbolic": 7,
    "metric.j": 6,
    "metric.seittenranta.punctured": 4,
}
SUP_QUERIES = (
    ("seittenranta", "half_space"),
    ("apollonian", "half_space"),
    ("seittenranta", "ball"),
    ("apollonian", "ball"),
)
SUP_SAMPLES = {"half_space": 161, "ball": 128}


def sup_samples() -> dict:
    """The boundary samples the CLI builds for the supremum questions."""
    import cgft.metrics as mt

    return {
        domain: [p.coords for p in mt.canonical_domain(domain, 2, m).boundary_samples]
        for domain, m in SUP_SAMPLES.items()
    }


def _f(v: float) -> str:
    return repr(float(v))


def _disk_point(rng, r_max: float) -> list[float]:
    r = r_max * math.sqrt(float(rng.uniform(0.01, 1.0)))
    a = float(rng.uniform(0.0, 2.0 * math.pi))
    return [r * math.cos(a), r * math.sin(a)]


def _point_in(rng, domain: str) -> list[float]:
    if domain == "ball":
        return _disk_point(rng, 0.6)
    if domain == "half_space":
        return [float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.2, 2.0))]
    if domain == "punctured_space":
        r = float(math.exp(rng.uniform(-1.0, 1.0)))
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        return [r * math.cos(a), r * math.sin(a)]
    raise ValueError(domain)


def _metric_argv(domain, metric, x, y, samples=None):
    argv = ["metric", "--domain", domain, "--metric", metric]
    if samples is not None:
        argv += ["--boundary-samples", str(samples)]
    return argv + ["--x", *map(_f, x), "--y", *map(_f, y)]


def _cheap(rng, kind: str, i: int):
    """One cheap question: (label, argv, reference spec)."""
    if kind == "sf.mu":
        r = float(rng.uniform(0.02, 0.98))
        return kind, ["sf", "mu", _f(r)], ["mu", r]
    if kind == "sf.mu-inv":
        y = float(rng.uniform(1.2, 5.0))
        return kind, ["sf", "mu-inv", _f(y)], ["mu_inv", y]
    if kind == "sf.phik":
        K, r = float(rng.uniform(1.1, 3.0)), float(rng.uniform(0.05, 0.7))
        return kind, ["sf", "phik", _f(K), _f(r)], ["phi_k", K, r]
    if kind == "sf.tau2-inv":
        y = float(rng.uniform(0.5, 3.0))
        return kind, ["sf", "tau2-inv", _f(y)], ["tau2_inv", y]
    if kind == "chart.query":
        shape = ("k-j", "j-k", "j-mu")[i % 3]
        frm, to = shape.split("-")
        c = None
        if shape == "j-mu":
            t = float(rng.uniform(0.05, 0.5))
            extra = ["--local"]
        elif shape == "j-k":
            t, c = float(rng.uniform(0.05, 2.0)), float(rng.uniform(1.5, 4.0))
            extra = ["--uniform-c", _f(c)]
        else:
            t = float(rng.uniform(0.05, 2.0))
            extra = []
        argv = ["chart", "query", "--from", frm, "--to", to, "--t", _f(t), *extra]
        return f"chart.{shape}", argv, ["chart", frm, to, t, c]
    if kind == "ball.circumscribed":
        T = float(rng.uniform(0.05, 0.4))
        return kind, ["ball", "circumscribed", "--T", _f(T)], ["circumscribed", T]
    if kind == "metric.hyperbolic":
        x, y = _disk_point(rng, 0.8), _disk_point(rng, 0.8)
        return kind, _metric_argv("ball", "hyperbolic", x, y), ["hyperbolic", x, y]
    if kind == "metric.j":
        domain = ("ball", "half_space", "punctured_space")[i % 3]
        x, y = _point_in(rng, domain), _point_in(rng, domain)
        return f"metric.j.{domain}", _metric_argv(domain, "j", x, y), ["j", domain, x, y]
    if kind == "metric.seittenranta.punctured":
        x, y = _point_in(rng, "punctured_space"), _point_in(rng, "punctured_space")
        argv = _metric_argv("punctured_space", "seittenranta", x, y)
        # Seittenranta's metric equals j on the punctured plane
        return kind, argv, ["j", "punctured_space", x, y]
    raise ValueError(kind)


def _reference(spec, out: float, samples):
    """(ok, note, relative error of a plane quasihyperbolic value or None)."""
    kind, args = spec[0], spec[1:]
    if kind == "qh":
        ok, note, err = refs.check_qh(out, *args)
        return ok, note, err if args[0] in LIBRARY_QH else None
    if kind == "sup":
        return (*refs.check_sup(out, *args, samples[args[1]]), None)
    return (*refs.CHECKS[kind](out, *args), None)


class Queries:
    name = "queries"

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        stream = []
        for kind, count in CHEAP_COUNTS.items():
            for i in range(count):
                label, argv, spec = _cheap(rng, kind, i)
                stream.append({"label": label, "argv": argv, "ref": spec})
        for metric, domain in SUP_QUERIES:
            x, y = _point_in(rng, domain), _point_in(rng, domain)
            stream.append({
                "label": f"sup.{metric}.{domain}",
                "argv": _metric_argv(domain, metric, x, y, SUP_SAMPLES[domain]),
                "ref": ["sup", metric, domain, x, y],
            })
        for stratum, pairs in QH_STRATA:
            for domain, x0, y0, copies in pairs:
                for _ in range(copies):
                    x, y = move_pair(rng, domain, x0, y0)
                    label = f"qh.{stratum}.{domain}{len(x)}"
                    item = {"label": label, "ref": ["qh", domain, x, y]}
                    if domain in LIBRARY_QH:
                        item["library"] = [domain, len(x), x, y]
                    else:
                        item["argv"] = _metric_argv(domain, "quasihyperbolic", x, y)
                    stream.append(item)
        order = rng.permutation(len(stream))
        return {"stream": [stream[i] for i in order], "samples": sup_samples()}

    def run_unit(self, inputs, ctx: Context) -> UnitResult:
        import cgft.cli as cli
        import cgft.metrics as mt

        def ask_cli(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return float(buf.getvalue().split()[0])

        def ask_library(domain, n, x, y):
            return mt.quasihyperbolic_numeric(ctx.domain(domain, n), x, y, tol=1e-3).value

        res = UnitResult([], [], [])
        for i, item in enumerate(inputs["stream"]):
            if "library" in item:
                dt, out, err = _timed(ctx, i, ask_library, *item["library"])
            else:
                dt, out, err = _timed(ctx, i, ask_cli, list(item["argv"]))
            res.latencies.append((item["label"], dt))
            if err:
                res.outcomes.append((item["label"], False, err))
                continue
            ok, note, rel = _reference(item["ref"], out, inputs["samples"])
            res.outcomes.append((item["label"], bool(ok), "" if ok else note))
            if rel is not None:
                res.qh_errs.append(rel)
        return res


# pairs whose numeric error every workload reports, so the graph's accuracy
# is on record even where the workload itself never asks for it
QH_PROBE = (QH_SHALLOW[0][:3], QH_MID[7][:3])


def qh_probe(seed: int) -> UnitResult:
    """Numeric vs exact quasihyperbolic distance on two moved plane pairs."""
    import cgft.metrics as mt

    rng = np.random.default_rng([seed, 4])
    res = UnitResult([], [], [])
    for domain, x0, y0 in QH_PROBE:
        x, y = move_pair(rng, domain, x0, y0)
        D = mt.canonical_domain(domain, 2)
        try:
            out = mt.quasihyperbolic_numeric(D, x, y, tol=1e-3).value
        except Exception as exc:
            res.outcomes.append((f"probe.{domain}", False, repr(exc)))
            continue
        ok, note, err = refs.check_qh(out, domain, x, y)
        res.outcomes.append((f"probe.{domain}", ok, "" if ok else note))
        res.qh_errs.append(err)
    return res


WORKLOADS = {w.name: w for w in (Verify(), Moduli(), Queries())}
