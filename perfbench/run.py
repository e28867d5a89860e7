"""Run one benchmark workload on one seed and print its metrics.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics of
one traced unit instead.  The full result (machine facts, input digest,
failures, per-operation latencies) goes to ``perfbench/results/``, and a
traced run also writes its spans there.
"""

from __future__ import annotations

import os

# one single-threaded client: pin the math libraries before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
SETUP_SNIPPET = "import cgft, cgft.cli"


def nearest_rank(values, q: float) -> float:
    """The q-quantile as the smallest value with at least q of the data at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing cgft and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        if i:  # the first launch also writes the bytecode cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def spin_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine ran just now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def machine_facts(spin: list[float]) -> dict:
    import numpy as np

    return {
        "spin_ms": spin,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_units(workload, inputs, seconds: float, ctx_factory):
    """Repeat the workload's fixed unit while another one fits in ``seconds``."""
    units, walls = [], []
    start = time.perf_counter()
    while True:
        ctx = ctx_factory()
        t0 = time.perf_counter()
        res = workload.run_unit(inputs, ctx)
        walls.append(time.perf_counter() - t0)
        units.append(res)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            return units, walls


def end_to_end(workload, inputs, seed: int, seconds: float):
    from workloads import Context, qh_probe

    setup = setup_seconds()
    units, walls = run_units(workload, inputs, seconds, Context)
    latencies = [dt for u in units for _, dt in u.latencies]
    outcomes = [o for u in units for o in u.outcomes]
    qh_errs = [e for u in units for e in u.qh_errs]
    if not qh_errs:
        probe = qh_probe(seed)
        outcomes += probe.outcomes
        qh_errs = probe.qh_errs
    failed = sum(1 for _, ok, _ in outcomes if not ok)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "query_p50_ms": (1e3 * nearest_rank(latencies, 0.5), "ms"),
        "query_p90_ms": (1e3 * nearest_rank(latencies, 0.9), "ms"),
        "passed_frac": (1.0 - failed / len(outcomes), "frac"),
        # 1 when no pair could be measured; that run also fails its reference
        "qh_max_rel_err": (max(qh_errs, default=1.0), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "units": len(units),
        "unit_walls_s": walls,
        "queries": len(latencies),
        "failed_frac": failed / len(outcomes),
        "latencies": [u.latencies for u in units],
    }
    return metrics, outcomes, extra


def traced(workload, inputs, tag: str):
    """One untraced unit, then one traced unit; per-layer metrics from the latter."""
    import layers
    from spans import Tracer
    from workloads import Context

    plain = Context(per_check=True)
    t0 = time.perf_counter()
    base = workload.run_unit(inputs, plain)
    base_wall = time.perf_counter() - t0

    tracer = Tracer()
    ctx = Context(tracer, per_check=True)
    tracer.install()
    try:
        t0 = time.perf_counter()
        res = workload.run_unit(inputs, ctx)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{tag}.tsv")
    metrics = layers.per_layer(tracer.spans, res, base, ctx.dist)
    metrics["trace.overhead_s"] = (wall - base_wall, "s")
    extra = {
        "untraced_wall_s": base_wall,
        "traced_wall_s": wall,
        "latencies": [res.latencies],
        "dominant": layers.dominant(tracer.spans, res),
    }
    return metrics, base.outcomes + res.outcomes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cgft" / "__init__.py").is_file():
        print(f"error: no cgft package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    spin = [spin_ms()]
    if args.trace:
        metrics, outcomes, extra = traced(workload, inputs, tag)
    else:
        metrics, outcomes, extra = end_to_end(workload, inputs, args.seed, args.seconds)
    failures = [(label, note) for label, ok, note in outcomes if not ok]
    spin.append(spin_ms())

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest(inputs),
        "machine": machine_facts(spin),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(outcomes),
        "failures": failures,
        **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} inputs {record['input_digest']}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for label, note in failures:
        print(f"FAIL {label}: {note}")
    if "failed_frac" in extra:
        print(f"failed_frac = {extra['failed_frac']:.6g} of {len(outcomes)} operations; "
              f"percentiles over {extra['queries']} requests in {extra['units']} unit(s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in extra.get("dominant", ()):
        print("dominant " + line)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
