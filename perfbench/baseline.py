"""Reproduce the ROADMAP "Open items" baseline table from traced runs.

    python3 perfbench/baseline.py [--seed 0] [--run]

Reads the traced results of all three workloads from ``perfbench/results``
(``--run`` makes them first) and prints the ROADMAP table next to what
the runs measured, flagging every row outside the table's stated +-10 %.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("verify", "moduli", "queries")


def load(workload: str, seed: int):
    tag = f"{workload}-s{seed}-t1"
    record = json.loads((RESULTS / f"{tag}.json").read_text())
    with open(RESULTS / f"spans-{tag}.tsv") as fh:
        spans = list(csv.DictReader(fh, delimiter="\t"))
    for s in spans:
        s["dur"] = float(s["end"]) - float(s["start"])
    return record, spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--run", action="store_true", help="make the traced runs first")
    args = parser.parse_args()
    if args.run:
        for w in WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(args.seed), "--seconds", "1", "--trace", "1"]
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    (v, v_spans), (m, m_spans), (q, q_spans) = (load(w, args.seed) for w in WORKLOADS)
    vm, mm = v["metrics"], m["metrics"]

    def metric(rec, name):
        return rec[name]["value"]

    seit = [s["dur"] for s in v_spans + q_spans
            if s["name"] == "metrics.seittenranta" and s["work"] == str(162 * 161)]
    lens = [s["dur"] for s in v_spans if s["name"] == "distortion.lens_diam_brute"]
    labels = dict(enumerate(label for label, _ in q["latencies"][0]))
    disk = [s["dur"] for s in q_spans if s["name"] == "metrics.quasihyperbolic_numeric"
            and labels.get(int(s["op"]), "").endswith(".ball2")]

    def spread(xs):
        if not xs:
            return None, "no calls"
        return statistics.mean(xs), f"mean of {len(xs)} calls, {min(xs):.3g}-{max(xs):.3g} s"

    rows = [
        ("tier-1 pytest", 112.0, None, "not a workload; not measured"),
        ("run_verify, all 49 checks configured", 16.0, v["untraced_wall_s"], "verify, untraced unit"),
        ("  lens-diameter-bounds", 7.6,
         metric(vm, "verify.check.lens-diameter-bounds_s"), "verify.check"),
        ("  absolute-ratio-metric-sandwich", 6.8,
         metric(vm, "verify.check.absolute-ratio-metric-sandwich_s"), "verify.check"),
        ("  phipythagorean-complement", 0.8,
         metric(vm, "verify.check.phipythagorean-complement_s"), "verify.check"),
        ("acceptance criterion 11 (moduli)", 15.5, m["untraced_wall_s"], "moduli, untraced unit"),
        ("  Horner evaluation (map_eval)", 14.2,
         metric(mm, "harmonic_qr.map_eval.busy_s"), "moduli, traced"),
        ("seittenranta, half plane, 162 samples, per pair", 0.40, *spread(seit)),
        ("quasihyperbolic_numeric, disk, tol 1e-3", 0.88, *spread(disk)),
        ("lens_diam_brute, N = 10^4, per config", 0.1, *spread(lens)),
    ]
    print(f"machine: {json.dumps(v['machine'], sort_keys=True)}; seed {args.seed}")
    print()
    print("| what | ROADMAP | measured | ratio | agrees (+-10 %) | source |")
    print("| --- | --- | --- | --- | --- | --- |")
    for what, table, measured, source in rows:
        if measured is None:
            print(f"| {what} | {table:g} s | - | - | - | {source} |")
            continue
        ratio = measured / table
        verdict = "yes" if 0.9 <= ratio <= 1.1 else "**no**"
        print(f"| {what} | {table:g} s | {measured:.3g} s | {ratio:.2f} | {verdict} | {source} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
