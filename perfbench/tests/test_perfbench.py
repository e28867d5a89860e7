"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import importlib
import math
import time

import numpy as np
import pytest

import cgft
import cgft.metrics as mt
import refs
import workloads
from spans import LAYERS, Tracer, self_times


def _bindings():
    """Every value a tracer may replace, by (owner, key)."""
    modules = [cgft] + [importlib.import_module(f"cgft.{name}") for name in LAYERS]
    seen = {}
    for mod in modules:
        for key, value in vars(mod).items():
            seen[(mod.__name__, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for k, entry in value.items():
                    seen[(mod.__name__, key, k)] = entry
    hpm = importlib.import_module("cgft.harmonic_qr").HarmonicPlanarMap
    seen[("HarmonicPlanarMap", "__call__")] = hpm.__dict__["__call__"]
    return seen


def test_uninstall_restores_every_patched_name():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # names bound by import in other modules, and the CLI dispatch table
        for key in [
            ("cgft.metrics", "seittenranta"),
            ("cgft.harmonic_qr", "quasihyperbolic_numeric"),
            ("cgft.transfer_chart", "tau2_inv"),
            ("cgft.ball_geometry", "mu_inv"),
            ("cgft.cli", "_SF_OPS", "mu"),
            ("cgft.cli", "build_parser"),
            ("cgft", "phi_K"),
            ("HarmonicPlanarMap", "__call__"),
        ]:
            assert key in changed, key
        assert ("cgft.metrics", "chordal") not in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _cheap_stream(seed: int, count: int = 12):
    inputs = workloads.Queries().inputs(seed)
    cheap = [q for q in inputs["stream"] if not q["label"].startswith(("qh.mid", "qh.deep"))]
    return {"stream": cheap[:count], "samples": inputs["samples"]}


def test_self_times_sum_to_at_most_wall_time():
    tracer = Tracer()
    ctx = workloads.Context(tracer)
    inputs = _cheap_stream(0, 40)
    tracer.install()
    try:
        t0 = time.perf_counter()
        res = workloads.Queries().run_unit(inputs, ctx)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert all(ok for _, ok, _ in res.outcomes)
    own = self_times(tracer.spans)
    assert tracer.spans and min(own) >= -1e-9
    assert sum(own) <= wall
    # every recorded span closed, inside an operation, after its parent opened
    for s in tracer.spans:
        assert s[2] <= s[3] and s[5] >= 0
        if s[4] >= 0:
            parent = tracer.spans[s[4]]
            assert parent[2] <= s[2] and s[3] <= parent[3]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_input_digest(name):
    w = workloads.WORKLOADS[name]
    assert workloads.digest(w.inputs(7)) == workloads.digest(w.inputs(7))
    assert workloads.digest(w.inputs(7)) != workloads.digest(w.inputs(8))


def test_query_mix_places_percentiles_inside_classes():
    stream = workloads.Queries().inputs(0)["stream"]
    n = len(stream)
    cheap = sum(1 for q in stream if not q["label"].startswith(("qh.", "sup.")))
    above_mid = sum(1 for q in stream if q["label"].startswith(("qh.deep", "sup.")))
    # p50 sits among the cheap calls, p90 below the sup and deep calls
    assert math.ceil(0.5 * n) <= cheap - 3
    assert math.ceil(0.9 * n) <= n - above_mid - 3


@pytest.mark.parametrize("domain,x,y,copies", workloads.QH_SHALLOW)
def test_moved_pairs_keep_their_numeric_distance(domain, x, y, copies):
    rng = np.random.default_rng(1)
    D = mt.canonical_domain(domain, len(x))
    base = mt.quasihyperbolic_numeric(D, x, y).value
    for _ in range(3):
        mx, my = workloads.move_pair(rng, domain, x, y)
        assert mt.quasihyperbolic_numeric(D, mx, my).value == pytest.approx(base, rel=1e-12)


def test_references_accept_library_answers_and_reject_perturbed_ones():
    import cgft.special_functions as sf

    cases = [
        (refs.check_mu, sf.mu(0.3), (0.3,)),
        (refs.check_mu_inv, sf.mu_inv(2.2), (2.2,)),
        (refs.check_phi_k, sf.phi_K(2.5, 0.6), (2.5, 0.6)),
        (refs.check_tau2_inv, sf.tau2_inv(1.7), (1.7,)),
        (refs.check_circumscribed, cgft.circumscribed_lambda_radius(0.3), (0.3,)),
    ]
    for check, out, args in cases:
        assert check(out, *args)[0], check.__name__
        assert not check(out * (1 + 1e-6), *args)[0], check.__name__
    x, y = (0.1, 0.8), (-0.3, 1.4)
    assert refs.check_qh(mt.quasihyperbolic_exact("half_space", x, y), "half_space", x, y)[0]
    assert not refs.check_qh(1.2 * refs.qh_exact("half_space", x, y), "half_space", x, y)[0]


@pytest.mark.parametrize("metric", ["seittenranta", "apollonian"])
@pytest.mark.parametrize("domain,x,y", [
    ("half_space", (0.1, 0.8), (-0.3, 1.4)),
    ("half_space", (-0.43, 0.22), (-0.36, 1.1)),
    ("ball", (0.1, 0.2), (-0.3, 0.4)),
])
def test_sampled_sup_reference_matches_library(metric, domain, x, y):
    samples = workloads.sup_samples()[domain]
    D = mt.canonical_domain(domain, 2, workloads.SUP_SAMPLES[domain])
    out = getattr(mt, metric)(D, x, y).value
    assert refs.check_sup(out, metric, domain, x, y, samples)[0]
    assert not refs.check_sup(out * (1 + 1e-6), metric, domain, x, y, samples)[0]
