"""Outside-in span tracing of the cgft layers.

Every public function of a layer module is wrapped from here, in every
``cgft`` module namespace that binds it (and in the CLI's dispatch table),
so the library itself is never edited.  A span is recorded only where a
call crosses into a layer from outside it; calls a layer makes to itself
pass straight through, which keeps hot inner loops (``mu`` inside the
``mu_inv`` bisection, ``eval_edge`` inside ``query``) out of the trace.
``HarmonicPlanarMap.__call__``, the modulus scans, ``poisson_ball3`` and
``cli.build_parser`` are always recorded, because they are the sub-layers
the per-layer metrics need.

Spans are kept in memory as (name, layer, start, end, parent, op, work)
and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "special_functions",
    "metrics",
    "transfer_chart",
    "ball_geometry",
    "distortion",
    "harmonic_qr",
    "verify",
    "cli",
)

# called thousands of times, from inside their layer and from others
_NOT_WRAPPED = {"chordal", "as_point", "check_dimension"}

# sub-layers recorded even when called from inside their own layer
_ALWAYS = {
    "cli.build_parser",
    "harmonic_qr.map_eval",
    "harmonic_qr.boundary_modulus",
    "harmonic_qr.closed_modulus",
    "harmonic_qr.poisson_ball3",
}


def _sup_work(D, *args, **kwargs):
    m = len(D.boundary_samples)
    return m * (m - 1)


def _lens_work(x, eps, N=10**4, *args, **kwargs):
    return int(N)


def _map_work(f, z):
    return int(np.size(z)) * (f.degree + 1)


# name -> work count recorded on the span (arguments as the caller gave them)
_WORK = {
    "metrics.seittenranta": _sup_work,
    "metrics.apollonian": _sup_work,
    "distortion.lens_diam_brute": _lens_work,
    "harmonic_qr.map_eval": _map_work,
}


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, object, object]] = []
        self._clock = time.perf_counter

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        always = name in _ALWAYS
        work_of = _WORK.get(name)
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and not always and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            work = work_of(*args, **kwargs) if work_of else 0
            idx = len(spans)
            spans.append(
                [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.op, work]
            )
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def operation(self, op_id: int):
        """Mark spans opened inside the block with ``op_id``."""
        previous, self.op = self.op, op_id
        try:
            yield
        finally:
            self.op = previous

    # -- patching ----------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every public layer function wherever a cgft module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import cgft

        modules = {layer: importlib.import_module(f"cgft.{layer}") for layer in LAYERS}
        namespaces = [cgft, *modules.values()]
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if (
                    attr in _NOT_WRAPPED
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        wrapped[id(modules["cli"].build_parser)] = self._wrap(
            "cli.build_parser", "cli", modules["cli"].build_parser
        )
        for ns in namespaces:
            table = vars(ns)
            for key, value in list(table.items()):
                if id(value) in wrapped:
                    self._set(ns, key, wrapped[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    # dispatch tables such as cli._SF_OPS hold (fn, signature)
                    for k, entry in list(value.items()):
                        if isinstance(entry, tuple) and entry and id(entry[0]) in wrapped:
                            self._set(value, k, (wrapped[id(entry[0])],) + entry[1:])
        hpm = modules["harmonic_qr"].HarmonicPlanarMap
        self._set(
            hpm, "__call__", self._wrap("harmonic_qr.map_eval", "harmonic_qr", hpm.__call__)
        )

    def uninstall(self) -> None:
        """Put back every name install() replaced, last patch first."""
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tlayer\tstart\tend\tparent\top\twork\n")
            for s in self.spans:
                fh.write("\t".join(str(v) for v in s) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out
