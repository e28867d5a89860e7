"""Monotone scalar inversion by safeguarded bisection."""

from __future__ import annotations

from typing import Callable


def bisect_monotone(
    f: Callable[[float], float],
    y: float,
    a: float,
    b: float,
    *,
    xtol: float = 1e-12,
    maxiter: int = 300,
) -> float:
    """Solve f(x) = y on [a, b] for a continuous monotone f.

    The bracket must straddle y; the direction is detected from the endpoint
    values.  Returns the bracket midpoint once its width drops below xtol or
    the midpoint stops moving in double precision.
    """
    fa = f(a)
    fb = f(b)
    if fa == y:
        return a
    if fb == y:
        return b
    increasing = fb > fa
    lo_val, hi_val = (fa, fb) if increasing else (fb, fa)
    if not (lo_val < y < hi_val):
        raise ValueError(f"target {y} not bracketed by f values [{fa}, {fb}]")
    lo, hi = a, b
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid == lo or mid == hi:
            return mid
        fm = f(mid)
        if fm == y:
            return mid
        if (fm < y) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

