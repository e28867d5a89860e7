"""Planar harmonic maps and their quasiregular analysis toolkit.

A harmonic map on the closed unit disk is represented as f = g + conj(h)
for polynomials g and h.  This module evaluates the exact Laplacian and
gradient formulas for powers |f|^p, locates the optimal subharmonicity
exponent of k-quasiregular harmonic maps, reconstructs harmonic extensions
from boundary samples on the disk and from Lipschitz data on the 2-sphere,
estimates moduli of continuity on the sampled unit circle and, for the
closed disk, on the boundary annulus 1 - delta <= |z| <= 1, and measures
quasihyperbolic bilipschitz ratios against a sampled image domain.

Maps are evaluated at arbitrary points by Horner (``HarmonicPlanarMap
.__call__``) and on polar grids by aliasing (``on_polar_grid``): at the
n_t-th roots of unity w^j, sum_m c_m r^m w^(mj) equals sum_{k < n_t}
(sum_{m = k mod n_t} c_m r^m) w^(kj), so the coefficients are folded by
m mod n_t and one inverse FFT per radius gives every angle.  The identity
is exact for polynomials, at any n_t, and the moduli of continuity scan
grid values computed this way.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import legendre as nleg
from numpy.polynomial import polynomial as npoly

from .metrics import (
    DomainSpec,
    ExtendedPoint,
    canonical_domain,
    quasihyperbolic_numeric,
)

__all__ = [
    "AliasingError",
    "BilipschitzRatios",
    "BoundaryFunction1D",
    "HARMONIC_SCHWARZ_FACTOR",
    "HarmonicPlanarMap",
    "InjectivityError",
    "ModulusRow",
    "OrientationError",
    "QuadratureAccuracyError",
    "SingularPointError",
    "SphereBoundaryFunction",
    "SUBHARMONIC_ZERO_EXCLUSION",
    "SubharmonicRow",
    "SubharmonicScan",
    "alpha_f_disk",
    "alternating_cosine_map",
    "boundary_modulus",
    "boundary_samples_of",
    "check_subharmonic",
    "closed_modulus",
    "grad_abs_f_sq",
    "laplacian_abs_f_p",
    "laplacian_abs_f_sq",
    "modulus_profile",
    "poisson_ball3",
    "poisson_disk_extend",
    "polyline_interior_domain",
    "qh_bilipschitz_estimate",
    "quasiregularity_constant",
    "subharmonic_exponent",
    "subharmonic_profile",
]

_TWO_PI = 2.0 * math.pi

#: Gradient constant of the Schwarz inequality for bounded harmonic maps
#: vanishing at the disk center: |h(z)| <= (4/pi) * sup|h| * |z|.
HARMONIC_SCHWARZ_FACTOR = 4.0 / math.pi

#: Points where |f| falls at or below this threshold are excluded from
#: subharmonicity grids; the power formulas are singular at zeros of f,
#: and the zeros of a nonconstant harmonic map are isolated.
SUBHARMONIC_ZERO_EXCLUSION = 1e-8

#: Angular count of the annulus grid in closed_modulus.
_CLOSED_ANGLES = 256

#: Two samples closer than this count as evidence that a map identifies
#: two distinct points.
_COLLISION_TOL = 1e-12


class SingularPointError(ValueError):
    """A pointwise formula was evaluated at a zero of the map."""


class AliasingError(ValueError):
    """The requested mode cutoff exceeds the Nyquist limit of the samples."""


class QuadratureAccuracyError(ArithmeticError):
    """Sphere quadrature failed its constant-reproduction sanity check."""


class InjectivityError(ValueError):
    """Sample evidence shows the map identifies two distinct points."""


class OrientationError(ValueError):
    """A nonpositive Jacobian appeared where positivity is required."""


# ---------------------------------------------------------------------------
# domain types


def _coerce_coeffs(seq) -> tuple[complex, ...]:
    try:
        items = tuple(complex(c) for c in seq)
    except TypeError as exc:
        raise ValueError("coefficients must be a sequence of numbers") from exc
    if not items:
        return (0j,)
    for c in items:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("coefficients must be finite")
    return items


@dataclass(frozen=True)
class HarmonicPlanarMap:
    """The harmonic map f(z) = g(z) + conj(h(z)) for polynomials g, h.

    ``g_coeffs`` and ``h_coeffs`` hold the Taylor coefficients about 0 in
    increasing order of degree.  Evaluation and the derivative oracles are
    exact polynomial arithmetic, vectorized over numpy arrays of points.
    """

    g_coeffs: tuple[complex, ...]
    h_coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "g_coeffs", _coerce_coeffs(self.g_coeffs))
        object.__setattr__(self, "h_coeffs", _coerce_coeffs(self.h_coeffs))

    @classmethod
    def shear(cls, k: float) -> "HarmonicPlanarMap":
        """The real-linear map z + k*conj(z), the extremal subharmonicity witness."""
        return cls((0.0, 1.0), (0.0, k))

    @property
    def degree(self) -> int:
        return max(len(self.g_coeffs), len(self.h_coeffs)) - 1

    def g(self, z):
        return npoly.polyval(z, np.asarray(self.g_coeffs))

    def h(self, z):
        return npoly.polyval(z, np.asarray(self.h_coeffs))

    def g_prime(self, z):
        return npoly.polyval(z, npoly.polyder(np.asarray(self.g_coeffs)))

    def h_prime(self, z):
        return npoly.polyval(z, npoly.polyder(np.asarray(self.h_coeffs)))

    def jacobian(self, z):
        """J_f = |g'|^2 - |h'|^2, positive iff orientation-preserving there."""
        return np.abs(self.g_prime(z)) ** 2 - np.abs(self.h_prime(z)) ** 2

    def __call__(self, z):
        return self.g(z) + np.conjugate(self.h(z))

    def on_polar_grid(self, radii, n_t: int) -> np.ndarray:
        """The (len(radii), n_t) array f(r_i w^j), w = exp(2 pi i / n_t).

        On a circle sampled at the n_t-th roots of unity a power series
        aliases exactly: sum_m c_m r^m w^(mj) = sum_{k < n_t} C_k(r) w^(kj)
        with C_k(r) = sum_{m = k mod n_t} c_m r^m.  So g and h are folded by
        m mod n_t (``_fold``), the folded h is conjugated and reflected
        (conj(w^(kj)) = w^(-kj)), and one unnormalized inverse FFT per
        radius sums the modes.  This holds for any n_t >= 1, including n_t
        at or below the degree, and at any radius whose powers up to the
        degree stay finite: a radius above 1 gives f(r w^j) there, with no
        0 * inf from powers past the degree.  It costs O(n_r (M + 1) + n_r
        n_t log n_t) for degree M, against O(n_r n_t (M + 1)) for pointwise
        Horner.
        """
        n_t = int(n_t)
        if n_t < 1:
            raise ValueError("n_t must be at least 1")
        radii = np.asarray(radii, dtype=float).ravel()
        modes = _fold(self.g_coeffs, radii, n_t)
        anti = _fold(self.h_coeffs, radii, n_t)
        np.conjugate(anti, out=anti)
        modes[:, 0] += anti[:, 0]
        modes[:, 1:] += anti[:, :0:-1]
        return np.fft.ifft(modes, axis=1, norm="forward")


def _fold(coeffs: tuple[complex, ...], radii: np.ndarray, n_t: int) -> np.ndarray:
    """C[i, k] = sum_{m = k mod n_t} c_m radii[i]^m, for k < n_t.

    With the coefficient blocks c_{k + q n_t}, q < Q, as the rows of a
    (Q, n_t) matrix, C[i, k] = r_i^k sum_q r_i^(q n_t) c_{k + q n_t}: one
    contraction of the (n_r, Q) table of powers r^(q n_t) with the
    blocks, then the factor r^k.  Only the first min(n_t, len(coeffs))
    columns can be nonzero, and the r^k table stops there, so a map of
    degree below n_t forms no power beyond r^degree and its table of
    block powers is all ones.  With Q >= 2 blocks the powers reach
    r^((Q - 1) n_t), up to r^degree, so at radii above 1 they can
    overflow where Horner's partial sums would not.
    """
    width = min(n_t, len(coeffs))
    blocks = -(-len(coeffs) // n_t)
    c = np.zeros(blocks * width, dtype=complex)
    c[: len(coeffs)] = coeffs
    acc = np.zeros((radii.size, n_t), dtype=complex)
    np.einsum(
        "iq,qkc->ikc",
        radii[:, None] ** (n_t * np.arange(blocks)),
        c.view(float).reshape(blocks, width, 2),
        out=acc.view(float).reshape(radii.size, n_t, 2)[:, :width],
    )
    acc[:, :width] *= radii[:, None] ** np.arange(width)
    return acc


@dataclass(frozen=True, eq=False)
class BoundaryFunction1D:
    """Complex boundary values sampled at N equispaced angles, N a power of two.

    ``samples`` is a read-only complex array, copied from the input: a flat
    sequence of N >= 8 finite values, sample j taken at angle 2 pi j / N.
    Equality is identity, since an array has no single truth value.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.samples, dtype=complex)
        if values.ndim != 1:
            raise ValueError("samples must be a flat sequence")
        n = values.size
        if n < 8 or n & (n - 1):
            raise ValueError("sample count must be a power of two, at least 8")
        if not np.isfinite(values).all():
            raise ValueError("samples must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "samples", values)


@dataclass(frozen=True)
class SphereBoundaryFunction:
    """A map from the unit 2-sphere to R^3 with a caller-asserted Lipschitz bound.

    ``oracle`` takes one (m, 3) array of unit vectors and returns the (m, 3)
    array of their images; ``poisson_ball3`` refuses any other shape.
    """

    oracle: Callable[[np.ndarray], np.ndarray]
    lipschitz_L: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lipschitz_L", float(self.lipschitz_L))
        if not self.lipschitz_L >= 0.0:
            raise ValueError("lipschitz_L must be nonnegative")


class SubharmonicScan(NamedTuple):
    min_value: float
    argmin: complex
    subharmonic: bool


class BilipschitzRatios(NamedTuple):
    min_ratio: float
    max_ratio: float


class ModulusRow(NamedTuple):
    delta: float
    boundary: float
    closed: float


class SubharmonicRow(NamedTuple):
    p: float
    min_value: float
    argmin: complex


# ---------------------------------------------------------------------------
# pointwise Laplacian and gradient formulas


def subharmonic_exponent(k: float) -> float:
    """Largest-forcing exponent 4k/(1+k)^2: |f|^q is subharmonic for every
    harmonic f whose anti-analytic derivative is dominated by k times the
    analytic one, and no smaller exponent works for all such maps."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ValueError("k must lie in [0, 1)")
    return 4.0 * k / (1.0 + k) ** 2


def laplacian_abs_f_sq(f: HarmonicPlanarMap, z):
    """Laplacian of |f|^2, exactly 4(|g'|^2 + |h'|^2)."""
    gp = f.g_prime(z)
    hp = f.h_prime(z)
    return 4.0 * (np.abs(gp) ** 2 + np.abs(hp) ** 2)


def grad_abs_f_sq(f: HarmonicPlanarMap, z):
    """Squared gradient norm of |f|^2:
    4(|g'|^2 + |h'|^2)|f|^2 + 8 Re(conj(g') h' f^2)."""
    gp = f.g_prime(z)
    hp = f.h_prime(z)
    fz = f(z)
    quad = 4.0 * (np.abs(gp) ** 2 + np.abs(hp) ** 2) * np.abs(fz) ** 2
    return quad + 8.0 * np.real(np.conjugate(gp) * hp * fz * fz)


def _power_laplacian_values(f: HarmonicPlanarMap, z, p: float):
    gp = f.g_prime(z)
    hp = f.h_prime(z)
    fz = f(z)
    m = np.abs(fz)
    quad = np.abs(gp) ** 2 + np.abs(hp) ** 2
    cross = np.real(np.conjugate(gp) * hp * fz * fz)
    return p * p * quad * m ** (p - 2.0) + 2.0 * p * (p - 2.0) * m ** (p - 4.0) * cross


def laplacian_abs_f_p(f: HarmonicPlanarMap, z, p: float):
    """Laplacian of |f|^p away from zeros of f:
    p^2(|g'|^2+|h'|^2)|f|^(p-2) + 2p(p-2)|f|^(p-4) Re(conj(g') h' f^2)."""
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValueError("p must be positive and finite")
    m = np.abs(f(z))
    if np.any(m == 0.0):
        raise SingularPointError("the power Laplacian is singular at zeros of f")
    return _power_laplacian_values(f, z, p)


def check_subharmonic(
    f: HarmonicPlanarMap,
    p: float,
    grid_radius: float = 0.95,
    grid_N: int = 96,
    tol: float = 1e-9,
) -> SubharmonicScan:
    """Minimum of the |f|^p Laplacian over a polar grid, zeros excluded.

    Returns the grid minimum, its location, and the verdict
    ``min_value >= -tol``.  Grid points with |f| <= 1e-8 are skipped since
    the zeros of a nonconstant harmonic map are isolated and the formula is
    singular there.
    """
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValueError("p must be positive and finite")
    if not 0.0 < grid_radius < 1.0:
        raise ValueError("grid_radius must lie in (0, 1)")
    if grid_N < 4:
        raise ValueError("grid_N must be at least 4")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be nonnegative and finite")
    radii = np.linspace(grid_radius / grid_N, grid_radius, grid_N)
    angles = np.arange(grid_N) * (_TWO_PI / grid_N)
    Z = radii[:, None] * np.exp(1j * angles)[None, :]
    mask = np.abs(f(Z)) > SUBHARMONIC_ZERO_EXCLUSION
    if not mask.any():
        raise ValueError("the map vanishes on the whole grid; nothing to scan")
    pts = Z[mask]
    vals = _power_laplacian_values(f, pts, p)
    idx = int(np.argmin(vals))
    mv = float(vals[idx])
    return SubharmonicScan(mv, complex(pts[idx]), mv >= -tol)


def subharmonic_profile(
    f: HarmonicPlanarMap,
    p_values: Sequence[float],
    *,
    grid_radius: float = 0.95,
    grid_N: int = 96,
    tol: float = 1e-9,
) -> list[SubharmonicRow]:
    """check_subharmonic swept over a list of exponents."""
    rows = []
    for p in p_values:
        scan = check_subharmonic(f, float(p), grid_radius, grid_N, tol)
        rows.append(SubharmonicRow(float(p), scan.min_value, scan.argmin))
    return rows


# ---------------------------------------------------------------------------
# Poisson extension from disk boundary samples


def poisson_disk_extend(phi: BoundaryFunction1D, M: int) -> HarmonicPlanarMap:
    """Harmonic extension of boundary samples through Fourier modes |m| <= M.

    The discrete Fourier transform of the samples feeds nonnegative modes
    into g and negative modes (conjugated) into h, so trigonometric
    polynomials of degree at most M are reproduced exactly.  A shared
    Nyquist mode at M = N/2 is split evenly between g and h.
    """
    M = int(M)
    if M < 0:
        raise ValueError("mode cutoff must be nonnegative")
    samples = phi.samples
    n = samples.size
    if 2 * M > n:
        raise AliasingError(
            f"mode cutoff {M} exceeds the Nyquist limit {n // 2} of {n} samples"
        )
    spectrum = np.fft.fft(samples) / n
    g = spectrum[: M + 1].copy()
    h = np.conjugate(spectrum[-np.arange(M + 1)])
    h[0] = 0.0
    if 2 * M == n:
        g[M] /= 2.0
        h[M] = np.conjugate(g[M])
    return HarmonicPlanarMap(tuple(g), tuple(h))


def boundary_samples_of(f: HarmonicPlanarMap, n: int) -> BoundaryFunction1D:
    """Samples of f on the unit circle at the n-th roots of unity.

    They come from ``f.on_polar_grid([1.0], n)``: the coefficients folded
    by m mod n and one inverse FFT, exact for a polynomial at the roots of
    unity whatever the degree.  Samples that overflow are refused by
    ``BoundaryFunction1D``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = f.on_polar_grid([1.0], n)[0]
    return BoundaryFunction1D(values)


def alternating_cosine_map(n_modes: int) -> HarmonicPlanarMap:
    """Harmonic map with boundary cosine coefficients (-1)^m / m^2.

    Its boundary restriction is Lipschitz while its radial derivative grows
    without bound toward the boundary, so it separates the boundary modulus
    of continuity from the closed-disk one.  Modes are split evenly between
    the analytic and anti-analytic parts.
    """
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    coeffs = np.zeros(n_modes + 1, dtype=complex)
    m = np.arange(1, n_modes + 1)
    coeffs[1:] = ((-1.0) ** m) / (2.0 * m * m)
    return HarmonicPlanarMap(tuple(coeffs), tuple(coeffs))


# ---------------------------------------------------------------------------
# moduli of continuity on sampled grids (lower approximations of the sups)


#: Absolute part of the skip margin in ``_polar_sup``, per gap summed
#: into a bound: a few subnormal steps, the error of a gap whose modulus
#: underflows.
_GAP_SLACK = 8 * math.ulp(0.0)


def _polar_sup(F: np.ndarray, radii: np.ndarray, delta: float) -> float:
    """sup |F[a] - F[b]| over polar-grid points a, b at most delta apart.

    Row i of ``F`` holds samples at radius ``radii[i]`` and the n_t angles
    2 pi j / n_t.  The radii must be increasing and equispaced (no gap
    r_{i+k} - r_i may shrink as i grows), or pairs are silently missed:
    the scan relies on the distance hypot(r_{i+k} - r_i, 2 sqrt(r_i
    r_{i+k}) sin(pi lag / n_t)) of (i, j) and (i + k, j + lag) growing
    with i and lag, so at each radius offset k and lag the rows within
    delta form a prefix, compared in one array operation.  Offset k = 0
    takes lags 1..n_t/2, each k >= 1 lags 0..n_t/2 both ways; a k ends at
    the first lag that keeps no row, the scan at the first k >= 1 with no
    row at lag 0.  Pairs at exactly delta count: the test admits
    distances up to delta (1 + 1e-12) + 1e-15, a relative part in 1e12
    for the rounding of the computed distance and an absolute 1e-15 for
    grids whose rows or chords carry an error of about an ulp of 1 at any
    delta.  At delta below about 1e-3 the absolute part is the larger, so
    pairs up to 1e-15 beyond delta count: a sup over them can exceed the
    exact modulus by about 1e-15 times the Lipschitz constant.

    Lags 1..L of each k are bisected best first, and a run of lags whose
    pairs cannot raise the sup is never evaluated.  With G_r(t) the
    largest gap within row r at angular lag t, W_p[r] = G_r(1) + G_r(2) +
    ... + G_r(2^(p-1)) bounds every gap within row r at lags 1..2^p - 1,
    since each such lag is a sum of distinct powers of two below 2^p
    (the triangle inequality along them); filling W takes one pass per
    level, about log2(L) in all.  For a run of lags l0..l1 with
    l1 - l0 < 2^p, H[i] = max_j |F[i, j] - F[i+k, j+l0]| and l0 <= l <=
    l1, the triangle inequality through F[i+k, j+l0] gives

        |F[i, j] - F[i+k, j+l]| <= H[i] + W_p[i+k],

    and through F[i, j+l-l0] the same with W_p[i], since H[i] is a
    maximum over the whole circle; the reverse pairs of k >= 1 likewise.
    So a run's head lag l0 is evaluated exactly (it counts toward the
    sup) with a maximum per row, and the run is bounded by the largest
    H[i] + min(W_p[i], W_p[i+k]) over the rows of lag l0 + 1.  Runs wait
    in a heap by decreasing bound (ties in the order queued); each k
    starts with the run 1..L headed by lag 1.  The top run is split into
    its first 2^(p-1) lags, which keep the head and its gaps at level
    p - 1, and the rest, whose head is evaluated; the scan stops when
    the top bound, times 1 + 1e-12, plus ``_GAP_SLACK`` per gap summed
    into it (p + 1 of them), is at or below the sup found so far.  The
    margin covers rounding: a rounded complex subtraction followed by
    ``hypot`` is within a few ulps of the exact gap of the stored values
    (within a few subnormal steps where it underflows), so a bound sums
    p + 1 gaps that each carry that error plus p roundings of the sum,
    and a pair left unevaluated computes at most the computed bound
    grown by some dozens of ulps, far inside a part in 1e12.  No pair
    left unevaluated can raise the sup, which is therefore the same to
    the bit as a scan of every pair.  Lag 0 of each k >= 1 spans every
    row, so it is evaluated apart, in no run.  W is filled only for the
    rows some run bounds.
    """
    n_r, n_t = F.shape
    cushion = delta * (1.0 + 1e-12) + 1e-15
    sines: list[float] = []
    plan = []  # (k, rows kept at lags 0, 1, ...)
    for k in range(n_r):
        dr = radii[k:] - radii[: n_r - k]
        if k and dr[0] > cushion:
            break
        chord = 2.0 * np.sqrt(radii[: n_r - k] * radii[k:])
        plan.append((k, _row_counts(dr, chord, sines, n_t, cushion)))

    bounded = max((k + c[2] for k, c in plan if c.size > 2), default=0)
    W = [np.zeros(bounded)]
    for p in range(max(max(c.size - 2, 0).bit_length() for _, c in plan)):
        W.append(W[-1] + _lag_gaps(F[:bounded], F[:bounded], 1 << p))

    def gaps(k, rows, lag):
        """Per-row maxima of the forward and (k, lag >= 1) the reverse pairs."""
        a, b = F[:rows], F[k : k + rows]
        fwd = _lag_gaps(a, b, lag)
        return fwd, _lag_gaps(b, a, lag) if k and lag else fwd

    best = 0.0
    heap = []  # (-bound, order queued, level, k, counts, head, last lag, head gaps)
    order = itertools.count()

    def queue(k, counts, head, last, top):
        p = (last - head).bit_length()
        spread = np.minimum(W[p][: top.size], W[p][k : k + top.size])
        bound = float((top + spread).max())
        heapq.heappush(heap, (-bound, next(order), p, k, counts, head, last, top))

    def visit(k, counts, head, last):
        """Evaluate lag ``head`` and queue the run head..last behind it."""
        nonlocal best
        fwd, rev = gaps(k, counts[head], head)
        best = max(best, float(fwd.max()), float(rev.max()))
        if last > head:
            inner = counts[head + 1]
            queue(k, counts, head, last, np.maximum(fwd[:inner], rev[:inner]))

    for k, counts in plan:
        if k:
            best = max(best, float(gaps(k, counts[0], 0)[0].max()))
        if counts.size > 1:
            visit(k, counts, 1, counts.size - 1)
    while heap:
        bound, _, p, k, counts, head, last, top = heapq.heappop(heap)
        if -bound * (1.0 + 1e-12) + (p + 1) * _GAP_SLACK <= best:
            break
        mid = head + (1 << (p - 1))
        if mid - 1 > head:
            queue(k, counts, head, mid - 1, top)
        visit(k, counts, mid, last)
    return best


def _row_counts(
    dr: np.ndarray, chord: np.ndarray, sines: list[float], n_t: int, cushion: float
) -> np.ndarray:
    """How many leading rows keep each lag 0, 1, ... within delta.

    The prefix is carried from lag to lag and the list ends before the
    first lag that keeps no row.  Lags are tested in runs of doubling
    length, each run on the rows its first lag keeps.  ``sines`` caches
    sin(pi lag / n_t) and grows only as far as some run reaches.
    """
    runs = []
    rows, lag, width, last = dr.size, 0, 1, n_t // 2
    while rows and lag <= last:
        stop = min(last + 1, lag + width)
        sines.extend(math.sin(math.pi * m / n_t) for m in range(len(sines), stop))
        far = np.hypot(dr[:rows, None], chord[:rows, None] * np.array(sines[lag:stop])) > cushion
        run = np.minimum.accumulate(np.where(far.any(axis=0), far.argmax(axis=0), rows))
        runs.append(run)
        rows, lag, width = int(run[-1]), stop, 2 * width
    counts = np.concatenate(runs)
    return counts[: np.count_nonzero(counts)]


def _lag_gaps(a: np.ndarray, b: np.ndarray, lag: int) -> np.ndarray:
    """Per row, max_j |a[:, j] - b[:, (j + lag) mod n]|, on views rather than a rolled copy."""
    n = a.shape[1]
    gap = np.abs(a[:, : n - lag] - b[:, lag:]).max(axis=1)
    if lag:
        np.maximum(gap, np.abs(a[:, n - lag :] - b[:, :lag]).max(axis=1), out=gap)
    return gap


def _checked_delta(delta) -> float:
    delta = float(delta)
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    return delta


def boundary_modulus(phi: BoundaryFunction1D, delta: float) -> float:
    """sup |phi_i - phi_j| over sample pairs with chordal gap at most delta.

    The pairs are those at lag 1..N/2 with chord 2 sin(pi lag / N) within
    delta, lags 1..L.  They are bisected best first (``_polar_sup``): a
    run of lags l0..l1 is bounded by its head gap max_j |phi_j -
    phi_(j+l0)| plus W_p, the sum of the largest gaps at lags 1, 2, 4,
    ..., 2^(p-1) with 2^p > l1 - l0, which by the triangle inequality
    exceeds every gap at lags 1..2^p - 1.  The run with the largest bound
    is split in two and the new head evaluated, until that bound, times
    1 + 1e-12 plus a few subnormal steps per gap summed, is at or below
    the sup found so far.  A rounded subtraction followed by ``hypot`` is
    within a few ulps of the exact gap, so no pair left unevaluated
    computes above that sup, and the value is the same to the bit as a
    scan of every lag.  A smooth phi needs about log2(L) passes over the
    samples, where a scan of every lag needs L.  ``delta`` must be
    positive and finite.
    """
    delta = _checked_delta(delta)
    return _polar_sup(phi.samples[None, :], np.ones(1), delta)


def closed_modulus(f: HarmonicPlanarMap, delta: float) -> float:
    """sup |f(z) - f(w)| over polar-grid pairs of the closed disk within delta.

    The sup is attained on the annulus 1 - delta <= |z| <= 1.  Fix h with
    |h| <= delta.  A ``HarmonicPlanarMap`` is harmonic on all of C, so
    g(z) = f(z + h) - f(z) is harmonic on the intersection of D and D - h,
    and |g| is subharmonic there; on the closure it peaks where |z| = 1 or
    |z + h| = 1.  One point of a maximising pair is therefore on the unit
    circle, and the other, within delta of it, has radius >= 1 - delta.

    The grid is the three rows r, (r + 1)/2 and 1 at 256 angles, where r
    is the least double with 1 - r <= delta (0 where delta >= 1).  For
    delta <= 1/2 the difference 1 - r is exact (Sterbenz), so the outer
    rows are at most delta apart, and exactly delta where 1 - delta is a
    double; a rounded 1 - delta could put them up to half an ulp of 1
    further apart, and the cushion of ``_polar_sup`` would count that pair.
    Its values come from ``f.on_polar_grid``, and ``_polar_sup`` scans
    every grid pair within delta, so the value is a sup over actual pairs,
    a lower estimate of the modulus.  ``delta`` must be positive and
    finite, and so must every grid value: a map whose folded FFT overflows
    is refused, not scanned.
    """
    delta = _checked_delta(delta)
    inner = max(0.0, 1.0 - delta)
    if 1.0 - inner > delta:  # 1 - delta rounded down
        inner = math.nextafter(inner, 1.0)
    radii = np.linspace(inner, 1.0, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        values = f.on_polar_grid(radii, _CLOSED_ANGLES)
    if not np.isfinite(values).all():
        raise ValueError("grid values must be finite")
    return _polar_sup(values, radii, delta)


def modulus_profile(
    f: HarmonicPlanarMap,
    deltas: Sequence[float],
    *,
    boundary_N: int = 8192,
) -> list[ModulusRow]:
    """Boundary and closed-disk moduli for each delta.

    The boundary modulus scans ``boundary_N`` samples of the unit circle,
    the closed one the annulus rows of ``closed_modulus``.
    """
    deltas = [_checked_delta(d) for d in deltas]
    phi = boundary_samples_of(f, boundary_N)
    return [ModulusRow(d, boundary_modulus(phi, d), closed_modulus(f, d)) for d in deltas]


# ---------------------------------------------------------------------------
# Poisson extension on the unit 3-ball


def _orthonormal_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    basis = np.eye(3)
    helper = basis[int(np.argmin(np.abs(axis)))]
    t1 = helper - np.dot(helper, axis) * axis
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(axis, t1)
    return t1, t2


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(n)``, built once per node count and returned read-only.

    Each build is an eigensolve plus a Newton polish, about 0.5 ms at 32
    nodes, and the Poisson and Jacobian-mean quadratures ask for the same
    few sizes over and over.  The cached arrays refuse writes, so no caller
    can change the rule another caller gets.
    """
    rule = nleg.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _polar_rule(r: float, quad_N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights in u = cos(polar angle) on [-1, 1].

    The Poisson kernel has a near-singularity just beyond u = 1 at distance
    eps = (1-r)^2/(2r); panels graded geometrically toward u = 1, with cuts
    at 1 - eps 4^k (at most 39 of them, all above -1), keep a uniform
    per-panel convergence rate at every r.  Every panel takes the same
    Gauss-Legendre rule of max(8, quad_N // panels) nodes, mapped onto all
    panels in one broadcast.  Below r = 1e-3 the kernel is nearly flat and
    one rule of quad_N nodes covers [-1, 1]; that rule is returned as the
    cached read-only pair of ``_gauss_legendre``, which also supplies the
    panel rule.
    """
    if r < 1e-3:
        return _gauss_legendre(quad_N)
    s = (1.0 - r) ** 2 / (2.0 * r) * 4.0 ** np.arange(39)
    edges = np.concatenate(([-1.0], 1.0 - s[1.0 - s > -1.0][::-1], [1.0]))
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    x, w = _gauss_legendre(max(8, quad_N // (edges.size - 1)))
    return (half * x + mid).ravel(), (half * w).ravel()


def poisson_ball3(phi: SphereBoundaryFunction, x, quad_N: int = 64) -> np.ndarray:
    """Poisson integral of phi over the unit sphere at x in the open 3-ball.

    Uses the kernel (1 - |x|^2)/|x - xi|^3 against the normalized surface
    measure, on a product rule: Gauss-Legendre in the cosine u of the angle
    from the x direction (graded toward the kernel peak, ``_polar_rule``)
    and quad_N equispaced azimuths.  All nodes, one ring of azimuths per u,
    go to ``phi.oracle`` in one (nodes, 3) array, which must come back with
    the same shape; each ring is summed and the rings are weighted by the
    rule times the kernel in one contraction.  The computed kernel mass must
    reproduce constants to within 1e-4 or a QuadratureAccuracyError is
    raised; the returned value is normalized by that mass, so constants
    come back exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("x must be a point of R^3")
    if quad_N < 8:
        raise ValueError("quad_N must be at least 8")
    r = float(np.linalg.norm(x))
    if r >= 1.0:
        raise ValueError("x must lie in the open unit ball")
    axis = x / r if r > 0.0 else np.array([0.0, 0.0, 1.0])
    t1, t2 = _orthonormal_frame(axis)
    n_az = int(quad_N)
    u, w_u = _polar_rule(r, n_az)
    sin_polar = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    # |x - xi|^2 = 1 + r^2 - 2 r u, written so that it does not cancel to 0
    # near the kernel peak; a NaN mass fails the check below
    kernel = (1.0 - r * r) / ((1.0 - r) ** 2 + 2.0 * r * (1.0 - u)) ** 1.5
    mass = float(np.sum(w_u * kernel)) / 2.0
    if not abs(mass - 1.0) <= 1e-4:
        raise QuadratureAccuracyError(
            f"kernel mass {mass:.6g} misses 1 by more than 1e-4 at |x| = {r:.6g}"
        )
    az = np.arange(n_az) * (_TWO_PI / n_az)
    ring = np.cos(az)[:, None] * t1 + np.sin(az)[:, None] * t2
    xi = (u[:, None, None] * axis + sin_polar[:, None, None] * ring).reshape(-1, 3)
    vals = np.asarray(phi.oracle(xi), dtype=float)
    if vals.shape != xi.shape:
        raise ValueError("oracle must return an (m, 3) real array for (m, 3) unit vectors")
    value = (w_u * kernel) @ vals.reshape(u.size, n_az, 3).sum(axis=1) / (2.0 * n_az)
    return value / mass


# ---------------------------------------------------------------------------
# quasihyperbolic bilipschitz ratios against the sampled image domain


def _pairwise_min_gap(values: np.ndarray) -> float:
    m = values.size
    best = math.inf
    for start in range(0, m, 512):
        block = values[start : start + 512]
        d = np.abs(block[:, None] - values[None, :])
        local = np.arange(block.size)
        d[local, start + local] = math.inf
        best = min(best, float(d.min()))
    return best


def polyline_interior_domain(vertices: Sequence[complex]) -> DomainSpec:
    """Planar domain bounded by the closed polyline through the vertices.

    The boundary-distance oracle is signed: positive inside the polygon
    (even-odd rule), negative outside, so grid methods reject exterior
    points.
    """
    V = np.asarray(vertices, dtype=complex)
    if V.size < 3:
        raise ValueError("a polyline domain needs at least 3 vertices")
    P = np.column_stack([V.real, V.imag])
    Q = np.roll(P, -1, axis=0)
    E = Q - P
    seg_len_sq = np.sum(E * E, axis=1)
    keep = seg_len_sq > 0.0
    if not keep.any():
        raise ValueError("polyline vertices are all coincident")
    A, B, Ev, Lsq = P[keep], Q[keep], E[keep], seg_len_sq[keep]

    def signed_distance(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        lead = X.shape[:-1]
        pts = X.reshape(-1, 2)
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], 4096):
            blk = pts[start : start + 4096]
            diff = blk[:, None, :] - A[None, :, :]
            t = np.clip(np.sum(diff * Ev[None, :, :], axis=-1) / Lsq[None, :], 0.0, 1.0)
            proj = A[None, :, :] + t[..., None] * Ev[None, :, :]
            d = np.sqrt(
                np.min(np.sum((blk[:, None, :] - proj) ** 2, axis=-1), axis=1)
            )
            yb, xb = blk[:, 1], blk[:, 0]
            straddle = (A[None, :, 1] > yb[:, None]) != (B[None, :, 1] > yb[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                x_cross = (
                    A[None, :, 0]
                    + (yb[:, None] - A[None, :, 1])
                    * Ev[None, :, 0]
                    / Ev[None, :, 1]
                )
            hits = straddle & (xb[:, None] < x_cross)
            inside = (np.sum(hits, axis=1) % 2) == 1
            out[start : start + 4096] = np.where(inside, d, -d)
        return out.reshape(lead)

    diam = 0.0
    for start in range(0, P.shape[0], 512):
        blk = P[start : start + 512]
        d = np.sqrt(np.sum((blk[:, None, :] - P[None, :, :]) ** 2, axis=-1))
        diam = max(diam, float(d.max()))
    return DomainSpec(
        dimension=2,
        dist_to_boundary=signed_distance,
        boundary_samples=tuple(ExtendedPoint((float(p[0]), float(p[1]))) for p in P),
        diam=diam,
        boundary_connected=True,
        boundary_nondegenerate=True,
        name="polyline_interior",
    )


def qh_bilipschitz_estimate(
    f: HarmonicPlanarMap,
    sample_pairs: Sequence[tuple[complex, complex]],
    boundary_image_samples: Sequence[complex],
    *,
    tol: float = 1e-3,
) -> BilipschitzRatios:
    """Range of quasihyperbolic distance ratios image/source over the pairs.

    The source distance is measured in the unit disk; the image distance in
    the domain bounded by the polyline through ``boundary_image_samples``
    (the caller's samples of f on the unit circle).  Evidence of
    non-injectivity - two distinct samples mapping within 1e-12 - raises
    InjectivityError: the boundary samples are compared in blocks of 512
    rows against all of them, and the pair endpoints, whose images come
    from one call of f on their array, in one pairwise array, where
    endpoints more than 1e-9 apart count as distinct.  Pairs should be
    compactly inside the disk so their images stay inside the sampled
    polyline.
    """
    W = np.asarray(boundary_image_samples, dtype=complex)
    if W.size < 8:
        raise ValueError("need at least 8 boundary image samples")
    if _pairwise_min_gap(W) < _COLLISION_TOL:
        raise InjectivityError(
            "two boundary samples coincide within 1e-12; the map is not injective"
        )
    pairs = [(complex(a), complex(b)) for a, b in sample_pairs]
    if not pairs:
        raise ValueError("need at least one sample pair")
    pts: list[complex] = []
    for a, b in pairs:
        if abs(a - b) == 0.0:
            raise ValueError("sample pair endpoints must be distinct")
        for z in (a, b):
            if abs(z) >= 1.0:
                raise ValueError("sample points must lie in the open unit disk")
            pts.append(z)
    Z = np.array(pts)
    images = f(Z)
    apart = np.abs(Z[:, None] - Z[None, :]) > 1e-9
    if (apart & (np.abs(images[:, None] - images[None, :]) < _COLLISION_TOL)).any():
        raise InjectivityError("two interior samples map within 1e-12 of each other")
    disk = canonical_domain("ball", 2)
    image_domain = polyline_interior_domain(W)
    ratios = []
    for idx, (a, b) in enumerate(pairs):
        fa, fb = complex(images[2 * idx]), complex(images[2 * idx + 1])
        source = float(quasihyperbolic_numeric(disk, (a.real, a.imag), (b.real, b.imag), tol))
        target = float(
            quasihyperbolic_numeric(
                image_domain, (fa.real, fa.imag), (fb.real, fb.imag), tol
            )
        )
        ratios.append(target / source)
    return BilipschitzRatios(min(ratios), max(ratios))


# ---------------------------------------------------------------------------
# averaged Jacobian invariant on the disk


def alpha_f_disk(
    f: HarmonicPlanarMap,
    z,
    *,
    radial_N: int = 32,
    angular_N: int = 64,
) -> float:
    """exp of half the area mean of log J_f over the disk touching the boundary.

    The mean is taken over B(z, 1-|z|) by Gauss-Legendre in the squared
    radius and equispaced angles; the radial rule of each size is built
    once and cached (``_gauss_legendre``).  Since log(1/J_f) is
    subharmonic for an orientation-preserving harmonic map, sqrt(J_f(z))
    dominates the result.
    """
    z = complex(z)
    d = 1.0 - abs(z)
    if d <= 0.0:
        raise ValueError("z must lie in the open unit disk")
    if radial_N < 2 or angular_N < 4:
        raise ValueError("quadrature sizes are too small")
    xg, wg = _gauss_legendre(int(radial_N))
    t = 0.5 * (xg + 1.0)
    wt = 0.5 * wg
    angles = np.arange(int(angular_N)) * (_TWO_PI / int(angular_N))
    ZZ = z + d * np.sqrt(t)[:, None] * np.exp(1j * angles)[None, :]
    J = f.jacobian(ZZ)
    if np.any(J <= 0.0):
        raise OrientationError("nonpositive Jacobian sample inside the mean disk")
    mean = float(np.sum(wt * np.mean(np.log(J), axis=1)))
    return math.exp(0.5 * mean)


def quasiregularity_constant(
    f: HarmonicPlanarMap,
    grid_radius: float = 0.99,
    grid_N: int = 64,
) -> float:
    """Grid estimate of sup |h'| / |g'| over the disk of radius grid_radius.

    Returns inf if the analytic derivative vanishes somewhere the
    anti-analytic one does not.
    """
    if not 0.0 < grid_radius < 1.0:
        raise ValueError("grid_radius must lie in (0, 1)")
    radii = np.linspace(0.0, grid_radius, int(grid_N))
    angles = np.arange(int(grid_N)) * (_TWO_PI / int(grid_N))
    Z = radii[:, None] * np.exp(1j * angles)[None, :]
    gp = np.abs(f.g_prime(Z))
    hp = np.abs(f.h_prime(Z))
    tiny = 1e-15
    if np.any((gp <= tiny) & (hp > tiny)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(hp <= tiny, 0.0, hp / np.maximum(gp, tiny))
    return float(np.max(ratio))
