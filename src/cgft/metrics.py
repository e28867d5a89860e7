"""Metrics on subdomains of Mobius space.

Points live in R^n extended by a single point at infinity.  A domain is
described by a vectorized distance-to-boundary oracle plus a finite set of
boundary samples; metrics that take a supremum over the boundary
(Seittenranta, Apollonian) evaluate it over the samples and mark the result
exact only when the sample set is the whole boundary.  The quasihyperbolic
metric has closed forms on the half-space and the punctured space and a
graph-based upper approximation everywhere else: shortest paths on a
lattice graph whose edges are straight segments certified to lie in the
domain, built and weighted as arrays.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .special_functions import (
    Interval,
    check_dimension,
    gamma_n_bounds,
    omega_sphere,
    tau_n_bounds,
)

__all__ = [
    "ExtendedPoint",
    "INFINITY",
    "DomainSpec",
    "MetricValue",
    "ConnectivityError",
    "NoApplicableBoundError",
    "InconsistentBoundsError",
    "as_point",
    "canonical_domain",
    "CANONICAL_DOMAIN_NAMES",
    "chordal",
    "cross_ratio",
    "j_metric",
    "j_diameter",
    "r_ratio",
    "seittenranta",
    "apollonian",
    "hyperbolic_ball",
    "quasihyperbolic_exact",
    "quasihyperbolic_numeric",
    "mu_ball_center",
    "mu_bounds",
    "lambda_bounds",
]


class ConnectivityError(RuntimeError):
    """No admissible path was found at the maximum grid refinement."""


class NoApplicableBoundError(ValueError):
    """None of the implemented bounds applies to the given configuration."""


class InconsistentBoundsError(ValueError):
    """Applicable bounds exclude each other, usually a misconfigured constant."""


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of R^n or the point at infinity (coords is None)."""

    coords: tuple[float, ...] | None

    @property
    def is_infinity(self) -> bool:
        return self.coords is None

    @property
    def dimension(self) -> int | None:
        return None if self.coords is None else len(self.coords)

    def array(self) -> np.ndarray:
        if self.coords is None:
            raise ValueError("the point at infinity has no coordinates")
        return np.asarray(self.coords, dtype=float)

    def norm(self) -> float:
        if self.coords is None:
            return math.inf
        return float(np.linalg.norm(self.coords))


INFINITY = ExtendedPoint(None)


def as_point(p: "ExtendedPoint | Sequence[float]") -> ExtendedPoint:
    """Coerce a coordinate sequence (or pass through a point) to ExtendedPoint."""
    if isinstance(p, ExtendedPoint):
        return p
    if p is None:
        return INFINITY
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"expected a coordinate sequence of length >= 2, got {p!r}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("finite points need finite coordinates; use INFINITY")
    return ExtendedPoint(tuple(float(v) for v in arr))


def _same_dimension(*pts: ExtendedPoint) -> int | None:
    dims = {p.dimension for p in pts if not p.is_infinity}
    if len(dims) > 1:
        raise ValueError(f"mixed point dimensions {sorted(dims)}")
    return dims.pop() if dims else None


@dataclass(frozen=True)
class DomainSpec:
    """A proper subdomain of R^n given by oracles and caller-asserted flags.

    dist_to_boundary takes an array of shape (n,) or (m, n) and returns the
    Euclidean distance to the boundary (vectorized over the leading axis).
    The quasihyperbolic graph relies on it being 1-Lipschitz, which a true
    or a signed distance is: its segment test and its pruning bound both
    follow from that.  Flags are facts the caller asserts about the domain;
    nothing is inferred.
    """

    dimension: int
    dist_to_boundary: Callable[[np.ndarray], np.ndarray]
    boundary_samples: tuple[ExtendedPoint, ...]
    diam: float = math.inf
    uniform_constant: float | None = None
    qed_constant: float | None = None
    boundary_connected: bool = False
    boundary_nondegenerate: bool = False
    boundary_samples_exhaustive: bool = False
    name: str = "custom"

    def __post_init__(self) -> None:
        check_dimension(self.dimension)
        if not self.boundary_samples:
            raise ValueError("boundary_samples must be nonempty")
        if self.uniform_constant is not None and self.uniform_constant < 1:
            raise ValueError("uniform_constant must be >= 1")
        if self.qed_constant is not None and not 0 < self.qed_constant <= 1:
            raise ValueError("qed_constant must lie in (0, 1]")
        if self.diam <= 0:
            raise ValueError("diam must be positive")

    def boundary_distance(self, x: "ExtendedPoint | Sequence[float]") -> float:
        p = as_point(x)
        if p.is_infinity:
            raise ValueError("boundary distance is for finite interior points")
        d = np.asarray(self.dist_to_boundary(p.array()), dtype=float).item()
        if d <= 0:
            raise ValueError(f"point {p.coords} is not interior to {self.name}")
        return d

    def with_flags(self, **kwargs) -> "DomainSpec":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class MetricValue:
    """A nonnegative metric value; exact=False marks discretization limits."""

    value: float
    exact: bool = True

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("metric values are nonnegative")

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# canonical domains


def _fibonacci_sphere(m: int) -> np.ndarray:
    k = np.arange(m, dtype=float) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * k / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _sphere_samples(n: int, m: int) -> list[ExtendedPoint]:
    if n == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    elif n == 3:
        pts = _fibonacci_sphere(m)
    else:
        # axis points only; enough for coarse suprema in high dimension
        eye = np.eye(n)
        pts = np.concatenate([eye, -eye], axis=0)
    return [ExtendedPoint(tuple(map(float, p))) for p in pts]


def _hyperplane_samples(n: int, m: int, extent: float) -> list[ExtendedPoint]:
    if n == 2:
        xs = np.linspace(-extent, extent, m)
        pts = [ExtendedPoint((float(v), 0.0)) for v in xs]
    else:
        side = max(3, int(round(math.sqrt(m))))
        xs = np.linspace(-extent, extent, side)
        grid = np.meshgrid(*([xs] * (n - 1)), indexing="ij")
        flat = np.stack([g.ravel() for g in grid], axis=1)
        pts = [
            ExtendedPoint(tuple(map(float, row)) + (0.0,)) for row in flat
        ]
    return pts


def _norms(X) -> np.ndarray:
    """``np.linalg.norm(X, axis=-1)`` to the bit, summed coordinate by coordinate.

    numpy reduces fewer than 8 terms in order, so for n < 8 the running sum
    of squares over the columns gives its bits without a reduction over the
    short last axis; from 8 terms on it sums pairwise, so defer to it there.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    if n >= 8:
        return np.linalg.norm(X, axis=-1)
    s = X[..., 0] * X[..., 0]
    for k in range(1, n):
        s = s + X[..., k] * X[..., k]
    return np.sqrt(s)


def _segment_distance(X: np.ndarray) -> np.ndarray:
    # distance to the unit segment [0, e1]
    X = np.asarray(X, dtype=float)
    t = np.clip(X[..., 0], 0.0, 1.0)
    nearest = np.zeros_like(X)
    nearest[..., 0] = t
    return _norms(X - nearest)


def _punctured_ball_distance(X: np.ndarray) -> np.ndarray:
    r = _norms(X)
    return np.minimum(r, 1.0 - r)


def canonical_domain(name: str, n: int = 2, boundary_samples: int = 64) -> DomainSpec:
    """Build one of the named canonical domains in dimension n.

    Names: ball, half_space, punctured_space, punctured_ball,
    plane_minus_0_1 (n = 2 only), segment_complement.
    """
    n = check_dimension(n)
    if name == "ball":
        return DomainSpec(
            dimension=n,
            dist_to_boundary=lambda X: 1.0 - _norms(X),
            boundary_samples=tuple(_sphere_samples(n, boundary_samples)),
            diam=2.0,
            boundary_connected=True,
            boundary_nondegenerate=True,
            name="ball",
        )
    if name == "half_space":
        return DomainSpec(
            dimension=n,
            dist_to_boundary=lambda X: np.asarray(X)[..., -1],
            boundary_samples=tuple(
                _hyperplane_samples(n, boundary_samples, extent=8.0)
            )
            + (INFINITY,),
            diam=math.inf,
            boundary_connected=True,
            boundary_nondegenerate=True,
            name="half_space",
        )
    if name == "punctured_space":
        return DomainSpec(
            dimension=n,
            dist_to_boundary=_norms,
            boundary_samples=(ExtendedPoint((0.0,) * n), INFINITY),
            diam=math.inf,
            boundary_connected=False,
            boundary_nondegenerate=False,
            boundary_samples_exhaustive=True,
            name="punctured_space",
        )
    if name == "punctured_ball":
        return DomainSpec(
            dimension=n,
            dist_to_boundary=_punctured_ball_distance,
            boundary_samples=(ExtendedPoint((0.0,) * n),)
            + tuple(_sphere_samples(n, boundary_samples)),
            diam=2.0,
            boundary_connected=False,
            boundary_nondegenerate=True,
            name="punctured_ball",
        )
    if name == "plane_minus_0_1":
        if n != 2:
            raise ValueError("plane_minus_0_1 is a planar domain")
        e1 = np.array([1.0, 0.0])
        return DomainSpec(
            dimension=2,
            dist_to_boundary=lambda X: np.minimum(_norms(X), _norms(X - e1)),
            boundary_samples=(
                ExtendedPoint((0.0, 0.0)),
                ExtendedPoint((1.0, 0.0)),
                INFINITY,
            ),
            diam=math.inf,
            boundary_connected=False,
            boundary_nondegenerate=False,
            boundary_samples_exhaustive=True,
            name="plane_minus_0_1",
        )
    if name == "segment_complement":
        ts = np.linspace(0.0, 1.0, max(boundary_samples // 2, 9))
        seg = [
            ExtendedPoint((float(t),) + (0.0,) * (n - 1)) for t in ts
        ]
        return DomainSpec(
            dimension=n,
            dist_to_boundary=_segment_distance,
            boundary_samples=tuple(seg) + (INFINITY,),
            diam=math.inf,
            boundary_connected=False,
            boundary_nondegenerate=True,
            name="segment_complement",
        )
    raise ValueError(f"unknown canonical domain {name!r}")


CANONICAL_DOMAIN_NAMES = (
    "ball",
    "half_space",
    "punctured_space",
    "punctured_ball",
    "plane_minus_0_1",
    "segment_complement",
)


# ---------------------------------------------------------------------------
# pointwise metrics


def chordal(x: "ExtendedPoint | Sequence[float]", y: "ExtendedPoint | Sequence[float]") -> float:
    """Chordal distance on the Mobius sphere.

    q(x, y) = |x - y| / (sqrt(1+|x|^2) sqrt(1+|y|^2)), and
    q(x, oo) = 1 / sqrt(1+|x|^2).
    """
    px, py = as_point(x), as_point(y)
    _same_dimension(px, py)
    if px.is_infinity and py.is_infinity:
        return 0.0
    if px.is_infinity or py.is_infinity:
        fin = py if px.is_infinity else px
        return 1.0 / math.sqrt(1.0 + fin.norm() ** 2)
    ax, ay = px.array(), py.array()
    num = float(np.linalg.norm(ax - ay))
    return num / (
        math.sqrt(1.0 + float(ax @ ax)) * math.sqrt(1.0 + float(ay @ ay))
    )


def cross_ratio(a, b, c, d) -> float:
    """Absolute cross ratio |a,b,c,d| = q(a,c) q(b,d) / (q(a,b) q(c,d))."""
    pa, pb, pc, pd = as_point(a), as_point(b), as_point(c), as_point(d)
    _same_dimension(pa, pb, pc, pd)
    pts = [pa, pb, pc, pd]
    for i in range(4):
        for k in range(i + 1, 4):
            if pts[i] == pts[k]:
                raise ValueError("cross_ratio needs pairwise distinct points")
    return (chordal(pa, pc) * chordal(pb, pd)) / (chordal(pa, pb) * chordal(pc, pd))


def j_metric(D: DomainSpec, x, y) -> float:
    """Distance-ratio metric j(x, y) = log(1 + |x-y| / min(d(x), d(y)))."""
    px, py = as_point(x), as_point(y)
    if px == py:
        return 0.0
    dx = D.boundary_distance(px)
    dy = D.boundary_distance(py)
    gap = math.dist(px.array(), py.array())
    return math.log1p(gap / min(dx, dy))


def j_diameter(D: DomainSpec, A: Iterable) -> float:
    """sup of the distance-ratio metric over pairs from the finite set A."""
    pts = [as_point(p) for p in A]
    if not pts:
        raise ValueError("j_diameter needs a nonempty point set")
    best = 0.0
    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            best = max(best, j_metric(D, pts[i], pts[k]))
    return best


def r_ratio(D: DomainSpec, A: Iterable) -> float:
    """Euclidean diameter of A divided by its distance to the boundary."""
    pts = [as_point(p) for p in A]
    if not pts:
        raise ValueError("r_ratio needs a nonempty point set")
    arrs = [p.array() for p in pts]
    diam = 0.0
    for i in range(len(arrs)):
        for k in range(i + 1, len(arrs)):
            diam = max(diam, float(np.linalg.norm(arrs[i] - arrs[k])))
    dist = min(D.boundary_distance(p) for p in pts)
    return diam / dist


#: rows of the sample-to-sample chordal table evaluated at once; bounds the
#: temporaries of seittenranta and apollonian to O(_SUP_ROWS * m) floats
_SUP_ROWS = 128


def _coords(pts: Sequence[ExtendedPoint], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) coordinates (zeros at infinity) and the infinity mask of pts."""
    inf = np.array([p.is_infinity for p in pts], dtype=bool)
    X = np.array([(0.0,) * n if p.is_infinity else p.coords for p in pts], dtype=float)
    return X, inf


def _chordal_table(
    A: np.ndarray, a_inf: np.ndarray, B: np.ndarray, b_inf: np.ndarray
) -> np.ndarray:
    """Chordal distances q(a_i, b_j) as an array of shape (len(A), len(B))."""
    d2 = sum((A[:, None, k] - B[None, :, k]) ** 2 for k in range(A.shape[1]))
    num = np.where(a_inf[:, None] | b_inf[None, :], 1.0, np.sqrt(d2))
    num[a_inf[:, None] & b_inf[None, :]] = 0.0
    wa = np.sqrt(1.0 + (A * A).sum(axis=1))
    wb = np.sqrt(1.0 + (B * B).sum(axis=1))
    return num / (wa[:, None] * wb[None, :])


def _sample_sup(
    D: DomainSpec, px: ExtendedPoint, py: ExtendedPoint, ratio: Callable[..., np.ndarray]
) -> float:
    """Max of a chordal ratio over ordered pairs of boundary samples.

    ``ratio(qab, qax, qay, qbx, qby)`` receives one row block of the table
    q(a, b), the block rows' distances to x and y as columns, and every
    sample's distances to x and y as rows.  Pairs with a == b need no
    mask: q(a, b) = 0 makes Seittenranta's ratio 0, and Apollonian's ratio
    divides one product by itself, exactly 1; neither exceeds the value
    that metric's supremum starts from.
    """
    n = _same_dimension(px, py, *D.boundary_samples)
    S, s_inf = _coords(D.boundary_samples, n)
    P, p_inf = _coords((px, py), n)
    qx, qy = _chordal_table(P, p_inf, S, s_inf)
    if not (qx.min() > 0.0 and qy.min() > 0.0):
        raise ValueError("x and y must lie apart from every boundary sample")
    best = 0.0
    for lo in range(0, len(S), _SUP_ROWS):
        rows = slice(lo, lo + _SUP_ROWS)
        qab = _chordal_table(S[rows], s_inf[rows], S, s_inf)
        v = ratio(qab, qx[rows, None], qy[rows, None], qx[None, :], qy[None, :])
        best = max(best, float(v.max()))
    return best


def seittenranta(D: DomainSpec, x, y) -> MetricValue:
    """Seittenranta's metric log(1 + sup_{a,b in bd} |a,x,b,y|).

    The supremum runs over ordered pairs of boundary samples; the result is
    exact only when the samples exhaust the boundary.  With m
    samples it costs O(m^2) arithmetic on arrays, taken in blocks of
    ``_SUP_ROWS`` table rows, so temporary memory stays O(m).
    """
    if len(D.boundary_samples) < 2:
        raise ValueError("seittenranta needs at least 2 boundary samples")
    px, py = as_point(x), as_point(y)
    if px == py:
        return MetricValue(0.0, exact=True)
    qxy = chordal(px, py)
    best = _sample_sup(
        D, px, py, lambda qab, qax, qay, qbx, qby: (qab * qxy) / (qax * qby)
    )
    return MetricValue(math.log1p(best), exact=D.boundary_samples_exhaustive)


def apollonian(D: DomainSpec, x, y) -> MetricValue:
    """Apollonian metric sup_{a,b in bd} log |a,x,y,b| over boundary samples.

    The caller asserts that the complement is not contained in a sphere or
    hyperplane (otherwise this is only a pseudometric).  Cost and memory
    are those of :func:`seittenranta`: O(m^2) arithmetic, O(m) memory.
    """
    if len(D.boundary_samples) < 2:
        raise ValueError("apollonian needs at least 2 boundary samples")
    px, py = as_point(x), as_point(y)
    if px == py:
        return MetricValue(0.0, exact=True)
    best = _sample_sup(
        D, px, py, lambda qab, qax, qay, qbx, qby: (qay * qbx) / (qax * qby)
    )
    return MetricValue(math.log(max(best, 1.0)), exact=D.boundary_samples_exhaustive)


def hyperbolic_ball(x, y) -> float:
    """Hyperbolic distance of the unit ball.

    tanh^2(rho/2) = |x-y|^2 / (|x-y|^2 + t^2) with
    t^2 = (1-|x|^2)(1-|y|^2).
    """
    ax, ay = as_point(x).array(), as_point(y).array()
    nx2 = float(ax @ ax)
    ny2 = float(ay @ ay)
    if nx2 >= 1.0 or ny2 >= 1.0:
        raise ValueError("hyperbolic_ball needs points inside the unit ball")
    g2 = float(np.sum((ax - ay) ** 2))
    if g2 == 0.0:
        return 0.0
    t2 = (1.0 - nx2) * (1.0 - ny2)
    return 2.0 * math.atanh(math.sqrt(g2 / (g2 + t2)))


def _principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    uh = u / np.linalg.norm(u)
    vh = v / np.linalg.norm(v)
    return 2.0 * math.atan2(
        float(np.linalg.norm(uh - vh)), float(np.linalg.norm(uh + vh))
    )


def quasihyperbolic_exact(domain_kind: str, x, y) -> float:
    """Closed-form quasihyperbolic distance on a canonical domain.

    punctured_space: sqrt(log^2(|x|/|y|) + ang^2) with ang the principal
    angle between x and y (the geodesic stays in their plane).
    half_space: 2 arsinh(|x-y| / (2 sqrt(x_n y_n))), the same value as
    arcosh(1 + |x-y|^2 / (2 x_n y_n)) without its cancellation for close
    points.
    """
    ax, ay = as_point(x).array(), as_point(y).array()
    if ax.shape != ay.shape:
        raise ValueError("mixed point dimensions")
    if domain_kind == "punctured_space":
        nx, ny = float(np.linalg.norm(ax)), float(np.linalg.norm(ay))
        if nx == 0.0 or ny == 0.0:
            raise ValueError("origin is on the boundary of the punctured space")
        if np.array_equal(ax, ay):
            return 0.0
        ang = _principal_angle(ax, ay)
        return math.hypot(math.log(nx / ny), ang)
    if domain_kind == "half_space":
        xn, yn = float(ax[-1]), float(ay[-1])
        if xn <= 0.0 or yn <= 0.0:
            raise ValueError("points must have positive last coordinate")
        gap = math.dist(ax, ay)  # scaled: no underflow of tiny gaps
        return 2.0 * math.asinh(gap / (2.0 * math.sqrt(xn) * math.sqrt(yn)))
    raise ValueError(f"no closed form for domain kind {domain_kind!r}")


# ---------------------------------------------------------------------------
# graph approximation of the quasihyperbolic metric


_SIMPSON_MIN = 9
_QH_ROWS = 4096  # segments per oracle call: O(_QH_ROWS * m) temporaries
_QH_MAX_LEVEL = 5  # finest grid: 8 * 2^5 cells a side in the plane

#: lattice offsets out to Euclidean reach 2.2 spacings, the lexicographically
#: positive half, so that each undirected edge is built once from its lower end
_HALF_STENCIL = {
    n: np.array([
        off for off in itertools.product(range(-2, 3), repeat=n)
        if 0 < sum(o * o for o in off) <= 4.84 and off > (0,) * n
    ])
    for n in (2, 3)
}


def _simpson_weights(m: int) -> np.ndarray:
    # m odd
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _segment_weights(D: DomainSpec, A: np.ndarray, B: np.ndarray, m: int) -> np.ndarray:
    """Simpson values of the density 1/d along the segments [A_i, B_i] (m odd).

    A segment counts only if its nodes p_j have d_j > 0 and consecutive
    nodes, h apart, satisfy h < d_j + d_{j+1}: the open balls B(p_j, d_j)
    then cover it, so it lies in D.  Any other segment weighs inf.

    The nodes are laid out node-major, one (rows, n) block per j, so both
    tests run elementwise across the m node rows; only the Simpson sum
    goes back to one contiguous row per segment, where numpy's own sum
    fixes the order of the additions.  A segment whose squared length falls
    below the normal range (shorter than about 1.5e-154) takes its length
    from ``np.hypot``, which scales: the squares would round it toward 0.
    """
    ts = np.linspace(0.0, 1.0, m)
    simpson = _simpson_weights(m)[:, None]
    diff = B - A
    # a batched dot reproduces each row's 1-D norm to the bit; norm(axis=1) does not
    sq = (diff[:, None, :] @ diff[:, :, None]).reshape(-1)
    h = np.sqrt(sq)
    low = sq < sys.float_info.min
    h[low] = np.hypot.reduce(diff[low], axis=1)
    h /= m - 1
    out = np.empty(len(A))
    for lo in range(0, len(A), _QH_ROWS):
        rows = slice(lo, lo + _QH_ROWS)
        P = A[None, rows] + ts[:, None, None] * diff[None, rows]
        d = np.asarray(D.dist_to_boundary(P.reshape(-1, A.shape[1])), dtype=float).reshape(m, -1)
        inside = np.all(d > 0.0, axis=0)
        inside &= np.all(h[rows] < d[:-1] + d[1:], axis=0)
        with np.errstate(divide="ignore"):
            terms = np.ascontiguousarray((simpson * (1.0 / d)).T)
        out[rows] = np.where(inside, h[rows] * np.sum(terms, axis=1), np.inf)
    return out


class _QHPair(NamedTuple):
    """What every level's graph of one x-y pair shares (``_qh_pair``)."""

    ax: np.ndarray
    ay: np.ndarray
    dx: float  # d(x)
    dy: float  # d(y)
    center: np.ndarray  # of the lattice
    half: float  # half the lattice side
    direct: float  # weight of the direct x-y edge, 257 Simpson nodes


def _qh_pair(D: DomainSpec, x, y) -> _QHPair:
    """The level-invariant inputs of ``_grid_shortest_path``, found once.

    d(x) and d(y) come from ``D.boundary_distance``, which refuses a point
    outside D.  The lattice is centred on the midpoint, 1.6 max(|x - y|,
    d(x), d(y)) from centre to side.
    """
    px, py = as_point(x), as_point(y)
    dx, dy = D.boundary_distance(px), D.boundary_distance(py)
    ax, ay = px.array(), py.array()
    gap = float(np.linalg.norm(ax - ay))
    if gap * gap < sys.float_info.min:  # the squares underflow: scale instead
        gap = math.dist(ax, ay)
    direct = float(_segment_weights(D, ax[None, :], ay[None, :], 257)[0])
    return _QHPair(ax, ay, dx, dy, 0.5 * (ax + ay), 1.6 * max(gap, dx, dy), direct)


def _grid_shortest_path(D: DomainSpec, pair: _QHPair, level: int) -> float | None:
    """Shortest x-y path on one level's lattice graph, or None if none.

    Only lattice points that could lie on a path lighter than the direct
    x-y edge become vertices.  Let U be that edge's weight and h the
    spacing.  Every other edge is at most 3h long, and its Simpson weight is
    at least its length over the largest d at its nodes, which is at most
    d(q) + 3h for any point q of the segment, since d is 1-Lipschitz.  So a
    path through lattice point v that avoids the direct edge weighs at
    least the integral of 1/(d + 3h) along it, and as d + 3h is 1-Lipschitz
    too, the part from x to v weighs at least log1p(|v - x| / (min(d_v, d_x)
    + 3h)) (the Gehring-Palka bound j <= k with d + 3h for d); likewise from
    v to y.  Where the two terms add up to more than U (1 + 1e-9), no path
    through v is as light as the direct edge, and so none is a shortest
    path.  The 1e-9 and an absolute slack of 2^-48 times the largest lattice
    coordinate in 3h absorb rounding in the weights, the sums and the
    oracle.  Rounded addition is monotone, so Dijkstra's value is the least
    left-to-right rounded sum over simple x-y paths; it is at most U, and
    every simple path other than the direct edge that weighs at most U
    keeps all its vertices.  So the pruned graph returns the full graph's
    value to the bit.  An infinite U prunes nothing.
    """
    ax, ay, dx, dy, center, half, direct = pair
    n = D.dimension
    N = (8 if n == 2 else 4) * 2**level
    spacing = 2.0 * half / N

    axes = [np.linspace(c - half, c + half, N + 1) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    P = np.stack([g.ravel() for g in mesh], axis=1)
    d = np.asarray(D.dist_to_boundary(P), dtype=float).reshape(-1)
    rx, ry = _norms(P - ax), _norms(P - ay)
    keep = np.flatnonzero(d > 0.0)
    if direct < math.inf:
        reach = 3.0 * spacing + 2.0**-48 * float(np.abs(P).max())
        dk = d[keep]
        lower = np.log1p(rx[keep] / (np.minimum(dk, dx) + reach))
        lower += np.log1p(ry[keep] / (np.minimum(dk, dy) + reach))
        keep = keep[lower <= direct * (1.0 + 1e-9)]
    grid_count = keep.size
    V = np.concatenate([P[keep], ax[None, :], ay[None, :]], axis=0)
    nv = V.shape[0]
    i_x, i_y = nv - 2, nv - 1
    # vertex number of each lattice point, flat over a lattice with a margin
    # of 2; -1 outside D, pruned, or on the margin
    strides = (N + 5) ** np.arange(n - 1, -1, -1)
    at = (np.column_stack(np.unravel_index(keep, (N + 1,) * n)) + 2) @ strides
    node = np.full((N + 5) ** n, -1)
    node[at] = np.arange(grid_count)

    # lattice neighbors from one gather over the half stencil
    nb = node[at[:, None] + _HALF_STENCIL[n] @ strides]
    hit = nb >= 0
    edges = [np.stack([np.nonzero(hit)[0], nb[hit]], axis=1)]
    # endpoints connect to nearby grid nodes and to each other directly
    for endpoint, r in ((i_x, rx), (i_y, ry)):
        near = np.flatnonzero(r[keep] <= 3.0 * spacing)
        edges.append(np.stack([np.full(near.size, endpoint), near], axis=1))
    src, dst = np.concatenate(edges).T
    weights = _segment_weights(D, V[src], V[dst], _SIMPSON_MIN)
    src, dst = np.append(src, i_x), np.append(dst, i_y)
    weights = np.append(weights, direct)

    # both directions as CSR rows, without the segments that leave D
    ok = weights < math.inf
    tail, head = np.concatenate([src[ok], dst[ok]]), np.concatenate([dst[ok], src[ok]])
    order = np.argsort(tail)
    head, weights = head[order], np.tile(weights[ok], 2)[order]
    start = np.cumsum(np.bincount(tail + 1, minlength=nv + 1)).tolist()

    # Dijkstra
    dist = [math.inf] * nv
    dist[i_x] = 0.0
    pq = [(0.0, i_x)]
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:
            continue
        if v == i_y:
            return dv
        lo, hi = start[v], start[v + 1]
        for k, w in zip(head[lo:hi].tolist(), weights[lo:hi].tolist()):
            alt = dv + w
            if alt < dist[k]:
                dist[k] = alt
                heapq.heappush(pq, (alt, k))
    return None


def quasihyperbolic_numeric(D: DomainSpec, x, y, tol: float = 1e-3) -> MetricValue:
    """Graph upper approximation of the quasihyperbolic distance.

    Vertices are the points in D of a cubic lattice around the pair, with
    N = 8 * 2^level cells a side in the plane (4 * 2^level in space), plus
    the endpoints.  Edges join lattice points up to 2.2 spacings apart, each
    endpoint to the lattice points within 3 spacings, and the endpoints to
    each other; each weighs the composite-Simpson integral of the density
    1/d along its segment (9 nodes, 257 on the direct edge).  A segment is
    kept only if its nodes p_j have d_j > 0 and consecutive nodes, h apart,
    satisfy h < d_j + d_{j+1}: when d is the distance to the boundary the
    balls B(p_j, d_j) then cover the segment, so every path lies in D.

    The direct edge, d(x), d(y) and the lattice's centre and extent do not
    depend on the level, so they are found once per call (``_qh_pair``).
    Each level then asks the oracle about every lattice point, and keeps as
    vertices only the points in D that could lie on a path lighter than
    the direct edge (a Gehring-Palka bound; see ``_grid_shortest_path``).
    The value is the one the whole lattice gives, to the bit.  Each kept
    point brings about 6 (plane) or 16 (space) segments of 9 oracle points
    each, found by one gather over the half stencil, plus Dijkstra on the
    resulting CSR arrays.  Over the benchmark's query pairs the bound
    keeps about 38 % of the lattice points in D and 37 % of the segments;
    where the direct edge leaves D it prunes nothing, and a level-4 planar
    graph then has about 10^5 segments.  Simpson nodes reach the oracle
    ``_QH_ROWS`` segments at a time, so beyond the O(segments) graph the
    temporaries stay O(_QH_ROWS).  The grid doubles until two successive
    values differ by less than tol, up to level ``_QH_MAX_LEVEL``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    px, py = as_point(x), as_point(y)
    if px == py:
        return MetricValue(0.0, exact=True)
    if D.dimension not in (2, 3):
        raise ValueError("numeric quasihyperbolic supports dimensions 2 and 3")
    pair = _qh_pair(D, px, py)
    prev: float | None = None
    for level in range(_QH_MAX_LEVEL + 1):
        val = _grid_shortest_path(D, pair, level)
        if val is None:
            prev = None
            continue
        if prev is not None and abs(val - prev) < tol:
            return MetricValue(min(val, prev), exact=False)
        prev = val
    if prev is None:
        raise ConnectivityError(
            f"no admissible path between {px.coords} and {py.coords} "
            f"at refinement level {_QH_MAX_LEVEL}"
        )
    return MetricValue(prev, exact=False)


# ---------------------------------------------------------------------------
# conformal-invariant bounds


def mu_ball_center(n: int, x) -> Interval:
    """Capacity between the unit sphere and a radius through x, from 0.

    Equals the Grotzsch capacity at 1/|x|: exact in the plane, an enclosure
    for n >= 3.
    """
    n = check_dimension(n)
    p = as_point(x)
    r = p.norm()
    if not 0.0 < r < 1.0:
        raise ValueError("mu_ball_center needs 0 < |x| < 1")
    return gamma_n_bounds(n, 1.0 / r)


def _h2_planar(t: float) -> float:
    # explicit planar majorant: 2 pi a / log(1/(2t)) up to t = 1/4, then
    # 36 pi t^2; continuous at the break (both give 2.25 pi)
    alpha = 9.0 / 8.0 * math.log(2.0)
    if t <= 0.25:
        return 2.0 * math.pi * alpha / math.log(1.0 / (2.0 * t))
    return 36.0 * math.pi * t * t


def mu_bounds(
    D: DomainSpec,
    x,
    y,
    *,
    c_n: float | None = None,
    k_value: float | None = None,
) -> Interval:
    """Interval for the conformal capacity between {x, y} and the boundary.

    Uppers: the concentric-ball comparison when |x-y| < d(x) (both the exact
    ball value and the log form), and the planar majorant at 3k when the
    boundary is connected and nondegenerate (k supplied or computed).
    Lower: c_n times the distance-ratio metric when the boundary is
    connected; c_n has no published numeric value, so it must be supplied.
    """
    px, py = as_point(x), as_point(y)
    if px == py:
        return Interval(0.0, 0.0)
    n = D.dimension
    dx = D.boundary_distance(px)
    D.boundary_distance(py)
    gap = math.dist(px.array(), py.array())
    uppers: list[float] = []
    lowers: list[float] = [0.0]
    if gap < dx:
        ratio = dx / gap
        uppers.append(gamma_n_bounds(n, ratio).hi)
        uppers.append(omega_sphere(n) * math.log(ratio) ** (1 - n))
    if D.boundary_connected and D.boundary_nondegenerate and n == 2:
        if k_value is None:
            k_value = quasihyperbolic_numeric(D, px, py, tol=1e-2).value
        uppers.append(_h2_planar(3.0 * k_value))
    if D.boundary_connected and c_n is not None:
        lowers.append(c_n * j_metric(D, px, py))
    if not uppers and max(lowers) == 0.0:
        raise NoApplicableBoundError(
            "no capacity bound applies: supply c_n, connected-boundary flags, "
            "or bring the points within one boundary distance"
        )
    lo = max(lowers)
    hi = min(uppers) if uppers else math.inf
    if lo > hi:
        raise InconsistentBoundsError(
            f"lower bound {lo} exceeds upper bound {hi}; check the c_n value"
        )
    return Interval(lo, hi)


def lambda_bounds(
    D: DomainSpec,
    x,
    y,
    *,
    c_n: float | None = None,
) -> Interval:
    """Interval for the point-pair extremal-distance invariant.

    Upper: sqrt(2) tau_n(|x-y| / min(d(x), d(y))).  Lowers: the QED bound
    c tau_n(s^2 + 2 s) when the QED constant is set, and the concentric-ball
    bound c_n log(d/|x-y|) when c_n is supplied and the points are close.
    Missing pieces fall back to [0, oo).
    """
    px, py = as_point(x), as_point(y)
    if px == py:
        raise ValueError("lambda_bounds needs distinct points")
    n = D.dimension
    dx = D.boundary_distance(px)
    dy = D.boundary_distance(py)
    gap = math.dist(px.array(), py.array())
    s = gap / min(dx, dy)
    hi = math.sqrt(2.0) * tau_n_bounds(n, s).hi
    lowers = [0.0]
    if D.qed_constant is not None:
        lowers.append(D.qed_constant * tau_n_bounds(n, s * s + 2.0 * s).lo)
    if c_n is not None:
        for dd in (dx, dy):
            if gap < dd:
                lowers.append(c_n * math.log(dd / gap))
    lo = max(lowers)
    if lo > hi:
        raise InconsistentBoundsError(
            f"lower bound {lo} exceeds upper bound {hi}; check the constants"
        )
    return Interval(lo, hi)
