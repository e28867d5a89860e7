import heapq
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cgft.harmonic_qr import polyline_interior_domain
from cgft.metrics import (
    CANONICAL_DOMAIN_NAMES,
    INFINITY,
    ConnectivityError,
    DomainSpec,
    ExtendedPoint,
    InconsistentBoundsError,
    MetricValue,
    NoApplicableBoundError,
    apollonian,
    as_point,
    canonical_domain,
    chordal,
    cross_ratio,
    hyperbolic_ball,
    j_diameter,
    j_metric,
    lambda_bounds,
    mu_ball_center,
    mu_bounds,
    quasihyperbolic_exact,
    quasihyperbolic_numeric,
    r_ratio,
    seittenranta,
)
from cgft.metrics import (
    _QH_ROWS,
    _grid_shortest_path,
    _qh_pair,
    _norms,
    _segment_weights,
    _simpson_weights,
)
from cgft.special_functions import gamma2, tau2, teichmuller_p_circle

RNG = np.random.default_rng(0)


def random_finite(n=2, scale=3.0):
    return tuple(map(float, RNG.normal(0.0, scale, size=n)))


def invert(p):
    a = np.asarray(p, dtype=float)
    return tuple(map(float, a / (a @ a)))


class TestExtendedPoint:
    def test_infinity(self):
        assert INFINITY.is_infinity
        assert INFINITY.dimension is None
        with pytest.raises(ValueError):
            INFINITY.array()

    def test_coercion(self):
        p = as_point((1.0, 2.0))
        assert p.coords == (1.0, 2.0)
        assert as_point(p) is p
        with pytest.raises(ValueError):
            as_point((math.nan, 0.0))
        with pytest.raises(ValueError):
            as_point((1.0,))

    def test_metric_value_nonnegative(self):
        with pytest.raises(ValueError):
            MetricValue(-0.1)


class TestChordal:
    def test_examples(self):
        assert chordal((0.0, 0.0), INFINITY) == pytest.approx(1.0)
        assert chordal((0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_symmetry_and_identity(self):
        for _ in range(20):
            x, y = random_finite(), random_finite()
            assert chordal(x, y) == pytest.approx(chordal(y, x), rel=1e-14)
            assert chordal(x, x) == 0.0
        assert chordal(INFINITY, INFINITY) == 0.0

    def test_bounded_by_one(self):
        for _ in range(50):
            assert chordal(random_finite(scale=10.0), random_finite(scale=10.0)) <= 1.0 + 1e-15

    def test_triangle(self):
        for _ in range(60):
            x, y, z = random_finite(), random_finite(), random_finite()
            assert chordal(x, z) <= chordal(x, y) + chordal(y, z) + 1e-9


class TestCrossRatio:
    def test_collapsed_form_with_infinity(self):
        v = cross_ratio((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), INFINITY)
        assert v == pytest.approx(2.0, rel=1e-12)

    def test_inversion_invariance(self):
        for _ in range(20):
            quad = [random_finite() for _ in range(4)]
            base = cross_ratio(*quad)
            inv = cross_ratio(*[invert(p) for p in quad])
            assert inv == pytest.approx(base, rel=1e-10)

    def test_similarity_invariance(self):
        theta = 0.7
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        shift = np.array([3.0, -1.0])
        for _ in range(20):
            quad = [random_finite() for _ in range(4)]
            base = cross_ratio(*quad)
            moved = [tuple(2.5 * R @ np.asarray(p) + shift) for p in quad]
            assert cross_ratio(*moved) == pytest.approx(base, rel=1e-10)

    def test_positive(self):
        for _ in range(20):
            assert cross_ratio(*[random_finite() for _ in range(4)]) > 0.0

    def test_coincident_rejected(self):
        p = (1.0, 1.0)
        with pytest.raises(ValueError):
            cross_ratio(p, p, (2.0, 0.0), (3.0, 0.0))


@pytest.fixture(scope="module")
def punctured_plane():
    return canonical_domain("punctured_space", 2)


@pytest.fixture(scope="module")
def half_plane():
    return canonical_domain("half_space", 2, boundary_samples=161)


class TestJMetric:
    def test_example(self, punctured_plane):
        assert j_metric(punctured_plane, (1.0, 0.0), (2.0, 0.0)) == pytest.approx(
            math.log(2.0), rel=1e-14
        )

    def test_identity_and_symmetry(self, punctured_plane):
        assert j_metric(punctured_plane, (1.0, 1.0), (1.0, 1.0)) == 0.0
        for _ in range(20):
            x, y = random_finite(), random_finite()
            if np.allclose(x, 0) or np.allclose(y, 0):
                continue
            assert j_metric(punctured_plane, x, y) == pytest.approx(
                j_metric(punctured_plane, y, x), rel=1e-14
            )

    def test_tiny_gap_does_not_underflow(self, half_plane):
        # the squares of a 1e-300 gap underflow to 0; j was 0 here
        assert j_metric(half_plane, (0.0, 1.0), (1e-300, 1.0)) == 1e-300

    def test_below_quasihyperbolic(self, punctured_plane):
        for _ in range(30):
            x, y = random_finite(), random_finite()
            if min(np.linalg.norm(x), np.linalg.norm(y)) < 1e-3:
                continue
            j = j_metric(punctured_plane, x, y)
            k = quasihyperbolic_exact("punctured_space", x, y)
            assert j <= k + 1e-12

    def test_triangle(self, punctured_plane):
        for _ in range(40):
            pts = [random_finite() for _ in range(3)]
            if min(np.linalg.norm(p) for p in pts) < 1e-3:
                continue
            a, b, c = pts
            assert j_metric(punctured_plane, a, c) <= (
                j_metric(punctured_plane, a, b) + j_metric(punctured_plane, b, c) + 1e-9
            )


class TestSetFunctions:
    def test_singleton(self, punctured_plane):
        assert j_diameter(punctured_plane, [(1.0, 0.0)]) == 0.0

    def test_r_ratio_example(self, punctured_plane):
        assert r_ratio(punctured_plane, [(1.0, 0.0), (2.0, 0.0)]) == pytest.approx(1.0)

    def test_three_point_max(self, punctured_plane):
        A = [(1.0, 0.0), (2.0, 0.0), (0.5, 0.5)]
        pairs = [
            j_metric(punctured_plane, A[0], A[1]),
            j_metric(punctured_plane, A[0], A[2]),
            j_metric(punctured_plane, A[1], A[2]),
        ]
        assert j_diameter(punctured_plane, A) == pytest.approx(max(pairs), rel=1e-14)


class TestSeittenranta:
    def test_punctured_space_equals_j(self, punctured_plane):
        for _ in range(25):
            x, y = random_finite(), random_finite()
            if min(np.linalg.norm(x), np.linalg.norm(y)) < 1e-3:
                continue
            d = seittenranta(punctured_plane, x, y)
            assert d.exact
            assert d.value == pytest.approx(j_metric(punctured_plane, x, y), rel=1e-12)

    def test_sandwich_on_half_plane(self, half_plane):
        rng = np.random.default_rng(7)
        for _ in range(15):
            x = (float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2.0)))
            y = (float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2.0)))
            j = j_metric(half_plane, x, y)
            d = seittenranta(half_plane, x, y)
            assert not d.exact
            assert d.value <= 2.0 * j + 1e-9
            # sampled sup undershoots; allow a discretization margin
            assert d.value >= j - 5e-3

    def test_identity(self, half_plane):
        assert seittenranta(half_plane, (0.0, 1.0), (0.0, 1.0)).value == 0.0

    def test_needs_two_samples(self):
        D = canonical_domain("punctured_space", 2).with_flags(
            boundary_samples=(ExtendedPoint((0.0, 0.0)),)
        )
        with pytest.raises(ValueError):
            seittenranta(D, (1.0, 0.0), (2.0, 0.0))


class TestApollonian:
    def test_identity_and_symmetry(self, half_plane):
        assert apollonian(half_plane, (1.0, 1.0), (1.0, 1.0)).value == 0.0
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = (float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2.0)))
            y = (float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2.0)))
            assert apollonian(half_plane, x, y).value == pytest.approx(
                apollonian(half_plane, y, x).value, rel=1e-10, abs=1e-12
            )

    def test_dominates_j_on_convex(self, half_plane):
        rng = np.random.default_rng(11)
        for _ in range(12):
            x = (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.3, 1.5)))
            y = (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.3, 1.5)))
            a = apollonian(half_plane, x, y).value
            j = j_metric(half_plane, x, y)
            assert a >= j - 5e-3


def loop_sup(metric, D, x, y):
    """The scalar double loop over boundary samples, kept as the reference."""
    px, py = as_point(x), as_point(y)
    samples = D.boundary_samples
    if metric == "seittenranta":
        qxy = chordal(px, py)
        best = 0.0
        for a in samples:
            qax = chordal(a, px)
            for b in samples:
                if a != b:
                    best = max(best, (chordal(a, b) * qxy) / (qax * chordal(b, py)))
        return math.log1p(best)
    best = 1.0
    for a in samples:
        qay, qax = chordal(a, py), chordal(a, px)
        for b in samples:
            if a != b:
                best = max(best, (qay * chordal(px, b)) / (qax * chordal(py, b)))
    return math.log(best)


def duplicated_samples():
    """A half plane whose 141 samples repeat a few points, infinity among them,
    past the first row block of the kernel."""
    D = canonical_domain("half_space", 2, boundary_samples=140)
    s = D.boundary_samples
    return D.with_flags(boundary_samples=s + (s[3], INFINITY, s[0], s[139]))


def disk_exterior():
    """The complement of the closed unit disk, infinity an interior point."""
    return DomainSpec(
        dimension=2,
        dist_to_boundary=lambda X: np.linalg.norm(X, axis=-1) - 1.0,
        boundary_samples=canonical_domain("ball", 2, 40).boundary_samples,
    )


SUP_CASES = [
    ("ball", lambda: canonical_domain("ball", 2, 40), (0.3, -0.2), (-0.5, 0.4)),
    ("ball rows > block", lambda: canonical_domain("ball", 2, 130), (0.1, 0.6), (-0.7, -0.1)),
    ("ball 3-D", lambda: canonical_domain("ball", 3, 40), (0.2, 0.1, -0.3), (-0.4, 0.2, 0.1)),
    ("half_space with oo", lambda: canonical_domain("half_space", 2, 40), (0.5, 0.7), (-1.2, 0.3)),
    ("half_space far from bd", lambda: canonical_domain("half_space", 2, 40), (0.0, 5.0), (3.0, 6.0)),
    ("disk exterior, x = oo", disk_exterior, INFINITY, (2.0, 0.5)),
    ("half_space 3-D", lambda: canonical_domain("half_space", 3, 25), (0.5, 0.2, 0.7), (-1.0, 0.4, 0.3)),
    ("punctured_ball", lambda: canonical_domain("punctured_ball", 2, 40), (0.3, 0.2), (-0.1, -0.6)),
    ("segment_complement", lambda: canonical_domain("segment_complement", 2, 40), (0.5, 0.3), (1.5, -0.2)),
    ("duplicate samples", duplicated_samples, (0.4, 0.9), (2.5, 0.2)),
]


class TestBoundarySupKernel:
    """The array kernel against the scalar loop it replaced."""

    @pytest.mark.parametrize("metric", ["seittenranta", "apollonian"])
    @pytest.mark.parametrize("label,make,x,y", SUP_CASES, ids=[c[0] for c in SUP_CASES])
    def test_matches_scalar_loop(self, metric, label, make, x, y):
        D = make()
        fn = seittenranta if metric == "seittenranta" else apollonian
        assert fn(D, x, y).value == pytest.approx(loop_sup(metric, D, x, y), rel=1e-12)
        assert fn(D, y, x).value == pytest.approx(loop_sup(metric, D, y, x), rel=1e-12)

    @pytest.mark.parametrize("fn", [seittenranta, apollonian])
    def test_mixed_dimensions_rejected(self, fn):
        with pytest.raises(ValueError, match="mixed point dimensions"):
            fn(canonical_domain("ball", 2, 8), (0.1, 0.2, 0.3), (0.2, 0.1, 0.0))

    @pytest.mark.parametrize("fn", [seittenranta, apollonian])
    def test_point_on_a_sample_rejected(self, fn):
        D = canonical_domain("punctured_space", 2)
        with pytest.raises(ValueError, match="apart from every boundary sample"):
            fn(D, (0.0, 0.0), (1.0, 1.0))

    def test_only_equal_samples_gives_zero(self):
        D = canonical_domain("ball", 2).with_flags(
            boundary_samples=(ExtendedPoint((1.0, 0.0)), ExtendedPoint((1.0, -0.0)))
        )
        assert seittenranta(D, (0.1, 0.0), (0.0, 0.2)).value == 0.0
        assert apollonian(D, (0.1, 0.0), (0.0, 0.2)).value == 0.0

    def test_memory_does_not_grow_with_the_square(self):
        import tracemalloc

        m = 3000
        D = canonical_domain("half_space", 2, boundary_samples=m)
        tracemalloc.start()
        try:
            seittenranta(D, (0.3, 0.5), (1.2, 1.7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one full m x m float table would take 8 m^2 bytes (72 MB)
        assert peak < 8 * m * m / 3


class TestHyperbolicBall:
    def test_radial_formula(self):
        x = (0.5, 0.0)
        assert hyperbolic_ball((0.0, 0.0), x) == pytest.approx(
            math.log(1.5 / 0.5), rel=1e-13
        )

    def test_tanh_inequality_and_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            x = rng.uniform(-0.6, 0.6, 2)
            y = rng.uniform(-0.6, 0.6, 2)
            rho = hyperbolic_ball(tuple(x), tuple(y))
            assert np.linalg.norm(x - y) <= 2.0 * math.tanh(rho / 4.0) + 1e-12
        x = (0.3, 0.0)
        mx = (-0.3, 0.0)
        rho = hyperbolic_ball(x, mx)
        assert 2.0 * math.tanh(rho / 4.0) == pytest.approx(0.6, rel=1e-12)

    def test_triangle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            pts = [tuple(rng.uniform(-0.7, 0.7, 2)) for _ in range(3)]
            a, b, c = pts
            assert hyperbolic_ball(a, c) <= hyperbolic_ball(a, b) + hyperbolic_ball(b, c) + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            hyperbolic_ball((1.0, 0.0), (0.0, 0.0))


class TestQuasihyperbolicExact:
    def test_consecutive_integers(self):
        for n in [1, 5, 9]:
            v = quasihyperbolic_exact(
                "punctured_space", (float(n), 0.0), (float(n + 1), 0.0)
            )
            assert v == pytest.approx(math.log((n + 1) / n), rel=1e-13)

    def test_exponential_image_gap(self):
        a = math.exp(4.0 * math.pi)
        v = quasihyperbolic_exact("punctured_space", (1.0, 0.0), (a, 0.0))
        assert v == pytest.approx(4.0 * math.pi, rel=1e-13)

    def test_half_space_vertical(self):
        v = quasihyperbolic_exact("half_space", (0.0, 1.0), (0.0, math.e))
        assert v == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_half_space_close_points_match_mpmath(self, s):
        # the acosh form cancelled here: 3e-9 relative error at s = 1e-4, 0.0 at 1e-8
        with mp.workdps(60):
            exact = float(mp.acosh(1 + mp.mpf(s) ** 2 / 2))
        v = quasihyperbolic_exact("half_space", (0.0, 1.0), (s, 1.0))
        assert v == pytest.approx(exact, rel=4e-16)

    @pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8, 1e-12])
    def test_half_space_dominates_j(self, s):
        D = canonical_domain("half_space", 2)
        x, y = (0.0, 1.0), (s, 1.0 + s)
        assert quasihyperbolic_exact("half_space", x, y) >= j_metric(D, x, y) > 0.0

    def test_half_space_tiny_gap_is_positive(self):
        # k = 2 asinh(s / 2) rounds to s; the gap is not squared, so it
        # does not underflow
        assert quasihyperbolic_exact("half_space", (0.0, 1.0), (1e-300, 1.0)) == 1e-300

    def test_rotation_invariance_punctured(self):
        theta = 1.1
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        for _ in range(15):
            x, y = np.asarray(random_finite()), np.asarray(random_finite())
            if min(np.linalg.norm(x), np.linalg.norm(y)) < 1e-3:
                continue
            v0 = quasihyperbolic_exact("punctured_space", tuple(x), tuple(y))
            v1 = quasihyperbolic_exact("punctured_space", tuple(R @ x), tuple(R @ y))
            assert v1 == pytest.approx(v0, rel=1e-11, abs=1e-12)

    def test_translation_invariance_half_space(self):
        for _ in range(15):
            x = (float(RNG.uniform(-2, 2)), float(RNG.uniform(0.1, 3.0)))
            y = (float(RNG.uniform(-2, 2)), float(RNG.uniform(0.1, 3.0)))
            v0 = quasihyperbolic_exact("half_space", x, y)
            v1 = quasihyperbolic_exact(
                "half_space", (x[0] + 5.0, x[1]), (y[0] + 5.0, y[1])
            )
            assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12)

    def test_three_dimensional_angle(self):
        v = quasihyperbolic_exact("punctured_space", (1.0, 0.0, 0.0), (0.0, 2.0, 0.0))
        assert v == pytest.approx(math.hypot(math.log(2.0), math.pi / 2.0), rel=1e-13)

    def test_triangle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            pts = [tuple(rng.normal(0, 2, 2)) for _ in range(3)]
            if min(np.linalg.norm(p) for p in pts) < 1e-2:
                continue
            a, b, c = pts
            va = quasihyperbolic_exact("punctured_space", a, c)
            assert va <= (
                quasihyperbolic_exact("punctured_space", a, b)
                + quasihyperbolic_exact("punctured_space", b, c)
                + 1e-9
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quasihyperbolic_exact("punctured_space", (0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            quasihyperbolic_exact("half_space", (0.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            quasihyperbolic_exact("strip", (0.0, 0.5), (1.0, 0.5))


class TestQuasihyperbolicNumeric:
    def test_matches_exact_on_radial_pair(self, punctured_plane):
        res = quasihyperbolic_numeric(punctured_plane, (1.0, 0.0), (2.0, 0.0), 1e-3)
        assert not res.exact
        assert abs(res.value - math.log(2.0)) <= 2e-3

    def test_dominates_j(self, punctured_plane):
        x, y = (1.0, 0.3), (0.4, -1.2)
        res = quasihyperbolic_numeric(punctured_plane, x, y, 1e-3)
        assert res.value >= j_metric(punctured_plane, x, y) - 1e-3

    def test_euclid_lower_bound_on_ball(self):
        ball = canonical_domain("ball", 2)
        x, y = (-0.3, 0.1), (0.4, 0.2)
        res = quasihyperbolic_numeric(ball, x, y, 1e-3)
        assert res.value >= np.linalg.norm(np.subtract(x, y)) / ball.diam - 1e-9

    def test_degenerate_pair(self, punctured_plane):
        res = quasihyperbolic_numeric(punctured_plane, (1.0, 0.0), (1.0, 0.0), 1e-3)
        assert res.value == 0.0 and res.exact

    def test_half_plane_arc_geodesic(self, half_plane):
        x, y = (-1.0, 0.4), (1.0, 0.4)
        exact = quasihyperbolic_exact("half_space", x, y)
        res = quasihyperbolic_numeric(half_plane, x, y, 5e-3)
        assert res.value >= exact - 5e-3
        assert res.value <= exact * 1.15

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e-155])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["ball", "half_space"])
    def test_tiny_gap_is_positive_and_at_least_j(self, kind, n, s):
        # the squares of the gap underflowed, so the direct edge weighed 0
        # and k read 0 for distinct points
        D = canonical_domain(kind, n)
        x = (0.0,) * (n - 1) + (0.5,)
        y = (s,) + x[1:]
        k = quasihyperbolic_numeric(D, x, y).value
        j = float(j_metric(D, x, y))
        assert k > 0.0
        # the density is constant to the bit along so short a segment, and
        # the Simpson weights of 257 nodes sum to 255.99999999999994, not
        # 256, which puts k 1 to 3 ulps below j (and the true k)
        assert k >= j * (1.0 - 2.0**-50)
        assert k <= j * (1.0 + 1e-12)

    def test_tiny_segment_length_is_scaled(self):
        D = canonical_domain("ball", 2)
        A = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.2]])
        B = np.array([[1e-300, 1e-300], [0.0, 0.0], [0.3, -0.1]])
        got = _segment_weights(D, A, B, 9)
        assert got[0] == pytest.approx(math.hypot(1e-300, 1e-300), rel=1e-15, abs=0.0)
        assert got[1] == 0.0
        assert got[2] == segment_weight(D, A[2], B[2], 9)

    def test_mu_bounds_of_tiny_gap_computes_k(self, half_plane):
        # k read 0 here, and the planar majorant divided by log(1 / 0)
        iv = mu_bounds(half_plane, (0.0, 1.0), (1e-300, 1.0), c_n=0.15)
        assert 0.0 < iv.lo <= iv.hi < math.inf

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-3])
    def test_refuses_tol_that_is_not_positive_and_finite(self, punctured_plane, tol):
        # a NaN tol never stops the doubling, so the search would run to
        # its deepest level; an infinite one stops after the second level
        with pytest.raises(ValueError, match="tol"):
            quasihyperbolic_numeric(punctured_plane, (1.0, 0.0), (2.0, 0.0), tol)


def segment_weight(D, a, b, m):
    """One segment's Simpson value on its own: one oracle call on its m
    nodes, one 1-D norm, and inf unless the node balls cover it."""
    d = D.dist_to_boundary(a + np.linspace(0.0, 1.0, m)[:, None] * (b - a))
    h = float(np.linalg.norm(b - a)) / (m - 1)
    if np.all(d > 0.0) and np.all(h < d[:-1] + d[1:]):
        return h * np.sum(_simpson_weights(m) * (1.0 / d))
    return math.inf


def lattice_axes(D, ax, ay, level):
    """The level's lattice, N + 1 points a side of a cube about the pair's
    midpoint 3.2 max(|x - y|, d(x), d(y)) wide, and its spacing."""
    N = (8 if D.dimension == 2 else 4) * 2**level
    gap = float(np.linalg.norm(ax - ay))
    half = 1.6 * max(gap, D.boundary_distance(ax), D.boundary_distance(ay))
    axes = [np.linspace(c - half, c + half, N + 1) for c in 0.5 * (ax + ay)]
    return axes, 2.0 * half / N


def loop_grid_path(D, ax, ay, level):
    """The quasihyperbolic grid graph built one segment at a time, kept as
    the reference for the array kernel: a dict lattice with every point in
    D, one oracle call and one 1-D norm per segment, the same acceptance
    rule, Dijkstra on lists."""
    n = D.dimension
    axes, spacing = lattice_axes(D, ax, ay, level)
    ids, pts = {}, []
    for key in np.ndindex(*([len(axes[0])] * n)):
        p = np.array([axes[j][i] for j, i in enumerate(key)])
        if D.dist_to_boundary(p) > 0.0:
            ids[key] = len(pts)
            pts.append(p)
    i_x, i_y = len(pts), len(pts) + 1
    pts += [ax, ay]
    adj = [[] for _ in pts]

    def connect(i, k, m):
        w = segment_weight(D, pts[i], pts[k], m)
        if w < math.inf:
            adj[i].append((k, w))
            adj[k].append((i, w))

    half_stencil = [
        off
        for off in itertools.product(range(-2, 3), repeat=n)
        if 0 < sum(o * o for o in off) <= 4.84 and off > (0,) * n
    ]
    for key, i in ids.items():
        for off in half_stencil:
            nb = tuple(k + o for k, o in zip(key, off))
            if nb in ids:
                connect(i, ids[nb], 9)
    for e in (i_x, i_y):
        for k in range(i_x):
            if np.sqrt(np.sum((pts[k] - pts[e]) ** 2)) <= 3.0 * spacing:
                connect(e, k, 9)
    connect(i_x, i_y, 257)

    dist, done, heap = {i_x: 0.0}, set(), [(0.0, i_x)]
    while heap:
        dv, v = heapq.heappop(heap)
        if v == i_y:
            return dv
        if v in done:
            continue
        done.add(v)
        for k, w in adj[v]:
            if dv + w < dist.get(k, math.inf):
                dist[k] = dv + w
                heapq.heappush(heap, (dv + w, k))
    return None


def l_shape():
    """The L-shaped hexagon [0, 2] x [0, 1] plus [0, 1] x [1, 2], whose
    oracle is a signed distance (negative outside)."""
    return polyline_interior_domain([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])


GRAPH_CASES = [
    ("ball", lambda: canonical_domain("ball", 2), (0.2, 0.1), (-0.4, 0.3)),
    ("half plane", lambda: canonical_domain("half_space", 2), (0.0, 1.0), (1.84, 0.65)),
    ("punctured ball 3-D", lambda: canonical_domain("punctured_ball", 3),
     (0.4, 0.02, 0.0), (-0.44, 0.16, 0.05)),
    ("plane minus 0, 1", lambda: canonical_domain("plane_minus_0_1", 2), (0.5, 0.5), (0.5, -0.5)),
    ("L-shaped polyline", l_shape, (1.5, 0.5), (0.5, 1.5)),
    # the lattice spans [-8, 8] x [-5, 11] in exact steps, so x = (0, 1)
    # is a lattice node and one endpoint edge has length zero
    ("endpoint on a node", lambda: canonical_domain("half_space", 2), (0.0, 1.0), (0.0, 5.0)),
]


# every canonical domain at n = 2 and 3, and the signed-distance L-shape,
# each with a box of segment starts that straddles its boundary
SEGMENT_CASES = [
    pytest.param(lambda name=name, n=n: canonical_domain(name, n), (-1.5, 1.5), id=f"{name}-{n}")
    for name in CANONICAL_DOMAIN_NAMES
    for n in (2, 3)
    if (name, n) != ("plane_minus_0_1", 3)
] + [pytest.param(l_shape, (-0.5, 2.5), id="L-shaped polyline")]


def plane_minus_line():
    """R^2 minus the line x_2 = 0; the graph must never step across it."""
    return DomainSpec(
        dimension=2,
        dist_to_boundary=lambda X: np.abs(np.asarray(X)[..., 1]),
        boundary_samples=(ExtendedPoint((0.0, 0.0)), INFINITY),
    )


def counted(D):
    """D with an oracle that records how many points each call asks about."""
    sizes = []

    def oracle(X):
        sizes.append(np.size(X) // D.dimension)
        return D.dist_to_boundary(X)

    return D.with_flags(dist_to_boundary=oracle), sizes


# (domain, n, level): seeded pairs with |x - y| between d(x) / 2 and d(x),
# for which the bound keeps 5-31 % of the lattice points in D, at levels
# where the per-segment graph is quick
PRUNED_CASES = [("ball", 2, 2), ("punctured_space", 2, 2), ("ball", 3, 1), ("half_space", 3, 1)]


class TestQuasihyperbolicGraph:
    """The array kernel against the per-segment graph it replaced."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("label,make,x,y", GRAPH_CASES, ids=[c[0] for c in GRAPH_CASES])
    def test_matches_per_segment_loop(self, label, make, x, y, level):
        D, ax, ay = make(), np.array(x), np.array(y)
        expected = loop_grid_path(D, ax, ay, level)
        assert expected is not None
        assert _grid_shortest_path(D, _qh_pair(D, ax, ay), level) == expected

    def test_endpoint_lies_on_a_node(self):
        for N in (8, 16, 32):
            assert 1.0 in np.linspace(-5.0, 11.0, N + 1)

    @pytest.mark.parametrize("x,y", [((0.0, 1.0), (0.3, -0.7)), ((0.1, 0.5), (0.0, -1.3))])
    def test_no_segment_crosses_the_boundary(self, x, y):
        # Simpson nodes on both sides of x_2 = 0 all have d > 0; only the
        # covering condition h < d_j + d_{j+1} rejects the crossing segment
        with pytest.raises(ConnectivityError):
            quasihyperbolic_numeric(plane_minus_line(), x, y)

    @pytest.mark.parametrize("name,n,level", PRUNED_CASES)
    def test_matches_loop_where_the_bound_prunes_most(self, name, n, level):
        D = canonical_domain(name, n)
        rng = np.random.default_rng(21)
        for _ in range(2):
            ax = rng.uniform(-0.4, 0.4, n)
            if name == "half_space":
                ax[-1] += 1.0
            u = rng.normal(size=n)
            ay = ax + rng.uniform(0.5, 1.0) * D.boundary_distance(ax) * u / np.linalg.norm(u)
            spy, sizes = counted(D)
            assert _grid_shortest_path(spy, _qh_pair(spy, ax, ay), level) == loop_grid_path(D, ax, ay, level)
            axes, _ = lattice_axes(D, ax, ay, level)
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
            inside = np.count_nonzero(D.dist_to_boundary(grid) > 0.0)
            # beside the lattice, the oracle sees both endpoints, the direct
            # edge's 257 nodes and 9 nodes per other segment; the unpruned
            # graph has about 6 segments per point in D (16 in space)
            segments = (sum(sizes) - 2 - 257 - len(grid)) / 9
            assert segments < {2: 6, 3: 16}[n] * inside / 4

    def test_pruning_cuts_the_oracle_points_of_a_ball_pair(self):
        # the unpruned level-2 graph of this pair asked the oracle about
        # 28,105 points, 26,757 of them the Simpson nodes of 2,973 segments
        D, sizes = counted(canonical_domain("ball", 2))
        _grid_shortest_path(D, _qh_pair(D, (0.2, 0.1), (-0.4, 0.3)), 2)
        assert sizes == [1, 1, 257, 33**2, 9 * 382]

    def test_level_3_spans_several_chunks(self):
        # the direct edge runs through the boundary point 0 and weighs inf,
        # so nothing is pruned: the Simpson nodes reach the oracle in several
        # full _QH_ROWS blocks and a partial one
        D = canonical_domain("plane_minus_0_1", 2)
        ax, ay = np.array([-0.5, 0.0]), np.array([0.5, 0.0])
        spy, sizes = counted(D)
        expected = loop_grid_path(D, ax, ay, 3)
        assert expected is not None
        assert _grid_shortest_path(spy, _qh_pair(spy, ax, ay), 3) == expected
        assert sizes.count(9 * _QH_ROWS) >= 3

    @pytest.mark.parametrize("m", [9, 257])
    @pytest.mark.parametrize("make,box", SEGMENT_CASES)
    def test_segment_weights_match_per_segment_evaluation(self, make, box, m):
        D = make()
        rng = np.random.default_rng(m)
        count = _QH_ROWS + 37  # more than one block, the last one partial
        A = rng.uniform(*box, size=(count, D.dimension))
        B = A + rng.uniform(-0.4, 0.4, size=A.shape)
        got = _segment_weights(D, A, B, m)
        expected = np.array([segment_weight(D, a, b, m) for a, b in zip(A, B)])
        assert np.isfinite(expected).any()
        assert got.tobytes() == expected.tobytes()

    def test_memory_of_a_level_4_graph(self):
        import tracemalloc

        D = canonical_domain("punctured_space", 2)
        ax, ay = np.array([1.0, 0.0]), np.array([-0.99, 0.06])
        tracemalloc.start()
        try:
            _grid_shortest_path(D, _qh_pair(D, ax, ay), 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the per-segment graph with dict adjacency peaked at 21.3 MiB and
        # this kernel at 14.3 MiB (numpy 2.4, CPython 3.11); Simpson nodes
        # are taken _QH_ROWS segments at a time, so they add O(1) to this
        assert peak < 16 * 2**20


def assert_norms_equal_numpy_norm(X):
    with np.errstate(over="ignore"):
        expected = np.asarray(np.linalg.norm(X, axis=-1))
        got = np.asarray(_norms(X))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


LEADING_SHAPES = st.sampled_from([(), (1,), (5,), (3, 4)])


@given(st.integers(2, 12), LEADING_SHAPES, st.integers(-1075, 1023), st.integers(0, 2**32 - 1))
def test_norms_match_numpy_on_one_scale(n, lead, exponent, seed):
    # generic coordinates of one magnitude, where the order of the additions
    # shows in the last bit, scaled anywhere from subnormal to huge
    X = np.random.default_rng(seed).uniform(-4.0, 4.0, lead + (n,))
    with np.errstate(over="ignore"):
        X = X * 2.0**exponent
    assert_norms_equal_numpy_norm(X)


@given(st.integers(2, 12), LEADING_SHAPES, st.data())
def test_norms_match_numpy_on_mixed_scales(n, lead, data):
    extremes = [5e-324, -1e-310, 2.2250738585072014e-308, 1e-160, 1e154, -1e200, 1.7976931348623157e308]
    coords = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(extremes)
    assert_norms_equal_numpy_norm(data.draw(hnp.arrays(np.float64, lead + (n,), elements=coords)))


class TestMuBallCenter:
    def test_symmetric_radius(self):
        iv = mu_ball_center(2, (1.0 / math.sqrt(2.0), 0.0))
        assert iv.lo == iv.hi == pytest.approx(4.0, rel=1e-12)

    def test_monotone_in_radius(self):
        # capacity of the center condenser grows as the point nears the sphere
        near0 = mu_ball_center(2, (0.1, 0.0)).lo
        near1 = mu_ball_center(2, (0.9, 0.0)).lo
        assert near0 < near1

    def test_three_dim_interval(self):
        iv = mu_ball_center(3, (0.5, 0.0, 0.0))
        assert iv.lo < iv.hi

    def test_domain(self):
        with pytest.raises(ValueError):
            mu_ball_center(2, (0.0, 0.0))
        with pytest.raises(ValueError):
            mu_ball_center(2, (1.0, 0.0))


class TestMuBounds:
    def test_close_pair_upper(self, punctured_plane):
        x, y = (1.0, 0.0), (1.1, 0.0)
        iv = mu_bounds(punctured_plane, x, y)
        assert iv.hi <= 2.0 * math.pi / math.log(10.0) + 1e-12
        assert iv.hi == pytest.approx(gamma2(10.0), rel=1e-12)

    def test_degenerate(self, punctured_plane):
        iv = mu_bounds(punctured_plane, (1.0, 0.0), (1.0, 0.0))
        assert iv.lo == iv.hi == 0.0

    def test_h2_branch_matches_piecewise(self, half_plane):
        x, y = (0.0, 1.0), (0.05, 1.0)
        k = quasihyperbolic_exact("half_space", x, y)
        iv = mu_bounds(half_plane, x, y, k_value=k)
        t = 3.0 * k
        expected = 2.0 * math.pi * (9.0 / 8.0 * math.log(2.0)) / math.log(1.0 / (2.0 * t))
        assert iv.hi <= expected + 1e-12

    def test_lower_with_cn(self, half_plane):
        x, y = (0.0, 1.0), (0.5, 1.0)
        iv = mu_bounds(half_plane, x, y, c_n=0.2, k_value=quasihyperbolic_exact("half_space", x, y))
        assert iv.lo == pytest.approx(0.2 * j_metric(half_plane, x, y), rel=1e-12)
        assert iv.lo <= iv.hi

    def test_tiny_gap(self, half_plane):
        # a gap that underflowed to 0 raised ZeroDivisionError at d(x) / gap
        x, y = (0.0, 1.0), (1e-300, 1.0)
        iv = mu_bounds(half_plane, x, y, c_n=0.15, k_value=quasihyperbolic_exact("half_space", x, y))
        assert iv.lo == 0.15 * 1e-300
        assert iv.hi <= gamma2(1e300) * (1.0 + 1e-12)

    def test_no_applicable_bound(self, punctured_plane):
        # far pair in a domain with disconnected boundary: nothing applies
        with pytest.raises(NoApplicableBoundError):
            mu_bounds(punctured_plane, (1.0, 0.0), (-5.0, 0.0))

    def test_inconsistent_cn(self, half_plane):
        x, y = (0.0, 1.0), (0.05, 1.0)
        with pytest.raises(InconsistentBoundsError):
            mu_bounds(half_plane, x, y, c_n=1e6, k_value=quasihyperbolic_exact("half_space", x, y))


class TestLambdaBounds:
    def test_upper_at_unit_ratio(self, punctured_plane):
        x, y = (1.0, 0.0), (2.0, 0.0)
        iv = lambda_bounds(punctured_plane, x, y)
        assert iv.hi == pytest.approx(math.sqrt(2.0) * tau2(1.0), rel=1e-12)
        assert iv.hi == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_qed_lower(self, punctured_plane):
        D = punctured_plane.with_flags(qed_constant=1.0)
        iv = lambda_bounds(D, (1.0, 0.0), (2.0, 0.0))
        assert iv.lo == pytest.approx(tau2(3.0), rel=1e-12)
        assert iv.lo <= iv.hi

    def test_ball_local_lower(self, punctured_plane):
        x, y = (1.0, 0.0), (1.1, 0.0)
        iv = lambda_bounds(punctured_plane, x, y, c_n=0.5)
        # best of the two endpoint bounds c_n * log(d / |x-y|)
        assert iv.lo == pytest.approx(0.5 * math.log(1.1 / 0.1), rel=1e-10)

    def test_tiny_gap(self, half_plane):
        # a gap that underflowed to 0 made the ratio 0, which tau_n_bounds refused
        iv = lambda_bounds(half_plane, (0.0, 1.0), (1e-300, 1.0), c_n=0.5)
        assert iv.lo == pytest.approx(0.5 * math.log(1e300), rel=1e-12)
        assert iv.lo <= iv.hi

    def test_random_ordering(self, punctured_plane):
        D = punctured_plane.with_flags(qed_constant=0.5)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = tuple(rng.normal(0, 2, 2))
            y = tuple(rng.normal(0, 2, 2))
            if min(np.linalg.norm(x), np.linalg.norm(y)) < 1e-2 or np.allclose(x, y):
                continue
            iv = lambda_bounds(D, x, y)
            assert 0.0 <= iv.lo <= iv.hi


class TestLambdaPuncturedCircle:
    # the punctured plane's extremal-distance functional on the unit circle
    def test_antipode(self):
        assert teichmuller_p_circle(math.pi) == pytest.approx(2.0, abs=1e-13)

    def test_symmetry(self):
        assert teichmuller_p_circle(0.9) == pytest.approx(
            teichmuller_p_circle(2.0 * math.pi - 0.9), rel=1e-13
        )


class TestCanonicalDomains:
    @pytest.mark.parametrize("name", CANONICAL_DOMAIN_NAMES)
    def test_constructible(self, name):
        n = 2
        D = canonical_domain(name, n)
        assert D.name == name
        assert len(D.boundary_samples) >= 1

    def test_flag_validation(self):
        with pytest.raises(ValueError):
            canonical_domain("ball", 2).with_flags(uniform_constant=0.5)
        with pytest.raises(ValueError):
            canonical_domain("ball", 2).with_flags(qed_constant=2.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            canonical_domain("torus", 2)

    def test_plane_minus_two_points_needs_n2(self):
        with pytest.raises(ValueError):
            canonical_domain("plane_minus_0_1", 3)

    def test_boundary_distance_validates(self):
        ball = canonical_domain("ball", 2)
        assert ball.boundary_distance((0.3, 0.0)) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            ball.boundary_distance((1.5, 0.0))

    def test_segment_complement_distance(self):
        D = canonical_domain("segment_complement", 2)
        assert D.boundary_distance((0.5, 0.5)) == pytest.approx(0.5)
        assert D.boundary_distance((2.0, 0.0)) == pytest.approx(1.0)
        assert D.boundary_distance((-1.0, 0.0)) == pytest.approx(1.0)
