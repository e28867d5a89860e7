import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgft.special_functions import gamma2, omega_sphere, tau2, tau_n_inv_bounds
from cgft.transfer_chart import (
    DomainProps,
    MetricId,
    MissingPropertyError,
    TransferRangeError,
    builtin_chart,
    chart_rows,
    eval_edge,
    query,
    union_modulus,
)

J, K, MU, LI, DE, AL, EU = (
    MetricId.J,
    MetricId.K,
    MetricId.MU,
    MetricId.LAMBDA_INV,
    MetricId.DELTA,
    MetricId.ALPHA,
    MetricId.EUCLID,
)

ALL_PROPS = DomainProps(
    uniform_constant=2.0,
    qed_constant=0.5,
    cn_constant=0.15,
    boundary_connected=True,
    boundary_nondegenerate=True,
    boundary_card_ge_2=True,
    convex=True,
    bounded_with_diam=2.0,
    locality="local",
)
BARE = DomainProps()


@pytest.fixture(scope="module")
def chart():
    return builtin_chart(2)


def only_edge(chart, frm, to, provenance=None):
    edges = chart.edges_between(frm, to)
    if provenance is not None:
        edges = [e for e in edges if e.provenance == provenance]
    assert len(edges) == 1, [e.provenance for e in edges]
    return edges[0]


class TestChartShape:
    def test_required_pairs_present(self, chart):
        pairs = {(e.frm, e.to) for e in chart.edges}
        required = {
            (K, J), (J, K), (J, MU), (K, MU), (MU, J), (MU, K),
            (J, LI), (K, LI), (MU, LI), (LI, J), (LI, K), (LI, MU),
            (J, DE), (DE, J), (AL, J), (MU, DE), (LI, DE),
            (J, EU), (DE, EU), (K, EU), (LI, EU),
        }
        assert required <= pairs

    def test_no_euclid_source_edges(self, chart):
        assert chart.edges_from(EU) == ()
        assert chart.edges_between(EU, J) == ()
        assert chart.edges_between(EU, K) == ()

    def test_no_duplicate_triples(self, chart):
        triples = [(e.frm, e.to, e.provenance) for e in chart.edges]
        assert len(triples) == len(set(triples))

    def test_rows_export(self, chart):
        rows = chart_rows(chart)
        assert len(rows) == len(chart.edges)
        assert all(
            set(r) == {"from", "to", "formula", "window", "requires", "validity", "provenance"}
            for r in rows
        )

    def test_parallel_j_mu_edges(self, chart):
        assert len(chart.edges_between(J, MU)) == 2
        assert len(chart.edges_between(K, MU)) == 2  # capacity + planar piecewise


class TestEvalExamples:
    def test_k_to_j_is_identity(self, chart):
        e = only_edge(chart, K, J)
        assert eval_edge(e, BARE, 0.7) == 0.7

    def test_j_to_delta_doubles(self, chart):
        e = only_edge(chart, J, DE)
        assert eval_edge(e, BARE, 0.7) == pytest.approx(1.4)

    def test_qed_edge_at_log_sqrt2(self, chart):
        e = only_edge(chart, J, LI)
        props = DomainProps(qed_constant=1.0)
        v = eval_edge(e, props, 0.5 * math.log(2.0))
        assert v == pytest.approx(0.5, rel=1e-12)  # exp(2t)-1 = 1, tau2(1) = 2

    def test_planar_piecewise_continuous_at_break(self, chart):
        e = only_edge(chart, K, MU, "planar-piecewise-capacity-bound")
        t0 = 1.0 / 12.0
        a = 9.0 / 8.0 * math.log(2.0)
        left = 2.0 * math.pi * a / math.log(1.0 / (6.0 * t0))
        right = 324.0 * math.pi * t0 * t0
        assert left == pytest.approx(right, rel=1e-12)
        assert eval_edge(e, ALL_PROPS, t0) == pytest.approx(left, rel=1e-12)
        assert eval_edge(e, ALL_PROPS, t0 * 1.0000001) == pytest.approx(right, rel=1e-5)

    def test_cap_to_delta_at_two(self, chart):
        e = only_edge(chart, MU, DE)
        v = eval_edge(e, ALL_PROPS, 2.0)
        assert v == pytest.approx(math.log(2.0), rel=1e-12)  # tau2_inv(2) = 1

    def test_capacity_form_matches_gamma(self, chart):
        e = only_edge(chart, K, MU, "connected-boundary-capacity-bound")
        t = 0.3
        assert eval_edge(e, ALL_PROPS, t) == pytest.approx(
            gamma2(1.0 / math.expm1(t)), rel=1e-13
        )

    def test_log_power_form(self, chart):
        e = only_edge(chart, J, MU, "log-power-capacity-upper")
        t = 0.1
        assert eval_edge(e, ALL_PROPS, t) == pytest.approx(
            2.0 * math.pi / math.log(10.0), rel=1e-13
        )

    def test_zero_maps_to_zero(self, chart):
        for e in chart.edges:
            assert eval_edge(e, ALL_PROPS, 0.0) == 0.0

    def test_negative_rejected(self, chart):
        e = only_edge(chart, K, J)
        with pytest.raises(ValueError):
            eval_edge(e, BARE, -0.1)


class TestGating:
    def test_uniform_gate_names_flag(self, chart):
        e = only_edge(chart, J, K)
        with pytest.raises(MissingPropertyError) as ei:
            eval_edge(e, BARE, 0.5)
        assert "uniform_constant" in str(ei.value)
        assert ei.value.missing == ("uniform_constant",)

    def test_local_gate(self, chart):
        e = only_edge(chart, J, MU, "small-ball-ring-capacity")
        with pytest.raises(MissingPropertyError) as ei:
            eval_edge(e, DomainProps(locality="global"), 0.1)
        assert "locality=local" in str(ei.value)

    def test_connectivity_gate_lists_all_missing(self, chart):
        e = only_edge(chart, K, MU, "connected-boundary-capacity-bound")
        with pytest.raises(MissingPropertyError) as ei:
            eval_edge(e, BARE, 0.1)
        assert set(ei.value.missing) == {"boundary_connected", "boundary_nondegenerate"}

    def test_unconfigured_cn_gates_capacity_to_j(self, chart):
        e = only_edge(chart, MU, J)
        with pytest.raises(MissingPropertyError) as ei:
            eval_edge(e, replace(ALL_PROPS, cn_constant=None), 0.5)
        assert "cn_constant" in ei.value.missing

    def test_convex_gate(self, chart):
        e = only_edge(chart, AL, J)
        with pytest.raises(MissingPropertyError):
            eval_edge(e, BARE, 0.5)
        assert eval_edge(e, ALL_PROPS, 0.5) == 0.5


class TestWindows:
    def test_capacity_form_window(self, chart):
        e = only_edge(chart, J, MU, "small-ball-ring-capacity")
        with pytest.raises(TransferRangeError):
            eval_edge(e, ALL_PROPS, math.log(2.0))

    def test_log_power_window(self, chart):
        e = only_edge(chart, J, MU, "log-power-capacity-upper")
        with pytest.raises(TransferRangeError):
            eval_edge(e, ALL_PROPS, 1.0)

    def test_ring_to_k_window(self, chart):
        e = only_edge(chart, LI, K)
        limit = 1.0 / (math.sqrt(2.0) * tau2(1.0))
        assert eval_edge(e, BARE, limit * 0.99) > 0.0
        with pytest.raises(TransferRangeError):
            eval_edge(e, BARE, limit * 1.01)


class TestQuery:
    def test_identity(self, chart):
        res = query(chart, J, J, BARE, 0.37)
        assert res.value == 0.37
        assert res.nodes == (J,)
        assert res.edges == ()

    def test_k_to_mu_reproduces_direct_cell(self, chart):
        t = 0.2
        props = DomainProps(boundary_connected=True, boundary_nondegenerate=True)
        res = query(chart, K, MU, props, t)
        direct = min(
            eval_edge(e, props, t) for e in chart.edges_between(K, MU)
        )
        assert res is not None
        assert res.value == pytest.approx(direct, rel=1e-13)
        assert res.nodes == (K, MU)

    def test_mu_to_ring_composition(self, chart):
        # with only connectivity, cn and QED facts, the best route equals the
        # stated composition through the distance ratio
        cn = 0.15
        props = DomainProps(boundary_connected=True, qed_constant=0.5, cn_constant=cn)
        t = 0.05
        res = query(chart, MU, LI, props, t)
        expected = 1.0 / (0.5 * tau2(math.expm1(2.0 * t / cn)))
        assert res is not None
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_no_transfer_from_euclid(self, chart):
        assert query(chart, EU, J, ALL_PROPS, 0.5) is None

    def test_no_transfer_without_facts(self, chart):
        # j -> k needs the uniform constant; no alternative route exists
        assert query(chart, J, K, BARE, 0.5) is None

    def test_query_beats_or_matches_single_edges(self, chart):
        for frm, to in [(K, LI), (MU, LI), (LI, K), (LI, MU)]:
            for t in (0.01, 0.1):
                res = query(chart, frm, to, ALL_PROPS, t)
                assert res is not None
                for e in chart.edges_between(frm, to):
                    if e.missing(ALL_PROPS):
                        continue
                    try:
                        direct = eval_edge(e, ALL_PROPS, t)
                    except TransferRangeError:
                        continue
                    assert res.value <= direct * (1.0 + 1e-12)

    def test_longer_route_found_when_direct_gated(self, chart):
        # alpha -> delta has no direct edge; path goes through j
        props = DomainProps(convex=True)
        res = query(chart, AL, DE, props, 0.3)
        assert res is not None
        assert res.value == pytest.approx(0.6, rel=1e-12)
        assert res.nodes == (AL, J, DE)

    @pytest.mark.parametrize(
        "frm, to, props",
        [
            (J, MU, DomainProps(locality="local")),
            (MU, LI, DomainProps(boundary_connected=True, cn_constant=10.0, qed_constant=0.5)),
        ],
    )
    def test_subnormal_input(self, chart, frm, to, props):
        # 1 / expm1(t) overflows and t / c_n underflows here; the edges
        # bound both from the safe side instead of raising
        for t in (1e-310, 5e-324):
            res = query(chart, frm, to, props, t)
            assert 0.0 < res.value < 0.01

    def test_subnormal_quotient_rounds_up(self, chart):
        # t / c_n = 1e-310 / 0.15 is subnormal and may have rounded down
        t, cn = 1e-310, 0.15
        props = DomainProps(boundary_connected=True, cn_constant=cn)
        res = query(chart, MU, J, props, t)
        assert res.value == math.nextafter(t / cn, math.inf)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_inverse_past_double_range(self, n):
        # 1 / (sqrt 2 t) overflows; the upper inverse end at DBL_MAX bounds
        # the answer from above, where the limit 0 would not
        res = query(builtin_chart(n), LI, J, BARE, 1e-310)
        assert res.value > 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_inverse_past_double_range_is_the_end_at_dbl_max(self, n):
        # tau_n_inv_bounds(n, DBL_MAX).hi is already an upper end for every
        # larger argument, so it is taken as it is, not one step higher
        res = query(builtin_chart(n), LI, J, BARE, 1e-323)
        assert res.value == math.log1p(tau_n_inv_bounds(n, sys.float_info.max).hi)
        if n == 2:
            assert res.value == 5e-324  # the planar end is the least subnormal

    @given(
        st.sampled_from([2, 3, 4]),
        st.sampled_from(list(MetricId)),
        st.sampled_from(list(MetricId)),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_every_positive_finite_input_answers(self, n, frm, to, t):
        res = query(builtin_chart(n), frm, to, ALL_PROPS, t)
        assert res is None or res.value >= 0.0

    @given(
        st.sampled_from(list(MetricId)),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_planar_ring_inverse_answers_stay_positive(self, chart, to, t):
        # tau2_inv(y) underflows to 0 for y above about 477, below every
        # true inverse; the upper ring inverse must keep a positive end
        for props in (BARE, ALL_PROPS):
            res = query(chart, LI, to, props, t)
            assert res is None or res.value > 0.0


CHARTS = {n: builtin_chart(n) for n in (2, 3)}
FACTS = {
    "boundary_connected": st.just(True),
    "boundary_nondegenerate": st.just(True),
    "boundary_card_ge_2": st.just(True),
    "convex": st.just(True),
    "locality": st.just("local"),
    "uniform_constant": st.floats(1.0, 10.0),
    "qed_constant": st.floats(0.01, 1.0),
    "cn_constant": st.floats(0.01, 10.0),
    "bounded_with_diam": st.floats(0.01, 10.0),
}


@st.composite
def nested_facts(draw):
    """Domain facts F and G with F a subset of G (same constant values)."""
    fewer, more = {}, {}
    for name, values in FACTS.items():
        level = draw(st.integers(0, 2))  # in neither, in G only, in both
        value = draw(values)
        if level >= 1:
            more[name] = value
        if level == 2:
            fewer[name] = value
    return DomainProps(**fewer), DomainProps(**more)


class TestMoreFactsNeverWorsen:
    """A fact only opens edges, so the best bound cannot get worse and no
    newly opened path may raise; None counts as +inf."""

    @given(
        st.sampled_from(sorted(CHARTS)),
        nested_facts(),
        st.sampled_from(list(MetricId)),
        st.sampled_from(list(MetricId)),
        st.floats(0.0, 1e3),
    )
    def test_bound_monotone_in_facts(self, n, facts, frm, to, t):
        def value(props):
            res = query(CHARTS[n], frm, to, props, t)
            return math.inf if res is None else res.value

        fewer, more = facts
        assert value(more) <= value(fewer)


class TestSmallArgumentDecay:
    """Every open-gated global edge vanishes at 0+; the capacity-valued
    targets decay only logarithmically, so they get a qualitative check."""

    FAST_TARGETS = {J, K, DE, EU}

    def test_fast_targets_are_small_at_1e_minus_6(self, chart):
        for e in chart.edges:
            if e.validity != "global" or e.to not in self.FAST_TARGETS:
                continue
            scale = ALL_PROPS.bounded_with_diam if e.to is EU else 1.0
            assert eval_edge(e, ALL_PROPS, 1e-6) < 1e-3 * scale, e.provenance

    def test_slow_targets_decay_to_zero(self, chart):
        for e in chart.edges:
            if e.validity != "global" or e.to not in (MU, LI):
                continue
            v6 = eval_edge(e, ALL_PROPS, 1e-6)
            v60 = eval_edge(e, ALL_PROPS, 1e-60)
            v300 = eval_edge(e, ALL_PROPS, 1e-300)
            assert v300 <= v60 <= v6, e.provenance
            assert v300 < 1e-2, e.provenance

    def test_monotone_on_grid(self, chart):
        windows = {
            "small-ball-ring-capacity": 0.99 * math.log(2.0),
            "connected-boundary-capacity-bound": 0.99 * math.log(2.0),
            "log-power-capacity-upper": 0.99,
            "separating-ring-quasihyperbolic-bound": 0.99 / (math.sqrt(2.0) * tau2(1.0)),
            "composed-ring-capacity-route": 0.2,
        }
        for e in chart.edges:
            hi = windows.get(e.provenance, 10.0)
            grid = np.geomspace(1e-6, hi, 40)
            vals = [eval_edge(e, ALL_PROPS, float(t)) for t in grid]
            assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:])), e.provenance


class TestHigherDimensionChart:
    def test_builds_and_evaluates(self):
        c3 = builtin_chart(3)
        assert c3.dimension == 3
        v = eval_edge(only_edge(c3, K, MU, "connected-boundary-capacity-bound"), ALL_PROPS, 0.3)
        assert 0.0 < v < math.inf

    def test_no_planar_piecewise_above_two(self):
        c3 = builtin_chart(3)
        assert len(c3.edges_between(K, MU)) == 1

    def test_log_power_uses_dimension(self):
        c3 = builtin_chart(3)
        e = only_edge(c3, J, MU, "log-power-capacity-upper")
        t = 0.1
        assert eval_edge(e, ALL_PROPS, t) == pytest.approx(
            omega_sphere(3) * math.log(10.0) ** (-2), rel=1e-13
        )

    def test_weak_enclosure_may_go_infinite_but_stays_monotone(self):
        c3 = builtin_chart(3)
        e = only_edge(c3, MU, DE)
        vals = [eval_edge(e, ALL_PROPS, t) for t in (0.05, 0.2, 1.0, 5.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == math.inf  # enclosure too weak far out: vacuous bound

    def test_conservative_vs_planar(self):
        # same formula, n = 3 enclosure ends: upper bounds stay above a
        # sanity floor of zero and respect the window
        c3 = builtin_chart(3)
        e = only_edge(c3, LI, J)
        assert eval_edge(e, BARE, 0.05) > 0.0


class TestUnionModulus:
    def test_identity_example(self):
        omega, radius = union_modulus(lambda t: t, lambda t: t, 0.5)
        assert radius == pytest.approx(math.log(9.0 / 8.0), rel=1e-14)
        assert omega(0.1) == pytest.approx(0.8, rel=1e-14)

    def test_radius_limit_near_one(self):
        _, radius = union_modulus(lambda t: t, lambda t: t, 1.0 - 1e-12)
        assert radius == pytest.approx(math.log(1.25), rel=1e-9)

    def test_vanishes_at_zero(self):
        omega, _ = union_modulus(lambda t: t, lambda t: 2.0 * t, 0.5)
        assert omega(0.0) == 0.0
        assert omega(1e-12) < 1e-10

    def test_takes_pointwise_max(self):
        omega, _ = union_modulus(lambda t: t, lambda t: t * t, 0.5)
        assert omega(0.01) == pytest.approx(max(0.08, 0.08**2), rel=1e-14)

    def test_c_domain_error(self):
        for c in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                union_modulus(lambda t: t, lambda t: t, c)

    def test_window_enforced(self):
        omega, radius = union_modulus(lambda t: t, lambda t: t, 0.5)
        with pytest.raises(TransferRangeError):
            omega(radius * 1.5)


class TestDomainProps:
    def test_positive_constants(self):
        with pytest.raises(ValueError):
            DomainProps(uniform_constant=0.0)
        with pytest.raises(ValueError):
            DomainProps(qed_constant=-1.0)
        with pytest.raises(ValueError):
            DomainProps(bounded_with_diam=0.0)
        # j <= k in every domain forces c_uniform >= 1, and
        # M(Gamma; G) <= M(Gamma; R^n) forces c_qed <= 1
        with pytest.raises(ValueError, match="uniform_constant"):
            DomainProps(uniform_constant=0.5)
        with pytest.raises(ValueError, match="qed_constant"):
            DomainProps(qed_constant=4.0)
        assert DomainProps(uniform_constant=1.0, qed_constant=1.0).qed_constant == 1.0

    @pytest.mark.parametrize(
        "label", ["uniform_constant", "qed_constant", "cn_constant", "bounded_with_diam"]
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_constants(self, label, value):
        with pytest.raises(ValueError, match=label):
            DomainProps(**{label: value})

    def test_locality_values(self):
        with pytest.raises(ValueError):
            DomainProps(locality="sometimes")

    def test_bad_cn(self):
        for cn in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                DomainProps(cn_constant=cn)
