"""Tests for straggler state, injection levels and traces."""

import math

import pytest

from repro.cluster.stragglers import (
    FAILED_RATE,
    LEVEL_TO_RATE,
    ClusterState,
    StragglerSpec,
    rate_for_level,
    state_from_levels,
    state_from_rates,
)
from repro.cluster.topology import paper_cluster
from repro.cluster.trace import (
    StragglerSituation,
    StragglerTrace,
    ablation_situations,
    case_study_situation,
    paper_situation,
    paper_trace,
)


class TestRates:
    def test_level_zero_is_healthy(self):
        assert rate_for_level(0) == 1.0

    def test_calibrated_levels_match_paper_case_studies(self):
        assert rate_for_level(1) == pytest.approx(2.6)
        assert rate_for_level(2) == pytest.approx(3.8)
        assert rate_for_level(3) == pytest.approx(5.42)
        assert rate_for_level(8) == pytest.approx(12.53)

    def test_interpolated_levels_monotonic(self):
        rates = [rate_for_level(level) for level in range(0, 10)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            rate_for_level(-1)

    def test_spec_with_rate_overrides_level(self):
        spec = StragglerSpec(gpu_id=0, level=1, rate=7.0)
        assert spec.resolved_rate() == 7.0

    def test_spec_requires_level_or_rate(self):
        with pytest.raises(ValueError):
            StragglerSpec(gpu_id=0).resolved_rate()

    def test_spec_rejects_sub_unit_rate(self):
        with pytest.raises(ValueError):
            StragglerSpec(gpu_id=0, rate=0.5).resolved_rate()


class TestClusterState:
    def test_defaults_to_healthy(self):
        cluster = paper_cluster(16)
        state = ClusterState(cluster=cluster)
        assert all(rate == 1.0 for rate in state.rates.values())

    def test_set_and_clear(self):
        cluster = paper_cluster(16)
        state = ClusterState(cluster=cluster)
        state.set_rate(3, 2.5)
        assert state.rate(3) == 2.5
        state.clear(3)
        assert state.rate(3) == 1.0

    def test_clear_all(self):
        cluster = paper_cluster(16)
        state = state_from_levels(cluster, {0: 1, 5: 3})
        state.clear()
        assert state.stragglers() == {}

    def test_set_level(self):
        cluster = paper_cluster(8)
        state = ClusterState(cluster=cluster)
        state.set_level(2, 3)
        assert state.rate(2) == pytest.approx(5.42)

    def test_unknown_gpu_rejected(self):
        cluster = paper_cluster(8)
        state = ClusterState(cluster=cluster)
        with pytest.raises(KeyError):
            state.set_rate(99, 2.0)

    def test_rate_below_one_rejected(self):
        cluster = paper_cluster(8)
        state = ClusterState(cluster=cluster)
        with pytest.raises(ValueError):
            state.set_rate(0, 0.9)

    def test_nan_rate_rejected_with_the_gpu_named(self):
        # NaN compares false against 1.0 both ways, so a ``rate < 1``
        # check lets it through; it must be refused where the state is
        # built or mutated, so no NaN map reaches the planner or the
        # planning service.
        cluster = paper_cluster(8)
        nan = float("nan")
        with pytest.raises(ValueError, match="gpu 3"):
            ClusterState(cluster=cluster, rates={3: nan})
        with pytest.raises(ValueError, match="gpu 5"):
            state_from_rates(cluster, {5: nan})
        state = ClusterState(cluster=cluster)
        with pytest.raises(ValueError, match="gpu 2"):
            state.set_rate(2, nan)
        assert not any(math.isnan(rate) for rate in state.rates.values())
        with pytest.raises(ValueError, match="gpu 4"):
            StragglerSpec(gpu_id=4, rate=nan).resolved_rate()

    def test_failure_is_infinite(self):
        cluster = paper_cluster(8)
        state = ClusterState(cluster=cluster)
        state.fail(1)
        assert math.isinf(state.rate(1))
        assert state.failed() == [1]

    def test_stragglers_threshold(self):
        cluster = paper_cluster(8)
        state = state_from_rates(cluster, {0: 1.04, 1: 1.2})
        assert 0 not in state.stragglers()
        assert 1 in state.stragglers()

    def test_healthy_excludes_stragglers(self):
        cluster = paper_cluster(8)
        state = state_from_rates(cluster, {0: 3.0})
        assert 0 not in state.healthy()
        assert len(state.healthy()) == 7

    def test_node_rates(self):
        cluster = paper_cluster(16)
        state = state_from_rates(cluster, {8: 2.0})
        assert state.node_rates(1)[0] == 2.0
        assert state.node_rates(0) == [1.0] * 8

    def test_copy_is_independent(self):
        cluster = paper_cluster(8)
        state = state_from_rates(cluster, {0: 2.0})
        clone = state.copy()
        clone.set_rate(0, 5.0)
        assert state.rate(0) == 2.0

    def test_max_relative_change(self):
        cluster = paper_cluster(8)
        before = state_from_rates(cluster, {0: 2.0})
        after = state_from_rates(cluster, {0: 2.2})
        assert after.max_relative_change(before) == pytest.approx(0.1)

    def test_max_relative_change_with_failure(self):
        cluster = paper_cluster(8)
        before = ClusterState(cluster=cluster)
        after = ClusterState(cluster=cluster)
        after.fail(0)
        assert math.isinf(after.max_relative_change(before))

    def test_apply_specs_resets_by_default(self):
        cluster = paper_cluster(8)
        state = state_from_rates(cluster, {5: 9.0})
        state.apply([StragglerSpec(gpu_id=0, level=1)])
        assert state.rate(5) == 1.0
        assert state.rate(0) == pytest.approx(2.6)


class TestPaperSituations:
    @pytest.mark.parametrize("name,expected", [
        ("S1", 1), ("S2", 1), ("S3", 2), ("S4", 3), ("S5", 9), ("S6", 8),
    ])
    def test_straggler_counts(self, name, expected):
        cluster = paper_cluster(64)
        situation = paper_situation(name, cluster)
        assert situation.num_stragglers == expected

    def test_s3_spans_two_nodes(self):
        cluster = paper_cluster(64)
        state = paper_situation("S3", cluster).as_state(cluster)
        nodes = {cluster.gpu(g).node_id for g in state.stragglers()}
        assert len(nodes) == 2

    def test_s5_has_node_and_gpu_granularity(self):
        cluster = paper_cluster(64)
        state = paper_situation("S5", cluster).as_state(cluster)
        node0 = [g for g in state.stragglers() if cluster.gpu(g).node_id == 0]
        node1 = [g for g in state.stragglers() if cluster.gpu(g).node_id == 1]
        assert len(node0) == 8
        assert len(node1) == 1

    def test_normal_has_no_stragglers(self):
        cluster = paper_cluster(64)
        assert paper_situation("Normal", cluster).num_stragglers == 0

    def test_unknown_situation_rejected(self):
        cluster = paper_cluster(64)
        with pytest.raises(KeyError):
            paper_situation("S9", cluster)

    def test_paper_trace_order_and_transitions(self):
        cluster = paper_cluster(64)
        trace = paper_trace(cluster)
        names = trace.names()
        assert names[0] == "Normal"
        assert names[1:7] == ["S1", "S2", "S3", "S4", "S5", "S6"]
        assert names[-1] == "Normal(end)"
        assert ("S4", "S5") in trace.transitions()

    def test_trace_lookup(self):
        cluster = paper_cluster(64)
        trace = paper_trace(cluster)
        assert trace.situation("S4").num_stragglers == 3
        with pytest.raises(KeyError):
            trace.situation("missing")

    def test_ablation_situations_rates(self):
        cluster = paper_cluster(64)
        scenarios = ablation_situations(cluster)
        assert set(scenarios) == {"one-node", "two-nodes", "three-nodes"}
        one_node = scenarios["one-node"].as_state(cluster)
        assert sorted(one_node.stragglers().values()) == pytest.approx(
            [2.57, 5.42, 12.53]
        )
        three = scenarios["three-nodes"].as_state(cluster)
        nodes = {cluster.gpu(g).node_id for g in three.stragglers()}
        assert len(nodes) == 3

    def test_case_study_situations(self):
        cluster = paper_cluster(64)
        s4 = case_study_situation("110b-s4", cluster).as_state(cluster)
        assert s4.rate(0) == pytest.approx(5.42)
        assert s4.rate(8) == pytest.approx(3.75)
        assert s4.rate(16) == pytest.approx(2.57)
        s5 = case_study_situation("32b-s5", cluster).as_state(cluster)
        assert all(s5.rate(g) == pytest.approx(2.62) for g in range(8))
        assert s5.rate(8) == pytest.approx(3.8)

    def test_case_study_unknown(self):
        cluster = paper_cluster(64)
        with pytest.raises(KeyError):
            case_study_situation("13b-s1", cluster)


class TestMaxRelativeChangeEdges:
    """Edge cases the incremental replan engine's classification leans on."""

    def test_identical_states_report_zero(self):
        cluster = paper_cluster(8)
        a = state_from_rates(cluster, {0: 2.0})
        b = state_from_rates(cluster, {0: 2.0})
        assert a.max_relative_change(b) == 0.0

    def test_failed_on_both_sides_is_not_a_change(self):
        cluster = paper_cluster(8)
        before = ClusterState(cluster=cluster)
        before.fail(3)
        after = ClusterState(cluster=cluster)
        after.fail(3)
        assert after.max_relative_change(before) == 0.0

    def test_recovery_from_failure_is_infinite_change(self):
        cluster = paper_cluster(8)
        before = ClusterState(cluster=cluster)
        before.fail(3)
        after = ClusterState(cluster=cluster)  # gpu 3 back to healthy
        assert math.isinf(after.max_relative_change(before))

    def test_rate_returning_exactly_to_one(self):
        cluster = paper_cluster(8)
        before = state_from_rates(cluster, {0: 2.0})
        after = ClusterState(cluster=cluster)
        # |1.0 - 2.0| / max(2.0, 1) = 0.5 — a recovery is a real shift.
        assert after.max_relative_change(before) == pytest.approx(0.5)

    def test_sub_unit_base_clamped_to_one(self):
        cluster = paper_cluster(8)
        before = ClusterState(cluster=cluster)
        after = state_from_rates(cluster, {0: 1.04})
        # The denominator is max(old, 1), so the change is relative to the
        # healthy rate, never to something smaller.
        assert after.max_relative_change(before) == pytest.approx(0.04)


class TestTraceTransitionEdges:
    def test_empty_trace_has_no_transitions(self):
        cluster = paper_cluster(8)
        trace = StragglerTrace(cluster=cluster, situations=[])
        assert trace.transitions() == []
        assert len(trace) == 0

    def test_single_situation_has_no_transitions(self):
        cluster = paper_cluster(8)
        trace = StragglerTrace(
            cluster=cluster,
            situations=[paper_situation("Normal", cluster)],
        )
        assert trace.transitions() == []

    def test_failure_then_recovery_transition(self):
        cluster = paper_cluster(8)
        failure = StragglerSituation(
            name="failure",
            stragglers=[StragglerSpec(gpu_id=0, rate=FAILED_RATE)],
        )
        recovery = StragglerSituation(name="recovery", stragglers=[])
        trace = StragglerTrace(
            cluster=cluster,
            situations=[paper_situation("Normal", cluster), failure, recovery],
        )
        assert trace.transitions() == [("Normal", "failure"),
                                       ("failure", "recovery")]
        failed_state = failure.as_state(cluster)
        assert failed_state.failed() == [0]
        recovered = recovery.as_state(cluster)
        assert recovered.failed() == []
        assert math.isinf(failed_state.max_relative_change(recovered))

    def test_rate_returning_exactly_to_normal_between_situations(self):
        cluster = paper_cluster(8)
        trace = StragglerTrace(
            cluster=cluster,
            situations=[
                StragglerSituation(name="S", stragglers=[
                    StragglerSpec(gpu_id=0, rate=2.6),
                ]),
                StragglerSituation(name="back", stragglers=[
                    StragglerSpec(gpu_id=0, rate=1.0),
                ]),
            ],
        )
        assert trace.transitions() == [("S", "back")]
        state = trace.situation("back").as_state(cluster)
        assert state.rate(0) == 1.0
        assert state.stragglers() == {}


class TestSituationHelpers:
    def test_situation_rate_map_matches_state(self):
        cluster = paper_cluster(64)
        situation = paper_situation("S2", cluster)
        assert situation.rate_map(cluster)[0] == pytest.approx(5.42)
