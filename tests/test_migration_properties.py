"""Migration correctness properties: conservation, topology, load balance.

The conservation property: every interval the new plan requires is either
already held by its GPU or covered by transfers — no under-transfer (the
migrated bytes equal the uncovered measure exactly) and no over-transfer
(optimizer slices, which have a unique owner, are never double-sent).
"""

import math

import pytest
from hypothesis import given, settings

from migration_reference import _pick_source, reference_plan_migration
from repro.cluster.topology import paper_cluster
from repro.core.planner import MalleusPlanner
from repro.cluster.trace import paper_trace
from repro.experiments.common import paper_workload
from repro.models.presets import llama2_32b
from repro.parallel.migration import (
    BATCH_LATENCY,
    MigrationPlan,
    Transfer,
    _interval_minus,
    _overlap,
    estimate_migration_time,
    estimate_transition_cost,
    layout_from_candidate,
    layout_from_plan,
    plan_migration,
    transition_time_lower_bound,
)
from repro.parallel.plan import uniform_megatron_plan
from repro.parallel.sharding import optimizer_ownership, parameter_ownership
from strategies import plan_pairs

pytestmark = pytest.mark.migration

PARAM_BYTES = 1000.0
OPT_BYTES = 6000.0


@pytest.fixture
def cluster():
    return paper_cluster(32)


def make_plan(dp, tp, pp, gpu_count=32, layers=60, batch=64):
    return uniform_megatron_plan(range(gpu_count), dp=dp, tp=tp, pp=pp,
                                 num_layers=layers, global_batch_size=batch)


PLAN_PAIRS = [
    ((2, 4, 4), (2, 8, 2)),
    ((2, 4, 4), (4, 4, 2)),
    ((4, 4, 2), (2, 4, 4)),
    ((2, 4, 4), (4, 8, 1)),
    ((8, 4, 1, 32, 64), (2, 2, 8, 32, 64)),
]


class TestConservation:
    @pytest.mark.parametrize("old_args,new_args", PLAN_PAIRS)
    def test_parameter_transfers_cover_exactly_the_missing_state(
            self, cluster, old_args, new_args):
        old = make_plan(*old_args)
        new = make_plan(*new_args)
        migration = plan_migration(old, new, cluster, PARAM_BYTES, OPT_BYTES)
        received = {}
        for transfer in migration.transfers:
            if transfer.kind != "param":
                continue
            key = (transfer.layer_index, transfer.dst_gpu)
            received[key] = received.get(key, 0.0) + transfer.num_bytes
        for layer in range(new.num_layers):
            old_params = parameter_ownership(old, layer)
            new_params = parameter_ownership(new, layer)
            for dst, needed_intervals in new_params.items():
                held = old_params.get(dst, [])
                missing = 0.0
                for needed in needed_intervals:
                    for gap in _interval_minus(needed, held):
                        missing += gap[1] - gap[0]
                got = received.get((layer, dst), 0.0)
                # Exactly the uncovered measure is transferred — the new
                # interval is fully covered (held + transfers) and nothing
                # already held is re-sent.
                assert got == pytest.approx(missing * PARAM_BYTES, abs=1e-6)

    @pytest.mark.parametrize("old_args,new_args", PLAN_PAIRS)
    def test_optimizer_slices_never_double_sent(self, cluster, old_args,
                                                new_args):
        old = make_plan(*old_args)
        new = make_plan(*new_args)
        migration = plan_migration(old, new, cluster, PARAM_BYTES, OPT_BYTES)
        by_layer = {}
        for transfer in migration.transfers:
            if transfer.kind != "optimizer":
                continue
            assert transfer.src_gpu != transfer.dst_gpu
            by_layer.setdefault(transfer.layer_index, 0.0)
            by_layer[transfer.layer_index] += transfer.num_bytes
        for layer in range(new.num_layers):
            moved = 0.0
            new_slices = optimizer_ownership(new, layer)
            old_slices = optimizer_ownership(old, layer)
            for new_slice in new_slices:
                for old_slice in old_slices:
                    if old_slice.owner_gpu == new_slice.owner_gpu:
                        continue
                    moved += _overlap(new_slice.fraction, old_slice.fraction)
            # The unique-owner slicing means the moved measure is exactly
            # 1 minus the same-owner overlap; in particular a layer's
            # optimizer state is moved at most once.
            total = by_layer.get(layer, 0.0)
            assert total == pytest.approx(moved * OPT_BYTES, abs=1e-6)
            assert total <= OPT_BYTES + 1e-6


class TestSegmentedPlannerMatchesReference:
    """The per-segment planner returns the per-layer reference's transfers:
    same order, same endpoints, same bytes to the last bit."""

    @pytest.mark.parametrize("old_args,new_args", PLAN_PAIRS)
    def test_plan_pairs(self, cluster, old_args, new_args):
        old = make_plan(*old_args)
        new = make_plan(*new_args)
        assert plan_migration(old, new, cluster, PARAM_BYTES, OPT_BYTES) \
            .transfers == reference_plan_migration(
                old, new, cluster, PARAM_BYTES, OPT_BYTES).transfers

    @settings(max_examples=60, deadline=None)
    @given(pair=plan_pairs(paper_cluster(32)))
    def test_generated_plan_pairs(self, pair):
        old, new = pair
        cluster = paper_cluster(32)
        model = llama2_32b()
        param = model.layer_param_bytes()
        opt = model.params_per_layer() * 12.0
        assert plan_migration(old, new, cluster, param, opt).transfers == \
            reference_plan_migration(old, new, cluster, param, opt).transfers

    def test_planner_plans_along_the_paper_trace(self):
        # Consecutive plans of the real planner: non-uniform stage splits,
        # mixed TP degrees and GPUs removed as stragglers come and go.
        workload = paper_workload("32b")
        planner = MalleusPlanner(workload.task, workload.cluster,
                                 workload.cost_model)
        plans = [planner.plan(s.rate_map(workload.cluster)).plan
                 for s in paper_trace(workload.cluster).situations]
        model = llama2_32b()
        param = model.layer_param_bytes()
        opt = model.params_per_layer() * 12.0
        for old, new in zip(plans, plans[1:]):
            assert plan_migration(old, new, workload.cluster, param, opt) \
                .transfers == reference_plan_migration(
                    old, new, workload.cluster, param, opt).transfers


class TestTopologyAwareTiming:
    def test_same_node_transfer_uses_intra_node_bandwidth(self, cluster):
        volume = 40.0e9
        same_node = MigrationPlan(transfers=[Transfer(0, 0, 1, volume, "param")])
        cross_node = MigrationPlan(transfers=[Transfer(0, 0, 8, volume, "param")])
        intra = cluster.nodes[0].intra_node_bandwidth
        inter = cluster.inter_node_bandwidth
        assert estimate_migration_time(same_node, cluster) == pytest.approx(
            volume / intra + BATCH_LATENCY)
        assert estimate_migration_time(cross_node, cluster) == pytest.approx(
            volume / inter + BATCH_LATENCY)
        assert estimate_migration_time(same_node, cluster) < \
            estimate_migration_time(cross_node, cluster)

    def test_parallel_pairs_do_not_serialise(self, cluster):
        # Two disjoint cross-node pairs overlap; two pairs sharing a source
        # serialise on its egress link.
        volume = 40.0e9
        disjoint = MigrationPlan(transfers=[
            Transfer(0, 0, 8, volume, "param"),
            Transfer(0, 1, 9, volume, "param"),
        ])
        shared_src = MigrationPlan(transfers=[
            Transfer(0, 0, 8, volume, "param"),
            Transfer(0, 0, 9, volume, "param"),
        ])
        assert estimate_migration_time(disjoint, cluster) * 1.5 < \
            estimate_migration_time(shared_src, cluster)

    def test_legacy_formula_is_preserved(self, cluster):
        plan = MigrationPlan(transfers=[
            Transfer(layer, 0, 1, 1.0e9, "param") for layer in range(16)
        ])
        sent = max(plan.bytes_sent_per_gpu().values())
        expected = sent / cluster.inter_node_bandwidth + \
            math.ceil(16 / plan.layer_pack) * BATCH_LATENCY
        assert estimate_migration_time(plan, cluster, 16, legacy=True) == \
            pytest.approx(expected)
        # The topology-aware default charges the same-node pair on the
        # intra-node link instead.
        assert estimate_migration_time(plan, cluster) < expected


class TestLoadBalancedSources:
    def test_pick_source_prefers_same_node_then_least_loaded(self, cluster):
        # GPUs 0-7 share node 0 with dst 3; gpu 8 lives on node 1.
        candidates = [0, 1, 8]
        assert _pick_source(cluster, 3, candidates) == 0
        load = {0: 100.0, 1: 0.0}
        assert _pick_source(cluster, 3, candidates, load) == 1
        load = {0: 50.0, 1: 50.0}
        assert _pick_source(cluster, 3, candidates, load) == 0  # id tie-break

    def test_replica_pulls_spread_across_holders(self, cluster):
        # dp=4 -> dp=2 with wider TP: many destinations pull the same layer
        # interval; the pulls must not all funnel through one holder.
        old = make_plan(4, 4, 2)
        new = make_plan(2, 8, 2)
        migration = plan_migration(old, new, cluster, PARAM_BYTES, OPT_BYTES)
        param_sources = {}
        for transfer in migration.transfers:
            if transfer.kind == "param":
                param_sources.setdefault(transfer.layer_index, set()).add(
                    transfer.src_gpu)
        multi_source_layers = [layer for layer, sources
                               in param_sources.items() if len(sources) > 1]
        assert multi_source_layers, "all replica pulls funnelled through " \
                                    "a single source GPU"


class TestTransitionEstimate:
    @pytest.mark.parametrize("old_args,new_args", PLAN_PAIRS)
    def test_bytes_match_plan_migration_exactly(self, cluster, old_args,
                                                new_args):
        old = make_plan(*old_args)
        new = make_plan(*new_args)
        migration = plan_migration(old, new, cluster, PARAM_BYTES, OPT_BYTES)
        estimate = estimate_transition_cost(
            layout_from_plan(old), layout_from_plan(new), cluster,
            PARAM_BYTES, OPT_BYTES,
        )
        assert estimate.total_bytes == pytest.approx(migration.total_bytes)
        param = sum(t.num_bytes for t in migration.transfers
                    if t.kind == "param")
        assert estimate.param_bytes == pytest.approx(param)

    def test_identical_layouts_cost_nothing(self, cluster):
        plan = make_plan(2, 4, 4)
        layout = layout_from_plan(plan)
        estimate = estimate_transition_cost(layout, layout, cluster,
                                            PARAM_BYTES, OPT_BYTES)
        assert estimate.total_bytes == 0.0
        assert estimate.seconds == 0.0

    def test_candidate_layout_matches_materialized_plan(self):
        # The unmaterialized candidate's layout (zero-layer stages and
        # zero-micro-batch pipelines dropped) must equal the built plan's.
        workload = paper_workload("32b")
        planner = MalleusPlanner(workload.task, workload.cluster,
                                 workload.cost_model)
        for situation in paper_trace(workload.cluster).situations:
            result = planner.plan(situation.rate_map(workload.cluster))
            assert layout_from_candidate(result.context.candidate) == \
                layout_from_plan(result.plan)

    def test_estimate_equals_realised_migration_time_exactly(self, cluster):
        # The estimate replays the migration planner's per-transfer
        # load-balanced source selection, so on fully-covered state it is
        # not merely a tracking approximation: it reproduces the realised
        # topology-aware charge bit-for-bit.
        model = llama2_32b()
        param = model.layer_param_bytes()
        opt = model.params_per_layer() * 12.0
        for old_args, new_args in PLAN_PAIRS:
            old = make_plan(*old_args)
            new = make_plan(*new_args)
            migration = plan_migration(old, new, cluster, param, opt)
            charged = estimate_migration_time(migration, cluster)
            estimated = estimate_transition_cost(
                layout_from_plan(old), layout_from_plan(new), cluster,
                param, opt,
            ).seconds
            assert estimated == pytest.approx(charged, rel=1e-12)


class TestTransitionLowerBound:
    def test_zero_when_a_replica_survives(self, cluster):
        plan = make_plan(2, 4, 4)
        layout = layout_from_plan(plan)
        assert transition_time_lower_bound(
            layout, cluster.gpu_ids(), cluster, PARAM_BYTES, plan.num_layers,
        ) == 0.0

    def test_positive_when_no_state_survives(self, cluster):
        plan = make_plan(2, 4, 4)
        bound = transition_time_lower_bound(
            [], cluster.gpu_ids(), cluster, PARAM_BYTES, plan.num_layers,
        )
        assert bound > 0.0
        # And it is a genuine lower bound: one full replica over the whole
        # cluster's fastest links.
        max_bandwidth = max(node.intra_node_bandwidth
                            for node in cluster.nodes)
        assert bound == pytest.approx(
            plan.num_layers * PARAM_BYTES
            / (cluster.num_gpus * max_bandwidth))
