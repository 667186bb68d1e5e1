"""Shared hypothesis strategies for the test-suite.

One place for the domain-shaped generators the property tests need:
straggling-rate lists and maps, pipeline-division instances, small
clusters, hand-built parallelization plans (and pairs of them to migrate
between), and whole straggler traces produced by the seeded
:class:`~repro.cluster.scenarios.ScenarioGenerator` (a strategy draws the
preset and the seed; the generator itself is deterministic, so shrinking
stays meaningful).

Test modules import this as a plain top-level module (``import
strategies`` / ``from strategies import ...``); pytest puts ``tests/`` on
``sys.path`` because the directory has no ``__init__.py``.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import strategies as st

from repro.cluster.scenarios import (
    SCENARIO_PRESETS,
    ScenarioConfig,
    ScenarioGenerator,
)
from repro.cluster.topology import Cluster, make_cluster
from repro.parallel.plan import (
    ParallelizationPlan,
    PipelinePlan,
    PipelineStage,
    TPGroup,
)
from repro.solvers.division import DivisionProblem

#: Straggling rates stay in the paper's observed band (1x..12.53x).
MIN_RATE = 1.0
MAX_RATE = 12.53


def rate_lists(size: int, min_size: Optional[int] = None,
               min_rate: float = MIN_RATE,
               max_rate: float = MAX_RATE) -> st.SearchStrategy:
    """Lists of straggling rates (fixed size unless ``min_size`` is given)."""
    return st.lists(
        st.floats(min_value=min_rate, max_value=max_rate),
        min_size=size if min_size is None else min_size,
        max_size=size,
    )


@st.composite
def rate_maps(draw, gpu_ids, straggler_fraction: float = 0.5,
              min_rate: float = 1.05,
              max_rate: float = MAX_RATE):
    """gpu-id -> rate maps over ``gpu_ids`` (healthy by default).

    Each GPU independently straggles with probability
    ``straggler_fraction``; rates of stragglers are drawn uniformly.
    """
    rates = {}
    for gpu_id in gpu_ids:
        if draw(st.floats(min_value=0.0, max_value=1.0)) < straggler_fraction:
            rates[gpu_id] = draw(
                st.floats(min_value=min_rate, max_value=max_rate))
        else:
            rates[gpu_id] = 1.0
    return rates


@st.composite
def division_instances(draw, min_pipelines: int = 1, max_pipelines: int = 4,
                       max_fast: int = 8, min_slow: int = 0,
                       max_slow: int = 6, min_total: int = 1,
                       max_total: int = 48, max_slow_rate: float = 6.0,
                       fast_group_rate: float = 0.4):
    """Feasible :class:`DivisionProblem` instances for the MINLP solver."""
    dp = draw(st.integers(min_value=min_pipelines, max_value=max_pipelines))
    fast = draw(st.integers(min_value=0, max_value=max_fast))
    slow = draw(st.lists(
        st.floats(min_value=1.0, max_value=max_slow_rate),
        min_size=max(min_slow, min(max_slow, dp - fast)),
        max_size=max(max_slow, min_slow),
    ))
    if fast + len(slow) < dp:
        fast = dp - len(slow)
    total = draw(st.integers(min_value=min_total, max_value=max_total))
    return DivisionProblem(
        num_pipelines=dp,
        total_micro_batches=total,
        fast_group_count=fast,
        fast_group_rate=fast_group_rate,
        slow_group_rates=slow,
    )


@st.composite
def small_clusters(draw, max_nodes: int = 4, gpus_per_node: int = 8):
    """Small homogeneous clusters (1..``max_nodes`` nodes)."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    return make_cluster(num_nodes=num_nodes, gpus_per_node=gpus_per_node,
                        name=f"strategy-cluster-{num_nodes}")


@st.composite
def parallel_plans(draw, cluster: Cluster, num_layers: int,
                   max_pipelines: int = 4, max_stages: int = 3,
                   exclude=()) -> ParallelizationPlan:
    """Non-uniform plans on ``cluster`` (GPUs in ``exclude`` stay unused).

    Every stage draws its own TP degree (1, 2, 4 or 8, so ZeRO-1's
    ``TP_max / TP_i`` split stays integral) and every pipeline its own
    unequal stage split.  A stage's TP group is taken from one node's
    free GPUs in a drawn order; pipelines are added until ``dp`` is
    reached or a stage no longer fits, so at least one pipeline exists.
    """
    free = {
        node.node_id: list(draw(st.permutations(
            [g for g in node.gpu_ids() if g not in exclude])))
        for node in cluster.nodes
    }
    dp = draw(st.integers(min_value=1, max_value=max_pipelines))
    pipelines = []
    for index in range(dp):
        pp = draw(st.integers(min_value=1,
                              max_value=min(max_stages, num_layers)))
        cuts = sorted(draw(st.sets(
            st.integers(min_value=1, max_value=num_layers - 1),
            min_size=pp - 1, max_size=pp - 1))) if pp > 1 else []
        bounds = [0] + cuts + [num_layers]
        stages = []
        for stage in range(pp):
            degrees = [t for t in (1, 2, 4, 8)
                       if any(len(ids) >= t for ids in free.values())]
            if not degrees:
                break
            tp = draw(st.sampled_from(degrees))
            node = draw(st.sampled_from(
                sorted(n for n, ids in free.items() if len(ids) >= tp)))
            group = TPGroup(tuple(free[node][:tp]))
            del free[node][:tp]
            stages.append(PipelineStage(
                group=group, num_layers=bounds[stage + 1] - bounds[stage],
                stage_index=stage + 1))
        if len(stages) < pp:
            break
        pipelines.append(PipelinePlan(stages=stages, num_micro_batches=1,
                                      pipeline_index=index))
    return ParallelizationPlan(
        pipelines=pipelines, micro_batch_size=1, num_layers=num_layers,
        global_batch_size=len(pipelines),
    )


@st.composite
def plan_pairs(draw, cluster: Cluster, num_layers: int = 12):
    """``(old, new)`` plans to migrate between.

    The two plans draw their dp degrees, TP degrees and stage splits
    independently; the new plan may also leave some of the old plan's
    GPUs out (its ``removed_gpus``), so part of their state has to move.
    """
    old = draw(parallel_plans(cluster, num_layers))
    removed = draw(st.sets(st.sampled_from(old.active_gpus),
                           max_size=len(old.active_gpus) - 1))
    new = draw(parallel_plans(cluster, num_layers, exclude=removed))
    new.removed_gpus = sorted(removed)
    new.validate()
    return old, new


@st.composite
def scenario_configs(draw, presets=None, max_seed: int = 2 ** 16,
                     **overrides):
    """Scenario configs drawn from the preset library.

    The seed is drawn unless pinned via ``overrides`` (``seed=3``).
    """
    names = sorted(presets or SCENARIO_PRESETS)
    name = draw(st.sampled_from(names))
    overrides.setdefault(
        "seed", draw(st.integers(min_value=0, max_value=max_seed)))
    config = SCENARIO_PRESETS[name]
    return ScenarioConfig(**dict(vars(config), **overrides))


@st.composite
def rate_map_sequences(draw, gpu_ids, length: int = 5,
                       max_mutations: int = 3,
                       allow_failures: bool = True,
                       min_rate: float = 1.05,
                       max_rate: float = MAX_RATE):
    """Multi-event sequences of rate maps over a fixed GPU set.

    Starts healthy and evolves by 1..``max_mutations`` per-event mutations
    drawn from the repair engine's whole event taxonomy: small relative
    shifts (``minor_rate_shift``), straggler appearance/recovery jumps
    (``group_change``) and — with ``allow_failures`` — hard failures and
    rejoins (``membership_change``, expressed as infinite rates so the
    GPU-id set stays fixed).  Built for cross-event state (the sweep
    engine's warm-start cache, plan contexts): consecutive maps are
    related the way production events are, unlike independent draws.
    """
    gpu_ids = list(gpu_ids)
    rates = {g: 1.0 for g in gpu_ids}
    sequence = [dict(rates)]
    actions = ["shift", "jump", "recover"]
    if allow_failures:
        actions += ["fail", "rejoin"]
    for _ in range(length - 1):
        mutations = draw(st.integers(min_value=1, max_value=max_mutations))
        for _ in range(mutations):
            gpu = draw(st.sampled_from(gpu_ids))
            action = draw(st.sampled_from(actions))
            current = rates[gpu]
            if action == "shift" and 1.0 < current < float("inf"):
                factor = draw(st.floats(min_value=0.85, max_value=1.15))
                rates[gpu] = min(max_rate, max(min_rate, current * factor))
            elif action == "jump":
                rates[gpu] = draw(
                    st.floats(min_value=min_rate, max_value=max_rate))
            elif action == "recover":
                rates[gpu] = 1.0
            elif action == "fail":
                rates[gpu] = float("inf")
            elif action == "rejoin" and current == float("inf"):
                rates[gpu] = 1.0
        sequence.append(dict(rates))
    return sequence


@st.composite
def scenario_traces(draw, cluster=None, presets=None, **overrides):
    """Whole straggler traces from the seeded scenario generator.

    ``cluster`` may be a fixed cluster or ``None`` (a small cluster is
    drawn too); generation itself is deterministic given the drawn
    ``(cluster, config)``, so failures minimise to a reproducible seed.
    """
    if cluster is None:
        cluster = draw(small_clusters())
    config = draw(scenario_configs(presets=presets, **overrides))
    return ScenarioGenerator(cluster, config).generate()
