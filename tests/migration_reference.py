"""Layer-by-layer reference migration planner (test-only oracle).

This is the straightforward form of
:func:`repro.parallel.migration.plan_migration`: for every layer it
rebuilds both ownership views, scans every old holder for every missing
parameter interval and every old optimizer slice for every new one.  The
production planner derives the same transfers once per stage segment; the
equivalence tests assert both return identical transfer lists (order,
endpoints and exact bytes).

Test modules import this as a plain top-level module; pytest puts
``tests/`` on ``sys.path`` because the directory has no ``__init__.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster.topology import Cluster
from repro.parallel.migration import (
    DEFAULT_LAYER_PACK,
    MigrationPlan,
    Transfer,
    _interval_minus,
    _overlap,
)
from repro.parallel.plan import ParallelizationPlan
from repro.parallel.sharding import optimizer_ownership, parameter_ownership


def _pick_source(cluster: Cluster, dst_gpu: int, candidates: Sequence[int],
                 outgoing_load: Optional[Dict[int, float]] = None) -> int:
    """Pick the source GPU for a replica pull.

    Same-node holders are preferred; ties break by the holders' current
    outgoing load, then by GPU id.
    """
    same_node = [
        g for g in candidates
        if cluster.gpu(g).node_id == cluster.gpu(dst_gpu).node_id
    ]
    pool = same_node or list(candidates)
    if outgoing_load is None:
        return min(pool)
    return min(pool, key=lambda g: (outgoing_load.get(g, 0.0), g))


def reference_plan_migration(
    old_plan: ParallelizationPlan,
    new_plan: ParallelizationPlan,
    cluster: Cluster,
    layer_param_bytes: float,
    layer_optimizer_bytes: float,
    layer_pack: int = DEFAULT_LAYER_PACK,
) -> MigrationPlan:
    """Per-layer derivation of the migration transfers."""
    if old_plan.num_layers != new_plan.num_layers:
        raise ValueError("plans describe different models")
    plan = MigrationPlan(layer_pack=layer_pack)
    outgoing_load: Dict[int, float] = {}

    for layer in range(new_plan.num_layers):
        old_params = parameter_ownership(old_plan, layer)
        new_params = parameter_ownership(new_plan, layer)
        for dst_gpu, needed_intervals in new_params.items():
            held = old_params.get(dst_gpu, [])
            for needed in needed_intervals:
                for missing in _interval_minus(needed, held):
                    length = missing[1] - missing[0]
                    candidates = [
                        g for g, intervals in old_params.items()
                        if any(_overlap(missing, i) > 1e-12 for i in intervals)
                    ]
                    if not candidates:
                        continue
                    num_bytes = length * layer_param_bytes
                    src = _pick_source(cluster, dst_gpu, candidates,
                                       outgoing_load)
                    outgoing_load[src] = outgoing_load.get(src, 0.0) + num_bytes
                    plan.transfers.append(Transfer(
                        layer_index=layer, src_gpu=src, dst_gpu=dst_gpu,
                        num_bytes=num_bytes, kind="param",
                    ))

        old_slices = optimizer_ownership(old_plan, layer)
        new_slices = optimizer_ownership(new_plan, layer)
        for new_slice in new_slices:
            needed = new_slice.fraction
            for old_slice in old_slices:
                overlap = _overlap(needed, old_slice.fraction)
                if overlap <= 1e-12:
                    continue
                if old_slice.owner_gpu == new_slice.owner_gpu:
                    continue
                num_bytes = overlap * layer_optimizer_bytes
                outgoing_load[old_slice.owner_gpu] = \
                    outgoing_load.get(old_slice.owner_gpu, 0.0) + num_bytes
                plan.transfers.append(Transfer(
                    layer_index=layer, src_gpu=old_slice.owner_gpu,
                    dst_gpu=new_slice.owner_gpu, num_bytes=num_bytes,
                    kind="optimizer",
                ))
    return plan
