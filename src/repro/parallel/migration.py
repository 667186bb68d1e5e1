"""On-the-fly model-state migration between parallelization plans (§5.1).

When the planner produces a new plan, every GPU may need different layer
parameters and optimizer-state slices than it currently holds.  Malleus
locates, for every slice required by the new plan, a source GPU that holds
it under the old plan, fuses the transfers into batched send/recv calls and
packs several layers (4 by default) per batch to saturate the network.

This module computes the migration plan (who sends what to whom) and an
analytic estimate of the migration time from the cluster's bandwidths.  The
simulator charges this time once per plan adjustment, which reproduces the
~1-5 s migration overhead the paper reports.

Both ownership views (:mod:`repro.parallel.sharding`) are constant between
stage boundaries, so :func:`plan_migration` cuts the layers into segments
at the union of both plans' boundaries and derives per segment, once, the
parameter-pull templates ``(dst, bytes, source pool)`` and the optimizer
moves ``(src, dst, bytes)``.  Per layer it only replays the least-loaded
source pick and the load updates, in the order a layer-by-layer derivation
would perform them, so the transfer list is identical to one.

Transition-aware planning
-------------------------
Re-planning makes migration a *recurring* cost, so the planner scores it at
planning time instead of discovering it on the invoice (see
:class:`repro.core.planner.TransitionConfig`).  Three pieces support that:

* **topology-aware timing** — :func:`estimate_migration_time` charges every
  fused (src, dst) batch on its actual link (intra-node vs inter-node
  bandwidth from the :class:`~repro.cluster.topology.Cluster`) and
  serialises the batches sharing a GPU's ingress/egress link; the previous
  flat ``inter_node_bandwidth`` + global batch-count formula is kept under
  ``legacy=True`` (the paper-magnitude reproduction tests pin it);
* **load-balanced sources** — replica pulls spread over the old holders by
  current outgoing load instead of funnelling through the lowest GPU id;
* **plan-free cost estimation** — :func:`estimate_transition_cost` prices
  the migrated bytes and the migration time of a *candidate* (an
  unmaterialized :class:`~repro.core.assignment.PlanCandidate` or a built
  plan) directly from the stage layouts, composing with the planner's
  deferred materialization: candidates can be scored transition-aware
  without ever building them.  The estimate replays the migration
  planner's own per-transfer load-balanced source selection on the
  layouts, so whenever the old layout fully covers the model state the
  per-pair traffic — and therefore :func:`estimate_migration_time` —
  is reproduced *exactly*, not approximately.

Overlapped migration
--------------------
Stop-the-world migration is pessimistic: elastic systems keep training at
the **old** plan while the state streams in the background and only stall
for the *exposed tail* — whatever the bottleneck link could not drain
inside the overlap window.  The charge model supports this via a uniform
``hideable_seconds`` window (the wall-clock training time the migration
may hide under, typically ``overlap_steps x old-plan step time``):
:meth:`TransitionEstimate.exposed_seconds` and
:meth:`~repro.simulator.executor.ExecutionSimulator.migration_downtime`
charge ``max(0, drain_time - hideable_seconds)``.  A zero window (the
default everywhere) is bit-identical to the non-overlapped charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.topology import Cluster
from .plan import ParallelizationPlan
from .sharding import optimizer_ownership, parameter_ownership

Interval = Tuple[float, float]

#: Number of layers fused into one batched send/recv (paper default).
DEFAULT_LAYER_PACK = 4

#: Per-batched-send-recv launch latency (seconds).
BATCH_LATENCY = 0.005

#: One pipeline's stage layout: ``(gpu_ids, num_layers)`` per kept stage.
StageLayout = Tuple[Tuple[int, ...], int]

#: A plan's full layout: kept stages of every surviving pipeline, in
#: pipeline order.  This is the exact information migration cost depends
#: on — micro-batch counts only matter through pipeline survival.
PlanLayout = List[List[StageLayout]]


@dataclass
class Transfer:
    """A single point-to-point transfer of part of a layer's state."""

    layer_index: int
    src_gpu: int
    dst_gpu: int
    num_bytes: float
    kind: str  # "param" or "optimizer"


@dataclass
class MigrationPlan:
    """All transfers needed to move from one plan to another."""

    transfers: List[Transfer] = field(default_factory=list)
    layer_pack: int = DEFAULT_LAYER_PACK

    @property
    def total_bytes(self) -> float:
        """Total migrated volume in bytes."""
        return sum(t.num_bytes for t in self.transfers)

    @property
    def num_transfers(self) -> int:
        """Number of individual transfers before fusing."""
        return len(self.transfers)

    def bytes_by_pair(self) -> Dict[Tuple[int, int], float]:
        """Aggregate volume per (src, dst) GPU pair (the fused batches)."""
        pairs: Dict[Tuple[int, int], float] = {}
        for transfer in self.transfers:
            key = (transfer.src_gpu, transfer.dst_gpu)
            pairs[key] = pairs.get(key, 0.0) + transfer.num_bytes
        return pairs

    def pair_traffic(self) -> Dict[Tuple[int, int], Tuple[float, int]]:
        """Per (src, dst) pair: (total bytes, distinct layers touched).

        A pair's transfers are fused into ``ceil(layers / layer_pack)``
        batched send/recv calls, which is what the topology-aware timing
        charges per link.
        """
        volumes: Dict[Tuple[int, int], float] = {}
        layers: Dict[Tuple[int, int], set] = {}
        for transfer in self.transfers:
            key = (transfer.src_gpu, transfer.dst_gpu)
            volumes[key] = volumes.get(key, 0.0) + transfer.num_bytes
            layers.setdefault(key, set()).add(transfer.layer_index)
        return {
            key: (volumes[key], len(layers[key])) for key in volumes
        }

    def bytes_sent_per_gpu(self) -> Dict[int, float]:
        """Outgoing volume per GPU."""
        out: Dict[int, float] = {}
        for transfer in self.transfers:
            out[transfer.src_gpu] = out.get(transfer.src_gpu, 0.0) + transfer.num_bytes
        return out

    def bytes_received_per_gpu(self) -> Dict[int, float]:
        """Incoming volume per GPU."""
        incoming: Dict[int, float] = {}
        for transfer in self.transfers:
            incoming[transfer.dst_gpu] = (
                incoming.get(transfer.dst_gpu, 0.0) + transfer.num_bytes
            )
        return incoming


# ----------------------------------------------------------------------
# Interval helpers
# ----------------------------------------------------------------------
def _overlap(a: Interval, b: Interval) -> float:
    """Length of the overlap between two [start, end) intervals."""
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def _interval_minus(needed: Interval, held: Sequence[Interval]) -> List[Interval]:
    """Portions of ``needed`` not covered by any interval in ``held``."""
    segments = [needed]
    for h in sorted(held):
        next_segments: List[Interval] = []
        for seg in segments:
            overlap = _overlap(seg, h)
            if overlap <= 1e-12:
                next_segments.append(seg)
                continue
            if seg[0] < h[0]:
                next_segments.append((seg[0], min(seg[1], h[0])))
            if seg[1] > h[1]:
                next_segments.append((max(seg[0], h[1]), seg[1]))
        segments = [s for s in next_segments if s[1] - s[0] > 1e-12]
    return segments


# ----------------------------------------------------------------------
# Migration planning
# ----------------------------------------------------------------------
def _source_pool(cluster: Cluster, dst_gpu: int,
                 candidates: Sequence[int]) -> List[int]:
    """Holders a replica pull to ``dst_gpu`` may be sourced from.

    Same-node holders are preferred (the pull then rides the intra-node
    link); without one, every holder qualifies.  The pull then takes the
    pool's least-loaded GPU by *current outgoing load*, ties broken by
    GPU id, so concurrent pulls of the same layer spread across the
    replicas instead of serialising on the lowest-id holder's egress link.
    """
    dst_node = cluster.gpu(dst_gpu).node_id
    same_node = [g for g in candidates if cluster.gpu(g).node_id == dst_node]
    return same_node or list(candidates)


def _param_pull_templates(
    old_plan: ParallelizationPlan,
    new_plan: ParallelizationPlan,
    layer: int,
    cluster: Cluster,
    layer_param_bytes: float,
) -> List[Tuple[int, float, List[int]]]:
    """Parameter pulls ``(dst, bytes, source pool)`` of one segment's layers.

    Every interval a new holder needs but does not hold is pulled from the
    old holders overlapping it, in the new ownership's (dst, interval,
    gap) order.  Gaps with no surviving holder are freshly materialised
    (e.g. from a checkpoint) and produce no pull.  The old holders are
    indexed by their distinct interval, so the pool of a gap is found
    with a handful of overlap tests instead of a scan over every holder.
    """
    old_params = parameter_ownership(old_plan, layer)
    holders: Dict[Interval, List[int]] = {}
    for gpu_id, intervals in old_params.items():
        for interval in intervals:
            holders.setdefault(interval, []).append(gpu_id)
    pulls: List[Tuple[int, float, List[int]]] = []
    for dst_gpu, needed_intervals in parameter_ownership(new_plan,
                                                         layer).items():
        held = old_params.get(dst_gpu, [])
        for needed in needed_intervals:
            for missing in _interval_minus(needed, held):
                candidates = sorted({
                    g for interval, gpus in holders.items()
                    if _overlap(missing, interval) > 1e-12 for g in gpus
                })
                if not candidates:
                    continue
                num_bytes = (missing[1] - missing[0]) * layer_param_bytes
                pulls.append((dst_gpu, num_bytes,
                              _source_pool(cluster, dst_gpu, candidates)))
    return pulls


def _optimizer_move_templates(
    old_plan: ParallelizationPlan,
    new_plan: ParallelizationPlan,
    layer: int,
    layer_optimizer_bytes: float,
) -> List[Tuple[int, int, float]]:
    """Optimizer-slice moves ``(src, dst, bytes)`` of one segment's layers.

    ZeRO-1 slices have a unique old and a unique new owner, and both slice
    lists tile [0, 1) in ascending order, so a two-pointer merge visits
    every overlapping (new, old) pair exactly once, in the order of a
    nested loop over new slices then old slices.
    """
    old_slices = optimizer_ownership(old_plan, layer)
    new_slices = optimizer_ownership(new_plan, layer)
    moves: List[Tuple[int, int, float]] = []
    i = j = 0
    while i < len(old_slices) and j < len(new_slices):
        old_slice, new_slice = old_slices[i], new_slices[j]
        needed, held = new_slice.fraction, old_slice.fraction
        overlap = _overlap(needed, held)
        if overlap > 1e-12 and old_slice.owner_gpu != new_slice.owner_gpu:
            moves.append((old_slice.owner_gpu, new_slice.owner_gpu,
                          overlap * layer_optimizer_bytes))
        if held[1] <= needed[1]:
            i += 1
        if needed[1] <= held[1]:
            j += 1
    return moves


def plan_migration(
    old_plan: ParallelizationPlan,
    new_plan: ParallelizationPlan,
    cluster: Cluster,
    layer_param_bytes: float,
    layer_optimizer_bytes: float,
    layer_pack: int = DEFAULT_LAYER_PACK,
) -> MigrationPlan:
    """Compute the transfers needed to realise ``new_plan`` from ``old_plan``.

    Per layer, parameter pulls come first (any old holder of a missing
    interval can serve; see :func:`_source_pool`), then optimizer-slice
    moves from each slice's unique old owner to its unique new owner.
    Both feed one outgoing-load account, which steers later pulls.

    Ownership only changes at stage boundaries, so the layers are cut into
    segments at the union of both plans' boundaries and the pull and move
    templates are derived once per segment, from the same ownership
    functions a per-layer derivation would call.  Per layer only the
    least-loaded source pick and the load updates are replayed, in the
    per-layer order, so every transfer's endpoints and bytes — and every
    float addition to the load account — are those of a layer-by-layer
    derivation.

    Parameters
    ----------
    layer_param_bytes:
        Bytes of the bf16 parameters (+gradients are re-computed, not moved)
        of one full layer.
    layer_optimizer_bytes:
        Bytes of the fp32 optimizer states of one full layer.
    """
    if old_plan.num_layers != new_plan.num_layers:
        raise ValueError("plans describe different models")
    plan = MigrationPlan(layer_pack=layer_pack)
    transfers = plan.transfers
    outgoing_load: Dict[int, float] = {}

    def load_key(gpu_id: int) -> Tuple[float, int]:
        return outgoing_load.get(gpu_id, 0.0), gpu_id

    cuts = _segment_boundaries(layout_from_plan(old_plan),
                               layout_from_plan(new_plan))
    for start, end in zip(cuts, cuts[1:]):
        pulls = _param_pull_templates(old_plan, new_plan, start, cluster,
                                      layer_param_bytes)
        moves = _optimizer_move_templates(old_plan, new_plan, start,
                                          layer_optimizer_bytes)
        for layer in range(start, end):
            for dst, num_bytes, pool in pulls:
                src = pool[0] if len(pool) == 1 else min(pool, key=load_key)
                outgoing_load[src] = outgoing_load.get(src, 0.0) + num_bytes
                transfers.append(Transfer(layer, src, dst, num_bytes, "param"))
            for src, dst, num_bytes in moves:
                outgoing_load[src] = outgoing_load.get(src, 0.0) + num_bytes
                transfers.append(
                    Transfer(layer, src, dst, num_bytes, "optimizer"))
    return plan


def link_times(plan: MigrationPlan, cluster: Cluster) -> Dict[int, float]:
    """Per-GPU migration busy time under the topology-aware charge model.

    Each (src, dst) pair's transfers are fused into ``ceil(layers /
    layer_pack)`` batched send/recv calls on the pair's actual link
    (intra-node bandwidth when src and dst share a node, inter-node
    otherwise), each batch paying :data:`BATCH_LATENCY`.  Distinct pairs
    proceed in parallel, but batches sharing a GPU's ingress or egress
    link serialise on it; a GPU's busy time is the larger of the two.
    """
    egress: Dict[int, float] = {}
    ingress: Dict[int, float] = {}
    pack = max(1, plan.layer_pack)
    for (src, dst), (volume, layers) in plan.pair_traffic().items():
        bandwidth = cluster.bandwidth_between(src, dst)
        batches = math.ceil(max(1, layers) / pack)
        seconds = volume / bandwidth + batches * BATCH_LATENCY
        egress[src] = egress.get(src, 0.0) + seconds
        ingress[dst] = ingress.get(dst, 0.0) + seconds
    return {
        gpu_id: max(egress.get(gpu_id, 0.0), ingress.get(gpu_id, 0.0))
        for gpu_id in set(egress) | set(ingress)
    }


def estimate_migration_time(plan: MigrationPlan, cluster: Cluster,
                            num_layers: Optional[int] = None,
                            legacy: bool = False) -> float:
    """Analytic migration time of a computed migration plan.

    The default model charges fused per-pair batches on the critical link
    (see :func:`link_times`): every (src, dst) pair's batches ride that
    pair's actual bandwidth, pairs proceed in parallel, and the migration
    completes when the most loaded ingress/egress link drains.

    ``legacy=True`` restores the original formula — the most loaded GPU's
    volume over the flat ``inter_node_bandwidth`` plus one global
    ``ceil(num_layers / layer_pack)`` batch-latency term even when pairs
    proceed in parallel — which the paper-magnitude reproduction tests pin
    (``num_layers`` is only consulted by this path).
    """
    if not plan.transfers:
        return 0.0
    if legacy:
        sent = plan.bytes_sent_per_gpu()
        received = plan.bytes_received_per_gpu()
        worst_time = 0.0
        for gpu_id in set(sent) | set(received):
            volume = max(sent.get(gpu_id, 0.0), received.get(gpu_id, 0.0))
            # Conservatively assume cross-node bandwidth for the bottleneck.
            bandwidth = cluster.inter_node_bandwidth
            worst_time = max(worst_time, volume / bandwidth)
        layers_touched = num_layers
        if layers_touched is None:
            layers_touched = len({t.layer_index for t in plan.transfers})
        num_batches = math.ceil(max(1, layers_touched) / max(1, plan.layer_pack))
        return worst_time + num_batches * BATCH_LATENCY
    times = link_times(plan, cluster)
    return max(times.values()) if times else 0.0


# ----------------------------------------------------------------------
# Plan-free transition cost estimation
# ----------------------------------------------------------------------
@dataclass
class TransitionEstimate:
    """Analytic cost of transitioning between two layouts.

    ``param_bytes`` / ``optimizer_bytes`` are the volumes the new layout's
    GPUs must *receive* (exact for fully-covered state, see
    :func:`estimate_transition_cost`); ``seconds`` is the resulting
    migration-time estimate (the non-overlapped, stop-the-world drain
    time); ``layers_touched`` counts layers with any transfer (for
    batching diagnostics).
    """

    param_bytes: float = 0.0
    optimizer_bytes: float = 0.0
    seconds: float = 0.0
    layers_touched: int = 0
    max_received_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        """Total migrated volume in bytes."""
        return self.param_bytes + self.optimizer_bytes

    def exposed_seconds(self, hideable_seconds: float = 0.0) -> float:
        """Stall time after hiding the drain under concurrent training.

        With overlapped migration the job keeps training at the old plan
        for ``hideable_seconds`` of wall-clock time while the transfers
        stream in the background; only the tail the bottleneck link could
        not drain inside that window stalls training.  A zero window
        recovers :attr:`seconds` exactly.
        """
        return max(0.0, self.seconds - max(0.0, hideable_seconds))


def layout_from_plan(plan: ParallelizationPlan) -> PlanLayout:
    """Extract the migration-relevant layout of a materialized plan."""
    return [
        [(stage.gpu_ids, stage.num_layers) for stage in pipeline.stages]
        for pipeline in plan.pipelines
    ]


def layout_from_candidate(candidate) -> PlanLayout:
    """Extract the layout of an *unmaterialized* lower-level candidate.

    ``candidate`` is duck-typed as a
    :class:`~repro.core.assignment.PlanCandidate` (``pipelines_groups``,
    ``layer_results``, ``micro_batches``) so this module stays importable
    from the core layer without a cycle.  Mirrors
    :func:`~repro.core.assignment.build_plan`: zero-micro-batch pipelines
    and zero-layer stages are dropped — the layout is exactly what the
    built plan's ownership maps would describe, at none of the
    materialization cost.
    """
    layout: PlanLayout = []
    for groups, layer_result, m_i in zip(candidate.pipelines_groups,
                                         candidate.layer_results,
                                         candidate.micro_batches):
        if m_i <= 0:
            continue
        stages = [
            (group.gpu_ids, layers)
            for group, layers in zip(groups, layer_result.layers)
            if layers > 0
        ]
        if stages:
            layout.append(stages)
    return layout


#: Per-GPU holdings: sorted list of ``(layer_start, layer_end, lo, hi)``
#: half-open layer ranges, each held as the fractional interval [lo, hi).
_Holdings = Dict[int, List[Tuple[int, int, float, float]]]


def _param_holdings(layout: PlanLayout) -> _Holdings:
    """Fractional parameter intervals per GPU (one replica per pipeline)."""
    holdings: _Holdings = {}
    for pipeline in layout:
        cursor = 0
        for gpu_ids, layers in pipeline:
            k = len(gpu_ids)
            for rank, gpu_id in enumerate(gpu_ids):
                holdings.setdefault(gpu_id, []).append(
                    (cursor, cursor + layers, rank / k, (rank + 1) / k)
                )
            cursor += layers
    return holdings


def _segment_boundaries(*layouts: PlanLayout) -> List[int]:
    """Sorted union of every stage boundary across the given layouts."""
    cuts = set()
    for layout in layouts:
        for pipeline in layout:
            cursor = 0
            cuts.add(0)
            for _, layers in pipeline:
                cursor += layers
                cuts.add(cursor)
    return sorted(cuts)


def _optimizer_partition(layout: PlanLayout, start: int,
                         end: int) -> List[Tuple[float, float, int]]:
    """The ZeRO-1 owner partition of [0, 1) over one layer segment.

    ``[start, end)`` must not straddle a stage boundary of ``layout``; the
    returned ``(lo, hi, gpu)`` pieces are sorted by ``lo`` and cover [0, 1)
    exactly once (per layer) because pipelines' bands are disjoint and each
    stage's ranks tile its band.
    """
    pieces: List[Tuple[float, float, int]] = []
    dp = len(layout)
    for i, pipeline in enumerate(layout):
        cursor = 0
        for gpu_ids, layers in pipeline:
            if cursor <= start and end <= cursor + layers:
                k = len(gpu_ids)
                for rank, gpu_id in enumerate(gpu_ids):
                    pieces.append(((i + rank / k) / dp,
                                   (i + (rank + 1) / k) / dp, gpu_id))
                break
            cursor += layers
    pieces.sort()
    return pieces


def _optimizer_segment_transfers(
    old_layout: PlanLayout,
    new_layout: PlanLayout,
    start: int,
    end: int,
    layer_optimizer_bytes: float,
) -> List[Tuple[int, int, float]]:
    """Per-layer optimizer transfers ``(src, dst, bytes)`` over one segment.

    ZeRO-1 slices have a *unique* old owner and a unique new owner, so the
    transfers — every overlap between an old piece and a new piece with
    different owners — are fully determined by the layouts and are
    identical for every layer of the segment.
    """
    transfers: List[Tuple[int, int, float]] = []
    old_pieces = _optimizer_partition(old_layout, start, end)
    new_pieces = _optimizer_partition(new_layout, start, end)
    i = j = 0
    while i < len(old_pieces) and j < len(new_pieces):
        o_lo, o_hi, src = old_pieces[i]
        n_lo, n_hi, dst = new_pieces[j]
        lo, hi = max(o_lo, n_lo), min(o_hi, n_hi)
        if hi - lo > 1e-12 and src != dst:
            transfers.append((src, dst, (hi - lo) * layer_optimizer_bytes))
        if o_hi <= n_hi:
            i += 1
        if n_hi <= o_hi:
            j += 1
    return transfers


def _param_pieces(layout: PlanLayout, start: int,
                  end: int) -> List[Tuple[float, float, int]]:
    """Per-pipeline parameter shards ``(lo, hi, gpu)`` over one segment.

    Unlike the optimizer partition, parameters are *replicated*: every
    pipeline contributes one full cover of [0, 1), so the returned pieces
    overlap across pipelines — exactly the replica pool a migration can
    source a pull from.
    """
    pieces: List[Tuple[float, float, int]] = []
    for pipeline in layout:
        cursor = 0
        for gpu_ids, layers in pipeline:
            if cursor <= start and end <= cursor + layers:
                k = len(gpu_ids)
                for rank, gpu_id in enumerate(gpu_ids):
                    pieces.append((rank / k, (rank + 1) / k, gpu_id))
                break
            cursor += layers
    return pieces


def transition_pair_traffic(
    old_layout: PlanLayout,
    new_layout: PlanLayout,
    cluster: Cluster,
    layer_param_bytes: float,
    layer_optimizer_bytes: float,
) -> Tuple[Dict[Tuple[int, int], Tuple[float, int]], TransitionEstimate]:
    """Exact (src, dst) migration traffic between two layouts.

    Replays :func:`plan_migration`'s decision process directly on the
    layouts: per layer, parameter pulls pick their source from the
    same-node replica pool first, then by accumulated outgoing load, then
    by GPU id — with optimizer transfers feeding the same load account —
    so the per-pair volumes *and* fused batch counts (distinct layers per
    pair) coincide with the materialized migration plan whenever the old
    layout fully covers the model state.  Both owner partitions are
    constant between stage boundaries, so the pools and per-layer
    templates are computed once per segment; only the O(transfers)
    load-balancing replay runs per layer.

    Returns the per-pair ``(bytes, distinct_layers)`` traffic plus a
    partially-filled :class:`TransitionEstimate` (byte totals, received
    volumes and ``layers_touched``; ``seconds`` is left at zero for the
    caller to price).
    """
    pairs: Dict[Tuple[int, int], List[float]] = {}
    pair_last_layer: Dict[Tuple[int, int], int] = {}
    outgoing_load: Dict[int, float] = {}
    received: Dict[int, float] = {}
    param_bytes = 0.0
    optimizer_bytes = 0.0
    layers_touched = 0

    def add(src: int, dst: int, volume: float, layer: int) -> None:
        key = (src, dst)
        entry = pairs.setdefault(key, [0.0, 0])
        entry[0] += volume
        if pair_last_layer.get(key) != layer:
            pair_last_layer[key] = layer
            entry[1] += 1

    cuts = _segment_boundaries(old_layout, new_layout)
    for start, end in zip(cuts, cuts[1:]):
        if end <= start:
            continue
        old_pieces = _param_pieces(old_layout, start, end)
        held: Dict[int, List[Interval]] = {}
        for lo, hi, gpu_id in old_pieces:
            held.setdefault(gpu_id, []).append((lo, hi))
        # Per-layer parameter-pull templates: (dst, bytes, source pool),
        # in the migration planner's destination order.
        pulls: List[Tuple[int, float, Optional[List[int]]]] = []
        fresh_per_layer: Dict[int, float] = {}
        for lo, hi, dst in _param_pieces(new_layout, start, end):
            for missing in _interval_minus((lo, hi), held.get(dst, ())):
                volume = (missing[1] - missing[0]) * layer_param_bytes
                pool = [
                    g for p_lo, p_hi, g in old_pieces
                    if _overlap(missing, (p_lo, p_hi)) > 1e-12
                ]
                if not pool:
                    # Freshly materialised (no surviving holder): counted
                    # as migrated volume — an upper bound — but there is
                    # no transfer to charge a link for.
                    fresh_per_layer[dst] = fresh_per_layer.get(dst, 0.0) \
                        + volume
                    continue
                pulls.append((dst, volume, _source_pool(cluster, dst, pool)))
        optimizer = _optimizer_segment_transfers(
            old_layout, new_layout, start, end, layer_optimizer_bytes)

        segment_touched = bool(pulls or optimizer or fresh_per_layer)
        for layer in range(start, end):
            if segment_touched:
                layers_touched += 1
            for dst, volume, pool in pulls:
                src = min(pool, key=lambda g: (outgoing_load.get(g, 0.0), g))
                outgoing_load[src] = outgoing_load.get(src, 0.0) + volume
                param_bytes += volume
                received[dst] = received.get(dst, 0.0) + volume
                add(src, dst, volume, layer)
            for dst, volume in fresh_per_layer.items():
                param_bytes += volume
                received[dst] = received.get(dst, 0.0) + volume
            for src, dst, volume in optimizer:
                outgoing_load[src] = outgoing_load.get(src, 0.0) + volume
                optimizer_bytes += volume
                received[dst] = received.get(dst, 0.0) + volume
                add(src, dst, volume, layer)

    estimate = TransitionEstimate(
        param_bytes=param_bytes,
        optimizer_bytes=optimizer_bytes,
        layers_touched=layers_touched,
        max_received_bytes=max(received.values()) if received else 0.0,
    )
    traffic = {key: (volume, int(layers))
               for key, (volume, layers) in pairs.items()}
    return traffic, estimate


def estimate_transition_cost(
    old_layout: PlanLayout,
    new_layout: PlanLayout,
    cluster: Cluster,
    layer_param_bytes: float,
    layer_optimizer_bytes: float,
    layer_pack: int = DEFAULT_LAYER_PACK,
) -> TransitionEstimate:
    """Price the migration cost of moving between two plan layouts.

    Works entirely on :data:`PlanLayout` values (see
    :func:`layout_from_plan` / :func:`layout_from_candidate`), so planner
    candidates can be scored without materializing them.  Both byte totals
    are exact against the corresponding :func:`plan_migration` whenever
    the old layout fully covers the model state (always true for a
    previously-built plan); parameter state with no surviving holder (a
    membership change) is counted as migrated too, making the byte total
    an upper bound there.

    The time estimate replays the migration planner's per-transfer
    load-balanced source selection (:func:`transition_pair_traffic`) and
    charges the resulting fused per-pair batches exactly like
    :func:`link_times`, so on fully-covered state it *equals*
    ``estimate_migration_time(plan_migration(old, new, ...), cluster)``
    (asserted by ``tests/test_migration_properties.py``).
    """
    pack = max(1, layer_pack)
    traffic, estimate = transition_pair_traffic(
        old_layout, new_layout, cluster, layer_param_bytes,
        layer_optimizer_bytes,
    )
    egress: Dict[int, float] = {}
    ingress: Dict[int, float] = {}
    for (src, dst), (volume, layers) in traffic.items():
        bandwidth = cluster.bandwidth_between(src, dst)
        batches = math.ceil(max(1, layers) / pack)
        seconds = volume / bandwidth + batches * BATCH_LATENCY
        egress[src] = egress.get(src, 0.0) + seconds
        ingress[dst] = ingress.get(dst, 0.0) + seconds
    if egress or ingress:
        estimate.seconds = max(
            max(egress.get(g, 0.0), ingress.get(g, 0.0))
            for g in set(egress) | set(ingress)
        )
    return estimate


def transition_time_lower_bound(
    old_layout: PlanLayout,
    available_gpus: Sequence[int],
    cluster: Cluster,
    layer_param_bytes: float,
    num_layers: int,
) -> float:
    """Provable lower bound on any candidate plan's migration time.

    Every materialized plan keeps at least one pipeline, and every
    surviving pipeline holds a full parameter replica; whatever portion of
    one replica the candidate's available GPUs do not already hold must be
    received over the network, taking at least ``deficit / (num_gpus *
    max_bandwidth)`` seconds no matter how the transfers are arranged.

    The bound is deliberately conservative — a candidate may park any GPU,
    so nothing beyond one replica can be forced — and is therefore usually
    zero (the term only bites after holders disappear, e.g. around
    membership changes).  Its value is its soundness: added to the
    planner's step-time lower bound it never prunes a candidate the
    transition-aware objective could still pick, and it is exactly zero
    when transition-aware planning is disabled.
    """
    available = set(available_gpus)
    held = 0.0
    for gpu_id, entries in _param_holdings(old_layout).items():
        if gpu_id not in available:
            continue
        for (ls, le, lo, hi) in entries:
            held += (le - ls) * (hi - lo)
    deficit = num_layers - held
    if deficit <= 1e-9 or not available:
        return 0.0
    max_bandwidth = max(
        [cluster.inter_node_bandwidth]
        + [node.intra_node_bandwidth for node in cluster.nodes]
    )
    return deficit * layer_param_bytes / (len(available) * max_bandwidth)
