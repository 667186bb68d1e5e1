"""Pipeline-division solver for the upper-level MINLP (Eq. 4).

Given the TP groups produced by GPU grouping, the pipeline-orchestration
step must decide which groups form which training pipeline.  Under the
relaxations of Appendix B.6 the problem becomes::

    minimize   max_i  m_i * tau(b) / s_i
    subject to sum_i m_i = B / b                 (micro-batches, integer)
               s_i = h_i / y_hat + sum_k q_{i,k} / y_k
               sum_i h_i = number of fast groups (integer)
               every slow group k assigned to exactly one pipeline (q binary)

where "fast" groups share the majority straggling rate ``y_hat`` and "slow"
groups have individual rates ``y_k``.  The paper solves this with Pyomo; we
exploit the structure instead:

* slow groups are assigned by symmetry-reduced enumeration (identical rates
  are interchangeable and pipelines are interchangeable before fast groups
  are allocated), with a greedy + local-search fallback when the enumeration
  would explode;
* for a fixed slow-group assignment the fast groups are distributed by
  harmonic water-filling (equalising the pipeline speeds) followed by a
  local search, and the micro-batches by the exact min-max solver.

Hot-path kernels
----------------
The water-filling and the slow-group local search sit on the planner's
critical path (they run once per candidate move, thousands of times per
plan).  The production kernels therefore use

* a heap-based water-filling (``O(fast * log dp)`` instead of rescanning all
  ``dp`` pipelines per fast group), and
* in-place move/revert local search (no per-move deep copies of the slow
  buckets).

The original straightforward kernels are kept as ``*_legacy`` reference
implementations; ``solve_pipeline_division(..., legacy_kernels=True)``
selects them, which is what the hot-path benchmark uses as its "before"
configuration and what the equivalence tests compare against.
``division_lower_bound`` is the division-problem form of the cheap,
provably-sound bound ``total_micro_batches / total_harmonic_speed``; the
planner's actual pruning uses its cost-model-aware counterpart
:func:`repro.core.assignment.candidate_step_time_bound`, and the pruning
soundness tests check this form against :func:`brute_force_division`.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compat import np
from ..core import kernel_timing
from .minmax import solve_minmax_assignment


@dataclass
class DivisionProblem:
    """Input of the pipeline-division problem."""

    num_pipelines: int
    total_micro_batches: int
    fast_group_count: int
    fast_group_rate: float
    slow_group_rates: List[float] = field(default_factory=list)
    min_groups_per_pipeline: int = 1
    max_groups_per_pipeline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_pipelines <= 0:
            raise ValueError("num_pipelines must be positive")
        if self.total_micro_batches <= 0:
            raise ValueError("total_micro_batches must be positive")
        if self.fast_group_count < 0:
            raise ValueError("fast_group_count must be non-negative")
        if self.fast_group_count and self.fast_group_rate <= 0:
            raise ValueError("fast_group_rate must be positive")
        if any(rate <= 0 for rate in self.slow_group_rates):
            raise ValueError("slow group rates must be positive")
        total_groups = self.fast_group_count + len(self.slow_group_rates)
        if total_groups < self.num_pipelines * self.min_groups_per_pipeline:
            raise ValueError(
                "not enough groups to populate every pipeline"
            )


@dataclass
class DivisionSolution:
    """Result of the pipeline-division problem.

    ``fast_groups[i]`` is the number of majority-rate groups in pipeline
    ``i``; ``slow_groups[i]`` lists the straggling rates of the slow groups
    assigned to pipeline ``i``; ``micro_batches[i]`` is ``m_i``.
    """

    fast_groups: List[int]
    slow_groups: List[List[float]]
    micro_batches: List[int]
    objective: float
    candidates_evaluated: int = 0
    used_fallback: bool = False
    #: Assignments skipped by the dp-aware bound (see
    #: :func:`division_candidate_bound`); 0 with pruning disabled.
    candidates_pruned: int = 0
    #: Refinement local searches skipped because the candidate's bound
    #: proved it cannot strictly beat the incumbent solution.
    refinements_pruned: int = 0

    def pipeline_speed(self, index: int, fast_rate: float) -> float:
        """Harmonic speed ``s_i`` of one pipeline."""
        speed = self.fast_groups[index] / fast_rate if fast_rate > 0 else 0.0
        speed += sum(1.0 / rate for rate in self.slow_groups[index])
        return speed


# ----------------------------------------------------------------------
# Fast-group water-filling for a fixed slow assignment
# ----------------------------------------------------------------------
def _waterfill_fast_groups(problem: DivisionProblem,
                           slow_assignment: Sequence[Sequence[float]],
                           base_speed: Optional[Sequence[float]] = None,
                           ) -> List[int]:
    """Distribute the fast groups so pipeline speeds are as equal as possible.

    Heap-based: each pipeline keeps exactly one ``(speed, count, index)``
    entry; placing a fast group pops the slowest pipeline and pushes its
    updated entry back, so the whole fill is ``O(fast * log dp)`` instead of
    the legacy ``O(fast * dp)`` rescan.  Tie-breaking ``(speed, count,
    index)`` matches the legacy kernel exactly, so both produce identical
    counts.

    ``base_speed`` optionally supplies the per-pipeline harmonic speeds of
    ``slow_assignment`` (each entry exactly ``sum(1.0 / r for r in
    slow_assignment[i])``); the local search maintains them incrementally
    instead of re-deriving all buckets on every candidate move.
    """
    dp = problem.num_pipelines
    fast = problem.fast_group_count
    fast_rate = problem.fast_group_rate
    if base_speed is None:
        base_speed = [sum(1.0 / r for r in slow_assignment[i])
                      for i in range(dp)]
    counts = [0] * dp

    # Honour the minimum group count first.
    for i in range(dp):
        need = problem.min_groups_per_pipeline - len(slow_assignment[i])
        if need > 0:
            counts[i] = need
    placed = sum(counts)
    if placed > fast:
        return []  # infeasible for this slow assignment
    remaining = fast - placed
    if remaining == 0:
        return counts

    cap = problem.max_groups_per_pipeline
    heap = [
        (base_speed[i] + counts[i] / fast_rate, counts[i], i)
        for i in range(dp)
    ]
    heapq.heapify(heap)
    for _ in range(remaining):
        # Pipelines at the group cap stay full forever (counts only grow),
        # so they are dropped from the heap permanently.
        while heap and cap is not None and \
                heap[0][1] + len(slow_assignment[heap[0][2]]) >= cap:
            heapq.heappop(heap)
        if not heap:
            return []
        _, count, idx = heapq.heappop(heap)
        count += 1
        counts[idx] = count
        heapq.heappush(heap, (base_speed[idx] + count / fast_rate, count, idx))
    return counts


#: Below this many fast groups the heap fill is already cheap and the
#: closed-form machinery would only add overhead.
_CLOSED_FORM_MIN_REMAINING = 64


def _waterfill_fast_groups_closed(problem: DivisionProblem,
                                  slow_assignment: Sequence[Sequence[float]],
                                  base_speed: Optional[Sequence[float]] = None,
                                  ) -> List[int]:
    """Closed-form water-filling, bit-identical to the heap kernel.

    The heap greedy takes the ``R`` smallest keys ``(base_i + t / y_hat,
    t, i)`` from the union of the per-pipeline key sequences (strictly
    increasing in ``t`` even on float plateaus, because the integer count
    is part of the tuple).  Instead of popping them one at a time — the
    single hottest loop of an 8k+-GPU plan — this kernel:

    1. estimates the relaxed water level ``L`` over the starting speeds
       (progressive k-active formula, floats, approximation is fine);
    2. bulk-claims a deliberate *under*-estimate ``e_i`` of each
       pipeline's share (4 groups of slack per pipeline);
    3. proves the claim sound: per pipeline, the largest claimed key
       must rank within the ``R`` smallest overall, counted exactly by
       per-pipeline binary search with the same float tuple comparisons
       the heap would perform.  A pipeline that fails the check forfeits
       its claim (``e_i = 0``) — correctness never rests on the
       estimate, only on this check;
    4. finishes the remaining steps with the original heap greedy,
       which by construction picks up exactly where the claimed prefix
       ends.

    Group caps fall back to the heap kernel (claimed prefixes are not
    downward-closed once pipelines drop out at their cap), as do small
    fills where the heap is already cheap.
    """
    dp = problem.num_pipelines
    fast = problem.fast_group_count
    fast_rate = problem.fast_group_rate
    if base_speed is None:
        base_speed = [sum(1.0 / r for r in slow_assignment[i])
                      for i in range(dp)]
    counts = [0] * dp
    for i in range(dp):
        need = problem.min_groups_per_pipeline - len(slow_assignment[i])
        if need > 0:
            counts[i] = need
    placed = sum(counts)
    if placed > fast:
        return []
    remaining = fast - placed
    if remaining == 0:
        return counts
    if problem.max_groups_per_pipeline is not None or \
            remaining < _CLOSED_FORM_MIN_REMAINING:
        return _waterfill_fast_groups(problem, slow_assignment, base_speed)

    # 1. Relaxed water level over the starting speeds.
    start_speeds = sorted(base_speed[i] + counts[i] / fast_rate
                          for i in range(dp))
    budget = remaining / fast_rate
    level = start_speeds[0] + budget
    prefix = 0.0
    for k in range(1, dp + 1):
        prefix += start_speeds[k - 1]
        level = (prefix + budget) / k
        if k < dp and level > start_speeds[k]:
            continue
        break

    # 2. Under-estimated bulk claim, clamped to the step budget.
    claims = [0] * dp
    for i in range(dp):
        est = math.floor((level - base_speed[i]) * fast_rate) - counts[i] - 4
        if est > 0:
            claims[i] = est
    total_claimed = sum(claims)
    while total_claimed > remaining:
        j = max(range(dp), key=lambda i: claims[i])
        give_back = min(claims[j], total_claimed - remaining)
        claims[j] -= give_back
        total_claimed -= give_back

    # 3. Soundness check: the largest claimed key of every pipeline must
    # rank within the R smallest keys of the union.  Keys are strictly
    # increasing per pipeline, so the rank is a sum of per-pipeline
    # boundary searches using the heap's exact float tuple order.  Each
    # search is seeded from the float estimate ``(key_speed - base_j) *
    # y_hat`` of the boundary and galloped outward with exact comparisons:
    # the estimate is off by at most a few units of float rounding, so the
    # gallop typically settles in 2-4 key evaluations instead of the ~12 a
    # blind binary search over ``remaining`` keys performs — and because
    # every probe uses the identical tuple comparison, the returned rank
    # is exact no matter how wrong the seed is.
    def rank_below(key_speed: float, key_count: int, key_idx: int) -> int:
        below = 0
        for j in range(dp):
            lo, hi = counts[j], counts[j] + remaining
            base_j = base_speed[j]
            est = int((key_speed - base_j) * fast_rate)
            if est < lo:
                est = lo
            elif est > hi:
                est = hi
            # Find the first k in [lo, hi) whose key is NOT below the
            # probe key; the predicate is monotone (true then false).
            cursor, step = est, 1
            if cursor < hi and \
                    (base_j + cursor / fast_rate, cursor, j) \
                    < (key_speed, key_count, key_idx):
                # Boundary is above the seed: gallop upward.
                lo = cursor + 1
                cursor += step
                while cursor < hi and \
                        (base_j + cursor / fast_rate, cursor, j) \
                        < (key_speed, key_count, key_idx):
                    lo = cursor + 1
                    step *= 2
                    cursor += step
                if cursor < hi:
                    hi = cursor
            else:
                # Boundary is at or below the seed: gallop downward.
                hi = cursor
                cursor -= step
                while cursor >= lo and not (
                        (base_j + cursor / fast_rate, cursor, j)
                        < (key_speed, key_count, key_idx)):
                    hi = cursor
                    step *= 2
                    cursor -= step
                if cursor >= lo:
                    lo = cursor + 1
            while lo < hi:
                mid = (lo + hi) // 2
                speed = base_j + mid / fast_rate
                if (speed, mid, j) < (key_speed, key_count, key_idx):
                    lo = mid + 1
                else:
                    hi = mid
            below += lo - counts[j]
            if below >= remaining:
                return below
        return below

    for i in range(dp):
        if claims[i] <= 0:
            continue
        top = counts[i] + claims[i] - 1
        if rank_below(base_speed[i] + top / fast_rate, top, i) > remaining - 1:
            total_claimed -= claims[i]
            claims[i] = 0

    for i in range(dp):
        counts[i] += claims[i]

    # 4. Heap greedy for the unclaimed tail (no caps on this path).
    tail = remaining - total_claimed
    if tail > 0:
        heap = [
            (base_speed[i] + counts[i] / fast_rate, counts[i], i)
            for i in range(dp)
        ]
        heapq.heapify(heap)
        for _ in range(tail):
            _, count, idx = heapq.heappop(heap)
            count += 1
            counts[idx] = count
            heapq.heappush(
                heap, (base_speed[idx] + count / fast_rate, count, idx)
            )
    return counts


def _waterfill_fast_groups_legacy(
        problem: DivisionProblem,
        slow_assignment: Sequence[Sequence[float]]) -> List[int]:
    """Pre-overhaul reference water-filling (O(fast * dp) rescans).

    Kept as the benchmark's "before" kernel and as the oracle for the
    heap-kernel equivalence tests.
    """
    dp = problem.num_pipelines
    fast = problem.fast_group_count
    fast_rate = problem.fast_group_rate
    base_speed = [sum(1.0 / r for r in slow_assignment[i]) for i in range(dp)]
    counts = [0] * dp

    for i in range(dp):
        need = problem.min_groups_per_pipeline - len(slow_assignment[i])
        if need > 0:
            counts[i] = need
    if sum(counts) > fast:
        return []
    remaining = fast - sum(counts)
    for _ in range(remaining):
        speeds = [base_speed[i] + counts[i] / fast_rate for i in range(dp)]
        idx = min(range(dp), key=lambda i: (speeds[i], counts[i]))
        if problem.max_groups_per_pipeline is not None:
            tried = sorted(range(dp), key=lambda i: (speeds[i], counts[i]))
            placed = False
            for candidate in tried:
                if counts[candidate] + len(slow_assignment[candidate]) \
                        < problem.max_groups_per_pipeline:
                    counts[candidate] += 1
                    placed = True
                    break
            if not placed:
                return []
        else:
            counts[idx] += 1
    return counts


def _evaluate(problem: DivisionProblem,
              slow_assignment: Sequence[Sequence[float]],
              fast_counts: Sequence[int],
              use_minmax_cache: bool = True,
              prune_above: Optional[float] = None) -> Tuple[float, List[int]]:
    """Objective value and micro-batch split for a full division.

    ``prune_above`` is handed to the min-max solver: when one feasibility
    probe proves the objective exceeds it, the result is ``inf`` instead
    of the exact value (see :func:`solve_minmax_assignment`).
    """
    dp = problem.num_pipelines
    speeds = []
    for i in range(dp):
        speed = 0.0
        if problem.fast_group_rate > 0:
            speed += fast_counts[i] / problem.fast_group_rate
        speed += sum(1.0 / r for r in slow_assignment[i])
        speeds.append(speed)
    if any(speed <= 0 for speed in speeds):
        return math.inf, [0] * dp
    weights = [1.0 / speed for speed in speeds]
    solution = solve_minmax_assignment(weights, problem.total_micro_batches,
                                       use_cache=use_minmax_cache,
                                       prune_above=prune_above)
    if not solution.feasible:
        return math.inf, [0] * dp
    return solution.objective, solution.values


def _largest_remainder_objective(speeds: Sequence[float], total: int) -> float:
    """``max_i m_i / s_i`` after a largest-remainder micro-batch split.

    Shared rounding kernel of :func:`_cheap_score`, the incremental
    :class:`_RemainderScorer` and :func:`repair_pipeline_division` — all
    three must rank candidates identically.
    """
    if any(speed <= 0 for speed in speeds):
        return math.inf
    total_speed = sum(speeds)
    shares = [total * s / total_speed for s in speeds]
    floors = [int(math.floor(share)) for share in shares]
    remainder = total - sum(floors)
    order = sorted(range(len(speeds)), key=lambda i: shares[i] - floors[i],
                   reverse=True)
    for i in order[:remainder]:
        floors[i] += 1
    return max(m / s for m, s in zip(floors, speeds))


def _cheap_score(problem: DivisionProblem,
                 slow_assignment: Sequence[Sequence[float]],
                 fast_counts: Sequence[int],
                 base_speed: Optional[Sequence[float]] = None) -> float:
    """Fast proxy for the division objective (largest-remainder rounding).

    Micro-batches are split proportionally to the pipeline speeds and rounded
    with the largest-remainder method; the returned value is the resulting
    ``max_i m_i / s_i``.  The exact min-max solver is only run on the
    top-scoring candidates.  ``base_speed`` plays the same role as in
    :func:`_waterfill_fast_groups`.
    """
    dp = problem.num_pipelines
    speeds = []
    for i in range(dp):
        speed = 0.0
        if problem.fast_group_rate > 0:
            speed += fast_counts[i] / problem.fast_group_rate
        if base_speed is not None:
            speed += base_speed[i]
        else:
            speed += sum(1.0 / r for r in slow_assignment[i])
        if speed <= 0:
            return math.inf
        speeds.append(speed)
    return _largest_remainder_objective(speeds, problem.total_micro_batches)


class _RemainderScorer:
    """Incrementally-updated largest-remainder score for the local search.

    Equivalent to :func:`_cheap_score` (same arithmetic, same rounding, same
    tie-breaking, verified by the kernel-equivalence tests) but built for the
    move/revert loop of :func:`_local_search_slow`:

    * workspaces are preallocated once instead of being rebuilt per move;
    * the per-pipeline speeds are refreshed from the caller's ``base_speed``
      and fast counts in place — no intermediate lists;
    * scoring accepts a ``threshold`` (the incumbent score) and aborts with
      ``inf`` as soon as the running maximum reaches it, which is sound
      because the local search only ever asks "does this move beat the
      incumbent?".
    """

    def __init__(self, problem: DivisionProblem):
        self.problem = problem
        dp = problem.num_pipelines
        self._speeds = [0.0] * dp
        self._shares = [0.0] * dp
        self._floors = [0] * dp

    def score(self, base_speed: Sequence[float], fast_counts: Sequence[int],
              threshold: float = math.inf) -> float:
        problem = self.problem
        dp = problem.num_pipelines
        fast_rate = problem.fast_group_rate
        speeds = self._speeds
        for i in range(dp):
            speed = 0.0
            if fast_rate > 0:
                speed += fast_counts[i] / fast_rate
            speed += base_speed[i]
            if speed <= 0:
                return math.inf
            speeds[i] = speed
        total = problem.total_micro_batches
        total_speed = sum(speeds)
        shares = self._shares
        floors = self._floors
        remainder = total
        for i in range(dp):
            share = total * speeds[i] / total_speed
            shares[i] = share
            f = int(math.floor(share))
            floors[i] = f
            remainder -= f
        if remainder:
            order = sorted(range(dp), key=lambda i: shares[i] - floors[i],
                           reverse=True)
            for i in order[:remainder]:
                floors[i] += 1
        worst = 0.0
        for i in range(dp):
            value = floors[i] / speeds[i]
            if value > worst:
                if value >= threshold:
                    return math.inf
                worst = value
        return worst


def _local_search_fast(problem: DivisionProblem,
                       slow_assignment: Sequence[Sequence[float]],
                       fast_counts: List[int],
                       use_minmax_cache: bool = True,
                       ) -> Tuple[float, List[int], List[int]]:
    """Improve the fast-group allocation by single-group moves.

    A move is kept only when its objective beats the incumbent by more
    than ``1e-12``, so every move's min-max solve is first probed at that
    threshold (``prune_above``): a failed probe proves every achievable
    objective exceeds it and skips the bisection.  The skipped move would
    have been rejected anyway, and pruned results are never cached, so
    the search takes exactly the moves a full solve of each would.
    """
    best_obj, best_mb = _evaluate(problem, slow_assignment, fast_counts,
                                  use_minmax_cache)
    best_counts = list(fast_counts)
    improved = True
    while improved:
        improved = False
        threshold = best_obj - 1e-12 if math.isfinite(best_obj) else None
        for src in range(problem.num_pipelines):
            for dst in range(problem.num_pipelines):
                if src == dst:
                    continue
                counts = list(best_counts)
                if counts[src] + len(slow_assignment[src]) - 1 \
                        < problem.min_groups_per_pipeline:
                    continue
                if counts[src] == 0:
                    continue
                if problem.max_groups_per_pipeline is not None and \
                        counts[dst] + len(slow_assignment[dst]) + 1 \
                        > problem.max_groups_per_pipeline:
                    continue
                counts[src] -= 1
                counts[dst] += 1
                obj, mb = _evaluate(problem, slow_assignment, counts,
                                    use_minmax_cache, threshold)
                if obj < best_obj - 1e-12:
                    best_obj, best_mb, best_counts = obj, mb, counts
                    threshold = best_obj - 1e-12
                    improved = True
    return best_obj, best_counts, best_mb


# ----------------------------------------------------------------------
# Slow-group assignment enumeration
# ----------------------------------------------------------------------
#: Search-node backstop of :func:`_enumerate_slow_assignments`.  The
#: symmetry reductions keep the tree close to the number of distinct
#: assignments, so any instance that genuinely needs this many nodes is
#: pathological and better served by the greedy + local-search fallback.
ENUMERATION_NODE_BUDGET = 500_000


def _enumerate_slow_assignments(rates: Sequence[float], dp: int,
                                limit: int) -> Tuple[List[List[List[float]]], bool]:
    """Enumerate symmetry-reduced assignments of slow groups to pipelines.

    Returns the list of assignments (each a per-pipeline list of rates) and a
    flag telling whether the enumeration was truncated (at ``limit``
    distinct assignments, or at the search-node budget).

    Two symmetry reductions keep the tree near the distinct-assignment
    count: at every node a rate is only placed into buckets whose current
    content differs, and **equal rates are placed in non-decreasing bucket
    order** — any assignment of identical rates can be reordered that way,
    so the canonical assignment set is unchanged while the factorial
    blowup on near-uniform rate multisets (e.g. a node-correlated slowdown
    degrading 16 GPUs identically) collapses.  Generated straggler regimes
    (:mod:`repro.cluster.scenarios`) hit exactly that pattern; the node
    budget is a backstop for adversarial distinct-rate instances.
    """
    assignments: List[List[List[float]]] = []
    seen = set()
    truncated = False
    nodes = 0
    rates = sorted(rates, reverse=True)

    def canonical(buckets: List[List[float]]) -> tuple:
        return tuple(sorted(tuple(sorted(b)) for b in buckets))

    def recurse(idx: int, buckets: List[List[float]],
                min_bucket: int) -> bool:
        nonlocal truncated, nodes
        nodes += 1
        if len(assignments) >= limit or nodes > ENUMERATION_NODE_BUDGET:
            truncated = True
            return False
        if idx == len(rates):
            key = canonical(buckets)
            if key not in seen:
                seen.add(key)
                assignments.append([list(b) for b in buckets])
            return True
        # Symmetry reduction: only place into buckets whose content differs,
        # or into the first empty bucket; a rate equal to its predecessor
        # never goes into an earlier bucket than the predecessor did.
        start = min_bucket if idx > 0 and rates[idx] == rates[idx - 1] else 0
        used_signatures = set()
        for b in range(start, dp):
            signature = tuple(sorted(buckets[b]))
            if signature in used_signatures:
                continue
            used_signatures.add(signature)
            buckets[b].append(rates[idx])
            if not recurse(idx + 1, buckets, b):
                buckets[b].pop()
                return False
            buckets[b].pop()
        return True

    recurse(0, [[] for _ in range(dp)], 0)
    return assignments, truncated


def _enumeration_must_truncate(rates: Sequence[float], dp: int,
                               limit: int) -> bool:
    """Whether :func:`_enumerate_slow_assignments` is certain to truncate.

    With ``c_i`` slow groups of the ``i``-th distinct rate there are
    ``prod_i comb(c_i + dp - 1, dp - 1)`` assignments to ``dp`` *labelled*
    pipelines, and each canonical (pipeline-order-free) assignment stands
    for at most ``dp!`` of them.  When the product exceeds ``limit *
    dp!`` there are more than ``limit`` canonical assignments; the walk
    reaches every one of them unless it stops early, so it must stop at
    ``limit`` and report ``truncated``.  Exact integer arithmetic.
    """
    labelled = 1
    for count in collections.Counter(rates).values():
        labelled *= math.comb(count + dp - 1, dp - 1)
    return labelled > limit * math.factorial(dp)


def _base_speed_vector(slow_assignment: Sequence[Sequence[float]],
                       kernels: str) -> List[float]:
    """Per-bucket harmonic speeds for the bound screens, bit-identical.

    The reference is ``[sum(1.0 / r for r in bucket) for bucket in
    slow_assignment]``.  On the numpy backend the reciprocals are taken
    in one elementwise pass (``np.reciprocal`` performs the identical
    IEEE division per element) and each bucket is still summed with
    python's sequential left-to-right ``sum`` — same values, same
    addition order, so the screens downstream prune exactly the same
    candidates as the python reference.
    """
    if np is not None and kernels == "numpy":
        flat = [r for bucket in slow_assignment for r in bucket]
        if len(flat) >= 64:
            inverse = np.reciprocal(
                np.asarray(flat, dtype=np.float64)).tolist()
            speeds: List[float] = []
            position = 0
            for bucket in slow_assignment:
                end = position + len(bucket)
                speeds.append(sum(inverse[position:end]))
                position = end
            return speeds
    return [sum(1.0 / r for r in bucket) for bucket in slow_assignment]


def _greedy_slow_assignment(rates: Sequence[float], dp: int) -> List[List[float]]:
    """LPT-style greedy: put each slow group on the pipeline with the least
    accumulated harmonic speed contribution (so slow groups spread out)."""
    buckets: List[List[float]] = [[] for _ in range(dp)]
    loads = [0.0] * dp
    for rate in sorted(rates, reverse=True):
        idx = min(range(dp), key=lambda i: (loads[i], len(buckets[i])))
        buckets[idx].append(rate)
        loads[idx] += 1.0 / rate
    return buckets


def _local_search_slow(problem: DivisionProblem,
                       slow_assignment: List[List[float]],
                       fast_counts: List[int],
                       waterfill=_waterfill_fast_groups) -> List[List[float]]:
    """Improve a slow-group assignment by single-group moves (cheap score).

    Moves are applied in place and reverted when they do not improve the
    score, avoiding the legacy kernel's full deep copy of every bucket per
    candidate move.  The per-bucket harmonic speeds are refreshed only for
    the two touched buckets (recomputed from the bucket contents, so they
    stay bit-identical to a from-scratch derivation), and candidate moves
    are scored with the incremental :class:`_RemainderScorer` (preallocated
    workspaces + incumbent-threshold early exit) instead of re-running
    :func:`_cheap_score` from scratch.
    """
    dp = problem.num_pipelines
    buckets = [list(b) for b in slow_assignment]
    base_speed = [sum(1.0 / r for r in b) for b in buckets]
    scorer = _RemainderScorer(problem)
    best = scorer.score(base_speed, fast_counts)
    improved = True
    while improved:
        improved = False
        for src in range(dp):
            for idx in range(len(buckets[src])):
                for dst in range(dp):
                    if dst == src:
                        continue
                    rate = buckets[src].pop(idx)
                    buckets[dst].append(rate)
                    old_src, old_dst = base_speed[src], base_speed[dst]
                    base_speed[src] = sum(1.0 / r for r in buckets[src])
                    base_speed[dst] = sum(1.0 / r for r in buckets[dst])
                    counts = waterfill(problem, buckets, base_speed)
                    feasible = bool(counts) or problem.fast_group_count == 0
                    if problem.fast_group_count == 0:
                        counts = [0] * dp
                    if feasible:
                        score = scorer.score(base_speed, counts,
                                             threshold=best)
                        if score < best - 1e-12:
                            best = score
                            improved = True
                            break  # keep the move
                    buckets[dst].pop()
                    buckets[src].insert(idx, rate)
                    base_speed[src], base_speed[dst] = old_src, old_dst
                if improved:
                    break
            if improved:
                break
    return buckets


def _local_search_slow_prefix(problem: DivisionProblem,
                              slow_assignment: List[List[float]],
                              fast_counts: List[int],
                              waterfill=_waterfill_fast_groups_closed,
                              ) -> List[List[float]]:
    """Array-world variant of :func:`_local_search_slow` (bit-identical).

    Two refinements over the in-place kernel, both provably exact:

    * the source bucket's harmonic speed after popping element ``idx`` is
      resumed from a per-bucket prefix-sum array — the float chain
      ``((0 + a_0) + a_1) + ...`` restarted at ``prefix[idx]`` performs
      the identical sequence of additions as the reference's full
      re-derivation, and is computed once per ``(src, idx)`` instead of
      once per ``(src, idx, dst)``;
    * the destination bucket appends at the end, so its new speed is the
      single addition ``old + 1/rate`` — the same last step the reference
      chain would perform, given the invariant that ``base_speed`` always
      holds the sequential sum of its bucket.

    Water-filling results are memoised on ``(base_speed, bucket lengths)``
    for the duration of the search: the fill reads the buckets only
    through those two vectors (the problem instance is fixed), so a cache
    hit returns the exact list a fresh call would — and after the first
    sweep almost every candidate move re-visits a state the previous
    sweep already filled.

    PR 10 shaves the two remaining scalar tails the 64k profile blamed,
    both exactness-preserving: the per-element reciprocals are hoisted
    out of the O(n²) suffix-resume loop (``1.0 / r`` is a single IEEE
    division either way — precomputing it changes no value and no
    addition order), and the memo key's bucket-length tuple is
    maintained incrementally across the pop/append/revert of each probe
    instead of being re-derived per candidate move.
    """
    dp = problem.num_pipelines
    buckets = [list(b) for b in slow_assignment]
    base_speed = [sum(1.0 / r for r in b) for b in buckets]
    lengths = [len(b) for b in buckets]
    scorer = _RemainderScorer(problem)
    best = scorer.score(base_speed, fast_counts)
    fill_memo: Dict[Tuple[Tuple[float, ...], Tuple[int, ...]], List[int]] = {}

    def memo_waterfill() -> List[int]:
        key = (tuple(base_speed), tuple(lengths))
        counts = fill_memo.get(key)
        if counts is None:
            counts = waterfill(problem, buckets, base_speed)
            fill_memo[key] = counts
        return counts

    improved = True
    while improved:
        improved = False
        for src in range(dp):
            bucket_src = buckets[src]
            inverse = [1.0 / r for r in bucket_src]
            prefix = [0.0]
            for inv in inverse:
                prefix.append(prefix[-1] + inv)
            for idx in range(len(bucket_src)):
                popped_speed = prefix[idx]
                for k in range(idx + 1, len(bucket_src)):
                    popped_speed += inverse[k]
                for dst in range(dp):
                    if dst == src:
                        continue
                    rate = bucket_src.pop(idx)
                    buckets[dst].append(rate)
                    old_src, old_dst = base_speed[src], base_speed[dst]
                    base_speed[src] = popped_speed
                    base_speed[dst] = old_dst + inverse[idx]
                    lengths[src] -= 1
                    lengths[dst] += 1
                    counts = memo_waterfill()
                    feasible = bool(counts) or problem.fast_group_count == 0
                    if problem.fast_group_count == 0:
                        counts = [0] * dp
                    if feasible:
                        score = scorer.score(base_speed, counts,
                                             threshold=best)
                        if score < best - 1e-12:
                            best = score
                            improved = True
                            break  # keep the move
                    buckets[dst].pop()
                    bucket_src.insert(idx, rate)
                    base_speed[src], base_speed[dst] = old_src, old_dst
                    lengths[src] += 1
                    lengths[dst] -= 1
                if improved:
                    break
            if improved:
                break
    return buckets


def _local_search_slow_legacy(problem: DivisionProblem,
                              slow_assignment: List[List[float]],
                              fast_counts: List[int]) -> List[List[float]]:
    """Pre-overhaul reference local search (deep-copies buckets per move)."""
    dp = problem.num_pipelines
    buckets = [list(b) for b in slow_assignment]
    best = _cheap_score(problem, buckets, fast_counts)
    improved = True
    while improved:
        improved = False
        for src in range(dp):
            for idx in range(len(buckets[src])):
                rate = buckets[src][idx]
                for dst in range(dp):
                    if dst == src:
                        continue
                    candidate = [list(b) for b in buckets]
                    candidate[src].pop(idx)
                    candidate[dst].append(rate)
                    counts = _waterfill_fast_groups_legacy(problem, candidate)
                    if not counts and problem.fast_group_count > 0:
                        continue
                    if problem.fast_group_count == 0:
                        counts = [0] * dp
                    score = _cheap_score(problem, candidate, counts)
                    if score < best - 1e-12:
                        buckets, best = candidate, score
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return buckets


def total_harmonic_speed(problem: DivisionProblem) -> float:
    """Total harmonic speed ``sum_i s_i`` of a division problem.

    Independent of the division itself: every group contributes ``1/rate``
    no matter which pipeline it lands in.
    """
    speed = 0.0
    if problem.fast_group_count and problem.fast_group_rate > 0:
        speed += problem.fast_group_count / problem.fast_group_rate
    speed += sum(1.0 / rate for rate in problem.slow_group_rates)
    return speed


def division_lower_bound(problem: DivisionProblem) -> float:
    """Provably-sound lower bound on the division objective.

    For any division, ``M = sum_i m_i <= max_i (m_i / s_i) * sum_i s_i``,
    hence ``max_i m_i / s_i >= M / sum_i s_i``.  This is the same bound the
    planner applies through
    :func:`repro.core.assignment.candidate_step_time_bound`, stated on the
    abstract division problem so the pruning soundness tests can check it
    directly against :func:`brute_force_division`.
    """
    speed = total_harmonic_speed(problem)
    if speed <= 0:
        return math.inf
    return problem.total_micro_batches / speed


def division_candidate_bound(problem: DivisionProblem,
                             base_speed: Sequence[float]) -> float:
    """dp-aware lower bound for one slow-group assignment.

    ``base_speed[i]`` is the harmonic speed of the slow groups already
    placed in pipeline ``i``.  Two sound terms, mirroring the planner's
    dp-aware :func:`repro.core.assignment.candidate_step_time_bound`:

    * the assignment-independent ``M / sum_i s_i`` (fast groups contribute
      the same total speed wherever they land);
    * the dp-aware sharpening: some pipeline processes ``m >= ceil(M /
      dp)`` micro-batches, and no pipeline can be faster than its slow
      base plus *all* fast groups, so ``max_i m_i / s_i >= ceil(M / dp) /
      (max_i base_i + F / y_fast)``.

    Both are true for every fast-group water-filling and every integral
    micro-batch split of this assignment, so an assignment whose bound
    cannot reach the current top-``k`` cheap scores can be skipped without
    changing the refined candidate set (see :func:`solve_pipeline_division`).
    """
    bound = division_lower_bound(problem)
    fast_speed = 0.0
    if problem.fast_group_count and problem.fast_group_rate > 0:
        fast_speed = problem.fast_group_count / problem.fast_group_rate
    cap = max(base_speed) + fast_speed if base_speed else fast_speed
    if cap > 0:
        m_max = -(-problem.total_micro_batches // problem.num_pipelines)
        dp_term = m_max / cap
        if dp_term > bound:
            bound = dp_term
    return bound


def _matches_problem(problem: DivisionProblem,
                     assignment: Sequence[Sequence[float]]) -> bool:
    """Whether a warm-start slow assignment is structurally compatible."""
    if len(assignment) != problem.num_pipelines:
        return False
    seeded = sorted(rate for bucket in assignment for rate in bucket)
    return seeded == sorted(problem.slow_group_rates)


def solve_pipeline_division(problem: DivisionProblem,
                            enumeration_limit: int = 2000,
                            refine_top_k: int = 4,
                            legacy_kernels: bool = False,
                            use_minmax_cache: bool = True,
                            warm_start: Optional[Sequence[Sequence[float]]]
                            = None,
                            enable_bound_pruning: bool = True,
                            kernels: str = "python",
                            ) -> DivisionSolution:
    """Timing wrapper around :func:`_solve_pipeline_division`.

    Charges the solve's wall time to the ``division`` bucket of
    :mod:`repro.core.kernel_timing`, minus whatever the nested min-max
    solves already charged to ``minmax`` — the per-kernel breakdown stays
    additive.  See the wrapped function for the solver documentation.
    """
    start = time.perf_counter()
    nested = kernel_timing.peek("minmax")
    try:
        return _solve_pipeline_division(
            problem, enumeration_limit, refine_top_k, legacy_kernels,
            use_minmax_cache, warm_start, enable_bound_pruning, kernels,
        )
    finally:
        elapsed = time.perf_counter() - start
        nested = kernel_timing.peek("minmax") - nested
        kernel_timing.add("division", max(0.0, elapsed - nested))


def _solve_pipeline_division(problem: DivisionProblem,
                             enumeration_limit: int = 2000,
                             refine_top_k: int = 4,
                             legacy_kernels: bool = False,
                             use_minmax_cache: bool = True,
                             warm_start: Optional[Sequence[Sequence[float]]]
                             = None,
                             enable_bound_pruning: bool = True,
                             kernels: str = "python",
                             ) -> DivisionSolution:
    """Solve the pipeline-division MINLP.

    The solver enumerates symmetry-reduced slow-group assignments (falling
    back to a greedy assignment plus local search when there are too many;
    a walk that provably cannot finish under ``enumeration_limit`` — see
    :func:`_enumeration_must_truncate` — is not started at all, since its
    truncated list would be discarded for the fallback),
    scores every candidate cheaply by harmonic water-filling of the fast
    groups, and refines the ``refine_top_k`` best candidates with a local
    search that moves individual fast groups between pipelines; micro-batches
    are assigned by the exact min-max solver throughout.

    ``enable_bound_pruning`` screens every enumerated assignment with the
    dp-aware :func:`division_candidate_bound` before any water-filling:
    once ``refine_top_k`` assignments have been cheap-scored, an assignment
    whose bound exceeds the ``k``-th best cheap score so far is skipped.
    The bound is a true lower bound on the assignment's cheap score, and
    the cheap-score top-``k`` so far only tightens, so the skip provably
    never changes which assignments reach the refinement pass.  The same
    bound also short-circuits the refinement pass itself: a top-``k``
    candidate whose bound cannot *strictly* beat the incumbent refined
    objective skips its local search outright (this is where the bound
    fires most — as soon as one refinement reaches the provable optimum,
    the remaining ones are skipped).  The returned solution is identical
    with pruning on or off (the equivalence suite asserts it).  Disabled
    automatically with ``legacy_kernels``.

    ``warm_start`` optionally seeds a previous solution's slow-group buckets
    (one list of rates per pipeline).  When the seed still matches the
    problem (same pipeline count, same slow-rate multiset) it replaces the
    greedy starting point of the fallback local search and joins the scored
    candidate pool, so re-planning after a small rate shift starts from the
    incumbent division instead of from scratch; an incompatible seed is
    ignored.

    ``legacy_kernels=True`` selects the pre-overhaul reference kernels
    (rescanning water-filling, deep-copy local search, uncached min-max
    solves); the hot-path benchmark uses it as the "before" configuration.

    ``kernels`` is the planner-wide backend knob.  ``"numpy"`` selects the
    array-world kernels: the closed-form water-filling
    (:func:`_waterfill_fast_groups_closed` — the division solver's win is
    replacing the heap's one-group-at-a-time loop with a proven bulk
    claim; the per-pipeline speed vectors stay python lists because
    ``dp <= 8``) and the prefix-sum local search.  Both are bit-identical
    to the python reference kernels.  ``"legacy"`` is equivalent to
    ``legacy_kernels=True``.
    """
    dp = problem.num_pipelines
    if kernels == "legacy":
        legacy_kernels = True
    if legacy_kernels:
        waterfill = _waterfill_fast_groups_legacy
        use_minmax_cache = False
    elif kernels == "numpy":
        waterfill = _waterfill_fast_groups_closed
    else:
        waterfill = _waterfill_fast_groups
    if warm_start is not None and not _matches_problem(problem, warm_start):
        warm_start = None
    if len(problem.slow_group_rates) > 24 or _enumeration_must_truncate(
            problem.slow_group_rates, dp, enumeration_limit):
        # At cluster scales with dozens of slow groups even the truncated
        # enumeration spends most of its time walking the search tree; the
        # greedy + local-search fallback is both faster and equally good
        # there (the groups are dominated by a handful of distinct rates).
        # A walk that is certain to truncate is skipped too: its list
        # would be thrown away for the fallback anyway.
        assignments, truncated = [], True
    else:
        assignments, truncated = _enumerate_slow_assignments(
            problem.slow_group_rates, dp, enumeration_limit
        )
    used_fallback = False
    if truncated:
        if warm_start is not None:
            greedy: List[List[float]] = [list(b) for b in warm_start]
        else:
            greedy = _greedy_slow_assignment(problem.slow_group_rates, dp)
        counts = waterfill(problem, greedy)
        if counts or problem.fast_group_count == 0:
            if legacy_kernels:
                greedy = _local_search_slow_legacy(
                    problem, greedy, counts or [0] * dp
                )
            elif kernels == "numpy":
                greedy = _local_search_slow_prefix(
                    problem, greedy, counts or [0] * dp, waterfill=waterfill
                )
            else:
                greedy = _local_search_slow(
                    problem, greedy, counts or [0] * dp, waterfill=waterfill
                )
        assignments = [greedy]
        used_fallback = True
    elif warm_start is not None:
        assignments = [[list(b) for b in warm_start]] + assignments

    # First pass: cheap evaluation (water-filling only) of every candidate.
    # The dp-aware bound screens assignments against the k-th best cheap
    # score so far; skipped assignments provably never reach the top-k.
    scored = []
    evaluated = 0
    pruned = 0
    prune_bounds = enable_bound_pruning and not legacy_kernels
    top_k = max(1, refine_top_k)
    worst_of_best: List[float] = []  # max-heap (negated) of the best scores
    for slow_assignment in assignments:
        base_speed = None
        if prune_bounds:
            base_speed = _base_speed_vector(slow_assignment, kernels)
            if len(worst_of_best) >= top_k and \
                    division_candidate_bound(problem, base_speed) \
                    > -worst_of_best[0] + 1e-9:
                pruned += 1
                continue
        if base_speed is not None:
            fast_counts = waterfill(problem, slow_assignment, base_speed)
        else:
            fast_counts = waterfill(problem, slow_assignment)
        if not fast_counts and problem.fast_group_count > 0:
            continue
        if problem.fast_group_count == 0:
            fast_counts = [0] * dp
            if any(len(b) < problem.min_groups_per_pipeline for b in slow_assignment):
                continue
        obj = _cheap_score(problem, slow_assignment, fast_counts,
                           base_speed=base_speed)
        evaluated += 1
        if math.isinf(obj):
            continue
        scored.append((obj, slow_assignment, list(fast_counts)))
        if prune_bounds:
            if len(worst_of_best) < top_k:
                heapq.heappush(worst_of_best, -obj)
            elif obj < -worst_of_best[0]:
                heapq.heapreplace(worst_of_best, -obj)

    # Second pass: refine only the most promising candidates with local search
    # (moving individual fast groups between pipelines).  The dp-aware bound
    # prunes here too: once the incumbent's objective reaches a candidate's
    # bound, no configuration of that candidate can *strictly* beat it (the
    # bound covers every fast split and every micro-batch split), so its
    # local search is skipped without changing the returned solution.
    scored.sort(key=lambda item: item[0])
    best: Optional[DivisionSolution] = None
    refinements_pruned = 0
    for _, slow_assignment, fast_counts in scored[:refine_top_k]:
        if prune_bounds and best is not None:
            base_speed = _base_speed_vector(slow_assignment, kernels)
            if division_candidate_bound(problem, base_speed) \
                    > best.objective - 1e-12:
                refinements_pruned += 1
                continue
        obj, fast_counts, micro_batches = _local_search_fast(
            problem, slow_assignment, fast_counts, use_minmax_cache
        )
        if math.isinf(obj):
            continue
        if best is None or obj < best.objective - 1e-12:
            best = DivisionSolution(
                fast_groups=list(fast_counts),
                slow_groups=[list(b) for b in slow_assignment],
                micro_batches=list(micro_batches),
                objective=obj,
                candidates_evaluated=evaluated,
                used_fallback=used_fallback,
            )
    if best is None:
        raise ValueError("pipeline division is infeasible for the given problem")
    best.candidates_evaluated = evaluated
    best.candidates_pruned = pruned
    best.refinements_pruned = refinements_pruned
    return best


@dataclass
class PartialDivisionSolution:
    """Result of a per-pipeline partial re-solve.

    ``placements[i]`` lists the pool-group rates placed into pipeline ``i``
    (always empty for untouched pipelines); ``micro_batches`` is the exact
    min-max split over *all* pipelines and ``objective`` its value.
    """

    placements: List[List[float]]
    micro_batches: List[int]
    objective: float
    feasible: bool = True


def repair_pipeline_division(
    kept_speeds: Sequence[float],
    pool_rates: Sequence[float],
    touched: Sequence[int],
    total_micro_batches: int,
    use_minmax_cache: bool = True,
) -> PartialDivisionSolution:
    """Timing wrapper around :func:`_repair_pipeline_division` (see there)."""
    start = time.perf_counter()
    nested = kernel_timing.peek("minmax")
    try:
        return _repair_pipeline_division(
            kept_speeds, pool_rates, touched, total_micro_batches,
            use_minmax_cache,
        )
    finally:
        elapsed = time.perf_counter() - start
        nested = kernel_timing.peek("minmax") - nested
        kernel_timing.add("division", max(0.0, elapsed - nested))


def _repair_pipeline_division(
    kept_speeds: Sequence[float],
    pool_rates: Sequence[float],
    touched: Sequence[int],
    total_micro_batches: int,
    use_minmax_cache: bool = True,
) -> PartialDivisionSolution:
    """Re-solve the division for a handful of touched pipelines only.

    Incremental re-planning keeps most of the incumbent division: only the
    groups of re-grouped nodes (the ``pool``) need a new home, and only the
    ``touched`` pipelines (the ones that previously hosted those nodes'
    groups) may receive them.  ``kept_speeds[i]`` is the harmonic speed of
    the groups pipeline ``i`` keeps in place.

    The placement uses the same machinery as the full solver restricted to
    the touched pipelines — LPT greedy seeding, single-group local search
    scored by largest-remainder rounding — followed by one exact min-max
    micro-batch solve over all pipelines.  The result is a repair, not a
    proof of optimality; the caller (the replan engine) validates it against
    its epsilon budget and falls back to the full planner when it is not
    good enough.
    """
    dp = len(kept_speeds)
    touched = [i for i in touched if 0 <= i < dp]
    placements: List[List[float]] = [[] for _ in range(dp)]
    speeds = [float(s) for s in kept_speeds]
    if pool_rates and not touched:
        return PartialDivisionSolution(
            placements=placements, micro_batches=[0] * dp,
            objective=math.inf, feasible=False,
        )

    # LPT greedy: slowest pool groups first, each onto the currently
    # slowest touched pipeline (mirrors _greedy_slow_assignment).
    for rate in sorted(pool_rates, reverse=True):
        idx = min(touched, key=lambda i: (speeds[i], len(placements[i])))
        placements[idx].append(rate)
        speeds[idx] += 1.0 / rate

    # Single-group moves between touched pipelines, largest-remainder score.
    if len(touched) > 1:
        best = _largest_remainder_objective(speeds, total_micro_batches)
        improved = True
        while improved:
            improved = False
            for src in touched:
                for idx in range(len(placements[src])):
                    for dst in touched:
                        if dst == src:
                            continue
                        rate = placements[src].pop(idx)
                        placements[dst].append(rate)
                        speeds[src] -= 1.0 / rate
                        speeds[dst] += 1.0 / rate
                        score = _largest_remainder_objective(
                            speeds, total_micro_batches
                        )
                        if score < best - 1e-12:
                            best = score
                            improved = True
                            break
                        placements[dst].pop()
                        placements[src].insert(idx, rate)
                        speeds[src] += 1.0 / rate
                        speeds[dst] -= 1.0 / rate
                    if improved:
                        break
                if improved:
                    break

    if any(speed <= 0 for speed in speeds):
        return PartialDivisionSolution(
            placements=placements, micro_batches=[0] * dp,
            objective=math.inf, feasible=False,
        )
    weights = [1.0 / speed for speed in speeds]
    solution = solve_minmax_assignment(weights, total_micro_batches,
                                       use_cache=use_minmax_cache)
    if not solution.feasible:
        return PartialDivisionSolution(
            placements=placements, micro_batches=[0] * dp,
            objective=math.inf, feasible=False,
        )
    return PartialDivisionSolution(
        placements=placements,
        micro_batches=list(solution.values),
        objective=solution.objective,
    )


def brute_force_division(problem: DivisionProblem) -> float:
    """Reference exhaustive solver for tiny instances (used in tests)."""
    dp = problem.num_pipelines
    best = math.inf
    slow = problem.slow_group_rates
    fast = problem.fast_group_count

    fast_splits = [
        split for split in itertools.product(range(fast + 1), repeat=dp)
        if sum(split) == fast
    ]
    slow_assignments = list(itertools.product(range(dp), repeat=len(slow)))
    for slow_choice in slow_assignments:
        buckets: List[List[float]] = [[] for _ in range(dp)]
        for rate, pipeline in zip(slow, slow_choice):
            buckets[pipeline].append(rate)
        for split in fast_splits:
            if any(split[i] + len(buckets[i]) < problem.min_groups_per_pipeline
                   for i in range(dp)):
                continue
            if problem.max_groups_per_pipeline is not None and any(
                    split[i] + len(buckets[i]) > problem.max_groups_per_pipeline
                    for i in range(dp)):
                continue
            obj, _ = _evaluate(problem, buckets, list(split))
            best = min(best, obj)
    return best
