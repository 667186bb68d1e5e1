"""Straggler modelling: injection levels, straggling rates and cluster state.

The paper simulates stragglers by launching 1, 2, 3 (and in the ablation, 8)
extra compute processes on a GPU, referred to as level-1/2/3/8 stragglers.
The planner only ever consumes the resulting *straggling rate* ``x >= 1``
(how much slower the GPU is compared to a healthy one, Table 1), so we map
injection levels to the rates reported in the paper's case studies:

* level-1  -> ~2.6   (Table 4 reports 2.57-2.62)
* level-2  -> ~3.8   (Table 4 reports 3.75-3.8)
* level-3  -> ~5.42  (Table 4 / Figure 9)
* level-8  -> ~12.53 (Figure 9)

A failed GPU is modelled as an infinite straggling rate, exactly as §8 of
the paper suggests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from .topology import Cluster

NORMAL_RATE = 1.0
FAILED_RATE = math.inf

#: Calibrated mapping from "number of extra compute processes" to the
#: observed straggling rate, taken from the paper's case studies.
LEVEL_TO_RATE: Dict[int, float] = {
    0: 1.0,
    1: 2.6,
    2: 3.8,
    3: 5.42,
    8: 12.53,
}


def rate_for_level(level: int) -> float:
    """Straggling rate for an injection level (extra compute processes).

    Levels present in the calibration table are returned exactly; other
    levels are interpolated/extrapolated linearly (one extra process adds
    roughly 1.44x of a healthy GPU's work).
    """
    if level < 0:
        raise ValueError("straggler level must be non-negative")
    if level in LEVEL_TO_RATE:
        return LEVEL_TO_RATE[level]
    return 1.0 + 1.44 * level


def _check_rate(gpu_id: int, rate: float) -> None:
    """Reject a rate below 1 — or NaN, which compares false both ways."""
    if not rate >= 1.0:
        raise ValueError(
            f"gpu {gpu_id}: straggling rates must be >= 1, got {rate}")


@dataclass
class StragglerSpec:
    """A straggler to inject: which GPU, and either a level or a raw rate."""

    gpu_id: int
    level: Optional[int] = None
    rate: Optional[float] = None

    def resolved_rate(self) -> float:
        """The straggling rate implied by this spec."""
        if self.rate is not None:
            _check_rate(self.gpu_id, self.rate)
            return self.rate
        if self.level is None:
            raise ValueError("either level or rate must be given")
        return rate_for_level(self.level)


@dataclass
class ClusterState:
    """The dynamic straggling state of every GPU in a cluster.

    This is what the profiler reports and what the planner consumes: a
    mapping from GPU id to straggling rate.  Healthy GPUs have rate 1.0,
    failed GPUs have rate ``inf``.
    """

    cluster: Cluster
    rates: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        full = {gpu_id: NORMAL_RATE for gpu_id in self.cluster.gpu_ids()}
        for gpu_id, rate in self.rates.items():
            if gpu_id not in full:
                raise KeyError(f"gpu id {gpu_id} not in cluster")
            _check_rate(gpu_id, rate)
            full[gpu_id] = float(rate)
        self.rates = full

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_rate(self, gpu_id: int, rate: float) -> None:
        """Set the straggling rate of one GPU."""
        if gpu_id not in self.rates:
            raise KeyError(f"gpu id {gpu_id} not in cluster")
        _check_rate(gpu_id, rate)
        self.rates[gpu_id] = float(rate)

    def set_level(self, gpu_id: int, level: int) -> None:
        """Set a GPU's straggling rate from an injection level."""
        self.set_rate(gpu_id, rate_for_level(level))

    def clear(self, gpu_id: Optional[int] = None) -> None:
        """Reset one GPU (or all GPUs) back to healthy."""
        if gpu_id is None:
            for key in self.rates:
                self.rates[key] = NORMAL_RATE
        else:
            self.set_rate(gpu_id, NORMAL_RATE)

    def fail(self, gpu_id: int) -> None:
        """Mark a GPU as failed (infinite straggling rate)."""
        if gpu_id not in self.rates:
            raise KeyError(f"gpu id {gpu_id} not in cluster")
        self.rates[gpu_id] = FAILED_RATE

    def apply(self, specs: Iterable[StragglerSpec], reset: bool = True) -> None:
        """Apply a collection of straggler specs (optionally from scratch)."""
        if reset:
            self.clear()
        for spec in specs:
            self.set_rate(spec.gpu_id, spec.resolved_rate())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rate(self, gpu_id: int) -> float:
        """Straggling rate of one GPU."""
        return self.rates[gpu_id]

    def rate_map(self) -> Dict[int, float]:
        """Copy of the full gpu-id -> rate mapping."""
        return dict(self.rates)

    def stragglers(self, threshold: float = 1.05) -> Dict[int, float]:
        """GPUs whose rate exceeds ``threshold`` (default: 5% slower)."""
        return {g: r for g, r in self.rates.items() if r > threshold}

    def failed(self) -> List[int]:
        """Ids of failed GPUs."""
        return [g for g, r in self.rates.items() if math.isinf(r)]

    def healthy(self, threshold: float = 1.05) -> List[int]:
        """Ids of GPUs that are not stragglers."""
        return [g for g, r in self.rates.items() if r <= threshold]

    def node_rates(self, node_id: int) -> List[float]:
        """Straggling rates of the GPUs on one node, in local-rank order."""
        node = next(n for n in self.cluster.nodes if n.node_id == node_id)
        return [self.rates[g.gpu_id] for g in node.gpus]

    def copy(self) -> "ClusterState":
        """Deep copy of this state."""
        return ClusterState(cluster=self.cluster, rates=dict(self.rates))

    def max_relative_change(self, other: "ClusterState") -> float:
        """Largest relative per-GPU rate change compared with ``other``.

        The profiler triggers re-planning when this exceeds 5% between two
        consecutive iterations (§3.2).
        """
        worst = 0.0
        for gpu_id, rate in self.rates.items():
            old = other.rates.get(gpu_id, NORMAL_RATE)
            if math.isinf(rate) or math.isinf(old):
                if rate != old:
                    return math.inf
                continue
            base = max(old, 1.0)
            worst = max(worst, abs(rate - old) / base)
        return worst

    def theoretic_speedup_denominator(self) -> float:
        """``(N - n) + sum(1/x_i)`` used by the theoretic-optimum formula."""
        total = 0.0
        for rate in self.rates.values():
            if math.isinf(rate):
                continue
            total += 1.0 / rate if rate > 1.0 else 1.0
        return total


def state_from_levels(cluster: Cluster, levels: Mapping[int, int]) -> ClusterState:
    """Build a :class:`ClusterState` from a gpu-id -> level mapping."""
    state = ClusterState(cluster=cluster)
    for gpu_id, level in levels.items():
        state.set_level(gpu_id, level)
    return state


def state_from_rates(cluster: Cluster, rates: Mapping[int, float]) -> ClusterState:
    """Build a :class:`ClusterState` from a gpu-id -> rate mapping."""
    return ClusterState(cluster=cluster, rates=dict(rates))
