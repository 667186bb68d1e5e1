"""Profiled cost model for training time and memory (§4.2, Appendix B.4).

The Malleus planner never runs the model; it consumes a handful of profiled
coefficients:

* ``tau(b)`` — forward+backward time of one transformer layer for a
  micro-batch of ``b`` sequences on a *reference* (TP degree 1, straggling
  rate 1) group;
* ``rho(n)`` — efficiency-degradation coefficient of an ``n``-GPU TP group,
  ``rho_n = zeta_n / max_n' zeta_n'`` (so ``rho_1 = 1`` and larger groups
  get smaller coefficients);
* group straggling rate ``y = rho_n * max(x_k)``;
* memory coefficients ``mu_{i,j}(b)``, ``nu_{i,j}(b)`` and capacities
  ``C_{i,j}`` that bound the layers a stage can host.

In the real system these coefficients are profiled on hardware; here they
are derived analytically from the model architecture and the cluster
description, with a single calibration knob (``compute_efficiency``) that
plays the role of achieved-vs-peak FLOPs.

Caching
-------
The planner evaluates the same coefficients for thousands of candidates per
:meth:`repro.core.planner.MalleusPlanner.plan` call (every micro-batch size,
DP degree and stage ordering re-derives ``mu``/``nu``/``max_layers_for_stage``
for the same ``(pp, stage, b, dp)`` keys).  All coefficient kernels are
therefore memoized:

* ``zeta`` / ``tau`` — keyed on ``(tp_degree, micro_batch_size)``;
* ``rho``'s reference maximum — keyed on ``(candidate_sizes, b)``;
* ``mu`` / ``nu`` — keyed on ``(pp, stage, b, dp)``;
* ``group_capacity`` — keyed on the frozen GPU-id tuple;
* ``max_layers_for_stage`` — keyed on ``(gpu_ids, pp, stage, b, dp)``.

The caches only depend on the model, the cluster and the calibration config
— never on the straggling rates — so they stay valid across re-planning
calls.  If the config, model or cluster is mutated in place, call
:meth:`MalleusCostModel.invalidate_caches`.  ``cache_stats()`` reports
per-cache sizes and hit/miss counters; constructing the model with
``enable_caching=False`` disables every memo (used by the cache-equivalence
tests and the hot-path benchmark's legacy mode).

Worker handoff
--------------
Cost-model instances are plain data (model spec, cluster description,
config dataclass and dict-based memos), so they **pickle** — including the
warm coefficient caches.  The sweep engine's process backend relies on
this: each pool worker is initialised with the parent's cost model (warm
caches ride along for free under ``fork``), and every batch carries
:meth:`config_fingerprint` so a worker detects in-place calibration edits
and self-heals exactly like :meth:`refresh_if_config_changed` does in the
parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..cluster.topology import GIB, Cluster
from ..compat import np, require_numpy
from ..models.spec import TransformerModelSpec

#: Reserved memory gap for NCCL / CUDA contexts (Appendix B.4 uses 4096 MiB).
DEFAULT_RESERVED_MEMORY = 4.0 * GIB

#: Valid values of the ``kernels`` knob on the cost model / planner.
KERNEL_BACKENDS = ("python", "numpy", "legacy")


class RateArray:
    """Array view of a ``{gpu_id: straggling_rate}`` map.

    The vectorized kernels index GPUs by *position* in a stable sorted
    id order rather than by dict key.  One ``RateArray`` is built per
    planning episode (the id set is fixed within an episode, only the
    values move), so the sorted-id index and the id→position map are
    computed once and shared by every kernel invocation.

    ``ids`` is an int64 ndarray of GPU ids in ascending order; ``values``
    is the matching float64 ndarray of straggling rates.  ``position``
    maps a GPU id back to its row.  The float values are bit-identical
    to the source dict's — no rounding or normalisation happens here.

    ``gather_cache`` memoizes the member-position/offset arrays the
    batched group-rate kernel gathers with, keyed by the identity tuple
    of a group sequence (:class:`~repro.parallel.plan.TPGroup` is frozen,
    and each entry pins a strong reference to its groups so the ids stay
    valid).  It dies with the ``RateArray`` — i.e. whenever the episode's
    GPU-id set changes — and positions are value-refresh-invariant, so a
    hit is exactly the recomputation.
    """

    __slots__ = ("ids", "values", "position", "gather_cache")

    def __init__(self, ids, values, position: Dict[int, int]):
        self.ids = ids
        self.values = values
        self.position = position
        self.gather_cache: Dict[tuple, tuple] = {}

    @classmethod
    def from_rates(cls, rates: Mapping[int, float]) -> "RateArray":
        xp = require_numpy("RateArray")
        ordered = sorted(rates)
        ids = xp.asarray(ordered, dtype=xp.int64)
        values = xp.asarray([rates[g] for g in ordered], dtype=xp.float64)
        position = {g: i for i, g in enumerate(ordered)}
        return cls(ids, values, position)

    def __len__(self) -> int:
        return len(self.position)


@dataclass
class CostModelConfig:
    """Calibration knobs of the analytic cost model.

    ``compute_efficiency`` is the fraction of peak FLOPs a healthy GPU
    achieves inside a hybrid-parallel step (the paper reports 44-53% MFU for
    Megatron/Malleus, which includes pipeline bubbles; the per-layer kernel
    efficiency is higher).  ``tp_comm_overhead`` scales the analytic
    tensor-parallel all-reduce time to account for kernel launch and
    synchronisation overheads.  ``bytes_per_param`` / ``grad_bytes_per_param``
    / ``optimizer_bytes_per_param`` follow mixed-precision training with an
    Adam optimizer (bf16 weights + bf16 grads + fp32 master/momentum/variance).
    """

    compute_efficiency: float = 0.56
    tp_comm_overhead: float = 1.25
    bytes_per_param: float = 2.0
    grad_bytes_per_param: float = 2.0
    optimizer_bytes_per_param: float = 12.0
    activation_fudge: float = 1.0
    fwd_bwd_activation_extra: float = 0.15
    reserved_memory_bytes: float = DEFAULT_RESERVED_MEMORY
    zero1_optimizer_sharding: bool = True


class MalleusCostModel:
    """Analytic substitute for the paper's profiler-derived cost model.

    Parameters
    ----------
    model:
        Architecture of the model being trained.
    cluster:
        The cluster (supplies peak FLOPs, memory and bandwidths).
    config:
        Calibration knobs; the defaults roughly reproduce the paper's
        straggler-free step times on A800-class hardware.
    """

    def __init__(self, model: TransformerModelSpec, cluster: Cluster,
                 config: Optional[CostModelConfig] = None,
                 enable_caching: bool = True,
                 kernels: str = "python"):
        if kernels not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernels must be one of {KERNEL_BACKENDS}, got {kernels!r}"
            )
        if kernels == "numpy":
            require_numpy("kernels='numpy'")
        self.model = model
        self.cluster = cluster
        self.config = config or CostModelConfig()
        self.enable_caching = enable_caching
        self.kernels = kernels
        self._rate_array_key: Optional[tuple] = None
        self._rate_array: Optional[RateArray] = None
        self._rate_array_perm = None
        self._pinned_rates: Optional[Mapping[int, float]] = None
        self._rate_array_src: Optional[int] = None
        self._zeta_cache: Dict[tuple, float] = {}
        self._rho_cache: Dict[tuple, float] = {}
        self._rho_ref_cache: Dict[tuple, float] = {}
        self._mu_cache: Dict[tuple, float] = {}
        self._nu_cache: Dict[tuple, float] = {}
        self._capacity_cache: Dict[tuple, float] = {}
        self._max_layers_cache: Dict[tuple, int] = {}
        self._stage_caps_cache: Dict[tuple, tuple] = {}
        self._capacity_vec_cache: Dict[tuple, tuple] = {}
        self._munu_vec_cache: Dict[tuple, tuple] = {}
        self._cache_counters: Dict[str, int] = {}
        self._config_snapshot = self._snapshot_config()

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def _caches(self) -> Dict[str, Dict]:
        return {
            "zeta": self._zeta_cache,
            "rho": self._rho_cache,
            "rho_ref": self._rho_ref_cache,
            "mu": self._mu_cache,
            "nu": self._nu_cache,
            "capacity": self._capacity_cache,
            "max_layers": self._max_layers_cache,
            "stage_caps": self._stage_caps_cache,
            "capacity_vec": self._capacity_vec_cache,
            "munu_vec": self._munu_vec_cache,
        }

    def _snapshot_config(self) -> tuple:
        """Fingerprint of the calibration config (all fields are scalars)."""
        return tuple(sorted(vars(self.config).items()))

    def config_fingerprint(self) -> tuple:
        """Public view of the calibration-config fingerprint.

        Shared with the sweep engine's :class:`~repro.core.sweep
        .SolutionCache` (which drops its warm-start entries whenever the
        fingerprint moves, mirroring :meth:`refresh_if_config_changed`)
        and shipped with every process-backend batch so pool workers can
        self-heal after an in-place calibration edit in the parent.
        """
        return self._snapshot_config()

    def invalidate_caches(self) -> None:
        """Drop every memoized coefficient.

        Must be called whenever ``config``, ``model`` or the cluster is
        mutated in place (e.g. re-calibrating ``compute_efficiency`` between
        planning rounds); the caches are keyed on arguments only and would
        otherwise serve stale values.  As a safety net the planner calls
        :meth:`refresh_if_config_changed` at the start of every ``plan``, so
        a forgotten invalidation after a *config* edit self-heals at the
        next planning round (model/cluster mutations still need the explicit
        hook).
        """
        for cache in self._caches().values():
            cache.clear()
        self._cache_counters.clear()
        self._config_snapshot = self._snapshot_config()

    def refresh_if_config_changed(self) -> bool:
        """Invalidate the caches when the config was mutated in place.

        Cheap (one scalar-tuple comparison), so callers with a natural
        entry point — e.g. the planner — run it once per invocation.
        Returns whether an invalidation happened.
        """
        if self._snapshot_config() == self._config_snapshot:
            return False
        self.invalidate_caches()
        return True

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-cache diagnostics: entry count plus hit/miss counters."""
        counters = self._cache_counters
        return {
            name: {
                "size": len(cache),
                "hits": counters.get(name + "_hits", 0),
                "misses": counters.get(name + "_misses", 0),
            }
            for name, cache in self._caches().items()
        }

    def _count(self, counter: str) -> None:
        self._cache_counters[counter] = self._cache_counters.get(counter, 0) + 1

    def rate_array(self, rates: Mapping[int, float]) -> RateArray:
        """Array view of ``rates``, with the id index memoized per episode.

        The sorted-id index and the id→position map only depend on the
        GPU-id *set*, which is stable across the thousands of kernel
        calls inside one planning episode; only the float values are
        refreshed on every call.  Not config-dependent, so it survives
        :meth:`invalidate_caches` untouched.

        The per-call refresh is memoized on the dict's *insertion-order*
        key tuple: a hit re-reads the values with ``np.fromiter`` and
        re-sorts them through the cached argsort permutation (one C-level
        gather), producing exactly the floats ``[rates[g] for g in
        sorted(rates)]`` would — the sorted-id listcomp and the 16k-id
        sort drop out of the per-call path entirely.  A dict with the
        same ids in a different insertion order just misses and rebuilds.
        """
        xp = require_numpy("MalleusCostModel.rate_array")
        # Fast path for a pinned episode (see pin_rates): the caller has
        # promised this exact mapping object stays frozen, so once its
        # values are loaded every further call can return the array as-is
        # — no key tuple, no fromiter.  ``_rate_array_src`` records which
        # object's values are currently loaded; a call with any *other*
        # mapping in between falls through, refreshes, and retags.
        if rates is self._pinned_rates \
                and self._rate_array_src == id(rates) \
                and self._rate_array is not None:
            return self._rate_array
        key = tuple(rates)
        cached = self._rate_array
        if cached is None or self._rate_array_key != key:
            cached = RateArray.from_rates(rates)
            self._rate_array_key = key
            self._rate_array = cached
            self._rate_array_perm = xp.argsort(
                xp.asarray(key, dtype=xp.int64)
            )
            self._rate_array_src = id(rates)
            return cached
        raw = xp.fromiter(rates.values(), dtype=xp.float64, count=len(key))
        cached.values = raw[self._rate_array_perm]
        self._rate_array_src = id(rates)
        return cached

    def pin_rates(self, rates: Mapping[int, float]):
        """Declare ``rates`` frozen for the duration of one planning call.

        Returns a zero-argument callable that restores the previous pin
        (use in ``try/finally``).  While pinned, :meth:`rate_array` serves
        repeated calls with the *same mapping object* straight from the
        cached array without re-reading the dict — the caller must not
        mutate the mapping until the pin is released.  Calls with other
        mappings still refresh normally, and the first pinned call after
        such an interleaving refreshes too (the source tag mismatches),
        so correctness never depends on call order.  Nesting is safe; the
        restore callable unwinds one level.

        Pinning and releasing both clear the source tag: it is an ``id()``,
        and a dict freed after its release can hand its address to the
        next pinned dict, which would otherwise be served the freed dict's
        values.
        """
        previous = self._pinned_rates
        self._pinned_rates = rates
        self._rate_array_src = None

        def release() -> None:
            self._pinned_rates = previous
            self._rate_array_src = None

        return release

    # ------------------------------------------------------------------
    # Time model
    # ------------------------------------------------------------------
    def _reference_gpu_flops(self) -> float:
        """Achieved FLOP/s of one healthy GPU."""
        gpu = next(self.cluster.iter_gpus())
        return gpu.peak_flops * self.config.compute_efficiency

    def tp_allreduce_time(self, n: int, micro_batch_size: int,
                          gpu_ids: Optional[Sequence[int]] = None) -> float:
        """Per-layer tensor-parallel communication time for an ``n``-GPU group.

        Each transformer layer performs two all-reduces in the forward pass
        and two in the backward pass (attention output and MLP output), each
        carrying ``b * s * h`` bf16 activations.
        """
        if n <= 1:
            return 0.0
        volume = (
            2.0 * self.model.seq_length * micro_batch_size * self.model.hidden_size
        )
        if gpu_ids:
            bandwidth = self.cluster.group_bandwidth(gpu_ids)
        else:
            bandwidth = self.cluster.nodes[0].intra_node_bandwidth
        ring_factor = 2.0 * (n - 1) / n
        per_allreduce = ring_factor * volume / bandwidth
        return 4.0 * per_allreduce * self.config.tp_comm_overhead

    def zeta(self, n: int, micro_batch_size: int) -> float:
        """Per-layer fwd+bwd time of an ``n``-GPU healthy TP group (``zeta_n``)."""
        if n <= 0:
            raise ValueError("TP degree must be positive")
        key = (n, micro_batch_size)
        if self.enable_caching:
            cached = self._zeta_cache.get(key)
            if cached is not None:
                self._count("zeta_hits")
                return cached
            self._count("zeta_misses")
        tokens = micro_batch_size * self.model.seq_length
        flops = self.model.training_flops_per_layer(tokens)
        compute = flops / (n * self._reference_gpu_flops())
        comm = self.tp_allreduce_time(n, micro_batch_size)
        value = compute + comm
        if self.enable_caching:
            self._zeta_cache[key] = value
        return value

    def rho(self, n: int, micro_batch_size: int = 1,
            candidate_sizes: Iterable[int] = (1, 2, 4, 8)) -> float:
        """Efficiency-degradation coefficient ``rho_n = zeta_n / max zeta``.

        The reference maximum ``max_{n'} zeta_{n'}`` only depends on the
        candidate-size set and the micro-batch size, so it is memoized
        alongside the ``zeta`` cache instead of being recomputed over all
        candidate sizes on every call; the final ratio is memoized too
        (``rho`` runs once per group per candidate, making it one of the
        hottest cost-model entry points).
        """
        cs = tuple(candidate_sizes)
        value_key = (n, micro_batch_size, cs)
        if self.enable_caching:
            cached = self._rho_cache.get(value_key)
            if cached is not None:
                self._count("rho_hits")
                return cached
            self._count("rho_misses")
        sizes = tuple(sorted(set(cs) | {n}))
        key = (sizes, micro_batch_size)
        reference: Optional[float] = None
        if self.enable_caching:
            reference = self._rho_ref_cache.get(key)
            if reference is not None:
                self._count("rho_ref_hits")
            else:
                self._count("rho_ref_misses")
        if reference is None:
            reference = max(self.zeta(size, micro_batch_size) for size in sizes)
            if self.enable_caching:
                self._rho_ref_cache[key] = reference
        value = self.zeta(n, micro_batch_size) / reference
        if self.enable_caching:
            self._rho_cache[value_key] = value
        return value

    def tau(self, micro_batch_size: int) -> float:
        """Per-layer fwd+bwd time of the reference (TP=1, healthy) group."""
        return self.zeta(1, micro_batch_size)

    def group_straggling_rate(self, gpu_rates: Sequence[float],
                              micro_batch_size: int = 1) -> float:
        """Group straggling rate ``y = rho_n * max(x_k)`` (§4.2)."""
        rates = list(gpu_rates)
        if not rates:
            raise ValueError("a TP group needs at least one GPU")
        worst = max(rates)
        if math.isinf(worst):
            return math.inf
        return self.rho(len(rates), micro_batch_size) * worst

    def stage_time(self, group_rate: float, num_layers: int,
                   micro_batch_size: int) -> float:
        """Per-micro-batch time of a stage: ``t = y * l * tau(b)``."""
        if num_layers == 0:
            return 0.0
        return group_rate * num_layers * self.tau(micro_batch_size)

    def pipeline_time(self, stage_times: Sequence[float], num_micro_batches: int,
                      exact: bool = False) -> float:
        """1F1B pipeline time for one step of a single pipeline.

        ``exact=False`` uses the planner's simplification
        ``T ≈ m * max_j t_j``; ``exact=True`` uses the full
        ``(m - 1) * max_j t_j + sum_j t_j`` expression with warm-up and
        cool-down phases.
        """
        if not stage_times:
            return 0.0
        if num_micro_batches <= 0:
            return 0.0
        bottleneck = max(stage_times)
        if exact:
            return (num_micro_batches - 1) * bottleneck + sum(stage_times)
        return num_micro_batches * bottleneck

    # ------------------------------------------------------------------
    # Memory model (Appendix B.4), everything normalised to TP degree 1
    # ------------------------------------------------------------------
    def layer_state_bytes(self, dp_degree: int = 1) -> float:
        """Model-state bytes of one layer at TP=1 (``s_1`` in B.4)."""
        params = self.model.params_per_layer()
        per_param = self.config.bytes_per_param + self.config.grad_bytes_per_param
        optimizer = self.config.optimizer_bytes_per_param
        if self.config.zero1_optimizer_sharding and dp_degree > 1:
            optimizer /= dp_degree
        return params * (per_param + optimizer)

    def embedding_state_bytes(self, dp_degree: int = 1) -> float:
        """Model-state bytes of the embedding table at TP=1."""
        params = self.model.embedding_params()
        per_param = self.config.bytes_per_param + self.config.grad_bytes_per_param
        optimizer = self.config.optimizer_bytes_per_param
        if self.config.zero1_optimizer_sharding and dp_degree > 1:
            optimizer /= dp_degree
        return params * (per_param + optimizer)

    def lm_head_state_bytes(self, dp_degree: int = 1) -> float:
        """Model-state bytes of the LM head (plus final norm) at TP=1."""
        params = self.model.lm_head_params() + self.model.hidden_size
        per_param = self.config.bytes_per_param + self.config.grad_bytes_per_param
        optimizer = self.config.optimizer_bytes_per_param
        if self.config.zero1_optimizer_sharding and dp_degree > 1:
            optimizer /= dp_degree
        return params * (per_param + optimizer)

    def act_forward_bytes(self, micro_batch_size: int) -> float:
        """Forward activation bytes of one layer at TP=1 (``a_f`` in B.4)."""
        return self.config.activation_fudge * \
            self.model.layer_activation_bytes(micro_batch_size)

    def act_fwd_bwd_bytes(self, micro_batch_size: int) -> float:
        """Peak fwd+bwd activation bytes of one layer at TP=1 (``a_{f+b}``)."""
        return self.act_forward_bytes(micro_batch_size) * \
            (1.0 + self.config.fwd_bwd_activation_extra)

    def mu(self, pp_degree: int, stage_index: int, micro_batch_size: int,
           dp_degree: int = 1) -> float:
        """Per-layer memory coefficient ``mu_{i,j}(b)`` for a 1F1B stage.

        ``stage_index`` is 1-based, matching the paper.  Stage ``j`` keeps
        ``PP_i - j`` in-flight forward activations plus the activations of
        the micro-batch currently in fwd+bwd, plus the layer's model states.
        """
        if not 1 <= stage_index <= pp_degree:
            raise ValueError("stage_index must be in [1, pp_degree]")
        key = (pp_degree, stage_index, micro_batch_size, dp_degree)
        if self.enable_caching:
            cached = self._mu_cache.get(key)
            if cached is not None:
                self._count("mu_hits")
                return cached
            self._count("mu_misses")
        in_flight = pp_degree - stage_index
        activations = micro_batch_size * (
            self.act_forward_bytes(1) * in_flight + self.act_fwd_bwd_bytes(1)
        )
        value = activations + self.layer_state_bytes(dp_degree)
        if self.enable_caching:
            self._mu_cache[key] = value
        return value

    def nu(self, pp_degree: int, stage_index: int, micro_batch_size: int,
           dp_degree: int = 1) -> float:
        """Stage-constant memory ``nu_{i,j}(b)`` (embedding / LM-head extras)."""
        if not 1 <= stage_index <= pp_degree:
            raise ValueError("stage_index must be in [1, pp_degree]")
        key = (pp_degree, stage_index, micro_batch_size, dp_degree)
        if self.enable_caching:
            cached = self._nu_cache.get(key)
            if cached is not None:
                self._count("nu_hits")
                return cached
            self._count("nu_misses")
        extra = 0.0
        if stage_index == 1:
            in_flight = pp_degree - 1
            embed_act = self.model.embedding_activation_bytes(1)
            extra += micro_batch_size * embed_act * (in_flight + 1)
            extra += self.embedding_state_bytes(dp_degree)
        if stage_index == pp_degree:
            extra += micro_batch_size * self.model.lm_head_activation_bytes(1)
            extra += self.lm_head_state_bytes(dp_degree)
        if self.enable_caching:
            self._nu_cache[key] = extra
        return extra

    def group_capacity(self, gpu_ids: Sequence[int]) -> float:
        """Memory capacity ``C_{i,j}`` of a TP group, normalised to TP=1.

        ``C = k * (min_X C_X - G)``: the group shards every tensor across its
        ``k`` GPUs, so from the TP=1 perspective the capacity scales with
        ``k``; the slowest-memory GPU bounds the group and a reserved gap
        ``G`` is subtracted for communication/runtime buffers.
        """
        ids = tuple(gpu_ids)
        if not ids:
            raise ValueError("a TP group needs at least one GPU")
        if self.enable_caching:
            cached = self._capacity_cache.get(ids)
            if cached is not None:
                self._count("capacity_hits")
                return cached
            self._count("capacity_misses")
        min_capacity = min(self.cluster.memory_capacity(g) for g in ids)
        usable = min_capacity - self.config.reserved_memory_bytes
        value = len(ids) * usable if usable > 0 else 0.0
        if self.enable_caching:
            self._capacity_cache[ids] = value
        return value

    def max_layers_for_stage(self, gpu_ids: Sequence[int], pp_degree: int,
                             stage_index: int, micro_batch_size: int,
                             dp_degree: int = 1) -> int:
        """Largest layer count a stage can host without exceeding memory."""
        key = (tuple(gpu_ids), pp_degree, stage_index, micro_batch_size,
               dp_degree)
        if self.enable_caching:
            cached = self._max_layers_cache.get(key)
            if cached is not None:
                self._count("max_layers_hits")
                return cached
            self._count("max_layers_misses")
        capacity = self.group_capacity(gpu_ids)
        mu = self.mu(pp_degree, stage_index, micro_batch_size, dp_degree)
        nu = self.nu(pp_degree, stage_index, micro_batch_size, dp_degree)
        if capacity <= nu:
            value = 0
        else:
            value = int(math.floor((capacity - nu) / mu + 1e-9))
        if self.enable_caching:
            self._max_layers_cache[key] = value
        return value

    def stage_caps(self, groups: Sequence, pp_degree: int,
                   micro_batch_size: int, dp_degree: int = 1) -> List[int]:
        """Per-stage layer caps for an ordered group sequence.

        Equals ``[max_layers_for_stage(g.gpu_ids, pp, i, b, dp) for i, g
        in enumerate(groups, 1)]`` exactly, memoized on the groups'
        identity tuple (:class:`~repro.parallel.plan.TPGroup` is frozen;
        each entry pins its groups so the ids stay valid).  The layer ILP
        asks for the same pipeline's caps once per micro-batch candidate
        and per ordering probe, so the per-stage memo lookups collapse
        into one dict hit.  Registered in :meth:`_caches`, so config
        invalidation clears it with everything else.
        """
        if not self.enable_caching:
            return [
                self.max_layers_for_stage(
                    group.gpu_ids, pp_degree, stage_index,
                    micro_batch_size, dp_degree,
                )
                for stage_index, group in enumerate(groups, start=1)
            ]
        ids_key = tuple(map(id, groups))
        key = (ids_key, pp_degree, micro_batch_size, dp_degree)
        cached = self._stage_caps_cache.get(key)
        if cached is not None:
            self._count("stage_caps_hits")
            return list(cached[1])
        self._count("stage_caps_misses")
        caps = self._stage_caps_numpy(groups, ids_key, pp_degree,
                                      micro_batch_size, dp_degree)
        if caps is None:
            caps = [
                self.max_layers_for_stage(
                    group.gpu_ids, pp_degree, stage_index, micro_batch_size,
                    dp_degree,
                )
                for stage_index, group in enumerate(groups, start=1)
            ]
        if len(self._stage_caps_cache) >= 4096:
            self._stage_caps_cache.clear()
        self._stage_caps_cache[key] = (tuple(groups), tuple(caps))
        return list(caps)

    def _stage_caps_numpy(self, groups: Sequence, ids_key: tuple,
                          pp_degree: int, micro_batch_size: int,
                          dp_degree: int) -> Optional[List[int]]:
        """One-pass :meth:`stage_caps` for the numpy backend.

        ``cap_i = floor((C_i - nu_i) / mu_i + 1e-9)`` is elementwise —
        no reductions, so the IEEE operations match the scalar path
        exactly and the caps are **bit-identical** to the python loop
        (asserted by the kernel-equivalence suite).  The two inputs are
        vector-memoized on their true dependencies: the capacity vector
        on the groups' identity tuple (groups are frozen; the cache
        entry pins them), the mu/nu vectors on ``(pp, b, dp)`` alone —
        so a long pipeline's 2k-stage scalar loop collapses into two
        dict hits and one array expression.  Returns ``None`` (caller
        falls back to the scalar loop) off the numpy backend, for short
        pipelines where the loop is cheaper, or when a degenerate
        ``mu <= 0`` would need the scalar error path.
        """
        if np is None or self.kernels != "numpy" or len(groups) < 16:
            return None
        entry = self._capacity_vec_cache.get(ids_key)
        if entry is None:
            capacity = np.asarray(
                [self.group_capacity(group.gpu_ids) for group in groups],
                dtype=np.float64,
            )
            if len(self._capacity_vec_cache) >= 4096:
                self._capacity_vec_cache.clear()
            self._capacity_vec_cache[ids_key] = (tuple(groups), capacity)
        else:
            capacity = entry[1]
        munu_key = (pp_degree, len(groups), micro_batch_size, dp_degree)
        munu = self._munu_vec_cache.get(munu_key)
        if munu is None:
            mu = np.asarray(
                [self.mu(pp_degree, stage_index, micro_batch_size, dp_degree)
                 for stage_index in range(1, len(groups) + 1)],
                dtype=np.float64,
            )
            nu = np.asarray(
                [self.nu(pp_degree, stage_index, micro_batch_size, dp_degree)
                 for stage_index in range(1, len(groups) + 1)],
                dtype=np.float64,
            )
            if len(self._munu_vec_cache) >= 4096:
                self._munu_vec_cache.clear()
            self._munu_vec_cache[munu_key] = munu = (mu, nu)
        mu, nu = munu
        if not bool(np.all(mu > 0.0)):
            return None
        usable = capacity - nu
        caps = np.floor(usable / mu + 1e-9).astype(np.int64)
        caps[usable <= 0.0] = 0
        return [int(cap) for cap in caps]

    def stage_memory_bytes(self, gpu_ids: Sequence[int], num_layers: int,
                           pp_degree: int, stage_index: int,
                           micro_batch_size: int, dp_degree: int = 1) -> float:
        """Memory used by a stage (normalised to TP=1), ``l*mu + nu``."""
        mu = self.mu(pp_degree, stage_index, micro_batch_size, dp_degree)
        nu = self.nu(pp_degree, stage_index, micro_batch_size, dp_degree)
        return num_layers * mu + nu

    # ------------------------------------------------------------------
    # Whole-model helpers
    # ------------------------------------------------------------------
    def model_flops_per_step(self, global_batch_size: int) -> float:
        """Training FLOPs of one step (for MFU reporting)."""
        tokens = global_batch_size * self.model.seq_length
        return self.model.training_flops_per_token() * tokens

    def mfu(self, step_time: float, global_batch_size: int, num_gpus: int) -> float:
        """Model FLOPs Utilization achieved by a measured step time."""
        if step_time <= 0 or num_gpus <= 0:
            return 0.0
        gpu = next(self.cluster.iter_gpus())
        achieved = self.model_flops_per_step(global_batch_size) / step_time
        return achieved / (num_gpus * gpu.peak_flops)
