"""The benchmark's two workloads: inputs, timed loops, simulation, checks.

Every workload is a closed loop over seeded inputs, run in *rounds*: a
round is one fixed sequence of operations on one input (one cold plan of
a rate map for ``cold-dense``; one whole generated storm through a fresh
planning service for ``storm-sparse``).  A workload has a fixed number
of inputs, and a run plays every input the same number of times, in
passes over all of them.  Each round starts cold (fresh objects, empty
min-max memo), so the repeats of one input do identical work; the check
that they end on identical plans holds them to it.  Only the calls into
``repro`` that make up the event loop are timed; the benchmark's own
simulation and output checks run outside the timed region.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.scenarios import generate_trace
from repro.cluster.stragglers import LEVEL_TO_RATE, ClusterState
from repro.cluster.topology import paper_cluster
from repro.core.costmodel import MalleusCostModel
from repro.core.planner import MalleusPlanner
from repro.models.presets import paper_task
from repro.runtime.malleus import MalleusSystem
from repro.runtime.replan import (
    TIER_DEFERRED, TIER_FULL, TIER_NONE, TIER_PARTIAL, TIER_REBALANCE,
)
from repro.runtime.service import PlanningService, ServiceConfig
from repro.solvers.minmax import clear_minmax_cache
from repro.simulator.executor import ExecutionSimulator
from repro.simulator.memory import plan_memory_report

#: The one fast path (bit-identical to the python reference kernels).
KERNELS = "numpy"
#: Coalescing admission for the storm workloads, in ticks (one tick per
#: event).  The deadline stays off, so every episode sequence is
#: deterministic; the sweep backend stays at its serial default.
DEBOUNCE_WINDOW = 2.0
DEBOUNCE_LIMIT = 6.0
TIERS = (TIER_NONE, TIER_REBALANCE, TIER_PARTIAL, TIER_FULL, TIER_DEFERRED)
#: ``breakdown.total`` (and the service's episode latencies) must cover at
#: least this share of the outside-timed call that contains them.
COVERAGE_TOLERANCE = 0.10
#: Check messages kept per run (the count is always exact).
MAX_ERRORS = 20


@dataclass
class Episode:
    """One ``on_situation_change`` call as the service made it."""

    state: ClusterState
    rebalance_only: bool
    force: bool
    seconds: float
    plan: object


@dataclass
class Tally:
    """What one pass of rounds measured and found."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    #: Wall seconds of each timed planning operation, keyed by (input,
    #: operation index within the input's round), one entry per repeat.
    op_samples: Dict[tuple, List[float]] = field(default_factory=dict)
    #: Events of each input's round, and the wall time of the calls that
    #: handled them (``submit``/``pump``/``drain`` or ``plan``), one entry
    #: per repeat.
    input_events: Dict[int, int] = field(default_factory=dict)
    loop_samples: Dict[int, List[float]] = field(default_factory=dict)
    #: Events handed to the program and loop wall time over every round.
    events: int = 0
    loop_seconds: float = 0.0
    #: Simulated training over the first repeat of every input.
    sim_samples: float = 0.0
    sim_seconds: float = 0.0
    #: Public outputs counted per round (service episodes, tiers, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    error_count: int = 0
    #: Input 0's episode log from its first repeat, kept for the replay
    #: checks.
    replay_log: Optional[list] = None

    def error(self, message: str) -> None:
        self.error_count += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_op(self, key: tuple, seconds: float) -> None:
        self.op_samples.setdefault(key, []).append(seconds)

    def add_loop(self, index: int, events: int, seconds: float) -> None:
        self.input_events[index] = events
        self.loop_samples.setdefault(index, []).append(seconds)
        self.events += events
        self.loop_seconds += seconds

    def replan_p50(self) -> float:
        """Median over the operations of each one's best repeat."""
        best = [min(v) for v in self.op_samples.values()]
        return statistics.median(best) if best else math.nan

    def events_per_s(self) -> float:
        """Events of every input over the sum of each round's best repeat."""
        seconds = sum(min(v) for v in self.loop_samples.values())
        events = sum(self.input_events[i] for i in self.loop_samples)
        return events / seconds if seconds else math.nan


class Judge:
    """The benchmark's own simulator and plan checks.

    It owns a cost model of its own: the simulation and checks run between
    timed calls, and must neither warm nor retag the caches of the cost
    model under test.
    """

    def __init__(self, task, cluster):
        self.task = task
        self.cost_model = MalleusCostModel(task.model, cluster,
                                           kernels=KERNELS)
        self.simulator = ExecutionSimulator(self.cost_model)

    def step_time(self, plan, rates: Dict[int, float]) -> float:
        """Simulated step time of ``plan`` under the true ``rates``."""
        return self.simulator.simulate_step(plan, rates,
                                            check_memory=False).step_time

    def check_plan(self, plan, rates: Dict[int, float], where: str,
                   tally: Tally) -> None:
        """Recompute a plan's structure from its pipelines."""
        if plan is None:
            tally.error(f"{where}: no plan in force")
            return
        num_layers = self.task.model.num_layers
        batch = self.task.global_batch_size
        seen: Dict[int, int] = {}
        for pipeline in plan.pipelines:
            layers = sum(stage.num_layers for stage in pipeline.stages)
            if layers != num_layers:
                tally.error(f"{where}: pipeline {pipeline.pipeline_index} "
                            f"holds {layers} of {num_layers} layers")
            for stage in pipeline.stages:
                for gpu in stage.group.gpu_ids:
                    seen[gpu] = seen.get(gpu, 0) + 1
        twice = sorted(g for g, n in seen.items() if n > 1)
        if twice:
            tally.error(f"{where}: GPUs in more than one pipeline: "
                        f"{twice[:8]}")
        unknown = sorted(g for g in seen if g not in rates)
        if unknown:
            tally.error(f"{where}: unknown GPUs active: {unknown[:8]}")
        dead = sorted(g for g in seen if g in rates and math.isinf(rates[g]))
        if dead:
            tally.error(f"{where}: failed GPUs active: {dead[:8]}")
        both = sorted(set(plan.removed_gpus) & set(seen))
        if both:
            tally.error(f"{where}: GPUs both active and removed: {both[:8]}")
        if batch % plan.micro_batch_size:
            tally.error(f"{where}: micro-batch size {plan.micro_batch_size} "
                        f"does not divide {batch}")
        micro = sum(p.num_micro_batches for p in plan.pipelines)
        if micro != batch // plan.micro_batch_size:
            tally.error(f"{where}: micro-batches sum to {micro}, expected "
                        f"{batch // plan.micro_batch_size}")
        memory = plan_memory_report(plan, self.cost_model)
        if not memory.fits:
            tally.error(f"{where}: out of memory on GPUs "
                        f"{memory.oom_gpus[:8]}")


def check_covered(inner: float, outer: float, what: str,
                  tally: Tally) -> None:
    """``inner`` ran inside ``outer``: no larger, and covering most of it."""
    if inner > outer or inner < (1.0 - COVERAGE_TOLERANCE) * outer:
        tally.error(f"{what}: {inner:.6f}s inside {outer:.6f}s outside "
                    f"(allowed {1 - COVERAGE_TOLERANCE:.0%}..100%)")


def placement(cluster, seed: int, index: int) -> Dict[int, int]:
    """GPU renaming for one input: a seeded permutation of the nodes and
    of the local ranks inside each node.

    The fleet is homogeneous, so renamed inputs pose the same planning
    problem up to GPU names; ties and id-sorted orders still differ.  An
    input is drawn from its index and placed by ``--seed``: plan cost
    varies by a third between random inputs and a run holds too few plans
    to average that out, so fresh inputs per seed would bury a regression
    of that size in the spread between seeds.
    """
    rng = random.Random(seed * 1000 + index)
    nodes = [node.gpu_ids() for node in cluster.nodes]
    targets = list(nodes)
    rng.shuffle(targets)
    relabel: Dict[int, int] = {}
    for source, target in zip(nodes, targets):
        target = list(target)
        rng.shuffle(target)
        relabel.update(zip(source, target))
    return relabel


def _begin(tracer) -> float:
    if tracer is not None:
        tracer.active = True
    return time.perf_counter()


def _end(tracer, began: float) -> float:
    seconds = time.perf_counter() - began
    if tracer is not None:
        tracer.active = False
    return seconds


# ----------------------------------------------------------------------
# cold-dense: independent rate maps on ~8k GPUs, each planned cold.
# ----------------------------------------------------------------------
class ColdDense:
    """Cold ``MalleusPlanner.plan`` on 8192 GPUs with ~3% stragglers."""

    name = "cold-dense"
    num_gpus = 8192
    global_batch = 1024
    straggler_share = 0.03
    #: Rate maps per run; every pass plans each of them once.
    inputs = 7
    #: Simulated steps trained on each map's plan.
    steps_per_map = 50
    #: Wall seconds of one round on a 2-core x86 box (sets the pass count).
    round_seconds = 1.3

    def __init__(self, seed: int):
        self.seed = seed
        self.task = paper_task("110b", global_batch_size=self.global_batch)
        self.cluster = paper_cluster(self.num_gpus)
        self.judge = None
        self.planner = None
        self._rates: Dict[int, Dict[int, float]] = {}
        self._first_plans: Dict[int, object] = {}

    def _fresh_planner(self) -> MalleusPlanner:
        cost_model = MalleusCostModel(self.task.model, self.cluster,
                                      kernels=KERNELS)
        return MalleusPlanner(self.task, self.cluster, cost_model,
                              kernels=KERNELS)

    def build(self) -> None:
        """A fresh planner and its initial plan on the healthy fleet."""
        self.planner = self._fresh_planner()
        healthy = {gpu: 1.0 for gpu in self.cluster.gpu_ids()}
        result = self.planner.plan(healthy)
        if result.plan is None:
            raise RuntimeError("no initial plan on the healthy cluster")
        self.initial = (result.plan, healthy)

    def rates(self, index: int) -> Dict[int, float]:
        """Map ``index``: 3% of the GPUs at level 1-3 rates, placed by seed."""
        if index not in self._rates:
            rng = random.Random(index)
            gpus = self.cluster.gpu_ids()
            relabel = placement(self.cluster, self.seed, index)
            rates = {gpu: 1.0 for gpu in gpus}
            levels = (LEVEL_TO_RATE[1], LEVEL_TO_RATE[2], LEVEL_TO_RATE[3])
            share = round(self.straggler_share * len(gpus))
            for gpu in rng.sample(gpus, share):
                rates[relabel[gpu]] = rng.choice(levels)
            self._rates[index] = rates
        return self._rates[index]

    def check_setup(self, tally: Tally) -> None:
        self.judge = Judge(self.task, self.cluster)
        plan, rates = self.initial
        self.judge.check_plan(plan, rates, f"{self.name} initial plan", tally)

    def run_round(self, index: int, repeat: int, tally: Tally,
                  tracer) -> None:
        """Plan map ``index`` cold: a fresh planner and an empty memo."""
        rates = self.rates(index)
        self.planner = self._fresh_planner()
        clear_minmax_cache()
        tally.attempted += 1
        where = f"{self.name} map {index} repeat {repeat}"
        try:
            began = _begin(tracer)
            try:
                result = self.planner.plan(rates)
            finally:
                seconds = _end(tracer, began)
        except Exception as exc:
            tally.failed += 1
            tally.error(f"{where}: plan raised {exc!r}")
            return
        tally.add_op((index, 0), seconds)
        tally.add_loop(index, 1, seconds)
        check_covered(result.breakdown.total, seconds,
                      f"{where}: breakdown.total vs plan call", tally)
        if index in self._first_plans:
            if result.plan != self._first_plans[index]:
                tally.error(f"{where}: planned differently from the "
                            f"map's first plan")
            return
        self._first_plans[index] = result.plan
        self.judge.check_plan(result.plan, rates, where, tally)
        if result.plan is None:
            return
        step = self.judge.step_time(result.plan, rates)
        if not math.isfinite(step):
            tally.error(f"{where}: plan has step time {step}")
        else:
            tally.sim_samples += self.steps_per_map * self.global_batch
            tally.sim_seconds += self.steps_per_map * step

    def replay_checks(self, tally: Tally) -> None:
        """Cold plans have no episode sequence to replay."""


# ----------------------------------------------------------------------
# storm-sparse: frequent small straggler events through the service.
# ----------------------------------------------------------------------
class StormSparse:
    """One generated storm per round through a coalescing service.

    The storm is the ``frequent-small-events`` preset with events not
    scaled to the fleet, so only a few GPUs move per event.
    """

    name = "storm-sparse"
    num_gpus = 512
    global_batch = 1024
    preset = "frequent-small-events"
    situations = 12
    #: Storms per run; every pass plays each of them once.
    inputs = 5
    #: Wall seconds of one round on a 2-core x86 box (sets the pass count).
    round_seconds = 2.7

    def __init__(self, seed: int):
        self.seed = seed
        self.task = paper_task("110b", global_batch_size=self.global_batch)
        self.cluster = paper_cluster(self.num_gpus)
        self.judge = None
        self.healthy = ClusterState(self.cluster)
        self.service = None
        self._events: Dict[int, list] = {}
        self._first_logs: Dict[int, List[Episode]] = {}

    def _system(self, kernels: str) -> MalleusSystem:
        cost_model = MalleusCostModel(self.task.model, self.cluster,
                                      kernels=kernels)
        system = MalleusSystem(self.task, self.cluster, cost_model,
                               kernels=kernels)
        system.setup(self.healthy)
        return system

    def build(self) -> None:
        """A fresh system and service with the initial plan in force."""
        system = self._system(KERNELS)
        self.service = PlanningService(system, ServiceConfig(
            coalesce=True, debounce_window=DEBOUNCE_WINDOW,
            debounce_limit=DEBOUNCE_LIMIT,
        ))

    def check_setup(self, tally: Tally) -> None:
        self.judge = Judge(self.task, self.cluster)
        self.judge.check_plan(self.service.system.plan, self.healthy.rates,
                              f"{self.name} initial plan", tally)

    def events(self, index: int):
        """(state, steps) per event of storm ``index``.

        Storm i replays the preset's generated storm with scenario seed i,
        renamed by :func:`placement`.  A situation equal to the previous
        one is no event and is dropped.
        """
        if index in self._events:
            return self._events[index]
        trace = generate_trace(
            self.cluster, self.preset, seed=index,
            num_situations=self.situations, scale_with_cluster=False)
        relabel = placement(self.cluster, self.seed, index)
        events = []
        last = self.healthy.rates
        for situation in trace.situations[1:]:
            state = ClusterState(self.cluster, {
                relabel[spec.gpu_id]: spec.resolved_rate()
                for spec in situation.stragglers})
            if state.rates != last:
                events.append((state, situation.duration_steps))
                last = state.rates
        self._events[index] = events
        return events

    def run_round(self, index: int, repeat: int, tally: Tally,
                  tracer) -> None:
        """Play storm ``index`` through a fresh service, from an empty memo."""
        clear_minmax_cache()
        self.build()
        events = self.events(index)
        tally.attempted += len(events)
        first = index not in self._first_logs
        service = self.service
        system = service.system
        log: List[Episode] = []
        inner = system.on_situation_change

        def episode(state, rebalance_only=False, force=False):
            began = time.perf_counter()
            adjustment = inner(state, rebalance_only=rebalance_only,
                               force=force)
            log.append(Episode(state, rebalance_only, force,
                               time.perf_counter() - began, system.plan))
            return adjustment

        system.on_situation_change = episode
        where = f"{self.name} storm {index} repeat {repeat}"
        loop = 0.0
        pumped = 0.0  # outside time of the pump/drain calls with episodes
        try:
            for tick, (state, steps) in enumerate(events):
                began = _begin(tracer)
                try:
                    service.submit(state, now=float(tick))
                    mid = time.perf_counter()
                    records = service.pump(now=float(tick))
                finally:
                    seconds = _end(tracer, began)
                loop += seconds
                if records:
                    pumped += seconds - (mid - began)
                if not first:
                    continue
                step = self.judge.step_time(system.plan, state.rates)
                if not math.isfinite(step):
                    tally.error(f"{where} tick {tick}: plan in force has "
                                f"step time {step}")
                tally.sim_samples += steps * self.global_batch
                tally.sim_seconds += steps * step + sum(
                    r.adjustment.downtime for r in records)
            began = _begin(tracer)
            try:
                records = service.drain(now=float(len(events)))
            finally:
                seconds = _end(tracer, began)
            loop += seconds
            if records:
                pumped += seconds
            if first:
                tally.sim_seconds += sum(r.adjustment.downtime
                                         for r in records)
        except Exception as exc:
            # The round is lost as a whole, so every run attempts whole
            # rounds.
            tally.failed += len(events)
            tally.error(f"{where}: raised {exc!r}")
            return
        finally:
            del system.on_situation_change
        tally.add_loop(index, len(events), loop)
        for number, done in enumerate(log):
            tally.add_op((index, number), done.seconds)
        self._tally_records(service, tally)
        self._check_round(service, events, log, pumped, where, tally)
        if first:
            self._first_logs[index] = log
            self._check_plans(log, where, tally)
            if index == 0:
                tally.replay_log = log
        elif [e.plan for e in log] != [e.plan for e in
                                       self._first_logs[index]]:
            tally.error(f"{where}: episodes differ from the storm's first "
                        f"repeat")

    def _tally_records(self, service, tally: Tally) -> None:
        stats = service.stats
        tally.count("runtime.service.episodes", stats.episodes)
        tally.count("runtime.service.merged", stats.merged)
        for record in service.records:
            adjustment = record.adjustment
            tally.count(f"runtime.replan.tier."
                        f"{adjustment.repair_tier or TIER_NONE}")
            tally.count("parallel.migration.gb",
                        adjustment.migration_bytes / 1e9)
            if adjustment.kind == "restart":
                tally.count("simulator.restart.count")
            if any("episode raised" in e for e in adjustment.tier_errors):
                tally.failed += record.submissions

    def _check_round(self, service, events, log, pumped, where,
                     tally: Tally) -> None:
        system = service.system
        submitted = sum(r.submissions for r in service.records)
        if submitted != len(events):
            tally.error(f"{where}: {len(events)} events submitted, records "
                        f"account for {submitted}")
        if events and system.current_rates != events[-1][0].rates:
            tally.error(f"{where}: rates in force after drain differ from "
                        f"the last state submitted")
        if service.pending:
            tally.error(f"{where}: {service.pending} entries left after drain")
        latency = sum(r.latency for r in service.records)
        inside = sum(e.seconds for e in log)
        if inside > latency:
            tally.error(f"{where}: episodes timed from outside "
                        f"({inside:.6f}s) exceed ServiceRecord.latency "
                        f"({latency:.6f}s)")
        check_covered(latency, pumped,
                      f"{where}: ServiceRecord.latency vs pump/drain", tally)

    def _check_plans(self, log, where, tally: Tally) -> None:
        checked = set()
        for index, episode in enumerate(log):
            if id(episode.plan) not in checked:
                checked.add(id(episode.plan))
                self.judge.check_plan(episode.plan, episode.state.rates,
                                      f"{where} episode {index}", tally)

    def replay_checks(self, tally: Tally) -> None:
        """Storm 0's episode states, fed directly to fresh systems.

        The final plan must equal the service's, and a system on the
        python kernels (the reference) must end every episode on the same
        plan as the service.
        """
        log = tally.replay_log
        if log is None:
            return
        for kernels, every_episode in ((KERNELS, False), ("python", True)):
            system = self._system(kernels)
            for index, episode in enumerate(log):
                system.on_situation_change(
                    episode.state, rebalance_only=episode.rebalance_only,
                    force=episode.force)
                if every_episode and system.plan != episode.plan:
                    tally.error(f"{self.name} storm 0 episode {index}: "
                                f"{kernels} kernels planned differently")
                    break
            final = log[-1].plan if log else None
            if log and system.plan != final:
                tally.error(f"{self.name} storm 0: {kernels} replay of the "
                            f"episode states ends on another plan")


def make_workload(name: str, seed: int):
    """The named workload, with its inputs drawn from ``seed``."""
    if name == "cold-dense":
        return ColdDense(seed)
    if name == "storm-sparse":
        return StormSparse(seed)
    raise KeyError(f"unknown workload {name!r} (cold-dense, storm-sparse)")


WORKLOADS = ("cold-dense", "storm-sparse")
