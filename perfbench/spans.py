"""In-memory span tracing of ``repro`` layer calls, installed from outside.

A :class:`Tracer` wraps the public functions and methods named in
:data:`LAYERS` at the place where callers look them up: a module-level
function is replaced in *every* loaded ``repro`` module that holds it (a
``from x import f`` binds ``f`` in the importing module, so patching the
defining module alone would miss those calls), and a method is replaced
on its class.  The wrappers cost one flag test while the tracer is
inactive, so the benchmark switches tracing on only around the calls it
times.

Each span records (name, start, end, parent).  A layer's self time is
its span's duration minus the time its child spans cover.  Spans stay in
memory (up to a cap; aggregates are kept for every span) and are written
once, at the end of the run, as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (metric name, defining module, attribute) of every traced layer.  A
#: dotted attribute names a method on a class.  Two targets may share a
#: metric name (``drain`` is reported with ``pump``).
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("core.grouping.group_gpus", "repro.core.grouping", "group_gpus"),
    ("core.orchestration.order_pipeline_groups", "repro.core.orchestration",
     "order_pipeline_groups"),
    ("core.sweep.candidate_bound", "repro.core.sweep", "candidate_bound"),
    ("core.sweep.run_sweep", "repro.core.sweep", "run_sweep"),
    ("core.assignment.solve_lower_level", "repro.core.assignment",
     "solve_lower_level"),
    ("core.planner.plan", "repro.core.planner", "MalleusPlanner.plan"),
    ("core.orchestration.divide_pipelines", "repro.core.orchestration",
     "divide_pipelines"),
    ("solvers.division.solve_pipeline_division", "repro.solvers.division",
     "solve_pipeline_division"),
    ("solvers.minmax.solve_minmax_assignment", "repro.solvers.minmax",
     "solve_minmax_assignment"),
    ("runtime.replan.classify", "repro.runtime.replan",
     "ReplanEngine.classify"),
    ("runtime.replan.repair", "repro.runtime.replan", "ReplanEngine.repair"),
    ("parallel.migration.plan_migration", "repro.parallel.migration",
     "plan_migration"),
    ("simulator.executor.migration_downtime", "repro.simulator.executor",
     "ExecutionSimulator.migration_downtime"),
    ("runtime.service.submit", "repro.runtime.service",
     "PlanningService.submit"),
    ("runtime.service.pump", "repro.runtime.service", "PlanningService.pump"),
    ("runtime.service.pump", "repro.runtime.service", "PlanningService.drain"),
    ("runtime.malleus.on_situation_change", "repro.runtime.malleus",
     "MalleusSystem.on_situation_change"),
    ("cluster.profiler.measure", "repro.cluster.profiler", "Profiler.measure"),
)

#: Spans kept for the trace file; aggregates cover every span regardless.
MAX_KEPT_SPANS = 100_000


def layer_names() -> List[str]:
    """Distinct layer metric names, in :data:`LAYERS` order."""
    return list(dict.fromkeys(name for name, _, _ in LAYERS))


def _sweep_counts(tracer: "Tracer", outcome) -> None:
    tracer.counters["core.sweep.evaluated"] += outcome.stats.evaluated
    tracer.counters["core.sweep.pruned"] += outcome.stats.pruned


#: Counters read from a traced call's return value.
_ON_RESULT: Dict[str, Callable] = {"core.sweep.run_sweep": _sweep_counts}


class Tracer:
    """Span recorder; inactive until :attr:`active` is set."""

    def __init__(self):
        self.active = False
        #: name -> [self seconds, calls]
        self.layers: Dict[str, List[float]] = {
            name: [0.0, 0] for name in layer_names()
        }
        self.counters: Dict[str, float] = defaultdict(float)
        #: Wall seconds covered by root spans (spans with no parent).
        self.root_seconds = 0.0
        #: Kept spans: (id, name, start, end, parent id or -1).
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that records one ``name`` span per call."""
        tracer = self
        on_result = _ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][3] if tracer._stack else -1
            frame = [name, time.perf_counter(), 0.0, tracer._next_id, parent]
            tracer._next_id += 1
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child_seconds, span_id, parent = frame
        self._stack.pop()
        duration = end - start
        entry = self.layers[name]
        entry[0] += duration - child_seconds
        entry[1] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_seconds += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every :data:`LAYERS` target where callers look it up."""
        replace: Dict[int, Tuple[Callable, Callable]] = {}
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method]))
            else:
                original = getattr(module, attr)
                replace[id(original)] = (original, self.wrap(name, original))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def write_chrome_trace(self, path) -> None:
        """Write the kept spans as Chrome trace-event JSON (``ph: X``)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": span_id, "parent": parent}}
            for span_id, name, start, end, parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"dropped_spans": self.dropped}}, handle)
