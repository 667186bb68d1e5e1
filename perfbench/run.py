"""Malleus planning benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload storm-sparse --seed 1 --seconds 20 \
        --trace 0

Runs from a plain checkout: ``repro`` is imported from the ``src``
directory next to this one, with no install and no environment variable.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the run measures the same rounds
untraced and then traced, prints the per-layer table, writes the spans
to ``perfbench/traces/`` as Chrome trace-event JSON and reports the
per-layer metrics.  See README.md for the metrics and the workloads.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_repro() -> bool:
    """Import ``repro`` from this checkout's ``src``; False if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro
    return Path(repro.__file__).resolve().is_relative_to(SRC.resolve())


def passes(workload, seconds: float) -> int:
    """Passes over the workload's inputs that fit ``seconds`` at the
    nominal pace.

    The count depends on ``seconds`` alone, never on how fast this run
    goes, so every run of a workload does the same work.
    """
    return max(1, round(seconds / (workload.inputs * workload.round_seconds)))


def measure(workload, seconds: float, tally, tracer=None) -> None:
    """Play every input once per pass, for ``passes`` passes."""
    for repeat in range(passes(workload, seconds)):
        for index in range(workload.inputs):
            try:
                workload.run_round(index, repeat, tally, tracer)
            except Exception as exc:  # a fault in the benchmark's own code
                tally.failed += 1
                tally.attempted += 1
                tally.error(f"input {index} repeat {repeat} raised {exc!r}")
                traceback.print_exc(file=sys.stderr)
            tally.rounds += 1


def metric(value: float, unit: str) -> dict:
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def end_to_end(tally, setup_seconds: float) -> dict:
    return {
        "setup_s": metric(setup_seconds, "s"),
        "replan_p50_s": metric(tally.replan_p50(), "s"),
        "events_per_s": metric(tally.events_per_s(), "1/s"),
        "sim_samples_per_s": metric(
            tally.sim_samples / tally.sim_seconds if tally.sim_seconds
            else math.nan, "samples/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    from spans import layer_names
    from workloads import TIERS

    metrics = {}
    for name in layer_names():
        self_seconds, calls = tracer.layers[name]
        metrics[f"{name}.self_s"] = metric(self_seconds, "s")
        metrics[f"{name}.calls"] = metric(calls, "count")
    counts = dict(traced.counters)
    counts.update(tracer.counters)
    names = ["runtime.service.episodes", "runtime.service.merged"]
    names += [f"runtime.replan.tier.{tier}" for tier in TIERS]
    names += ["core.sweep.evaluated", "core.sweep.pruned",
              "simulator.restart.count"]
    for name in names:
        metrics[name] = metric(counts.get(name, 0), "count")
    metrics["parallel.migration.gb"] = metric(
        counts.get("parallel.migration.gb", 0.0), "GB")
    metrics["unattributed_s"] = metric(
        traced.loop_seconds - tracer.root_seconds, "s")
    metrics["tracing_overhead_s"] = metric(
        traced.loop_seconds - untraced.loop_seconds, "s")
    return metrics


def print_table(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>12}  {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Stay on one CPU: runs that wandered between the CPUs of a shared
    # 2-core box differed by up to 1.6x in speed on the same work.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not import_repro():
        print(f"perfbench: no importable repro package under {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Tally, make_workload
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed)
    workload.build()
    setup_seconds = time.perf_counter() - _STARTED

    untraced = Tally()
    workload.check_setup(untraced)
    measure(workload, args.seconds, untraced)
    workload.replay_checks(untraced)
    tallies = [untraced]
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        traced = Tally()
        measure(workload, args.seconds, traced, tracer=tracer)
        tallies.append(traced)
        metrics = per_layer(tracer, traced, untraced)
        out = HERE / "traces"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(path)
        print_table(f"{args.workload} seed {args.seed}: per-layer, "
                    f"{traced.rounds} traced rounds "
                    f"({tracer.dropped} spans not kept; trace: "
                    f"{path.relative_to(HERE.parent)})", metrics)
    else:
        metrics = end_to_end(untraced, setup_seconds)
        print_table(f"{args.workload} seed {args.seed}: {untraced.rounds} "
                    f"rounds, {untraced.events} events, "
                    f"{len(untraced.op_samples)} planning operations "
                    f"x {passes(workload, args.seconds)} passes", metrics)

    errors = [e for t in tallies for e in t.errors]
    error_count = sum(t.error_count for t in tallies)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if error_count > len(errors):
        print(f"... {error_count - len(errors)} more check failures",
              file=sys.stderr)
    print(json.dumps({
        "correct": error_count == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
