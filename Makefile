# Convenience entry points for the reproduction repo.
#
#   make test      - fast tier-1 run (skips the paper-reproduction benchmarks)
#   make bench     - the paper-reproduction benchmarks only
#   make replan    - the incremental re-planning equivalence sweep
#   make migration - the migration + transition-aware planning suite
#   make scenarios - the generated straggler-scenario suite
#   make sweep     - the candidate-sweep engine suite (executors + warm cache)
#   make service   - the planning-service suite (admission control, deadlines,
#                    fault injection)
#   make speculative - the speculative pre-solving suite (hit bit-identity,
#                    staleness invalidation, fault isolation)
#   make whatif    - the what-if replay suite (session recording, edit
#                    replays, leave-one-out attribution)
#   make gate      - run the planner hot-path benchmark and gate it against
#                    the committed baseline (one-liner perf gate)
#   make gate-update - refresh the committed baseline from a fresh run
#   make gate-hotpath-16k - only the 16384-GPU rows of the hot-path gate
#                    (numpy kernels: cold plan < 1s, repair < 50ms,
#                    plans bit-identical to the python reference)
#   make gate-hotpath-64k - only the 65536-GPU rows of the hot-path gate
#                    (numpy kernels: cold plan < 5s, repair < 150ms;
#                    the python reference arm is skipped above
#                    --reference-max-gpus, so these rows gate on the
#                    absolute ceilings alone)
#   make gate-transition - run the transition study and gate it against the
#                    committed (deterministic) baseline
#   make gate-transition-update - refresh the transition-study baseline
#   make gate-scenarios - run the generated-trace scenario sweep and gate it
#                    against the committed (deterministic) baseline
#   make gate-scenarios-update - refresh the scenario-sweep baseline
#   make gate-presets - run the generated-trace preset scalability sweep and
#                    gate its (deterministic) winners against the baseline
#   make gate-presets-update - refresh the preset-scalability baseline
#   make gate-service - run the planning-service latency benchmark and gate
#                    its deterministic fields against the committed baseline
#   make gate-service-update - refresh the service-latency baseline
#   make gate-speculative - run the service-latency benchmark and gate only
#                    its speculative arm (hit rate, repairs served from the
#                    speculation cache, spec p50/p99) against the baseline
#   make gate-speculative-update - refresh the same baseline (shared with
#                    gate-service; one benchmark feeds both gates)
#   make gate-whatif - record the two what-if preset sessions, verify the
#                    no-edit replays are bit-identical, and gate the
#                    leave-one-out attribution rankings against the
#                    committed (deterministic) baseline
#   make gate-whatif-update - refresh the what-if baseline
#   make perfbench - smoke run of the end-to-end benchmark: 10 s of each
#                    workload (cold-dense, storm-sparse) at seed 1; fails
#                    unless each run's last line reports "correct": true
#                    and "failed": 0
#   make gate-all  - every committed gate (hotpath incl. the 16384- and
#                    65536-GPU rows, transition, scenarios, Table-5
#                    presets, service latency incl. the speculative arm,
#                    what-if replay) plus the fast tier-1 run

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench replan migration scenarios sweep service speculative \
	whatif gate gate-update \
	gate-hotpath-16k gate-hotpath-64k gate-transition \
	gate-transition-update gate-scenarios \
	gate-scenarios-update gate-presets gate-presets-update \
	gate-service gate-service-update gate-speculative \
	gate-speculative-update gate-whatif gate-whatif-update gate-all \
	perfbench

test:
	$(PYTHON) -m pytest -x -q -m "not bench"

bench:
	$(PYTHON) -m pytest -q -m bench -s

replan:
	$(PYTHON) -m pytest -q -m replan

migration:
	$(PYTHON) -m pytest -q -m migration

scenarios:
	$(PYTHON) -m pytest -q -m "scenario and not bench"

sweep:
	$(PYTHON) -m pytest -q -m "sweep and not bench"

service:
	$(PYTHON) -m pytest -q -m "service and not bench"

speculative:
	$(PYTHON) -m pytest -q -m "speculative and not bench"

whatif:
	$(PYTHON) -m pytest -q -m "whatif and not bench"

gate:
	$(PYTHON) -m repro.experiments.planner_hotpath --gate

gate-update:
	$(PYTHON) -m repro.experiments.planner_hotpath --update

gate-hotpath-16k:
	$(PYTHON) -m repro.experiments.planner_hotpath --gate --only 16384

gate-hotpath-64k:
	$(PYTHON) -m repro.experiments.planner_hotpath --gate --only 65536

gate-transition:
	$(PYTHON) -m repro.experiments.transition_study --gate

gate-transition-update:
	$(PYTHON) -m repro.experiments.transition_study --update

gate-scenarios:
	$(PYTHON) -m repro.experiments.scenario_sweep --gate

gate-scenarios-update:
	$(PYTHON) -m repro.experiments.scenario_sweep --update

gate-presets:
	$(PYTHON) -m repro.experiments.planning_scalability --gate

gate-presets-update:
	$(PYTHON) -m repro.experiments.planning_scalability --update

gate-service:
	$(PYTHON) -m repro.experiments.service_latency --gate

gate-service-update:
	$(PYTHON) -m repro.experiments.service_latency --update

gate-speculative:
	$(PYTHON) -m repro.experiments.service_latency --gate --speculative

gate-speculative-update:
	$(PYTHON) -m repro.experiments.service_latency --update

gate-whatif:
	$(PYTHON) -m repro.experiments.whatif --gate

gate-whatif-update:
	$(PYTHON) -m repro.experiments.whatif --update

gate-all: gate gate-hotpath-64k gate-transition gate-scenarios \
	gate-presets gate-service gate-speculative gate-whatif test

# Passes when the result line (the last line a perfbench run prints) reads
# "correct": true with 0 failed operations.
PERFBENCH_OK = import json, sys; r = json.loads(sys.stdin.readlines()[-1]); \
	sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)

perfbench:
	@for w in cold-dense storm-sparse; do \
		out=$$(python3 perfbench/run.py --workload $$w --seed 1 \
			--seconds 10 --trace 0) || exit 1; \
		printf '%s\n' "$$out" | tail -n 1 | cut -c 1-120; \
		printf '%s\n' "$$out" | python3 -c '$(PERFBENCH_OK)' || { \
			echo "perfbench $$w: result not correct or with failed operations"; \
			exit 1; }; \
	done
