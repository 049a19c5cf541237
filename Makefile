PYTHON ?= python
export PYTHONPATH := src

## Worker processes for the parallel artifact producers (the committed
## bytes are identical for any value).
JOBS ?= $(shell $(PYTHON) -c 'import os; print(os.cpu_count() or 1)')

## Artifacts for `make refresh` (see `tools/artifacts.py --help`):
## faults fleet slo net audit profile tables simspeed.
NAME ?=

## Output path for `make trace` (open it at https://ui.perfetto.dev).
TRACE ?= trace.json

.PHONY: test lint check refresh profile trace fleet-trace

## What CI runs: the determinism lint, every artifact gate, the tests.
test: lint check
	$(PYTHON) -m pytest -x -q

## AST lint: no wall-clock reads, unseeded RNG, or unordered iteration
## in src/repro (all but the host-timed simspeed producer).
lint:
	$(PYTHON) tools/lint_determinism.py

## Regenerate every committed artifact and compare it with the
## committed file byte for byte (BENCH_simspeed.json: within 20 % of
## its probe-scaled times), and check each file's absolute claims.
check:
	$(PYTHON) tools/artifacts.py check --jobs $(JOBS)

## Rewrite the named artifacts after an intentional change, e.g.
## `make refresh NAME=net`.
refresh:
	$(PYTHON) tools/artifacts.py refresh $(NAME) --jobs $(JOBS)

## Per-compartment cycle attribution + hot-PC report for the reference
## telemetry workload (exits non-zero if attribution fails to reconcile
## with the core model's cycle count).
profile:
	$(PYTHON) tools/profile_report.py

## Export a Perfetto trace of the reference telemetry workload.
trace:
	$(PYTHON) tools/trace_export.py -o $(TRACE)

## Export the merged fleet Perfetto trace (one process per device, the
## three devices of OBS_fleet_profile.json).
fleet-trace:
	$(PYTHON) tools/trace_export.py --fleet -o fleet-trace.json
