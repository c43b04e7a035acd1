# Convenience targets for the reproduction repository.

PYTHON ?= python3

.PHONY: install lint test bench bench-check bench-smoke bench-all service-smoke service-load api-smoke obs-smoke dsl-smoke artifacts examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# AST-based contract checks: experiment modules must declare campaign
# needs on their SPEC instead of calling get_study directly, code
# under repro.core / repro.service must take timestamps through
# repro.obs.clock rather than time.time()/time.monotonic(), and
# hammer schedules must come from repro.progdsl / the Program builder
# macros rather than hand-rolled ACT or hammer/REF loops.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.harness.lint

# Compiles and runs every registered DRAM-program DSL program on a
# small module: canonical-text round trips, cross-engine bit-identity,
# fingerprint stability (see docs/PROGRAMS.md).
dsl-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/dsl_smoke.py

test: lint
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Where bench-smoke writes the API load-smoke record (CI points this
# into its artifact directory so the run uploads as a workflow artifact).
BENCH_SMOKE_OUT ?= /tmp/BENCH_service_smoke.json

# Perf trajectory: hot-primitive micro-benchmarks plus the probe-kernel
# benchmark, which writes benchmarks/BENCH_probe.json (probes/sec and
# campaign wall-clock for the fused kernel and the command oracle), plus the
# orchestration-service smoke run (benchmarks/BENCH_service.json).
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/service_smoke.py \
		--out benchmarks/BENCH_service.json
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_microbenchmarks.py --benchmark-only
	PYTHONPATH=src $(PYTHON) benchmarks/bench_probe.py

# Perf-regression guard: re-measures probe throughput and the
# campaigns, fails when any metric regresses against the committed
# benchmarks/BENCH_probe.json by more than the tolerance band
# (REPRO_BENCH_TOLERANCE to widen on noisy machines).
bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_check.py

# Machine-speed-independent subset of bench-check for CI: asserts the
# committed baseline's acceptance gates (fused-over-command speedup
# floors for the hammer, retention, DSL-program and tRCD probes and the
# bench campaign) and the fused-vs-command bit-identity differential
# over every experiment family, plus zero lazy layout-head extensions
# and zero per-row fallback jitter windows (every jitter read derived by
# its hammer pass's warm-up) in its 65536-bit-row run, the preheat's
# traced memory peak
# within 25 % of its committed value, and the measurement-jitter
# prefetch's speedup floors over per-key draws (a same-process ratio,
# re-measured), and a cold import of the service and CLI entry points
# that must load no scipy or experiment module and stay within 25 % of
# its committed peak RSS, without timing re-measurement (the fused
# ladder, characterization, WCDP and preheat times are guarded by
# bench-check's re-measurement). The API
# load smoke rides along: a reduced-job concurrent run with the
# deterministic served-study-vs-direct-run gate.
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_check.py --smoke
	mkdir -p $(dir $(BENCH_SMOKE_OUT))
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_load.py --smoke \
		--out $(BENCH_SMOKE_OUT)

# One-module orchestrated campaign with one injected bench fault:
# asserts the retry succeeds, the JSON-lines event log parses, and the
# merged study matches the sequential reference bit-for-bit. Writes
# its timings to the temp directory; `make bench` records them.
service-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/service_smoke.py

# API load benchmark: >= 1000 concurrent tiny-campaign jobs against an
# in-process server; records p50/p99 request latency and jobs/sec into
# the "load" section of benchmarks/BENCH_service.json and gates on the
# served study being bit-identical to a direct run.
service-load:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_service_load.py

# Full HTTP round trip of the characterization API (submit/SSE/poll/
# fetch), the determinism gate, the store short-circuit, the HTTP error
# mapping, and the shared CLI exit-code contract.
api-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/api_smoke.py

# Tiny traced campaign validating every observability surface against
# the schemas in docs/OBSERVABILITY.md: Chrome-trace JSON (nested
# spans), Prometheus text exposition, ts+mono telemetry events, the
# study provenance disk round trip, and the stitched cross-process
# trace of an API-submitted pooled job, whose --profile table must
# attribute phase time to the worker lanes. Set OBS_SMOKE_ARTIFACTS to a
# directory to also write the traces + metrics text for CI upload.
obs-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/obs_smoke.py \
		$(if $(OBS_SMOKE_ARTIFACTS),--artifacts $(OBS_SMOKE_ARTIFACTS))

# Every artifact-regeneration benchmark (slow).
bench-all:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every paper table/figure into results/ (campaigns pre-run
# through the orchestration service over 6 worker processes).
artifacts:
	PYTHONPATH=src $(PYTHON) examples/full_paper_run.py --parallel 6 --out results/

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/attack_demo.py
	PYTHONPATH=src $(PYTHON) examples/vpp_recommendation.py
	PYTHONPATH=src $(PYTHON) examples/spice_waveforms.py
	PYTHONPATH=src $(PYTHON) examples/ecc_selective_refresh.py
	PYTHONPATH=src $(PYTHON) examples/reduced_vpp_system.py
	PYTHONPATH=src $(PYTHON) examples/system_level_attack.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
