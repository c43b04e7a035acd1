#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload characterize --seed 1 \\
        --seconds 16 --trace 0

Workloads (see ``workloads.py``): ``characterize``, ``ladder`` and
``service``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones, from a run
that repeats every rep, untraced and then with its layer entry points
wrapped (``ledger.py``), and writes the layer table and a Chrome trace
under ``perfbench/out/``. Each run also writes its full report there.

End-to-end times are host times scaled to a nominal host speed by a
reference kernel timed beside the work (``hostref.py``); ``service``
store-hit latencies, made largely of small file writes, are scaled by
the kernel's CPU plus I/O time. ``setup_s`` is
the median, over fresh interpreter processes, of the time from process
start to ready: imports and, for ``service``, server start. After set-up
one untimed warm-up rep runs; then a fixed number of reps, in whole
passes over the workload's inputs, sized to fill ``--seconds`` on the
nominal host (:func:`rep_count`).

Maintenance: ``--record`` re-derives ``expected.json`` (digests and
exact counter deltas) from the current code.
"""

from __future__ import annotations

import os
import sys

#: The benchmark pins string hashing, so set/dict iteration order in
#: the program under test cannot vary between runs.
HASH_SEED = "0"

if __name__ == "__main__":
    # The library defaults are what is measured: the default probe
    # engine, and no disk cache behind the fresh studies.
    for name in ("REPRO_PROBE_ENGINE", "REPRO_STUDY_CACHE_DIR"):
        os.environ.pop(name, None)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable, [sys.executable] + sys.argv,
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from hostref import (  # noqa: E402
    HostSampler, IoKernel, ReferenceKernel, net_duration, percentile,
    reference, scale,
)

OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Fresh-process set-up measurements per run (median reported).
SETUP_SAMPLES = 3

#: Seconds a set-up probe may take before the run gives up.
SETUP_TIMEOUT_S = 60.0

#: The end-to-end time metrics: name -> (sample key, quantile, factor).
TIME_METRICS = {
    "study_s": ("study_s", 0.5, 1.0),
    "miss_job_ms_p50": ("miss_s", 0.5, 1e3),
    "hit_job_ms_p50": ("hit_s", 0.5, 1e3),
    "hit_job_ms_p90": ("hit_s", 0.9, 1e3),
    "fetch_ms_p50": ("fetch_s", 0.5, 1e3),
}

#: Time metrics reported per layer (``--trace 1``) instead of end to
#: end. A service store hit's p90 is set by thread stalls when the host
#: is contended: in two ten-run sets on the 2-vCPU sizing host its scaled
#: value was 1.56-1.70 ms in quiet runs and 2.9-3.8 ms in contended
#: ones (IQR 0.97 of the median), while the p50 stayed within 0.045.
PER_LAYER_TIMES = ("hit_job_ms_p90",)

#: Layers whose calls / busy / self seconds are per-layer metrics.
LEDGER_LAYERS = (
    "core.wcdp", "core.alg1", "core.alg2", "core.alg3", "core.preheat",
    "dram.sweep", "softmc.execute", "api.persist", "service.run",
    "harness.store.publish", "harness.store.read",
)


def _load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def _workdir(tag: str) -> str:
    path = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# -- set-up -----------------------------------------------------------------


def setup_probe(workload: str) -> int:
    """Child process: import, build the workload, then report ``ready``
    with the reference time and the time its slices took."""
    sampler = HostSampler()
    sampler.sample()
    workdir = _workdir("probe")
    try:
        with sampler.interleaved():
            import workloads

            built = workloads.WORKLOADS[workload]({}, workdir, 0)
        slices = sampler.take()
        spent = sum(cpu + io for _, cpu, io in slices)
        print(f"ready {reference(slices)!r} {spent!r}", flush=True)
        built.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str) -> list:
    """(raw seconds, reference seconds) per fresh-process set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             "--setup-probe", workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        fields = line.split()
        if len(fields) != 3 or fields[0] != "ready" or child.returncode:
            raise RuntimeError(
                f"set-up probe for {workload} failed "
                f"(exit {child.returncode})"
            )
        samples.append((elapsed - float(fields[2]), float(fields[1])))
    return samples


# -- the measured run -------------------------------------------------------


class Run:
    """Tallies of one invocation: scaled and raw samples, ops, counts."""

    def __init__(self, ref_nominal: float, io_nominal: float, exact,
                 io_bound=()):
        self.ref_nominal = ref_nominal
        self.io_nominal = io_nominal
        self.exact = exact
        #: Sample keys scaled by the CPU plus I/O reference.
        self.io_bound = io_bound
        self.raw = {}
        self.scaled = {}
        self.values = {}
        self.refs = []
        self.io_refs = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}
        self.count_drift = 0
        self.committed_drift = []

    def absorb(self, result, slices=None) -> None:
        """Add a rep's tallies; with the reference ``slices`` timed
        beside it, its samples too (net of slice time, then scaled)."""
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems.extend(result.problems)
        for key, deltas in result.counts:
            first = self.counts.setdefault(key, deltas)
            if any(deltas[name] != first[name] for name in self.exact):
                self.count_drift += 1
                self.failed += 1
                self.problems.append(
                    f"nondeterminism: counter deltas for input {key} "
                    f"differ between reps: {first} vs {deltas}"
                )
        if slices is None:
            return
        self.refs.append(reference(slices))
        self.io_refs.extend(io for _, _, io in slices)
        for key, intervals in result.samples.items():
            io = key in self.io_bound
            nominal = self.ref_nominal + (self.io_nominal if io else 0.0)
            for start, end in intervals:
                net = net_duration(start, end, slices)
                self.raw.setdefault(key, []).append(net)
                self.scaled.setdefault(key, []).append(scale(
                    net, nominal, reference(slices, start, end, io=io)
                ))
        for key, values in result.values.items():
            self.values.setdefault(key, []).extend(values)

    def check_committed(self, committed: dict) -> None:
        """Counter deltas that differ from the committed ones: reported
        (the work changed), not failed (the results did not)."""
        for key, deltas in sorted(self.counts.items()):
            want = committed.get(key)
            if want is None:
                continue
            for name in self.exact:
                if want.get(name) != deltas[name]:
                    self.committed_drift.append(
                        f"{key}:{name} {want.get(name)} -> {deltas[name]}"
                    )


def time_metrics(samples: dict) -> dict:
    return {
        name: percentile(samples[key], q) * factor
        for name, (key, q, factor) in TIME_METRICS.items()
    }


def run_workload(args) -> int:
    expected = _load_expected()
    ref_nominal = expected["ref_nominal_s"]
    io_nominal = expected["io_ref_nominal_s"]
    setup = measure_setup(args.workload)

    import workloads
    from ledger import Recorder

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = _workdir(args.workload)
    recorder = Recorder() if args.trace else None
    walls = {False: [], True: []}
    try:
        workload = workloads.WORKLOADS[args.workload](
            expected, workdir, args.seed
        )
        run = Run(ref_nominal, io_nominal, workloads.EXACT,
                  workload.io_bound)
        sampler = HostSampler(
            io_kernel=IoKernel(os.path.join(workdir, "ioref"))
            if workload.io_bound else None
        )
        try:
            run.absorb(workload.warmup())
            # Flush the file system's dirty backlog (earlier runs' job
            # records and deletions), or it slows this run's writes.
            os.sync()
            # A traced run repeats each rep, untraced then traced, so
            # the tracing overhead compares identical inputs; it runs
            # half the reps to keep to the same length.
            modes = (False, True) if args.trace else (False,)
            reps = rep_count(workload, args.seconds)
            for index in range(max(1, reps // len(modes))):
                for traced in modes:
                    walls[traced].append(
                        _timed_rep(workload, index, run, sampler,
                                   recorder if traced else None)
                    )
            if hasattr(workload, "direct_gate"):
                run.absorb(workload.direct_gate())
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()
    run.check_committed(expected.get("counts", {}).get(args.workload, {}))

    raw_setup = [raw for raw, _ in setup]
    scaled_setup = [scale(raw, ref_nominal, ref) for raw, ref in setup]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = time_metrics(run.scaled)
    raw = time_metrics(run.raw)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_s": {"scaled": percentile(scaled_setup, 0.5),
                    "raw": percentile(raw_setup, 0.5),
                    "ref_ms": [ref * 1e3 for _, ref in setup]},
        "scaled": scaled, "raw": raw,
        "peak_rss_mb": peak_rss_mb,
        "ref_ms": [ref * 1e3 for ref in run.refs],
        "io_ref_ms": (percentile(run.io_refs, 0.5) * 1e3
                      if run.io_refs else None),
        "samples": {k: len(v) for k, v in run.raw.items()},
        "counts": run.counts,
        "committed_count_drift": run.committed_drift,
        "problems": run.problems,
    }
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for drift in run.committed_drift:
        print(f"count drift vs committed: {drift}", file=sys.stderr)

    if args.trace:
        report["layers"] = recorder.layer_table()
        metrics = layer_metrics(run, recorder, report["layers"], raw,
                                raw_setup, walls)
        for name in PER_LAYER_TIMES:
            metrics[name] = {"value": scaled[name], "unit": _unit(name)}
        recorder.write_chrome_trace(
            os.path.join(OUT_DIR, f"{args.workload}-trace.json")
        )
        with open(os.path.join(OUT_DIR, f"{args.workload}-layers.json"),
                  "w") as handle:
            json.dump(report["layers"], handle, indent=2)
    else:
        metrics = {
            "setup_s": {"value": report["setup_s"]["scaled"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        for name, value in scaled.items():
            if name not in PER_LAYER_TIMES:
                metrics[name] = {"value": value, "unit": _unit(name)}
    with open(os.path.join(
            OUT_DIR,
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ms"


def rep_count(workload, seconds: float) -> int:
    """Reps that fill ``seconds`` on the nominal host, in whole passes
    over the workload's inputs (at least one). The count depends only on
    ``seconds``, so every run does the same work however fast it goes."""
    per_pass = workload.inputs * workload.nominal_rep_s
    return workload.inputs * max(1, round(seconds / per_pass))


def _timed_rep(workload, index, run, sampler, recorder) -> float:
    """Run one rep between reference slices; returns its scaled wall
    time per operation (one study, or one service cycle)."""
    gc.collect()
    sampler.sample()
    started = time.perf_counter()
    if recorder is None:
        result = workload.rep(index, None, sampler)
    else:
        sampler.span = recorder.span
        try:
            with recorder.installed():
                result = workload.rep(index, recorder, sampler)
        finally:
            sampler.span = None
    ended = time.perf_counter()
    sampler.sample()
    slices = sampler.take()
    ops = max(1, len(result.samples.get("study_s", ())))
    if recorder is None:
        run.absorb(result, slices)
    else:
        # Wrapped calls inflate a traced rep's samples; keep its tallies.
        result.samples, result.values = {}, {}
        run.absorb(result)
    return scale(net_duration(started, ended, slices), run.ref_nominal,
                 reference(slices)) / ops


def layer_metrics(run, recorder, table, raw, raw_setup, walls) -> dict:
    """The ``--trace 1`` metric set: the layer ledger per operation,
    probe and store counters, API timings and host diagnostics."""
    layers = table["layers"]
    # One op is one study rep, or one service cycle (one miss job).
    ops = max(1, sum(
        1 for span in recorder.spans
        if span["name"] in ("op.study", "op.cycle")
        and span["end"] is not None
    ))
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LEDGER_LAYERS:
        entry = layers[layer]
        put(f"{layer}.calls", entry["calls"] / ops, "count/op")
        put(f"{layer}.busy_s", entry["busy_s"] / ops, "s/op")
        put(f"{layer}.self_s", entry["self_s"] / ops, "s/op")

    # Counter deltas of one op, averaged over the run's inputs.
    deltas = list(run.counts.values())
    per_op = {
        name: statistics.fmean(d[name] for d in deltas)
        for name in deltas[0]
    }
    hits = per_op["repro_sweep_hits_total"]
    misses = per_op["repro_sweep_misses_total"]
    put("softmc.commands", per_op["repro_commands_issued_total"],
        "count/op")
    put("core.probe.hammer_probes", per_op["repro_probes_hammer_total"],
        "count/op")
    put("core.probe.retention_probes",
        per_op["repro_probes_retention_total"], "count/op")
    put("core.probe.sweep_hit_ratio",
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("core.probe.sweep_evictions", per_op["repro_sweep_evictions_total"],
        "count/op")
    put("harness.store.publish.bytes",
        per_op["repro_study_cache_write_bytes_total"], "bytes/op")

    submit = run.raw.get("submit_s")
    queue_wait = run.values.get("queue_wait_s")
    polls = run.values.get("polls")
    put("api.submit_ms_p50",
        percentile(submit, 0.5) * 1e3 if submit else 0.0, "ms")
    put("api.queue_wait_ms_p50",
        percentile(queue_wait, 0.5) * 1e3 if queue_wait else 0.0, "ms")
    put("api.polls_per_job", statistics.fmean(polls) if polls else 0.0,
        "count/job")

    put("host.ref_ms", percentile(run.refs, 0.5) * 1e3, "ms")
    put("host.raw_setup_s", percentile(raw_setup, 0.5), "s")
    for name, value in raw.items():
        put(f"host.raw_{name}", value, _unit(name))
    put("unattributed_share", table["unattributed_share"], "ratio")
    put("trace.overhead",
        percentile(walls[True], 0.5) / percentile(walls[False], 0.5) - 1.0,
        "ratio")
    put("counts.drift", float(run.count_drift + len(run.committed_drift)),
        "count")
    return metrics


# -- maintenance ------------------------------------------------------------


def record_expected() -> int:
    """Re-derive ``expected.json`` from the current code: the digest and
    counter deltas of every committed input. ``ref_nominal_s`` is kept
    when present, so scaled figures stay comparable across versions."""
    import workloads

    previous = _load_expected() if os.path.isfile(EXPECTED_PATH) else {}
    kernel = ReferenceKernel()
    ref_nominal = previous.get("ref_nominal_s") or statistics.median(
        kernel.run() for _ in range(201)
    )
    digests, counts = {}, {}
    workdir = _workdir("record")
    try:
        io_kernel = IoKernel(os.path.join(workdir, "ioref"))
        io_nominal = previous.get("io_ref_nominal_s") or statistics.median(
            io_kernel.run() for _ in range(201)
        )
        for name in ("characterize", "ladder", "service"):
            workload = workloads.WORKLOADS[name]({}, workdir, 0)
            try:
                if name == "service":
                    results = [workload.warmup()]
                else:
                    results = [
                        workload.rep(index)
                        for index in range(len(workloads.STUDY_SEEDS))
                    ]
            finally:
                workload.close()
            digests[name] = workload.seen
            counts[name] = dict(
                pair for result in results for pair in result.counts
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({
            "ref_nominal_s": ref_nominal,
            "io_ref_nominal_s": io_nominal,
            "study_seeds": list(workloads.STUDY_SEEDS),
            "digests": digests,
            "counts": counts,
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker, which the
    program's shared-memory device state starts on its first pooled
    study. Left alone it outlives this process until it reads the end
    of its pipe, so a run would end with a helper process still alive."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_resource_tracker()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload",
                        choices=("characterize", "ladder", "service"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="re-derive expected.json from the current code")
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.record:
        return record_expected()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
