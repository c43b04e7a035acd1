"""Self-tests of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

import hostref
import run
import workloads
from ledger import LAYERS, Recorder

from repro.core.scale import StudyScale


def _tiny(factory, tmp_path, **scale_changes):
    workload = factory({}, str(tmp_path), 0)
    workload.scale = dataclasses.replace(StudyScale.tiny(), **scale_changes)
    return workload


def _committed(workload):
    """Run one rep to learn the digest, then commit it."""
    workload.rep(0, None, hits=1)
    workload.digests = dict(workload.seen)
    return workload


@pytest.mark.parametrize("factory", [workloads.characterize, workloads.ladder])
def test_study_workload_completes_one_rep(factory, tmp_path):
    workload = _tiny(factory, tmp_path)
    try:
        first = workload.rep(0, None, hits=2)
        assert first.failed == 1  # nothing committed for a tiny study yet
        workload.digests = dict(workload.seen)
        result = workload.rep(0, None, hits=2)
    finally:
        workload.close()
    assert result.failed == 0, result.problems
    assert result.attempted == 1 + 2 * 2
    assert len(result.samples["study_s"]) == len(result.samples["miss_s"]) == 1
    assert len(result.samples["hit_s"]) == len(result.samples["fetch_s"]) == 2
    (key, deltas), = result.counts
    assert key == "0"
    for name in workloads.EXACT:
        assert deltas[name] == first.counts[0][1][name], name


def test_service_workload_completes_one_rep(tmp_path):
    workload = workloads.ServiceWorkload({}, str(tmp_path), 0)
    try:
        anchor = workload.warmup()
        assert anchor.failed == 1  # the anchor digest is not committed
        workload.digests = dict(workload.seen)
        result = workload.rep(0, None)
        gate = workload.direct_gate()
    finally:
        workload.close()
        run.stop_resource_tracker()
    # No pool worker or helper process outlives the workload.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert result.failed == 0, result.problems
    assert gate.failed == 0, gate.problems
    misses = len(result.samples["miss_s"])
    assert len(result.samples["study_s"]) == misses
    assert misses >= 1
    assert len(result.samples["hit_s"]) == misses * workloads.SERVICE_HITS
    assert len(result.samples["fetch_s"]) == misses * (
        workloads.SERVICE_HITS + 1)


def test_digest_gate_trips_on_tampered_study(tmp_path):
    workload = _committed(_tiny(workloads.characterize, tmp_path))
    try:
        good = workload.digests["0"]
        workload.digests["0"] = good[::-1]
        result = workload.rep(0, None, hits=0)
        assert result.failed == 1
        assert "digest" in result.problems[0]
    finally:
        workload.close()


def test_digest_gate_trips_on_tampered_fetch(tmp_path, monkeypatch):
    workload = _committed(_tiny(workloads.characterize, tmp_path))
    load_dict = workload.store.load_dict

    def tampered(fingerprint):
        document = load_dict(fingerprint)
        document["seed"] += 1
        return document

    monkeypatch.setattr(workload.store, "load_dict", tampered)
    try:
        result = workload.rep(0, None, hits=1)
    finally:
        workload.close()
    assert result.failed == 1
    assert result.problems[0].startswith("fetch:")


def test_document_digest_ignores_provenance_only():
    document = {"seed": 0, "modules": {}, "provenance": {"wall": 1.0}}
    digest = workloads.document_digest(document)
    assert digest == workloads.document_digest(
        dict(document, provenance={"wall": 2.0}))
    assert digest != workloads.document_digest(dict(document, seed=1))


def test_scaling_arithmetic():
    assert hostref.scale(2.0, 0.15, 0.30) == pytest.approx(1.0)
    assert hostref.scale(1.0, 0.2, 0.1) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hostref.scale(1.0, 0.2, 0.0)
    slices = [(0.0, 0.010, 0.001), (1.0, 0.020, 0.002),
              (2.0, 0.030, 0.003), (9.0, 0.050, 0.005)]
    assert hostref.reference(slices) == pytest.approx(0.025)
    weighted = [cpu + hostref.IO_WEIGHT * io for _, cpu, io in slices]
    assert hostref.reference(slices, io=True) == pytest.approx(
        (weighted[1] + weighted[2]) / 2)
    # Local reference: only the slices within the window of the op.
    assert hostref.reference(slices, 1.2, 1.4) == pytest.approx(0.020)
    assert hostref.reference(slices, 1.2, 1.4, io=True) == pytest.approx(
        weighted[1])
    assert hostref.reference(slices, 5.0, 5.1) == pytest.approx(0.025)
    # Slice time (CPU and I/O) inside an op is not the op's.
    assert hostref.net_duration(0.5, 2.5, slices) == pytest.approx(1.945)
    assert hostref.net_duration(3.0, 4.0, slices) == pytest.approx(1.0)
    sample = [float(v) for v in range(1, 11)]
    assert hostref.percentile(sample, 0.5) == pytest.approx(5.5)
    assert hostref.percentile(sample, 0.9) == pytest.approx(9.1)
    assert hostref.percentile([3.0], 0.9) == 3.0


def test_sampler_interleaves_slices_with_work():
    sampler = hostref.HostSampler(interval=0.02)
    with sampler.interleaved():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    slices = sampler.take()
    assert len(slices) >= 3
    assert all(cpu > 0.0 and io == 0.0 for _, cpu, io in slices)
    assert sampler.take() == []


def test_io_kernel_slices_time_file_writes(tmp_path):
    sampler = hostref.HostSampler(
        io_kernel=hostref.IoKernel(str(tmp_path / "io")))
    sampler.sample()
    (_, cpu, io), = sampler.take()
    assert cpu > 0.0 and io > 0.0
    assert sorted(p.name for p in (tmp_path / "io").iterdir()) == sorted(
        f"{index}.json" for index in range(hostref.IO_WRITES))


def test_run_counts_drift_within_a_run_as_failure():
    tally = run.Run(1.0, 0.0, workloads.EXACT)
    same = {name: 1 for name in workloads.EXACT + workloads.BYTES}
    tally.absorb(workloads.RepResult(counts=[("0", same)]))
    tally.absorb(workloads.RepResult(
        counts=[("0", dict(same, repro_study_cache_write_bytes_total=2))]))
    assert tally.failed == 0  # byte counts may move with provenance
    tally.absorb(workloads.RepResult(
        counts=[("0", dict(same, repro_probes_hammer_total=2))]))
    assert tally.failed == 1 and tally.count_drift == 1
    tally.check_committed({"0": dict(same, repro_sweep_hits_total=5)})
    assert tally.committed_drift == ["0:repro_sweep_hits_total 5 -> 1"]


def _traced_rep(workload, sampler=None):
    recorder = Recorder()
    if sampler is not None:
        sampler.span = recorder.span
    with recorder.installed():
        workload.rep(0, recorder, sampler, hits=1)
    return recorder


def test_layer_table_adds_up_to_end_to_end(tmp_path):
    workload = _committed(_tiny(workloads.characterize, tmp_path))
    try:
        # Reference slices fire from a signal handler inside wrapped
        # calls; they must nest as spans of their own.
        recorder = _traced_rep(
            workload, hostref.HostSampler(interval=0.01))
    finally:
        workload.close()
    table = recorder.layer_table()
    self_total = sum(entry["self_s"] for entry in table["layers"].values())
    assert table["end_to_end_s"] > 0.0
    assert self_total + table["unattributed_s"] == pytest.approx(
        table["end_to_end_s"], rel=1e-6)
    assert 0.0 <= table["unattributed_share"] < 0.5
    layers = table["layers"]
    assert set(LAYERS) <= set(layers)
    assert layers["core.alg2"]["calls"] > 0
    assert layers["core.wcdp"]["calls"] > 0
    assert layers["harness.store.publish"]["calls"] == 1
    assert layers["host.ref"]["calls"] > 0
    trace = recorder.chrome_trace()
    assert len(trace["traceEvents"]) == len(recorder.spans)


def test_wrappers_are_removed_after_a_traced_rep():
    from repro.softmc.host import SoftMCHost

    original = SoftMCHost.__dict__["execute"]
    with Recorder().installed():
        assert SoftMCHost.__dict__["execute"] is not original
    assert SoftMCHost.__dict__["execute"] is original


def test_ladder_runs_no_alg2_and_fixed_softmc_programs(tmp_path):
    calls = []
    for rows in (8, 12):
        workload = _committed(
            _tiny(workloads.ladder, tmp_path / str(rows),
                  rows_per_module=rows))
        try:
            layers = _traced_rep(workload).layer_table()["layers"]
        finally:
            workload.close()
        assert layers["core.alg2"]["calls"] == 0
        calls.append(layers["softmc.execute"]["calls"])
    assert calls[0] == calls[1] > 0
