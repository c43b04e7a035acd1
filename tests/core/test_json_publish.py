"""Published JSON is byte-identical to streaming ``json.dump``.

``save_study``, the checkpoint record writer, the job-record writer and
the flight-recorder dump encode once with ``json.dumps`` and write the
string in one call (streaming ``json.dump`` runs CPython's pure-Python
encoder); the files they write must not change by a byte.
"""

import json
import pathlib

import pytest

from repro.api.jobs import Job, JobSpec, JobStateDir
from repro.core.scale import StudyScale
from repro.core.serialization import save_study, study_to_dict
from repro.core.study import CharacterizationStudy
from repro.obs.flightrec import FlightRecorder
from repro.service.checkpoint import CheckpointStore


@pytest.fixture(scope="module")
def golden_study():
    """The study ``tests/golden/c5_tiny_study.json`` records."""
    return CharacterizationStudy(scale=StudyScale.tiny(), seed=12).run(
        modules=["C5"], tests=("rowhammer", "trcd")
    )


def _streamed(payload, path, **options):
    with open(path, "w") as handle:
        json.dump(payload, handle, **options)
    return path.read_bytes()


def test_save_study_bytes_equal_json_dump(tmp_path, golden_study):
    published = tmp_path / "study.json"
    save_study(golden_study, str(published))
    assert published.read_bytes() == _streamed(
        study_to_dict(golden_study), tmp_path / "streamed.json"
    )


def test_checkpoint_unit_bytes_equal_json_dump(tmp_path, golden_study):
    record = {
        "unit_id": "C5/rows/0-8",
        "module": "C5",
        "rows": [0, 1, 2, 3, 4, 5, 6, 7],
        "metrics": {"probes": 1234, "seconds": 0.1 + 0.2, "label": "µs"},
    }
    path = CheckpointStore(str(tmp_path / "ckpt")).write_unit(
        record, golden_study
    )
    assert pathlib.Path(path).read_bytes() == _streamed(
        record, tmp_path / "streamed.json"
    )


def test_job_record_bytes_equal_json_dump(tmp_path):
    state = JobStateDir(str(tmp_path / "state"))
    job = Job.create(JobSpec.from_payload({"modules": ["C5"]}), "tenant-µ")
    job.state = "failed"
    job.error = "unit C5/rows/0-8 timed out"
    job.metrics = {
        "units_completed": 2, "seconds": 0.1 + 0.2,
        "phases": {"wcdp": 1.5, "alg1": [1, 2.25]}, "label": "µs",
    }
    job.trace = {"trace_id": "ab" * 16, "span_id": "cd" * 8}
    job.flightrec = ["/tmp/flightrec-1-001-hang.json"]
    state.save(job)
    assert pathlib.Path(state.path(job.id)).read_bytes() == _streamed(
        job.as_dict(), tmp_path / "streamed.json", sort_keys=True
    )


def test_flight_recorder_dump_bytes_equal_json_dump(tmp_path):
    recorder = FlightRecorder()
    recorder.configure(str(tmp_path / "dumps"))
    recorder.record("fault", {"kind": "power_droop", "vpp": 1.7})
    recorder.record("event", {"event": "unit_finished", "unit": "C5/0"})
    path = recorder.dump("hang_injected", extra={"unit": "C5/0", "µ": 1})
    written = pathlib.Path(path).read_bytes()
    assert written == _streamed(
        json.loads(written), tmp_path / "streamed.json"
    )
