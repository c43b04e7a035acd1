"""Published JSON is byte-identical to streaming ``json.dump``.

``save_study``, the checkpoint writer, the job-record writer and the
flight-recorder dump encode once with ``json.dumps`` and write the
string in one call (streaming ``json.dump`` runs CPython's pure-Python
encoder); the files they write must not change by a byte.
"""

import json
import pathlib

from repro.api.jobs import Job, JobSpec, JobStateDir
from repro.core.serialization import save_study, study_from_dict, study_to_dict
from repro.obs.flightrec import FlightRecorder
from repro.service.checkpoint import CheckpointStore

GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "c5_tiny_study.json"


def _streamed(payload, path, **options):
    with open(path, "w") as handle:
        json.dump(payload, handle, **options)
    return path.read_bytes()


def test_save_study_bytes_equal_json_dump(tmp_path):
    study = study_from_dict(json.loads(GOLDEN.read_text()))
    published = tmp_path / "study.json"
    save_study(study, str(published))
    assert published.read_bytes() == _streamed(
        study_to_dict(study), tmp_path / "streamed.json"
    )


def test_checkpoint_unit_bytes_equal_json_dump(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    payload = {
        "unit_id": "C5/rows/0-8",
        "module": golden["modules"]["C5"],
        "metrics": {"probes": 1234, "seconds": 0.1 + 0.2, "label": "µs"},
    }
    path = CheckpointStore(str(tmp_path / "ckpt")).write_unit(payload)
    assert pathlib.Path(path).read_bytes() == _streamed(
        payload, tmp_path / "streamed.json"
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
