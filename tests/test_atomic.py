"""The one atomic writer: whole files or nothing, and no temp left behind."""

import json
import os

import pytest

from repro.api.jobs import Job, JobSpec, JobStateDir
from repro.atomic import TMP_PREFIX, write_atomic
from repro.obs.flightrec import FlightRecorder


def test_returns_bytes_written_and_publishes_the_text(tmp_path):
    path = str(tmp_path / "nested" / "doc.json")
    text = json.dumps({"a": 1, "label": "µs"})
    assert write_atomic(path, text) == len(text.encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == text
    assert os.listdir(tmp_path / "nested") == ["doc.json"]


def test_publishes_bytes_as_given(tmp_path):
    path = str(tmp_path / "doc.bin")
    data = b"\x00\xff" + "µs".encode("utf-8")
    assert write_atomic(path, data) == len(data)
    with open(path, "rb") as handle:
        assert handle.read() == data
    assert os.listdir(tmp_path) == ["doc.bin"]


def test_failed_publish_keeps_the_old_file_and_leaves_no_temp(
    tmp_path, monkeypatch
):
    path = tmp_path / "doc.json"
    write_atomic(str(path), "old")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_atomic(str(path), "new")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_flight_recorder_failed_dump_leaves_no_temp(tmp_path):
    recorder = FlightRecorder()
    recorder.configure(str(tmp_path))
    recorder.record("event", {"event": "unit_started"})
    # The first dump's target is taken by a directory: the replace fails.
    os.mkdir(tmp_path / f"flightrec-{os.getpid()}-001-hang.json")
    with pytest.raises(OSError):
        recorder.dump("hang")
    assert not [
        name for name in os.listdir(tmp_path)
        if name.startswith(TMP_PREFIX) or name.endswith(".tmp")
    ]


def test_job_records_skip_in_flight_temp_files(tmp_path):
    state = JobStateDir(str(tmp_path))
    job = Job.create(JobSpec.from_payload({"modules": ["C5"]}), "t")
    state.save(job)
    with open(os.path.join(state.directory, TMP_PREFIX + "x.tmp"), "w"):
        pass  # a writer killed mid-publish
    assert [loaded.id for loaded in state.load_all()] == [job.id]
