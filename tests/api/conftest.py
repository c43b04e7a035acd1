"""Shared fixtures of the API tests."""

import pytest

from repro.api.jobs import COMPLETED, Job, JobSpec, run_job
from repro.harness.store import StudyStore

#: The request the API tests submit (a tiny campaign, well under 1 s).
PAYLOAD = {
    "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny", "seed": 0,
}


@pytest.fixture(scope="session")
def published_store(tmp_path_factory):
    """A study-store directory that already holds :data:`PAYLOAD`'s
    study, published by running one job; a server over it answers that
    request at admission. Tests only read it."""
    directory = str(tmp_path_factory.mktemp("published") / "store")
    job = Job.create(JobSpec.from_payload(dict(PAYLOAD)), "fixture")
    run_job(job, StudyStore(directory))
    assert job.state == COMPLETED, job.error
    return directory
