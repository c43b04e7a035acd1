"""Runtime import graph: no entry point may load scipy, and pool
workers import nothing per job.

scipy is a test-only dependency (the reference for the ``normal_ppf``
port); loading it costs over a second and tens of MB per process, so a
fresh interpreter that imports every entry point and runs a study must
finish with no ``scipy`` module in ``sys.modules``.

Pool workers fork from the coordinator for every pooled campaign, so a
module only the worker's code path imports is imported again in every
worker of every job (tens of ms each on the ``service`` benchmark).
"""

import os
import subprocess
import sys
from pathlib import Path

# The subprocess does not inherit pytest's `pythonpath` ini option.
_SRC = str(Path(__file__).resolve().parents[1] / "src")

_SCRIPT = """
import sys

import repro
import repro.api.client
import repro.api.server
import repro.harness.runner
import repro.service.__main__
from repro import CharacterizationStudy, StudyScale

study = CharacterizationStudy(scale=StudyScale.tiny(), seed=0).run(
    modules=["C5"], tests=("rowhammer",)
)
assert study.modules["C5"].rowhammer
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print("scipy modules:", len(loaded), loaded[:5])
sys.exit(1 if loaded else 0)
"""


#: Two pooled campaigns; before the second, an audit hook (inherited
#: by the forked workers, not by spawned helpers such as the resource
#: tracker) reports every module a worker imports.
_POOLED_SCRIPT = """
import os
import sys

from repro import StudyScale
from repro.service import CampaignService


def run(seed):
    CampaignService(
        ["C5"], tests=("rowhammer",), scale=StudyScale.tiny(), seed=seed,
        max_workers=2,
    ).run()


def report_worker_imports(event, args, coordinator=os.getpid()):
    if event == "import" and os.getpid() != coordinator:
        print("worker import:", args[0], flush=True)


run(0)
sys.addaudithook(report_worker_imports)
run(1)
"""


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_STUDY_CACHE_DIR", None)
    completed = subprocess.run(
        [sys.executable] + args,
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert completed.returncode == 0, (
        completed.stdout[-2000:] + completed.stderr[-2000:]
    )
    return completed


def test_entry_points_and_a_study_never_load_scipy():
    _run(["-c", _SCRIPT])


def test_pool_workers_import_nothing_per_campaign():
    stdout = _run(["-c", _POOLED_SCRIPT]).stdout
    assert "worker import:" not in stdout, stdout[-2000:]
