"""Runtime import graph: no entry point may load scipy, and pool
workers import nothing per job.

scipy is a test-only dependency (the reference for the ``normal_ppf``
port); loading it costs over a second and tens of MB per process, so a
fresh interpreter that imports every entry point and runs a study must
finish with no ``scipy`` module in ``sys.modules``.

A serving process forks its pool workers once and every pooled
campaign reuses them; the pool's initializer loads what the unit path
imports lazily. A module a worker imported while running a unit instead
would cost the campaign that first lands on that worker (tens of ms on
the ``service`` benchmark), and a worker forked per campaign would pay
it every time.
"""

import ast
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


#: Two pooled campaigns on one pool. The audit hook goes in before the
#: pool forks, so the workers inherit it (spawned helpers such as the
#: resource tracker do not) and report every module they import; the
#: marker line separates the first campaign from the second.
_POOLED_SCRIPT = """
import os
import sys
import time

from repro import StudyScale
from repro.obs import context as obs_context
from repro.obs.trace import TRACER
from repro.service import CampaignService
from repro.service.pool import WorkerPool


def report_worker_imports(event, args, coordinator=os.getpid()):
    if event == "import" and os.getpid() != coordinator:
        print("worker import:", args[0], flush=True)


def worker_pids(pool):
    return sorted(pool._executor._processes)


def run(seed, pool):
    CampaignService(
        ["C5"], tests=("rowhammer",), scale=StudyScale.tiny(), seed=seed,
        max_workers=2, pool=pool,
    ).run()
    pids = sorted({
        event["args"]["pid"]
        for fragment in obs_context.fragments()
        for event in fragment["traceEvents"]
        if event.get("name") == "work-unit"
    })
    obs_context.clear_fragments()
    return pids


sys.addaudithook(report_worker_imports)
TRACER.enable()
with WorkerPool(2) as pool:
    forked = worker_pids(pool)
    first = run(0, pool)
    # Both workers busy at once: each has finished its initializer.
    futures = [pool.submit(time.sleep, 0.2, block=True)[0]
               for _ in range(2)]
    for future in futures:
        future.result()
    print("=== second campaign", flush=True)
    second = run(1, pool)
    print("pids:", repr((forked, first, second, worker_pids(pool))),
          flush=True)
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
    before, marker, after = stdout.partition("=== second campaign")
    assert marker, stdout[-2000:]
    # The hook reached the workers (the initializer's imports show)...
    assert "worker import: numpy.random" in before, before[-2000:]
    # ...and the second campaign made them import nothing.
    assert "worker import:" not in after, after[-2000:]
    pids_line = [line for line in after.splitlines()
                 if line.startswith("pids:")]
    forked, first, second, final = ast.literal_eval(
        pids_line[0][len("pids:"):].strip()
    )
    # Both campaigns ran on the workers forked with the pool.
    assert len(forked) == 2 and final == forked
    assert first and set(first) <= set(forked)
    assert second and set(second) <= set(forked)
