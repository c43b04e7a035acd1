"""The benchmark's three workloads and their correctness gates.

All three are closed loops with one client, driven from one process:

* ``characterize`` -- the runner's path for one bench-scale A0 study of
  all three test families (WCDP, Alg. 1, Alg. 2, Alg. 3). A0 is a tRCD
  offender, so the command-path tRCD sweep dominates.
* ``ladder`` -- the same A0 request without tRCD, at the paper's
  65536-bit rows: probe kernels, sweep construction and preheat
  dominate, and only the fixed set-up programs reach SoftMC.
* ``service`` -- the HTTP path: an in-process ``BackgroundServer``
  with ``ApiClient``. Each cycle submits one store-miss job (tiny C5
  RowHammer, fresh seed, two pool workers), then resubmits it as store
  hits, each followed by a study fetch.

Every workload reports the same user-visible operations, so each
end-to-end metric means the same thing on all of them: a *miss* builds
a fresh study (``study_s``) and publishes it to the study store
(``miss_job_ms_p50``, which adds the publish and, on ``service``,
admission and queueing), a *hit* answers a repeated request from the
store (``hit_job_ms_*``), and a *fetch* reads the stored document
(``fetch_ms_p50``). On the two study workloads a hit is the runner's
second invocation (in-process cache cleared, disk store on) and a fetch
is ``StudyStore.load_dict``; on ``service`` they are a resubmitted job
and ``GET /v1/studies/<fingerprint>``, and ``study_s`` is the
campaign's own wall time as the job record reports it.

Study caches stay off for the miss, every miss builds a fresh study,
and the probe engine is the library default. A full garbage collection
precedes every timed operation (outside its timing): a 2 MB study
document allocates enough objects to trigger the collector's oldest
generation, and without a reset whether a given fetch pays for that
pass depends on allocation history, which made fetch medians bimodal.

Correctness: every fresh study's document (provenance stripped) is
hashed and compared with the digest committed in ``expected.json``, and
every hit and fetch must equal it; a mismatch is a failed operation.
The service additionally checks its first timed miss against a direct
in-process run of the same request.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from hostref import HostSampler
from ledger import Recorder, active

from repro.api.client import ApiClient
from repro.api.server import BackgroundServer
from repro.core.scale import StudyScale
from repro.core.serialization import study_to_dict
from repro.core.study import CharacterizationStudy
from repro.dram.calibration import ModuleGeometry
from repro.harness import cache
from repro.harness.cache import attach_provenance
from repro.harness.store import StudyStore
from repro.obs.metrics import REGISTRY

#: Study seeds the two study workloads rotate through; ``expected.json``
#: commits a digest and counter deltas for each.
STUDY_SEEDS = (0, 1, 2)

#: Store hits (each followed by a fetch) per study rep.
STUDY_HITS = 6

#: Store hits (each followed by a fetch) per service cycle.
SERVICE_HITS = 10

#: Service cycles per rep (about 2 s). A rep is a fixed number of
#: cycles, not a time slice: every admitted job stays in the server's
#: queue, and per-request cost grows with that count, so a run's latency
#: figures are only comparable if every run admits the same jobs.
SERVICE_CYCLES = 8

#: Interval between job polls. Job latency comes from the server's own
#: timestamps, so the poll interval only bounds the client's reaction.
POLL_S = 0.005

#: Seed of the service's warm-up job, whose digest is committed.
SERVICE_ANCHOR_SEED = 0

#: Counters a rep's work must reproduce exactly.
EXACT = (
    "repro_probes_hammer_total",
    "repro_probes_retention_total",
    "repro_commands_issued_total",
    "repro_sweep_hits_total",
    "repro_sweep_misses_total",
    "repro_sweep_evictions_total",
    "repro_sweep_saved_lookups_total",
)

#: Store byte counters: reported, but a published entry's size moves by
#: a byte or two with the wall-clock figures in its provenance block.
BYTES = (
    "repro_study_cache_read_bytes_total",
    "repro_study_cache_write_bytes_total",
)


def document_digest(document: Dict[str, Any]) -> str:
    """SHA-256 of a study document without its provenance block (which
    carries wall-clock cost fields)."""
    body = {k: v for k, v in document.items() if k != "provenance"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def counter_delta(before: Dict[str, float]) -> Dict[str, int]:
    """The :data:`EXACT` and :data:`BYTES` counters' growth since
    ``before``."""
    now = REGISTRY.counter_values()
    return {
        name: int(now.get(name, 0.0) - before.get(name, 0.0))
        for name in EXACT + BYTES
    }


@dataclasses.dataclass
class RepResult:
    """One rep's timed intervals and operation tallies."""

    #: metric -> ``(start, end)`` intervals in ``perf_counter`` seconds.
    samples: Dict[str, List[Tuple[float, float]]] = dataclasses.field(
        default_factory=dict)
    #: metric -> plain values (poll counts, server-side waits).
    values: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: (input key, counter deltas) for the exact-count check.
    counts: List[Any] = dataclasses.field(default_factory=list)

    def add(self, metric: str, start: float, end: float) -> None:
        self.samples.setdefault(metric, []).append((start, end))

    def note(self, metric: str, value: float) -> None:
        self.values.setdefault(metric, []).append(value)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


class StudyWorkload:
    """A characterization request through the runner's study path."""

    modules = ("A0",)

    #: Inputs a pass rotates through, and a rep's nominal seconds.
    inputs = len(STUDY_SEEDS)
    nominal_rep_s = 6.5
    #: Sample keys scaled by the CPU plus I/O reference (none here).
    io_bound = ()

    def __init__(self, name: str, tests, scale: StudyScale,
                 expected: Dict[str, Any], workdir: str, seed: int):
        self.name = name
        self.tests = tuple(tests)
        self.scale = scale
        self.digests = expected.get("digests", {}).get(name, {})
        self.seed = seed
        #: Digest of every study seen, by seed (``--record`` reads it).
        self.seen: Dict[str, str] = {}
        self.store = StudyStore(os.path.join(workdir, "store"))
        cache.set_study_cache_dir(self.store.directory)

    def study_seed(self, rep: int) -> int:
        return STUDY_SEEDS[(self.seed + rep) % len(STUDY_SEEDS)]

    def close(self) -> None:
        self.store.clear()
        cache.set_study_cache_dir(None)
        cache.clear_cache()

    def _check(self, result: RepResult, seed: int, document) -> None:
        digest = document_digest(document)
        self.seen.setdefault(str(seed), digest)
        want = self.digests.get(str(seed))
        if want is None:
            result.fail(f"study: no committed digest for seed {seed}")
        elif digest != want:
            result.fail(f"study: digest {digest[:12]} != committed "
                        f"{want[:12]} (seed {seed})")

    def warmup(self) -> RepResult:
        """An untimed rep with one hit: loads every lazy import and
        checks the first study before timing starts."""
        return self.rep(0, hits=1)

    def rep(self, index: int, recorder: Optional[Recorder] = None,
            sampler: Optional[HostSampler] = None,
            hits: int = STUDY_HITS) -> RepResult:
        """One fresh study (digest-checked), published to the store,
        then ``hits`` store hits and fetches, each of which must equal
        the checked study. With a ``sampler``, reference slices
        interleave with the whole rep."""
        with sampler.interleaved() if sampler else nullcontext():
            return self._rep(index, recorder, hits)

    def _rep(self, index, recorder, hits) -> RepResult:
        seed = self.study_seed(index)
        result = RepResult()
        cache.clear_cache()
        before = REGISTRY.counter_values()
        result.attempted += 1
        started = time.perf_counter()
        with active(recorder, "op.study"):
            study = cache.get_study(
                self.tests, modules=self.modules, scale=self.scale,
                seed=seed, use_disk=False,
            )
        studied = time.perf_counter()
        fingerprint = study.provenance["fingerprint"]
        with active(recorder, "op.publish"):
            self.store.store(study, fingerprint)
        result.add("study_s", started, studied)
        result.add("miss_s", started, time.perf_counter())
        document = study_to_dict(study)
        self._check(result, seed, document)
        body = {k: v for k, v in document.items() if k != "provenance"}
        for _ in range(hits):
            cache.clear_cache()
            gc.collect()
            result.attempted += 1
            started = time.perf_counter()
            with active(recorder, "op.hit"):
                hit = cache.get_study(
                    self.tests, modules=self.modules, scale=self.scale,
                    seed=seed,
                )
            result.add("hit_s", started, time.perf_counter())
            if hit is study or hit.modules != study.modules:
                result.fail(f"hit: store returned a different study "
                            f"(seed {seed})")
            gc.collect()
            result.attempted += 1
            started = time.perf_counter()
            with active(recorder, "op.fetch"):
                fetched = self.store.load_dict(fingerprint)
            result.add("fetch_s", started, time.perf_counter())
            if fetched is None or {
                    k: v for k, v in fetched.items() if k != "provenance"
            } != body:
                result.fail(f"fetch: stored document differs from the "
                            f"study (seed {seed})")
            # Every hit and fetch starts from the same live heap.
            hit = fetched = None
        self.store.delete(fingerprint)
        result.counts.append((str(seed), counter_delta(before)))
        return result


def characterize(expected, workdir, seed) -> StudyWorkload:
    return StudyWorkload(
        "characterize", ("rowhammer", "trcd", "retention"),
        StudyScale.bench(), expected, workdir, seed,
    )


def ladder(expected, workdir, seed) -> StudyWorkload:
    scale = dataclasses.replace(
        StudyScale.bench(), geometry=ModuleGeometry(row_bits=65536)
    )
    return StudyWorkload(
        "ladder", ("rowhammer", "retention"), scale, expected, workdir,
        seed,
    )


class ServiceWorkload:
    """Miss-then-hits job cycles against an in-process API server."""

    name = "service"
    inputs = 1
    nominal_rep_s = 2.0
    #: A store hit here is thread hand-offs plus two job-record writes,
    #: whose latency follows the disk (see ``hostref.py``).
    io_bound = ("hit_s",)

    def __init__(self, expected: Dict[str, Any], workdir: str, seed: int):
        self.digests = expected.get("digests", {}).get(self.name, {})
        self.seen: Dict[str, str] = {}
        self.server = BackgroundServer(
            os.path.join(workdir, "store"), os.path.join(workdir, "state"),
            tenant_quota=1_000_000,
        )
        self.server.__enter__()
        self.client = ApiClient(port=self.server.port, tenant="bench")
        # Every cycle needs a store miss, so every cycle gets a seed no
        # earlier cycle of this run used.
        self._next_seed = 1 + seed * 1_000_000
        self.first_miss: Optional[Dict[str, Any]] = None

    def close(self) -> None:
        self.server.__exit__(None, None, None)

    @staticmethod
    def payload(seed: int) -> Dict[str, Any]:
        return {
            "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
            "seed": seed, "workers": 2,
        }

    def _job(self, payload, result: RepResult, recorder, want_cache: str):
        """Submit one job and poll it to a terminal state; returns the
        job document, or None when it failed. Its latency runs from the
        client's submit to the server's ``finished`` stamp."""
        result.attempted += 1
        submitted = time.time()
        started = time.perf_counter()
        try:
            with active(recorder, "api.submit"):
                job = self.client.submit_job(payload)
            result.add("submit_s", started, time.perf_counter())
            polls = 0
            while job["state"] not in ("completed", "failed", "cancelled"):
                time.sleep(POLL_S)
                with active(recorder, "api.poll"):
                    job = self.client.get_job(job["id"])
                polls += 1
        except Exception as error:  # noqa: BLE001 - counted, not raised
            result.fail(f"job: {type(error).__name__}: {error}")
            return None
        result.note("polls", float(polls))
        if job["state"] != "completed" or job.get("cache") != want_cache:
            result.fail(f"job {job['id']}: {job['state']} "
                        f"cache={job.get('cache')} (wanted {want_cache})")
            return None
        result.note("queue_wait_s", job["started"] - job["created"])
        # Server wall-clock stamps, placed on the client's clock.
        began = started + (job["started"] - submitted)
        ended = started + (job["finished"] - submitted)
        if want_cache == "miss":
            result.add("miss_s", started, ended)
            result.add("study_s", began,
                       began + job["metrics"]["wall_seconds"])
        else:
            result.add("hit_s", started, ended)
        return job

    def _fetch(self, job, result: RepResult, recorder) -> Optional[str]:
        result.attempted += 1
        started = time.perf_counter()
        try:
            with active(recorder, "api.fetch"):
                document = self.client.get_study(job["fingerprint"])
        except Exception as error:  # noqa: BLE001 - counted, not raised
            result.fail(f"fetch: {type(error).__name__}: {error}")
            return None
        result.add("fetch_s", started, time.perf_counter())
        return document_digest(document)

    def cycle(self, seed: int, result: RepResult, recorder) -> None:
        """One store miss, then :data:`SERVICE_HITS` hits, each job
        followed by a study fetch whose digest must match the miss's."""
        payload = self.payload(seed)
        gc.collect()
        with active(recorder, "op.cycle"):
            job = self._job(payload, result, recorder, "miss")
            if job is None:
                return
            digest = self._fetch(job, result, recorder)
            if digest is None:
                return
            if seed == SERVICE_ANCHOR_SEED:
                self.seen[str(seed)] = digest
                want = self.digests.get(str(seed))
                if digest != want:
                    result.fail(f"anchor job digest {digest[:12]} != "
                                f"committed {str(want)[:12]}")
            elif self.first_miss is None:
                self.first_miss = {"job": job, "seed": seed,
                                   "digest": digest}
            for _ in range(SERVICE_HITS):
                hit = self._job(payload, result, recorder, "hit")
                if hit is None:
                    continue
                served = self._fetch(hit, result, recorder)
                if served is not None and served != digest:
                    result.fail(f"hit {hit['id']}: served digest differs "
                                f"from the miss's")

    def warmup(self) -> RepResult:
        """The anchor cycle: a committed-digest job plus its hits."""
        result = RepResult()
        before = REGISTRY.counter_values()
        self.cycle(SERVICE_ANCHOR_SEED, result, None)
        result.counts.append(("anchor", counter_delta(before)))
        return result

    def rep(self, index: int, recorder: Optional[Recorder] = None,
            sampler: Optional[HostSampler] = None) -> RepResult:
        """:data:`SERVICE_CYCLES` cycles; reference slices run between
        cycles, never while a job is in flight."""
        result = RepResult()
        for _ in range(SERVICE_CYCLES):
            seed = self._next_seed
            self._next_seed += 1
            self.cycle(seed, result, recorder)
            if sampler is not None:
                sampler.sample()
        return result

    def direct_gate(self) -> RepResult:
        """The first timed miss must equal a direct run of the same
        request: same fingerprint, same provenance-free document."""
        result = RepResult()
        result.attempted += 1
        if self.first_miss is None:
            result.fail("direct gate: no timed miss completed")
            return result
        job, seed = self.first_miss["job"], self.first_miss["seed"]
        payload = self.payload(seed)
        direct = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=seed
        ).run(modules=payload["modules"], tests=tuple(payload["tests"]))
        attach_provenance(direct, payload["tests"], payload["modules"],
                          seed, wall_seconds=0.0)
        document = study_to_dict(direct)
        if document["provenance"]["fingerprint"] != job["fingerprint"]:
            result.fail("direct gate: API fingerprint differs from the "
                        "direct request hash")
        if document_digest(document) != self.first_miss["digest"]:
            result.fail("direct gate: API-served study differs from the "
                        "direct run")
        return result


WORKLOADS = {
    "characterize": characterize,
    "ladder": ladder,
    "service": ServiceWorkload,
}
