"""JobQueue scheduling contract: priority, FIFO, quotas, cancellation,
store hits registered terminal, and the live-set bookkeeping."""

import random

import pytest

from repro.api.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobSpec,
    answer_hit,
)
from repro.api.queue import JobQueue
from repro.errors import QuotaExceededError
from repro.obs.metrics import REGISTRY


def make_job(priority: int = 0, tenant: str = "default") -> Job:
    spec = JobSpec.from_payload({
        "modules": ["C5"], "tests": ["rowhammer"], "scale": "tiny",
        "priority": priority,
    })
    return Job.create(spec, tenant)


class TestScheduling:
    def test_higher_priority_first(self):
        queue = JobQueue()
        low = queue.submit(make_job(priority=0))
        high = queue.submit(make_job(priority=5))
        mid = queue.submit(make_job(priority=3))
        order = [queue.pop(timeout=0.1).id for _ in range(3)]
        assert order == [high.id, mid.id, low.id]

    def test_fifo_within_priority(self):
        queue = JobQueue()
        submitted = [queue.submit(make_job(priority=2)) for _ in range(4)]
        popped = [queue.pop(timeout=0.1).id for _ in range(4)]
        assert popped == [job.id for job in submitted]

    def test_pop_marks_running(self):
        queue = JobQueue()
        queue.submit(make_job())
        job = queue.pop(timeout=0.1)
        assert job.state == RUNNING
        assert queue.depth() == 0

    def test_pop_times_out_empty(self):
        assert JobQueue().pop(timeout=0.05) is None

    def test_close_wakes_consumers(self):
        queue = JobQueue()
        queue.close()
        assert queue.pop(timeout=5.0) is None
        with pytest.raises(RuntimeError):
            queue.submit(make_job())


class TestTenantQuota:
    def test_quota_rejects_submission(self):
        queue = JobQueue(tenant_quota=2)
        queue.submit(make_job(tenant="alice"))
        queue.submit(make_job(tenant="alice"))
        with pytest.raises(QuotaExceededError):
            queue.submit(make_job(tenant="alice"))

    def test_quota_is_per_tenant(self):
        queue = JobQueue(tenant_quota=1)
        queue.submit(make_job(tenant="alice"))
        queue.submit(make_job(tenant="bob"))  # must not raise
        with pytest.raises(QuotaExceededError):
            queue.submit(make_job(tenant="bob"))

    def test_terminal_jobs_release_quota(self):
        queue = JobQueue(tenant_quota=1)
        queue.submit(make_job(tenant="alice"))
        job = queue.pop(timeout=0.1)
        job.state = COMPLETED
        queue.submit(make_job(tenant="alice"))  # must not raise

    def test_running_jobs_count_toward_quota(self):
        queue = JobQueue(tenant_quota=1)
        queue.submit(make_job(tenant="alice"))
        queue.pop(timeout=0.1)  # now running, still active
        with pytest.raises(QuotaExceededError):
            queue.submit(make_job(tenant="alice"))

    def test_rejects_silly_quota(self):
        with pytest.raises(ValueError):
            JobQueue(tenant_quota=0)


class TestCancellation:
    def test_cancel_queued_is_immediate_and_skipped(self):
        queue = JobQueue()
        doomed = queue.submit(make_job())
        survivor = queue.submit(make_job())
        cancelled = queue.cancel(doomed.id)
        assert cancelled.state == CANCELLED
        assert queue.pop(timeout=0.1).id == survivor.id
        assert queue.pop(timeout=0.05) is None

    def test_cancel_running_sets_flag(self):
        queue = JobQueue()
        queue.submit(make_job())
        job = queue.pop(timeout=0.1)
        returned = queue.cancel(job.id)
        assert returned.state == RUNNING
        assert returned.cancel_requested

    def test_cancel_unknown_returns_none(self):
        assert JobQueue().cancel("job-nope") is None


class TestAdoption:
    def test_adopt_requeues_interrupted_jobs(self):
        queue = JobQueue()
        job = make_job()
        job.state = RUNNING  # persisted mid-run before a crash
        job.cancel_requested = True
        queue.adopt(job)
        recovered = queue.pop(timeout=0.1)
        assert recovered.id == job.id
        assert not recovered.cancel_requested

    def test_adopt_keeps_terminal_jobs_queryable(self):
        queue = JobQueue()
        job = make_job()
        job.state = COMPLETED
        queue.adopt(job)
        assert queue.get(job.id).state == COMPLETED
        assert queue.pop(timeout=0.05) is None

    def test_jobs_listing_filters_by_tenant(self):
        queue = JobQueue()
        queue.submit(make_job(tenant="alice"))
        queue.submit(make_job(tenant="bob"))
        assert {job.tenant for job in queue.jobs()} == {"alice", "bob"}
        assert all(j.tenant == "bob" for j in queue.jobs("bob"))
        assert queue.jobs("bob")

    def test_depth_counts_only_queued(self):
        queue = JobQueue()
        queue.submit(make_job())
        queue.submit(make_job())
        assert queue.depth() == 2
        queue.pop(timeout=0.1)
        assert queue.depth() == 1


class TestStoreHits:
    """A hit is answered at admission and submitted terminal: it skips
    the heap, so it completes ahead of every queued miss."""

    def test_hit_behind_queued_misses_completes_first(self):
        queue = JobQueue()
        misses = [queue.submit(make_job(priority=9)) for _ in range(2)]
        hit = make_job()
        answer_hit(hit)
        queue.submit(hit)
        assert hit.state == COMPLETED and hit.cache == "hit"
        assert queue.get(hit.id) is hit
        assert queue.depth() == 2
        assert all(job.state == QUEUED for job in misses)
        popped = [queue.pop(timeout=0.1).id for _ in range(2)]
        assert popped == [job.id for job in misses]
        assert queue.pop(timeout=0.05) is None

    def test_hit_is_listed_and_cancel_leaves_it_completed(self):
        queue = JobQueue()
        hit = make_job(tenant="alice")
        answer_hit(hit)
        queue.submit(hit)
        assert [job.id for job in queue.jobs("alice")] == [hit.id]
        assert queue.cancel(hit.id).state == COMPLETED

    def test_hit_holds_no_quota_but_is_checked_against_it(self):
        queue = JobQueue(tenant_quota=1)
        queue.submit(make_job(tenant="alice"))
        with pytest.raises(QuotaExceededError):
            queue.check_quota("alice")
        queue.check_quota("bob")  # must not raise
        hit = make_job(tenant="bob")
        answer_hit(hit)
        queue.submit(hit)
        assert queue.active("bob") == 0
        queue.submit(make_job(tenant="bob"))  # must not raise


class TestLiveSet:
    """The quota and the gauges scan only jobs that are not terminal;
    terminal ones leave the live sets when those are next read."""

    def test_one_scan_empties_the_live_set_of_finished_history(self):
        queue = JobQueue(tenant_quota=2_000)
        for _ in range(1_000):
            queue.submit(make_job(tenant="alice"))
        for _ in range(1_000):
            queue.pop(timeout=0.1).state = COMPLETED
        assert len(queue.jobs("alice")) == 1_000
        assert queue.active("alice") == 0
        assert not queue._live["alice"]
        assert queue.depth() == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_a_full_recount(self, seed):
        rng = random.Random(seed)
        tenants = ("alice", "bob", "carol")
        queue = JobQueue(tenant_quota=6)
        known = []
        for _ in range(400):
            action = rng.choice(("submit", "submit", "hit", "adopt",
                                 "pop", "cancel", "finish"))
            if action == "adopt":
                job = make_job(tenant=rng.choice(tenants))
                job.state = rng.choice((RUNNING, COMPLETED))
                queue.adopt(job)
                known.append(job)
            elif action in ("submit", "hit"):
                job = make_job(priority=rng.randrange(3),
                               tenant=rng.choice(tenants))
                if action == "hit":
                    answer_hit(job)
                try:
                    queue.submit(job)
                except QuotaExceededError:
                    assert action == "submit"
                    assert queue.active(job.tenant) >= queue.tenant_quota
                    continue
                known.append(job)
            elif action == "pop":
                queue.pop(timeout=0)
            elif action == "cancel" and known:
                queue.cancel(rng.choice(known).id)
            elif action == "finish":
                running = [job for job in known if job.state == RUNNING]
                if running:
                    rng.choice(running).state = rng.choice(
                        (COMPLETED, FAILED, CANCELLED)
                    )
            for tenant in tenants:
                assert queue.active(tenant) == sum(
                    1 for job in known
                    if job.tenant == tenant and not job.terminal
                )
            queued = sum(1 for job in known if job.state == QUEUED)
            assert queue.depth() == queued
            queue.refresh()
            assert REGISTRY.gauge("repro_api_queue_depth").value == queued
            assert REGISTRY.gauge("repro_api_jobs_running").value == sum(
                1 for job in known if job.state == RUNNING
            )
            rollup = queue.tenants()
            for tenant, row in rollup.items():
                mine = [job for job in known if job.tenant == tenant]
                assert row["jobs"] == len(mine)
                assert row["active"] == queue.active(tenant)
