"""Campaign preload plans derived from experiment specs.

:func:`build_plan` turns a set of experiment ids plus run arguments
into the deduplicated list of :class:`~repro.harness.spec.
ResolvedStudy` fetches those experiments will perform. The plan drives
the one pre-run, :meth:`PreloadPlan.orchestrate` (``runner
--orchestrate N``, also spelled ``--parallel N``), through the
orchestration service, so the pre-run can never drift from what the
experiments actually fetch (the failure mode the old hand-maintained
``CAMPAIGN_TESTS`` dict allowed: it routed pareto's preload over the
benchmark subset while the experiment fetched its own module pair).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.scale import StudyScale
from repro.harness import cache
from repro.harness.registry import get_spec
from repro.harness.spec import ResolvedStudy


@dataclass(frozen=True)
class PreloadPlan:
    """The deduplicated studies a set of experiments will fetch."""

    requests: Tuple[ResolvedStudy, ...]

    def __bool__(self) -> bool:
        return bool(self.requests)

    def orchestrate(
        self,
        max_workers: int,
        checkpoint_base: Optional[str] = None,
        telemetry=None,
        resume: bool = False,
        progress=print,
    ) -> List[str]:
        """Run every planned study through the orchestration service
        (fault-tolerant; checkpointed under ``checkpoint_base`` and
        resumable when one is given) and install the merged studies in
        the cache; ``max_workers > 1`` fans the row chunks out over one
        process pool of that size, forked for the first study not
        already cached and shared by the rest. Studies already in either
        cache layer are skipped. Returns the quarantined module names."""
        from repro.service.orchestrator import CampaignService
        from repro.service.pool import WorkerPool

        quarantined: List[str] = []
        with ExitStack() as stack:
            pool = None
            for request in self.requests:
                if cache.cached_study(
                    request.tests, request.modules,
                    request.scale or StudyScale.bench(), request.seed,
                    request.program,
                ) is not None:
                    progress(f"the {request.label} campaign is cached; "
                             "skipping it")
                    continue
                progress(
                    f"orchestrating the {request.label} campaign over "
                    f"{len(request.modules)} modules with {max_workers} "
                    "workers..."
                )
                if pool is None and max_workers > 1:
                    pool = stack.enter_context(WorkerPool(max_workers))
                service = CampaignService(
                    modules=request.modules, tests=request.tests,
                    scale=request.scale, seed=request.seed,
                    max_workers=max_workers,
                    checkpoint_base=checkpoint_base,
                    telemetry=telemetry, progress=progress,
                    program=request.program, pool=pool,
                )
                outcome = service.run(resume=resume)
                quarantined.extend(sorted(outcome.metrics.quarantined))
                cache.preload_study(
                    outcome.study, request.tests, request.modules,
                    seed=request.seed, program=request.program,
                )
        return quarantined


def build_plan(
    experiment_ids: Iterable[str],
    modules: Optional[Sequence[str]] = None,
    scale: Optional[StudyScale] = None,
    seed: int = 0,
    program: Optional[str] = None,
) -> PreloadPlan:
    """Resolve the declared study needs of ``experiment_ids`` under the
    given run arguments, deduplicated on the cache key in first-use
    order."""
    seen = set()
    requests: List[ResolvedStudy] = []
    for experiment_id in experiment_ids:
        spec = get_spec(experiment_id)
        for resolved in spec.resolved_studies(modules, scale, seed, program):
            key = resolved.cache_key()
            if key not in seen:
                seen.add(key)
                requests.append(resolved)
    return PreloadPlan(requests=tuple(requests))
