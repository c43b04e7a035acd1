"""Seedable fault injection for the campaign orchestration service.

A real multi-week characterization campaign loses work units to
transient infrastructure faults: the external V_PP supply droops, the
FPGA's command watchdog expires, the host loses its link to the board.
The service rehearses exactly these failure modes against the simulated
bench so its retry / quarantine machinery is exercised under test
instead of discovered in production.

Three kinds of fault are modeled, each tied to the bench site that
raises it:

==================  ========  ============================================
kind                site      raised error
==================  ========  ============================================
``power_droop``     supply    :class:`~repro.errors.PowerDroopError`
``fpga_timeout``    fpga      :class:`~repro.errors.FpgaTimeoutError`
``host_disconnect`` host      :class:`~repro.errors.HostDisconnectError`
==================  ========  ============================================

A :class:`FaultPlan` decides *deterministically* -- from its own seed,
independent of the device-model RNG -- whether a given ``(work unit,
attempt)`` experiences a fault, which kind, and after how many bench
operations it strikes. The orchestrator materializes the decision as a
:class:`FaultInjector` wired into the bench
(:class:`~repro.softmc.infrastructure.TestInfrastructure`); the bench
components call :meth:`FaultInjector.tick` at their site and the
injector raises when its trigger count is reached.

Determinism of results: an injected fault aborts the attempt before any
result is emitted, and the bench (module, RNG state, restore sessions)
is rebuilt from the campaign seed on retry -- so a retried unit is
bit-identical to one that never faulted. The differential tests in
``tests/service/test_orchestrator.py`` assert this.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    FpgaTimeoutError,
    HostDisconnectError,
    PowerDroopError,
)

#: Every fault kind the plan can schedule.
FAULT_KINDS = ("power_droop", "fpga_timeout", "host_disconnect")

#: Bench site whose ``tick`` triggers each kind.
SITE_OF_KIND = {
    "power_droop": "supply",
    "fpga_timeout": "fpga",
    "host_disconnect": "host",
}

_ERROR_OF_KIND = {
    "power_droop": (
        PowerDroopError,
        "injected transient V_PP supply droop (output sagged below "
        "brown-out)",
    ),
    "fpga_timeout": (
        FpgaTimeoutError,
        "injected FPGA command timeout (watchdog expired mid-program)",
    ),
    "host_disconnect": (
        HostDisconnectError,
        "injected host disconnect (FPGA link lost)",
    ),
}

#: Largest operation index a randomly placed fault can strike at. Kept
#: small so every kind can fire during bench bring-up / V_PPmin search
#: regardless of the probe engine in use (the kernel engine bypasses
#: the host for its probes, but bring-up always runs command-level).
_MAX_RANDOM_TRIGGER = 6


def _check_kind(kind: str) -> str:
    if kind not in FAULT_KINDS:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
        )
    return kind


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault: which kind, and after how many site ticks.

    ``after`` counts operations at the kind's site (supply setpoints,
    host program launches, FPGA command slots); the injector raises on
    the ``after``-th tick.

    ``hang_seconds`` models the nastier failure mode where the bench
    does not fail fast but *stalls* (a host link that silently drops
    packets, an FPGA stuck in a handshake): the injector sleeps that
    long at the trigger point before raising. Combined with a
    ``unit_timeout`` this rehearses hung-worker recovery -- the worker
    pool declares the attempt dead and kills the stuck worker process,
    and the campaign retries.
    """

    kind: str
    after: int = 1
    hang_seconds: float = 0.0

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        if self.after < 1:
            raise ConfigurationError(f"after must be >= 1: {self.after}")
        if self.hang_seconds < 0:
            raise ConfigurationError(
                f"hang_seconds must be >= 0: {self.hang_seconds}"
            )

    @property
    def site(self) -> str:
        """The bench site this fault strikes at."""
        return SITE_OF_KIND[self.kind]


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic schedule of injected faults for a campaign.

    Parameters
    ----------
    seed:
        Root seed of the plan's randomness. Independent of the campaign
        seed: the same campaign can be rehearsed under different fault
        schedules.
    rate:
        Probability that a given (unit, attempt) draws a fault.
    kinds:
        Fault kinds the random draw chooses between.
    faulty_attempts:
        Random faults are injected only on attempts below this bound
        (default 1: first attempts may fault, retries succeed). Raise it
        to rehearse quarantine behaviour.
    scripted:
        Explicit ``{(unit_id, attempt): kind}`` overrides, consulted
        before the random draw. Used by the smoke benchmark and the
        differential tests to place one exact fault.
    """

    seed: int = 0
    rate: float = 0.0
    kinds: Tuple[str, ...] = FAULT_KINDS
    faulty_attempts: int = 1
    scripted: Mapping[Tuple[str, int], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1]: {self.rate}")
        if not self.kinds:
            raise ConfigurationError("kinds must not be empty")
        for kind in self.kinds:
            _check_kind(kind)
        for kind in self.scripted.values():
            _check_kind(kind)
        if self.faulty_attempts < 0:
            raise ConfigurationError(
                f"faulty_attempts must be >= 0: {self.faulty_attempts}"
            )

    @classmethod
    def script(cls, scripted: Mapping[Tuple[str, int], str]) -> "FaultPlan":
        """A plan consisting only of explicitly scripted faults."""
        return cls(scripted=dict(scripted))

    def spec_for(self, unit_id: str, attempt: int) -> Optional[FaultSpec]:
        """The fault (if any) this plan injects into one attempt.

        Pure function of ``(plan, unit_id, attempt)``: repeated calls --
        including from different processes -- return the same decision.
        """
        kind = self.scripted.get((unit_id, attempt))
        if kind is not None:
            return FaultSpec(kind=kind, after=1)
        if self.rate <= 0.0 or attempt >= self.faulty_attempts:
            return None
        # random.Random(str) seeds via SHA-512: stable across processes
        # and interpreter launches (unlike hash()).
        rng = random.Random(f"faultplan:{self.seed}:{unit_id}:{attempt}")
        if rng.random() >= self.rate:
            return None
        return FaultSpec(
            kind=rng.choice(list(self.kinds)),
            after=rng.randint(1, _MAX_RANDOM_TRIGGER),
        )


class FaultInjector:
    """Arms one :class:`FaultSpec` against a bench.

    Bench components call :meth:`tick` with their site name on every
    operation; the injector counts ticks at the spec's site and raises
    the spec's error once the trigger count is reached. Fires at most
    once (a fresh injector is built per attempt).
    """

    def __init__(self, spec: Optional[FaultSpec]):
        self.spec = spec
        self.fired = False
        self._ticks = 0

    def tick(self, site: str) -> None:
        """Register one bench operation at ``site``; may raise."""
        spec = self.spec
        if spec is None or self.fired or spec.site != site:
            return
        self._ticks += 1
        if self._ticks >= spec.after:
            self.fired = True
            # Flush the flight recorder *before* a stalling fault goes
            # quiet: a hung worker is later SIGTERMed by the reaper and
            # never gets another chance to write its last moments.
            from repro.obs.flightrec import RECORDER

            RECORDER.record("fault", {
                "kind": spec.kind, "site": site, "after": spec.after,
                "hang_seconds": spec.hang_seconds,
            })
            RECORDER.dump(
                "hang_injected" if spec.hang_seconds
                else f"fault_injected-{spec.kind}",
                extra={"kind": spec.kind, "site": site,
                       "hang_seconds": spec.hang_seconds},
            )
            if spec.hang_seconds:
                # A stalling fault: the bench goes quiet instead of
                # failing fast. Only the coordinator's unit_timeout
                # reaper (or the hang running its course) ends this.
                time.sleep(spec.hang_seconds)
            error_cls, message = _ERROR_OF_KIND[spec.kind]
            raise error_cls(message)
