"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class DramError(ReproError):
    """Base class for errors raised by the DRAM device model."""


class DramCommandError(DramError):
    """A DRAM command was issued in an illegal state.

    For example: activating a row in a bank that already has an open row,
    or reading from a precharged bank.
    """


class DramAddressError(DramError):
    """An address (row, column, bank) is out of range for the device."""


class SoftMCError(ReproError):
    """Base class for errors raised by the SoftMC infrastructure model."""


class ProgramError(SoftMCError):
    """A SoftMC program is malformed (bad operands, missing labels, ...)."""


class CommunicationError(SoftMCError):
    """The DRAM module cannot communicate with the FPGA.

    Raised when the module is operated below its minimum wordline voltage
    (``V_PPmin``) -- the condition that defines ``V_PPmin`` in the paper's
    methodology (Section 4.1).
    """


class PowerSupplyError(SoftMCError):
    """The external power supply was driven outside its supported range."""


class BenchFaultError(SoftMCError):
    """Transient bench-infrastructure fault (injected or real).

    Deliberately *not* a :class:`CommunicationError`: the V_PPmin search
    interprets ``CommunicationError`` as "the module stopped responding
    at this voltage", and a transient bench fault must never be mistaken
    for that. The campaign orchestration service retries work units that
    fail with this class of error.
    """


class PowerDroopError(BenchFaultError):
    """The external V_PP supply's output transiently drooped.

    The rail sags below the module's brown-out voltage before the supply
    recovers; the module resets and the measurement in flight is lost.
    """


class FpgaTimeoutError(BenchFaultError):
    """The FPGA failed to acknowledge a command within its watchdog."""


class HostDisconnectError(BenchFaultError):
    """The host lost its link to the FPGA board mid-program."""


class WorkerTimeoutError(BenchFaultError):
    """A pool worker exceeded its per-unit wall-clock deadline.

    Raised *by the coordinator*, not the worker: the orchestrator's
    ``unit_timeout`` reaper declares an attempt dead when its deadline
    passes (e.g. the worker's host link hung instead of failing fast),
    kills the stuck worker process, and retries the unit like any other
    transient bench fault.
    """


class WorkerCrashError(BenchFaultError):
    """A pool worker died mid-unit (killed from outside, out of memory,
    a crash in native code).

    Raised *by the coordinator* for every unit in flight on the dead
    worker's pool: any of them may have killed it, so each is retried
    like any other transient bench fault, and a unit that keeps killing
    its worker quarantines its module.
    """


class QuotaExceededError(ReproError):
    """A tenant tried to exceed its admission quota on the job queue."""


class JobCancelledError(ReproError):
    """A queued or running API job was cancelled by its owner.

    For running jobs the cancellation takes effect at the next work-unit
    boundary (after the unit's checkpoint is durable), so a cancelled
    job can later be resubmitted and resume from its checkpoints.
    """


class SpiceError(ReproError):
    """Base class for errors raised by the SPICE-class circuit simulator."""


class NetlistError(SpiceError):
    """A circuit netlist is malformed (dangling node, duplicate name, ...)."""


class ConvergenceError(SpiceError):
    """The Newton iteration of the transient solver failed to converge."""


class AnalysisError(ReproError):
    """An analysis step received inconsistent or insufficient result data."""


class EccError(ReproError):
    """Base class for ECC codec errors."""


class UncorrectableError(EccError):
    """A codeword contained more errors than the code can correct."""
