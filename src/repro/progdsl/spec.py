"""Declarative DRAM-program specifications.

A :class:`ProgramSpec` is the single declarative description of a
hammer or retention schedule: which physical neighbour offsets get
hammered (n-sided patterns), which rows ride along as initialized but
never-hammered decoys, how the total hammer count is split across
rounds, whether refresh is interleaved between rounds, and which data
polarity each row class is initialized with.  Retention specs instead
carry optional window-ladder / iteration overrides.

Specs are *pure data*: resolution against a module's row mapping lives
in :mod:`repro.progdsl.resolve`, ACT-stream unrolling in
:mod:`repro.progdsl.unroll`, and backend selection (the fused kernel
vs. SoftMC command stream) in :mod:`repro.progdsl.compile`.

The canonical text form (:meth:`ProgramSpec.canonical`) round-trips
through :func:`repro.progdsl.parse.parse_program` and is the identity
that study/cache fingerprints incorporate -- via
:meth:`ProgramSpec.schedule_key`, which deliberately excludes the name
so two differently-named but structurally identical programs share
cached studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError

#: Data-polarity policies for row initialization, relative to the probe
#: pattern under test: ``"victim"`` writes the victim's pattern,
#: ``"inverse"`` the complement (the worst-case coupling polarity the
#: paper's double-sided schedule uses for aggressors).
DATA_POLICIES = ("victim", "inverse")

PROGRAM_KINDS = ("hammer", "retention")

#: Name of the registered program every study runs when none is asked
#: for -- the paper's double-sided schedule.  Studies with this program
#: (or ``program=None``) keep their pre-DSL cache fingerprints.
DEFAULT_PROGRAM = "double-sided"


def _check_offsets(label: str, offsets: Tuple[int, ...]) -> None:
    for offset in offsets:
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ConfigurationError(
                f"{label} offsets must be integers, got {offset!r}"
            )
        if offset == 0:
            raise ConfigurationError(
                f"{label} offset 0 would target the victim row itself"
            )


@dataclass(frozen=True)
class ProgramSpec:
    """One declarative hammer/retention program.

    Offsets are *physical* row distances from the victim (the paper's
    coupling geometry); resolution maps them through the module's
    scrambled logical<->physical row mapping.  Offsets that fall off
    the edge of the bank are dropped at resolve time, mirroring how
    ``physical_neighbors`` treats edge victims.
    """

    name: str
    kind: str = "hammer"
    #: Physical offsets that are hammered (ACT'd ``count`` times each).
    aggressors: Tuple[int, ...] = (-1, 1)
    #: Physical offsets initialized with data but never hammered.
    decoys: Tuple[int, ...] = ()
    #: Number of hammer bursts the total count is split across.
    rounds: int = 1
    #: Interleave a REF after each round.  Refresh is data-dependent
    #: (TRR sampling, charge restore), so this forces the command-path
    #: fallback.
    refresh: bool = False
    #: Data written to aggressor rows ("inverse" = complement of the
    #: victim pattern, the paper's worst-case coupling polarity).
    aggressor_data: str = "inverse"
    #: Data written to decoy rows.
    decoy_data: str = "victim"
    #: Retention-kind only: override of ``scale.retention_windows``.
    windows: Optional[Tuple[float, ...]] = None
    #: Retention-kind only: override of ``scale.iterations``.
    iterations: Optional[int] = None
    #: Free-form one-line description for listings.
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.kind not in PROGRAM_KINDS:
            raise ConfigurationError(
                f"program kind must be one of {PROGRAM_KINDS}, "
                f"got {self.kind!r}"
            )
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ConfigurationError(
                f"program name must be non-empty and contain no "
                f"whitespace, got {self.name!r}"
            )
        if self.kind == "hammer":
            self._validate_hammer()
        else:
            self._validate_retention()

    def _validate_hammer(self) -> None:
        if not self.aggressors:
            raise ConfigurationError(
                f"hammer program {self.name!r} declares no aggressors"
            )
        _check_offsets("aggressor", self.aggressors)
        _check_offsets("decoy", self.decoys)
        seen = set()
        for offset in self.aggressors + self.decoys:
            if offset in seen:
                raise ConfigurationError(
                    f"program {self.name!r} lists offset {offset:+d} "
                    f"more than once across aggressors and decoys"
                )
            seen.add(offset)
        if self.rounds < 1:
            raise ConfigurationError(
                f"program {self.name!r}: rounds must be >= 1, "
                f"got {self.rounds}"
            )
        if self.aggressor_data not in DATA_POLICIES:
            raise ConfigurationError(
                f"aggressor data policy must be one of {DATA_POLICIES}, "
                f"got {self.aggressor_data!r}"
            )
        if self.decoy_data not in DATA_POLICIES:
            raise ConfigurationError(
                f"decoy data policy must be one of {DATA_POLICIES}, "
                f"got {self.decoy_data!r}"
            )
        if self.windows is not None or self.iterations is not None:
            raise ConfigurationError(
                f"hammer program {self.name!r} must not set retention "
                f"windows/iterations"
            )

    def _validate_retention(self) -> None:
        if (
            self.aggressors != (-1, 1)
            or self.decoys
            or self.rounds != 1
            or self.refresh
        ):
            raise ConfigurationError(
                f"retention program {self.name!r} must not set hammer "
                f"fields (aggressors/decoys/rounds/refresh)"
            )
        if self.windows is not None:
            if not self.windows:
                raise ConfigurationError(
                    f"retention program {self.name!r}: windows override "
                    f"must be non-empty"
                )
            previous = 0.0
            for window in self.windows:
                if not window > previous:
                    raise ConfigurationError(
                        f"retention program {self.name!r}: windows must "
                        f"be positive and strictly ascending"
                    )
                previous = window
        if self.iterations is not None and self.iterations < 1:
            raise ConfigurationError(
                f"retention program {self.name!r}: iterations must be "
                f">= 1, got {self.iterations}"
            )

    # -- identity ----------------------------------------------------

    @property
    def reach(self) -> int:
        """Largest physical distance the program touches (the row-chunk
        isolation radius)."""
        if self.kind != "hammer":
            return 1
        return max(abs(o) for o in self.aggressors + self.decoys)

    @property
    def data_independent(self) -> bool:
        """True when the ACT stream is a pure function of the schedule,
        so the program can lower onto the presorted-threshold kernels.
        Refresh interleaving is data-dependent (charge restore + TRR
        sampling between bursts must be stepped exactly)."""
        return not self.refresh

    def schedule_key(self) -> Tuple:
        """Structural identity, excluding the name: two programs with
        equal keys produce bit-identical studies and share cache
        entries/fingerprints."""
        if self.kind == "hammer":
            return (
                "hammer", self.aggressors, self.decoys, self.rounds,
                self.refresh, self.aggressor_data, self.decoy_data,
            )
        return ("retention", self.windows, self.iterations)

    def is_default_schedule(self) -> bool:
        """True when this spec is structurally the paper's double-sided
        schedule (the pre-DSL behaviour): such programs keep the exact
        pre-DSL study fingerprints."""
        return self.schedule_key() == (
            "hammer", (-1, 1), (), 1, False, "inverse", "victim",
        )

    def renamed(self, name: str) -> "ProgramSpec":
        return replace(self, name=name)

    # -- canonical text form -----------------------------------------

    def canonical(self) -> str:
        """Canonical DSL text: parsing it back yields an equal spec
        (modulo the compare-excluded description).  This string is what
        fingerprints hash, via :meth:`schedule_key`'s JSON rendering in
        the cache layer."""
        lines = [f"program {self.name}", f"kind {self.kind}"]
        if self.kind == "hammer":
            lines.append(
                "aggressors " + " ".join(f"{o:+d}" for o in self.aggressors)
            )
            if self.decoys:
                lines.append(
                    "decoys " + " ".join(f"{o:+d}" for o in self.decoys)
                )
            lines.append(f"rounds {self.rounds}")
            lines.append(f"refresh {'on' if self.refresh else 'off'}")
            lines.append(f"aggressor-data {self.aggressor_data}")
            lines.append(f"decoy-data {self.decoy_data}")
        else:
            if self.windows is not None:
                lines.append(
                    "windows " + " ".join(repr(w) for w in self.windows)
                )
            if self.iterations is not None:
                lines.append(f"iterations {self.iterations}")
        return "\n".join(lines) + "\n"
