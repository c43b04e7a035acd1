"""Shared-memory struct-of-arrays device state for pool workers.

A characterization campaign's device model is dominated by five per-cell
parameter vectors (tolerances, outlier masks, retention times, V_PP
sensitivities, tRCD factors). They are deterministic in ``(module,
seed, bank, physical row)``, so every pool worker of a ``--parallel`` /
``--orchestrate`` campaign re-derives the *same* vectors from the RNG
hub -- per process, per attempt. This module generates them once, in
the coordinator, into one :mod:`multiprocessing.shared_memory` block
laid out struct-of-arrays (one contiguous ``(rows, cells)`` plane per
field), and hands workers a tiny picklable :class:`DeviceStateHandle`.
Workers attach the block zero-copy and install read-only row views into
their module's :class:`~repro.dram.cell.CellParameterGenerator` via
``adopt_preloaded`` -- a preloaded vector is bit-identical to the fresh
draw it shadows, so shared-state and private-state campaigns agree
record-for-record.

The power-up bit planes are deliberately *not* shared: they are cheap
to derive and the row state mutates them in place, which would race
across workers.

Lifecycle contract:

* the coordinator owns the segment -- :func:`build_device_state` keeps
  the resource-tracker registration and must ``close(unlink=True)``
  (in a ``finally``) when the pool is done;
* workers attach with :func:`attach_device_state`, which *unregisters*
  the attachment from their resource tracker (Python registers every
  attach; without this, the first worker to exit would let its tracker
  unlink the segment under everyone else) and ``close()`` when done;
* a worker that crashes mid-unit leaks nothing: its attachment dies
  with the process and the owner's unlink still reclaims ``/dev/shm``
  (asserted by ``tests/core/test_soa_state.py``).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: The per-cell parameter planes a device-state block carries, in layout
#: order: ``(fieldname, dtype)``. Field names double as the
#: :class:`~repro.dram.cell.CellParameterGenerator` method names the
#: preloaded vectors shadow.
FIELDS: Tuple[Tuple[str, np.dtype], ...] = (
    ("cell_tolerances", np.dtype(np.float32)),
    ("cell_outlier_mask", np.dtype(np.bool_)),
    ("cell_retention_times", np.dtype(np.float32)),
    ("cell_retention_vpp_sensitivity", np.dtype(np.float32)),
    ("cell_trcd_factors", np.dtype(np.float32)),
)

#: Plane alignment within the block, bytes.
_ALIGN = 64


def _tracker_pid() -> Optional[int]:
    """PID of this process's resource-tracker daemon, if one runs."""
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def _plane_layout(
    n_rows: int, cells: int
) -> Tuple[Dict[str, Tuple[int, np.dtype]], int]:
    """Byte offsets of each field plane and the total block size."""
    offsets: Dict[str, Tuple[int, np.dtype]] = {}
    cursor = 0
    for name, dtype in FIELDS:
        cursor = -(-cursor // _ALIGN) * _ALIGN
        offsets[name] = (cursor, dtype)
        cursor += n_rows * cells * dtype.itemsize
    return offsets, max(cursor, 1)


@dataclass(frozen=True)
class DeviceStateHandle:
    """Picklable description of a shared device-state block.

    Everything a worker needs to attach: the segment name, the identity
    of the device the planes were generated for (module, seed, bank,
    row width) and the physical rows resident in the block, in slot
    order. Also the campaign-provenance record of the shared state
    (see :meth:`fingerprint`).
    """

    shm_name: str
    module: str
    seed: int
    bank: int
    row_bits: int
    physical_rows: Tuple[int, ...]
    fields: Tuple[str, ...] = field(
        default=tuple(name for name, _ in FIELDS)
    )
    #: PID of the owner's resource-tracker daemon; lets an attaching
    #: worker tell whether it shares that tracker (forked pools do,
    #: spawned workers run their own) -- see :func:`attach_device_state`.
    tracker_pid: Optional[int] = None

    def fingerprint(self) -> Dict[str, object]:
        """Provenance block: what device state the workers shared."""
        return {
            "module": self.module,
            "seed": self.seed,
            "bank": self.bank,
            "row_bits": self.row_bits,
            "rows": len(self.physical_rows),
            "fields": list(self.fields),
        }


class DeviceState:
    """A live (attached or owned) shared device-state block."""

    def __init__(
        self,
        handle: DeviceStateHandle,
        shm: shared_memory.SharedMemory,
        owner: bool,
    ):
        self.handle = handle
        self._shm = shm
        self._owner = owner
        self._closed = False
        n_rows = len(handle.physical_rows)
        cells = handle.row_bits
        offsets, size = _plane_layout(n_rows, cells)
        if shm.size < size:
            raise ConfigurationError(
                f"shared segment {handle.shm_name!r} holds {shm.size} "
                f"bytes; the {n_rows}x{cells} layout needs {size}"
            )
        self._arrays: Dict[str, np.ndarray] = {}
        for name in handle.fields:
            offset, dtype = offsets[name]
            plane = np.ndarray(
                (n_rows, cells), dtype=dtype, buffer=shm.buf, offset=offset
            )
            if not owner:
                plane.flags.writeable = False
            self._arrays[name] = plane
        self._slots = {
            physical: slot
            for slot, physical in enumerate(handle.physical_rows)
        }

    # -- access -----------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Size of the backing segment in bytes."""
        return self._shm.size

    def plane(self, fieldname: str) -> np.ndarray:
        """One field's ``(rows, cells)`` plane (slot order)."""
        return self._arrays[fieldname]

    def preload_mapping(self) -> Dict[Tuple[int, str], np.ndarray]:
        """``(physical_row, fieldname) -> row view`` for
        :meth:`~repro.dram.cell.CellParameterGenerator.adopt_preloaded`.
        """
        return {
            (physical, name): self._arrays[name][slot]
            for physical, slot in self._slots.items()
            for name in self.handle.fields
        }

    def install(self, ctx) -> int:
        """Install the planes into ``ctx``'s bank as preloaded vectors.

        Validates that the block was generated for the context's device
        (module name, bank, row width) -- a mismatch would shadow the
        RNG derivation with *different* data, silently breaking the
        bit-identity contract, so it raises
        :class:`~repro.errors.ConfigurationError` instead.
        Returns the number of vectors installed.
        """
        if ctx.module_name != self.handle.module:
            raise ConfigurationError(
                f"device state was generated for module "
                f"{self.handle.module!r}, not {ctx.module_name!r}"
            )
        if ctx.row_bits != self.handle.row_bits:
            raise ConfigurationError(
                f"device state rows are {self.handle.row_bits} bits wide; "
                f"the context's module has {ctx.row_bits}-bit rows"
            )
        if ctx.bank != self.handle.bank:
            raise ConfigurationError(
                f"device state was generated for bank {self.handle.bank}, "
                f"not bank {ctx.bank}"
            )
        generator = ctx.infra.module.bank(ctx.bank).cells
        return generator.adopt_preloaded(self.preload_mapping())

    # -- lifecycle --------------------------------------------------------------

    def close(self, unlink: bool = False) -> None:
        """Detach from the segment; the owner passes ``unlink=True``
        (exactly once, in a ``finally``) to reclaim it."""
        if self._closed:
            return
        self._closed = True
        self._arrays = {}
        self._shm.close()
        if unlink and self._owner:
            self._shm.unlink()

    def __enter__(self) -> "DeviceState":
        return self

    def __exit__(self, *exc) -> None:
        self.close(unlink=self._owner)


def build_device_state(
    name: str,
    scale=None,
    seed: int = 0,
    rows: Optional[Sequence[int]] = None,
    bank: int = 0,
) -> DeviceState:
    """Generate one module's shared device-state block (owner side).

    Builds a throwaway :class:`~repro.dram.module.DramModule` for
    ``(name, scale.geometry, seed)`` and renders the :data:`FIELDS`
    planes for the physical images of ``rows`` (default: the scale's
    full :func:`~repro.core.sampling.sample_rows` sample -- a superset
    of every chunk, so one block serves all of a module's chunk
    workers). The returned state owns the segment; the caller must
    ``close(unlink=True)`` when the campaign's workers are done.
    """
    from repro.core.sampling import sample_rows
    from repro.core.scale import StudyScale
    from repro.dram.module import DramModule
    from repro.dram.profiles import module_profile

    scale = scale or StudyScale.bench()
    module = DramModule(module_profile(name), geometry=scale.geometry,
                        seed=seed)
    bank_obj = module.bank(bank)
    if rows is None:
        rows = sample_rows(
            module.geometry.rows_per_bank,
            scale.rows_per_module,
            scale.row_chunks,
        )
    mapping = bank_obj.mapping
    physical_rows = tuple(sorted({mapping.to_physical(row) for row in rows}))
    cells = module.geometry.row_bits
    _, size = _plane_layout(len(physical_rows), cells)
    shm = shared_memory.SharedMemory(
        create=True, size=size, name=f"repro-soa-{secrets.token_hex(6)}"
    )
    try:
        handle = DeviceStateHandle(
            shm_name=shm.name,
            module=name,
            seed=seed,
            bank=bank,
            row_bits=cells,
            physical_rows=physical_rows,
            # Creating the segment above ensured the tracker is running.
            tracker_pid=_tracker_pid(),
        )
        state = DeviceState(handle, shm, owner=True)
        generator = bank_obj.cells
        for slot, physical in enumerate(physical_rows):
            tolerances, outliers = generator.tolerance_structure_pair(physical)
            state.plane("cell_tolerances")[slot] = tolerances
            state.plane("cell_outlier_mask")[slot] = outliers
            times, sensitivity = generator.retention_structure_pair(physical)
            state.plane("cell_retention_times")[slot] = times
            state.plane("cell_retention_vpp_sensitivity")[slot] = sensitivity
            state.plane("cell_trcd_factors")[slot] = (
                generator.cell_trcd_factors(physical)
            )
        # Freeze the planes: from here on every view -- including the
        # owner's own, should it run units inline -- is read-only.
        for plane in state._arrays.values():
            plane.flags.writeable = False
        return state
    except BaseException:
        shm.close()
        shm.unlink()
        raise


def attach_device_state(handle: DeviceStateHandle) -> DeviceState:
    """Attach a worker to an existing device-state block (read-only).

    Python registers every ``SharedMemory`` open with a resource
    tracker. Workers launched by the owner -- forked *or* spawned;
    both multiprocessing start methods hand children the parent's
    tracker fd -- share the owner's tracker daemon, so their
    registration is an idempotent set-add and must be left alone (it
    is the owner's crash-cleanup safety net; a forked child inherits
    the tracker pid, a spawned child only the fd). Only a process
    running its *own* tracker daemon (an attach from outside the
    owner's process tree) unregisters: that tracker's "leak" cleanup
    at process exit would otherwise unlink the segment out from under
    the owner and its workers.
    """
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    pid = _tracker_pid()
    if pid is not None and pid != handle.tracker_pid:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker impl detail
            pass
    return DeviceState(handle, shm, owner=False)
