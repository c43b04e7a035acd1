"""Study-result persistence.

Full-fidelity campaigns (4K rows x 10 iterations x 30 modules) take
hours; their results need to outlive the process so analyses and figure
regeneration can run offline. Results serialize to a single JSON
document (schema-versioned) and round-trip losslessly.

The study store keeps a second, binary copy of every study beside its
document: a *column file* (:func:`study_to_columns`), which decodes
without parsing a record (:func:`study_from_columns`).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from operator import itemgetter
from typing import Any, Dict

import numpy as np

from repro.core.results import (
    HCFIRST_CENSORED,
    ModuleResult,
    RetentionTable,
    RowHammerTable,
    TrcdTable,
)
from repro.core.scale import StudyScale
from repro.core.study import StudyResult
from repro.dram.calibration import ModuleGeometry
from repro.errors import AnalysisError
from repro.obs.provenance import validate_provenance

#: Bumped whenever the serialized layout changes incompatibly.
SCHEMA_VERSION = 1


def _scale_to_dict(scale: StudyScale) -> Dict[str, Any]:
    return {
        "rows_per_module": scale.rows_per_module,
        "row_chunks": scale.row_chunks,
        "iterations": scale.iterations,
        "vpp_step": scale.vpp_step,
        "ber_hammer_count": scale.ber_hammer_count,
        "hcfirst_initial": scale.hcfirst_initial,
        "hcfirst_step": scale.hcfirst_step,
        "hcfirst_min_step": scale.hcfirst_min_step,
        "retention_windows": list(scale.retention_windows),
        "geometry": {
            "rows_per_bank": scale.geometry.rows_per_bank,
            "banks": scale.geometry.banks,
            "row_bits": scale.geometry.row_bits,
        },
    }


def _scale_from_dict(payload: Dict[str, Any]) -> StudyScale:
    geometry = payload.pop("geometry")
    windows = payload.pop("retention_windows")
    return StudyScale(
        retention_windows=tuple(windows),
        geometry=ModuleGeometry(**geometry),
        **payload,
    )


class _FlipKeys(dict):
    """``str(flips)`` by flip count, each built once (a histogram key
    repeats across thousands of records)."""

    def __missing__(self, flips: int) -> str:
        key = self[flips] = str(flips)
        return key


_FLIP_KEYS = _FlipKeys()


def module_result_to_dict(result: ModuleResult) -> Dict[str, Any]:
    """Serialize one module's results to plain JSON-ready data.

    Used both for whole-study documents (:func:`study_to_dict`) and for
    the orchestration service's per-unit checkpoints. Columns leave
    through ``tolist()``, so ints stay ints and floats stay floats.
    """
    rowhammer = result.rowhammer
    trcd = result.trcd
    retention = result.retention
    hcfirst = [
        None if value == HCFIRST_CENSORED else value
        for value in rowhammer.hcfirst.tolist()
    ]
    return {
        "module": result.module,
        "vendor": result.vendor,
        "vppmin": result.vppmin,
        "vpp_levels": list(result.vpp_levels),
        "rowhammer": [
            {
                "bank": bank,
                "row": row,
                "vpp": vpp,
                "wcdp_index": wcdp,
                "hcfirst": hc,
                "ber": ber,
                "ber_iterations": iterations,
            }
            for bank, row, vpp, wcdp, hc, ber, iterations in zip(
                rowhammer.bank.tolist(), rowhammer.row.tolist(),
                rowhammer.vpp.tolist(), rowhammer.wcdp_index.tolist(),
                hcfirst, rowhammer.ber.tolist(),
                rowhammer.ber_iterations.tolist(),
            )
        ],
        "trcd": [
            {
                "bank": bank,
                "row": row,
                "vpp": vpp,
                "wcdp_index": wcdp,
                "trcd_min": trcd_min,
            }
            for bank, row, vpp, wcdp, trcd_min in zip(
                trcd.bank.tolist(), trcd.row.tolist(), trcd.vpp.tolist(),
                trcd.wcdp_index.tolist(), trcd.trcd_min.tolist(),
            )
        ],
        "retention": [
            {
                "bank": bank,
                "row": row,
                "vpp": vpp,
                "trefw": trefw,
                "wcdp_index": wcdp,
                "ber": ber,
                "word_flip_histogram": histogram,
            }
            for bank, row, vpp, trefw, wcdp, ber, histogram in zip(
                retention.bank.tolist(), retention.row.tolist(),
                retention.vpp.tolist(), retention.trefw.tolist(),
                retention.wcdp_index.tolist(), retention.ber.tolist(),
                retention.histograms(key=_FLIP_KEYS.__getitem__),
            )
        ],
    }


#: Each record family's table and JSON fields, with the numpy dtype a
#: field decodes to (None: a list the table converts itself -- censored
#: ``hcfirst``, the per-iteration block, the histograms).
_FAMILIES = (
    ("rowhammer", RowHammerTable, (
        ("bank", np.int64), ("row", np.int64), ("vpp", np.float64),
        ("wcdp_index", np.int64), ("hcfirst", None), ("ber", np.float64),
        ("ber_iterations", None),
    )),
    ("trcd", TrcdTable, (
        ("bank", np.int64), ("row", np.int64), ("vpp", np.float64),
        ("wcdp_index", np.int64), ("trcd_min", np.float64),
    )),
    ("retention", RetentionTable, (
        ("bank", np.int64), ("row", np.int64), ("vpp", np.float64),
        ("trefw", np.float64), ("wcdp_index", np.int64),
        ("ber", np.float64), ("word_flip_histogram", None),
    )),
)


def module_result_from_dict(payload: Dict[str, Any]) -> ModuleResult:
    """Inverse of :func:`module_result_to_dict`: fills the columns
    straight from the record lists, one pass per field (no per-record
    objects)."""
    tables = {}
    for family, table, fields in _FAMILIES:
        records = payload[family]
        columns = {}
        for name, dtype in fields:
            values = map(itemgetter(name), records)
            columns[name] = (
                list(values) if dtype is None
                else np.fromiter(values, dtype, len(records))
            )
        tables[family] = table(**columns)
    return ModuleResult(
        module=payload["module"],
        vendor=payload["vendor"],
        vppmin=payload["vppmin"],
        vpp_levels=list(payload["vpp_levels"]),
        **tables,
    )


def study_to_dict(study: StudyResult) -> Dict[str, Any]:
    """Serialize a study result to plain JSON-ready data.

    A :mod:`repro.obs.provenance` block, when attached, is validated
    and carried in the document's ``provenance`` key.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": study.seed,
        "scale": _scale_to_dict(study.scale),
        "modules": {
            name: module_result_to_dict(result)
            for name, result in study.modules.items()
        },
    }
    if study.provenance is not None:
        payload["provenance"] = validate_provenance(study.provenance)
    return payload


def study_from_dict(payload: Dict[str, Any]) -> StudyResult:
    """Inverse of :func:`study_to_dict`."""
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise AnalysisError(
            f"unsupported study schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    study = StudyResult(
        scale=_scale_from_dict(dict(payload["scale"])),
        seed=payload["seed"],
    )
    if payload.get("provenance") is not None:
        study.provenance = validate_provenance(payload["provenance"])
    for name, module_payload in payload["modules"].items():
        study.modules[name] = module_result_from_dict(module_payload)
    return study


#: The dtypes a column file may hold: little-endian int64 and float64.
COLUMN_DTYPES = ("<i8", "<f8")

#: A column file's first 8 bytes: the JSON header's length.
_HEADER_LENGTH = struct.Struct("<Q")


def study_to_columns(study: StudyResult, document: bytes = None) -> bytes:
    """Encode a study as a column file, bound to its encoded
    ``document`` when given.

    The layout is the header's length (:data:`_HEADER_LENGTH`), a JSON
    header, then every table column's raw little-endian bytes. The
    header carries what :func:`study_to_dict` carries outside the
    records (schema version, seed, scale, provenance, each module's
    vendor, V_PPmin and V_PP levels) and, per table column (the
    retention CSR triple included), ``[dtype, shape, offset]``, the
    offset counted from the end of the header, and the document's
    CRC-32. The header is padded with spaces so the columns start
    8-byte aligned.
    """
    arrays, offset, modules = [], 0, {}
    for name, result in study.modules.items():
        columns = {}
        for family, _, _ in _FAMILIES:
            table = getattr(result, family)
            specs = columns[family] = {}
            for column in table.COLUMNS + table.EXTRA:
                array = np.ascontiguousarray(getattr(table, column))
                array = array.astype(
                    array.dtype.newbyteorder("<"), copy=False
                )
                specs[column] = [array.dtype.str, list(array.shape), offset]
                arrays.append(array)
                offset += array.nbytes
        modules[name] = {
            "module": result.module,
            "vendor": result.vendor,
            "vppmin": result.vppmin,
            "vpp_levels": list(result.vpp_levels),
            "columns": columns,
        }
    header = {
        "schema_version": SCHEMA_VERSION,
        "seed": study.seed,
        "scale": _scale_to_dict(study.scale),
        "modules": modules,
    }
    if study.provenance is not None:
        header["provenance"] = validate_provenance(study.provenance)
    if document is not None:
        header["document_crc32"] = zlib.crc32(document)
    text = json.dumps(header).encode("utf-8")
    text += b" " * (-(_HEADER_LENGTH.size + len(text)) % 8)
    return b"".join([_HEADER_LENGTH.pack(len(text)), text, *arrays])


def _column(buffer: bytearray, start: int, spec) -> np.ndarray:
    """One column of a column file: a view of ``buffer``, checked to
    lie inside it."""
    dtype, shape, offset = spec
    if dtype not in COLUMN_DTYPES:
        raise AnalysisError(f"column dtype {dtype!r} not in {COLUMN_DTYPES}")
    if not all(type(value) is int and value >= 0
               for value in (offset, *shape)):
        raise AnalysisError(f"bad column shape or offset {spec!r}")
    count = math.prod(shape)
    if start + offset + 8 * count > len(buffer):
        raise AnalysisError(f"column {spec!r} runs past the end of the file")
    return np.frombuffer(buffer, dtype, count, start + offset).reshape(shape)


def study_from_columns(buffer, document: bytes = None) -> StudyResult:
    """Inverse of :func:`study_to_columns`; with ``document``, the file
    must have been bound to exactly those bytes.

    The columns are views of ``buffer`` (copied into a ``bytearray``
    first unless it is one), so they are writable. Raises
    :class:`~repro.errors.AnalysisError` (or a ``ValueError``,
    ``KeyError`` or ``TypeError``) on a malformed file: an unknown
    dtype, a header or column past the end of the buffer, or another
    document than the one it was bound to.
    """
    if not isinstance(buffer, bytearray):
        buffer = bytearray(buffer)
    if len(buffer) < _HEADER_LENGTH.size:
        raise AnalysisError("column file shorter than its header length")
    start = _HEADER_LENGTH.size + _HEADER_LENGTH.unpack_from(buffer)[0]
    if start > len(buffer):
        raise AnalysisError("column header runs past the end of the file")
    header = json.loads(buffer[_HEADER_LENGTH.size:start])
    if not isinstance(header, dict) or (
        header.get("schema_version") != SCHEMA_VERSION
    ):
        raise AnalysisError("unsupported column file header")
    if document is not None and (
        header.get("document_crc32") != zlib.crc32(document)
    ):
        raise AnalysisError("column file does not match its document")
    study = StudyResult(
        scale=_scale_from_dict(dict(header["scale"])), seed=header["seed"]
    )
    if header.get("provenance") is not None:
        study.provenance = validate_provenance(header["provenance"])
    for name, entry in header["modules"].items():
        tables = {}
        for family, table, _ in _FAMILIES:
            specs = entry["columns"][family]
            records = specs["row"][1][:1]
            if any(specs[column][1][:1] != records
                   for column in table.COLUMNS):
                raise AnalysisError(f"{family} columns differ in length")
            tables[family] = table(**{
                column: _column(buffer, start, specs[column])
                for column in table.COLUMNS + table.EXTRA
            })
        study.modules[name] = ModuleResult(
            module=entry["module"],
            vendor=entry["vendor"],
            vppmin=entry["vppmin"],
            vpp_levels=list(entry["vpp_levels"]),
            **tables,
        )
    return study


def save_study(study: StudyResult, path: str) -> None:
    """Write a study result to ``path`` as JSON.

    Encoded once with ``json.dumps`` and written in one call: the bytes
    equal streaming ``json.dump``'s, but ``dump`` to a file handle runs
    CPython's pure-Python encoder, several times slower.
    """
    text = json.dumps(study_to_dict(study))
    with open(path, "w") as handle:
        handle.write(text)


def load_study(path: str) -> StudyResult:
    """Read a study result previously written by :func:`save_study`."""
    with open(path) as handle:
        return study_from_dict(json.load(handle))
