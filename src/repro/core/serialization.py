"""Study-result persistence.

Full-fidelity campaigns (4K rows x 10 iterations x 30 modules) take
hours; their results need to outlive the process so analyses and figure
regeneration can run offline. Results serialize to a single JSON
document (schema-versioned) and round-trip losslessly.
"""

from __future__ import annotations

import json
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
