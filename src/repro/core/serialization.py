"""Study-result persistence.

Full-fidelity campaigns (4K rows x 10 iterations x 30 modules) take
hours; their results need to outlive the process so analyses and figure
regeneration can run offline. Results serialize to a single JSON
document (schema-versioned) and round-trip losslessly.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.core.results import (
    ModuleResult,
    RetentionRowResult,
    RowHammerRowResult,
    TrcdRowResult,
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


def module_result_to_dict(result: ModuleResult) -> Dict[str, Any]:
    """Serialize one module's results to plain JSON-ready data.

    Used both for whole-study documents (:func:`study_to_dict`) and for
    the orchestration service's per-unit checkpoints.
    """
    return {
        "module": result.module,
        "vendor": result.vendor,
        "vppmin": result.vppmin,
        "vpp_levels": list(result.vpp_levels),
        "rowhammer": [
            {
                "bank": r.bank,
                "row": r.row,
                "vpp": r.vpp,
                "wcdp_index": r.wcdp_index,
                "hcfirst": r.hcfirst,
                "ber": r.ber,
                "ber_iterations": list(r.ber_iterations),
            }
            for r in result.rowhammer
        ],
        "trcd": [
            {
                "bank": r.bank,
                "row": r.row,
                "vpp": r.vpp,
                "wcdp_index": r.wcdp_index,
                "trcd_min": r.trcd_min,
            }
            for r in result.trcd
        ],
        "retention": [
            {
                "bank": r.bank,
                "row": r.row,
                "vpp": r.vpp,
                "trefw": r.trefw,
                "wcdp_index": r.wcdp_index,
                "ber": r.ber,
                "word_flip_histogram": {
                    str(k): v
                    for k, v in r.word_flip_histogram.items()
                },
            }
            for r in result.retention
        ],
    }


def module_result_from_dict(payload: Dict[str, Any]) -> ModuleResult:
    """Inverse of :func:`module_result_to_dict`."""
    name = payload["module"]
    result = ModuleResult(
        module=name,
        vendor=payload["vendor"],
        vppmin=payload["vppmin"],
        vpp_levels=list(payload["vpp_levels"]),
    )
    for r in payload["rowhammer"]:
        result.rowhammer.append(
            RowHammerRowResult(
                module=name,
                bank=r["bank"],
                row=r["row"],
                vpp=r["vpp"],
                wcdp_index=r["wcdp_index"],
                hcfirst=r["hcfirst"],
                ber=r["ber"],
                ber_iterations=tuple(r["ber_iterations"]),
            )
        )
    for r in payload["trcd"]:
        result.trcd.append(
            TrcdRowResult(
                module=name,
                bank=r["bank"],
                row=r["row"],
                vpp=r["vpp"],
                wcdp_index=r["wcdp_index"],
                trcd_min=r["trcd_min"],
            )
        )
    for r in payload["retention"]:
        result.retention.append(
            RetentionRowResult(
                module=name,
                bank=r["bank"],
                row=r["row"],
                vpp=r["vpp"],
                trefw=r["trefw"],
                wcdp_index=r["wcdp_index"],
                ber=r["ber"],
                word_flip_histogram={
                    int(k): v
                    for k, v in r["word_flip_histogram"].items()
                },
            )
        )
    return result


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
