"""Published JSON is byte-identical to streaming ``json.dump``.

``save_study`` and the checkpoint writer encode once with ``json.dumps``
and write the string in one call (streaming ``json.dump`` runs CPython's
pure-Python encoder); the files they write must not change by a byte.
"""

import json
import pathlib

from repro.core.serialization import save_study, study_from_dict, study_to_dict
from repro.service.checkpoint import CheckpointStore

GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "c5_tiny_study.json"


def _streamed(payload, path):
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path.read_bytes()


def test_save_study_bytes_equal_json_dump(tmp_path):
    study = study_from_dict(json.loads(GOLDEN.read_text()))
    published = tmp_path / "study.json"
    save_study(study, str(published))
    assert published.read_bytes() == _streamed(
        study_to_dict(study), tmp_path / "streamed.json"
    )


def test_checkpoint_unit_bytes_equal_json_dump(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    payload = {
        "unit_id": "C5/rows/0-8",
        "module": golden["modules"]["C5"],
        "metrics": {"probes": 1234, "seconds": 0.1 + 0.2, "label": "µs"},
    }
    path = CheckpointStore(str(tmp_path / "ckpt")).write_unit(payload)
    assert pathlib.Path(path).read_bytes() == _streamed(
        payload, tmp_path / "streamed.json"
    )
