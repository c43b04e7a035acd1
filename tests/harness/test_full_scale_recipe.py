"""The ``docs/FULL_SCALE.md`` recipe, run as written at tiny scale.

The recipe's first code block is executed with its four settings
(scale, modules, workers, experiments) swapped for a tiny one-module
``fig3`` run. Its store must then hold exactly the study ``fig3``
fetches, with the records a direct study of that request produces.
"""

import pathlib
import re

from repro.core.scale import StudyScale
from repro.core.study import CharacterizationStudy
from repro.harness.cache import study_fingerprint
from repro.harness.store import StudyStore

DOC = pathlib.Path(__file__).parents[2] / "docs" / "FULL_SCALE.md"

#: The recipe's paper-scale settings, by variable, and their tiny
#: stand-ins.
SETTINGS = {
    "scale": "StudyScale.tiny()",
    "modules": '["C5"]',
    "workers": "2",
    "experiments": '("fig3",)',
}


def _recipe() -> str:
    """The recipe block, with :data:`SETTINGS` substituted."""
    code = re.search(
        r"## Recipe\n\n```python\n(.*?)```", DOC.read_text(), re.S
    ).group(1)
    for name, value in SETTINGS.items():
        code, count = re.subn(
            rf"^{name} = .*$", f"{name} = {value}", code, flags=re.M
        )
        assert count == 1, f"the recipe sets {name!r} {count} times"
    return code


def test_recipe_stores_what_fig3_fetches(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_recipe(), str(DOC), "exec"), namespace)
    assert namespace["quarantined"] == []
    assert "Normalized BER curves" in capsys.readouterr().out

    fingerprint = study_fingerprint(
        ("rowhammer",), ("C5",), StudyScale.tiny(), 0
    )
    store = StudyStore(str(tmp_path / "paper-store"))
    assert store.fingerprints() == [fingerprint]
    direct = CharacterizationStudy(scale=StudyScale.tiny(), seed=0).run(
        modules=["C5"], tests=("rowhammer",)
    )
    assert store.load(fingerprint).modules == direct.modules
    assert len(list((tmp_path / "paper-checkpoints").iterdir())) == 1
