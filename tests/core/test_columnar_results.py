"""Columnar study results: lossless decode/encode of the study document
and of the store's binary column file, and exact table equality.

The document is unchanged (schema version 1): decoding it into column
tables and encoding those back must reproduce it string for string, so
an int-vs-float drift fails here even where ``==`` would not see it.
A column file must decode to a study whose document is that same
string.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.core.results import (
    HCFIRST_CENSORED,
    ModuleResult,
    RetentionRow,
    RetentionTable,
    RowHammerRow,
    RowHammerTable,
    TrcdTable,
)
from repro.core.scale import StudyScale
from repro.core.serialization import (
    module_result_from_dict,
    module_result_to_dict,
    study_from_columns,
    study_from_dict,
    study_to_columns,
    study_to_dict,
)
from repro.core.study import CharacterizationStudy, StudyResult
from repro.dram.calibration import ModuleGeometry
from repro.errors import AnalysisError

GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "c5_tiny_study.json"


def _canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def _assert_round_trip(document):
    restored = study_to_dict(study_from_dict(document))
    assert _canonical(restored) == _canonical(document)


def _module(**tables):
    return ModuleResult(
        module="Z", vendor="C", vppmin=1.5, vpp_levels=[2.5, 1.5], **tables
    )


def _rowhammer(hcfirst=(10_000, None), ber=(0.25, 0.5)):
    return RowHammerTable.from_rows([
        RowHammerRow(0, 3, 2.5, 1, hcfirst[0], ber[0], (ber[0], 0.125)),
        RowHammerRow(0, 3, 1.5, 1, hcfirst[1], ber[1], (0.0, ber[1])),
    ])


@pytest.fixture(scope="module")
def bench_documents():
    """A0 seed-0 studies shaped like the benchmark's ``ladder`` (RowHammer
    + retention at 65536-bit rows) and ``characterize`` (all three
    families) workloads."""
    bench = StudyScale.bench()
    ladder = dataclasses.replace(
        bench, geometry=ModuleGeometry(row_bits=65536)
    )
    return {
        "ladder": study_to_dict(CharacterizationStudy(
            scale=ladder, seed=0
        ).run(modules=["A0"], tests=("rowhammer", "retention"))),
        "characterize": study_to_dict(CharacterizationStudy(
            scale=bench, seed=0
        ).run(modules=["A0"], tests=("rowhammer", "trcd", "retention"))),
    }


class TestDocumentRoundTrip:
    def test_golden_study(self):
        _assert_round_trip(json.loads(GOLDEN.read_text()))

    @pytest.mark.parametrize("shape", ["ladder", "characterize"])
    def test_bench_study(self, bench_documents, shape):
        document = bench_documents[shape]
        module = document["modules"]["A0"]
        assert module["rowhammer"] and module["retention"]
        assert bool(module["trcd"]) == (shape == "characterize")
        # Both shapes carry non-empty and empty histograms.
        histograms = [r["word_flip_histogram"] for r in module["retention"]]
        assert any(histograms) and not all(histograms)
        _assert_round_trip(document)

    def test_decoded_values_keep_their_types(self, bench_documents):
        document = bench_documents["characterize"]["modules"]["A0"]
        restored = module_result_to_dict(module_result_from_dict(document))
        for family in ("rowhammer", "trcd", "retention"):
            for mine, theirs in zip(restored[family], document[family]):
                assert [type(v) for v in mine.values()] == [
                    type(v) for v in theirs.values()
                ]

    def test_censored_hcfirst(self):
        table = _rowhammer()
        assert table.hcfirst.tolist() == [10_000, HCFIRST_CENSORED]
        assert table.censored.tolist() == [False, True]
        assert [r.hcfirst for r in table] == [10_000, None]
        payload = module_result_to_dict(_module(rowhammer=table))
        assert [r["hcfirst"] for r in payload["rowhammer"]] == [10_000, None]
        assert module_result_from_dict(payload).rowhammer == table

    def test_empty_histograms_and_trcd_table(self):
        retention = RetentionTable.from_rows([
            RetentionRow(0, 3, 2.5, 0.064, 2, 0.0, {}),
            RetentionRow(0, 3, 2.5, 4.096, 2, 0.001, {1: 5, 2: 1}),
            RetentionRow(0, 4, 2.5, 0.064, 2, 0.0, {}),
        ])
        module = _module(rowhammer=_rowhammer(), retention=retention)
        payload = module_result_to_dict(module)
        assert payload["trcd"] == []
        assert [r["word_flip_histogram"] for r in payload["retention"]] == [
            {}, {"1": 5, "2": 1}, {},
        ]
        restored = module_result_from_dict(json.loads(json.dumps(payload)))
        assert restored == module
        assert len(restored.trcd) == 0
        assert _canonical(module_result_to_dict(restored)) == _canonical(
            payload
        )

    def test_module_with_zero_records(self):
        module = _module()
        payload = module_result_to_dict(module)
        assert (payload["rowhammer"], payload["trcd"], payload["retention"]
                ) == ([], [], [])
        restored = module_result_from_dict(payload)
        assert restored == module
        assert not restored.rowhammer and not restored.retention
        assert module_result_to_dict(restored) == payload

    def test_ragged_ber_iterations_rejected(self):
        payload = module_result_to_dict(_module(rowhammer=_rowhammer()))
        payload["rowhammer"][1]["ber_iterations"] = [0.5]
        with pytest.raises(AnalysisError):
            module_result_from_dict(payload)


class TestEquality:
    def test_module_equality_is_an_exact_bool(self):
        a = _module(rowhammer=_rowhammer())
        b = _module(rowhammer=_rowhammer())
        assert (a == b) is True
        assert ({"Z": a} != {"Z": b}) is False
        one_ulp = float(np.nextafter(0.5, 1.0))
        c = _module(rowhammer=_rowhammer(ber=(0.25, one_ulp)))
        assert (a == c) is False
        assert ({"Z": a} != {"Z": c}) is True

    def test_histogram_order_does_not_matter(self):
        """Histograms compare as mappings, as the record dicts did."""
        ascending = RetentionTable.from_rows(
            [RetentionRow(0, 1, 2.5, 4.096, 0, 0.1, {1: 3, 2: 1})]
        )
        descending = RetentionTable.from_rows(
            [RetentionRow(0, 1, 2.5, 4.096, 0, 0.1, {2: 1, 1: 3})]
        )
        assert ascending == descending
        assert list(descending)[0].word_flip_histogram == {1: 3, 2: 1}

    def test_take_and_concat_keep_histograms(self):
        rows = [
            RetentionRow(0, row, 2.5, 0.064, 0, 0.0, histogram)
            for row, histogram in enumerate([{1: 2}, {}, {1: 1, 3: 2}])
        ]
        table = RetentionTable.from_rows(rows)
        assert list(table.take(np.array([2, 0]))) == [rows[2], rows[0]]
        assert list(table.take(np.array([False, True, True]))) == rows[1:]
        assert RetentionTable.concat(
            [table.take(np.array([2])), table.take(np.array([0, 1]))]
        ) == RetentionTable.from_rows([rows[2], rows[0], rows[1]])


def _columns_round_trip(study):
    """The study's document, and its document after a trip through the
    column file."""
    decoded = study_from_columns(study_to_columns(study))
    return (
        _canonical(study_to_dict(decoded)), _canonical(study_to_dict(study))
    )


def _study(*modules):
    study = StudyResult(scale=StudyScale.tiny(), seed=9)
    for index, module in enumerate(modules):
        study.modules[f"Z{index}"] = module
    return study


class TestColumnFile:
    def test_golden_study(self):
        document = json.loads(GOLDEN.read_text())
        decoded = study_from_columns(
            study_to_columns(study_from_dict(document))
        )
        assert _canonical(study_to_dict(decoded)) == _canonical(document)

    @pytest.mark.parametrize("family", ["rowhammer", "trcd", "retention"])
    def test_tiny_study_of_each_family(self, family):
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=0
        ).run(modules=["A0"], tests=(family,))
        assert len(getattr(study.modules["A0"], family))
        decoded, original = _columns_round_trip(study)
        assert decoded == original

    def test_bench_ladder_study(self, bench_documents):
        study = study_from_dict(bench_documents["ladder"])
        decoded = study_from_columns(study_to_columns(study))
        assert decoded.modules == study.modules
        assert _canonical(study_to_dict(decoded)) == _canonical(
            bench_documents["ladder"]
        )

    def test_censored_hcfirst_empty_trcd_and_empty_histograms(self):
        retention = RetentionTable.from_rows([
            RetentionRow(0, 3, 2.5, 0.064, 2, 0.0, {}),
            RetentionRow(0, 3, 2.5, 4.096, 2, 0.001, {1: 5, 2: 1}),
            RetentionRow(0, 4, 2.5, 0.064, 2, 0.0, {}),
        ])
        study = _study(
            _module(rowhammer=_rowhammer(), retention=retention), _module()
        )
        decoded, original = _columns_round_trip(study)
        assert decoded == original
        module = study_from_columns(study_to_columns(study)).modules["Z0"]
        assert module.rowhammer.censored.tolist() == [False, True]
        assert len(module.trcd) == 0
        assert module.retention.histograms() == [{}, {1: 5, 2: 1}, {}]

    def test_columns_are_writable_views(self):
        buffer = bytearray(study_to_columns(_study(
            _module(rowhammer=_rowhammer())
        )))
        table = study_from_columns(buffer).modules["Z0"].rowhammer
        assert table.ber.base is not None  # a view, not a copy
        table.ber[0] = 1.0
        assert table.ber_iterations.flags.writeable

    def test_document_binding(self):
        study = _study(_module(rowhammer=_rowhammer()))
        document = json.dumps(study_to_dict(study)).encode("utf-8")
        data = study_to_columns(study, document)
        assert study_from_columns(data, document).modules == study.modules
        with pytest.raises(AnalysisError, match="does not match"):
            study_from_columns(data, document.replace(b"0.25", b"0.75"))
        with pytest.raises(AnalysisError, match="does not match"):
            study_from_columns(study_to_columns(study), document)
