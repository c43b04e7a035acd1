"""StudyStore: content addressing, atomic publish, the column file,
cross-process races.

The multi-process tests pin the store's two guarantees -- readers never
observe a torn entry, and two writers racing on one fingerprint
serialize on the lockfile (the late one adopting the published entry)
-- by actually racing OS processes on one directory.
"""

import json
import multiprocessing
import os
import struct
import time

import pytest

from repro.core.scale import StudyScale
from repro.core.serialization import study_to_dict
from repro.core.study import CharacterizationStudy
from repro.harness.cache import (
    attach_provenance,
    clear_cache,
    get_study,
    set_study_cache_dir,
    study_fingerprint,
)
from repro.harness.store import StudyStore, entry_name
from repro.obs.metrics import REGISTRY

TESTS = ("rowhammer",)
MODULE = "C5"


def build_study(scale):
    study = CharacterizationStudy(scale=scale, seed=0).run(
        modules=[MODULE], tests=TESTS
    )
    attach_provenance(study, TESTS, [MODULE], 0, wall_seconds=0.1)
    return study


@pytest.fixture(scope="module")
def tiny_study():
    return build_study(StudyScale.tiny())


@pytest.fixture
def fingerprint():
    return study_fingerprint(TESTS, [MODULE], StudyScale.tiny(), 0)


class TestBasics:
    def test_round_trip(self, tmp_path, tiny_study, fingerprint):
        store = StudyStore(str(tmp_path))
        path = store.store(tiny_study, fingerprint)
        assert os.path.basename(path) == entry_name(fingerprint)
        assert store.contains(fingerprint)
        assert store.fingerprints() == [fingerprint]
        loaded = store.load(fingerprint)
        assert loaded.modules[MODULE].rowhammer == (
            tiny_study.modules[MODULE].rowhammer
        )

    def test_load_dict_serves_raw_document(
        self, tmp_path, tiny_study, fingerprint
    ):
        store = StudyStore(str(tmp_path))
        store.store(tiny_study, fingerprint)
        document = store.load_dict(fingerprint)
        assert document["provenance"]["fingerprint"] == fingerprint
        assert MODULE in document["modules"]

    def test_read_bytes_counts_bytes_read(
        self, tmp_path, tiny_study, fingerprint
    ):
        from repro.obs.metrics import REGISTRY

        def read_total():
            return REGISTRY.counter_values().get(
                "repro_study_cache_read_bytes_total", 0.0
            )

        store = StudyStore(str(tmp_path))
        store.store(tiny_study, fingerprint)
        before = read_total()
        data = store.read_bytes(fingerprint)
        assert data == open(store.path(fingerprint), "rb").read()
        assert read_total() - before == len(data)
        assert store.read_bytes("f" * 32) is None
        assert read_total() - before == len(data)

    def test_missing_entry_is_none(self, tmp_path):
        store = StudyStore(str(tmp_path))
        assert store.load("f" * 32) is None
        assert store.load_dict("f" * 32) is None

    def test_corrupt_entry_dropped(self, tmp_path, fingerprint):
        store = StudyStore(str(tmp_path))
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(store.path(fingerprint), "w") as handle:
            handle.write('{"schema_version": 1, "trunca')
        assert store.load(fingerprint) is None
        assert not store.contains(fingerprint)  # unlinked, recomputable

    def test_delete_and_clear(self, tmp_path, tiny_study, fingerprint):
        store = StudyStore(str(tmp_path))
        store.store(tiny_study, fingerprint)
        assert store.delete(fingerprint)
        assert not store.delete(fingerprint)
        assert os.listdir(str(tmp_path)) == []
        store.store(tiny_study, fingerprint)
        assert store.clear() == [store.path(fingerprint)]
        assert store.fingerprints() == []
        assert os.listdir(str(tmp_path)) == []

    def test_clear_sweeps_orphaned_column_files(
        self, tmp_path, tiny_study, fingerprint
    ):
        store = StudyStore(str(tmp_path))
        store.store(tiny_study, fingerprint)
        os.unlink(store.path(fingerprint))  # a publish killed midway
        assert store.fingerprints() == []
        assert store.clear() == []
        assert os.listdir(str(tmp_path)) == []


def _counter(name):
    return REGISTRY.counter_values().get(name, 0.0)


def _both_files(store, fingerprint):
    return [
        os.path.exists(path) for path in
        (store.path(fingerprint), store.columns_path(fingerprint))
    ]


def _rewrite_header(data, edit):
    """A column file whose JSON header went through ``edit``, its
    columns untouched."""
    (length,) = struct.unpack_from("<Q", data)
    header = json.loads(data[8:8 + length])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(text)) + text + data[8 + length:]


def _set_column(column, index, value):
    def edit(header):
        (module,) = header["modules"].values()
        module["columns"]["rowhammer"][column][index] = value
    return edit


class TestColumnFile:
    def test_entry_is_a_document_and_a_column_file(
        self, tmp_path, tiny_study, fingerprint
    ):
        store = StudyStore(str(tmp_path))
        before = _counter("repro_study_cache_write_bytes_total")
        store.store(tiny_study, fingerprint)
        sizes = [
            os.path.getsize(store.path(fingerprint)),
            os.path.getsize(store.columns_path(fingerprint)),
        ]
        assert sorted(os.listdir(str(tmp_path))) == sorted(
            os.path.basename(path) for path in
            (store.path(fingerprint), store.columns_path(fingerprint))
        )
        assert (
            _counter("repro_study_cache_write_bytes_total") - before
            == sum(sizes)
        )
        before = _counter("repro_study_cache_read_bytes_total")
        assert store.load(fingerprint).modules == tiny_study.modules
        assert (
            _counter("repro_study_cache_read_bytes_total") - before
            == sum(sizes)
        )

    def test_load_does_not_parse_the_document(
        self, tmp_path, tiny_study, fingerprint, monkeypatch
    ):
        store = StudyStore(str(tmp_path))
        store.store(tiny_study, fingerprint)
        with open(store.path(fingerprint), "rb") as handle:
            document = handle.read()
        parsed = []
        loads = json.loads

        def spy(text, *args, **kwargs):
            parsed.append(text if isinstance(text, str) else bytes(text))
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)  # json.load calls it too
        assert store.load(fingerprint).modules == tiny_study.modules
        assert parsed  # the column file's header
        assert document not in parsed
        assert document.decode("utf-8") not in parsed

    def test_rewritten_header_still_loads(
        self, tmp_path, tiny_study, fingerprint
    ):
        """The corruption cases below rewrite the header; unedited, the
        rewrite itself loads."""
        store = StudyStore(str(tmp_path))
        store.store(tiny_study, fingerprint)
        path = store.columns_path(fingerprint)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(_rewrite_header(data, lambda header: None))
        assert store.load(fingerprint).modules == tiny_study.modules

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda data: data[:len(data) // 2], id="truncated"),
        pytest.param(lambda data: data[:5], id="shorter-than-length"),
        pytest.param(
            lambda data: struct.pack("<Q", len(data)) + data[8:],
            id="header-length-past-eof",
        ),
        pytest.param(
            lambda data: _rewrite_header(data, _set_column("ber", 2, 1 << 40)),
            id="offset-out-of-range",
        ),
        pytest.param(
            lambda data: _rewrite_header(data, _set_column("ber", 1, [999])),
            id="shape-out-of-range",
        ),
        pytest.param(
            lambda data: _rewrite_header(data, _set_column("ber", 2, -8)),
            id="negative-offset",
        ),
        pytest.param(
            lambda data: _rewrite_header(data, _set_column("ber", 0, "|O")),
            id="object-dtype",
        ),
        pytest.param(
            lambda data: _rewrite_header(data, _set_column("ber", 0, ">f8")),
            id="big-endian-dtype",
        ),
        pytest.param(
            lambda data: _rewrite_header(
                data, _set_column("bank", 1, [1])
            ),
            id="columns-differ-in-length",
        ),
    ])
    def test_malformed_column_file_drops_the_entry(
        self, tmp_path, tiny_study, fingerprint, corrupt
    ):
        store = StudyStore(str(tmp_path))
        store.store(tiny_study, fingerprint)
        path = store.columns_path(fingerprint)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt(data))
        assert store.load(fingerprint) is None
        assert _both_files(store, fingerprint) == [False, False]

    def test_missing_column_file_drops_the_entry(
        self, tmp_path, tiny_study, fingerprint
    ):
        store = StudyStore(str(tmp_path))
        store.store(tiny_study, fingerprint)
        os.unlink(store.columns_path(fingerprint))
        assert store.load(fingerprint) is None
        assert _both_files(store, fingerprint) == [False, False]

    def test_document_only_entry_is_recomputed(
        self, tmp_path, tiny_study, fingerprint, monkeypatch
    ):
        """An entry of the layout before the column file (the document
        alone) is a miss; the recompute publishes both files."""
        store = StudyStore(str(tmp_path))
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(store.path(fingerprint), "w") as handle:
            json.dump(study_to_dict(tiny_study), handle)
        runs = []
        original = CharacterizationStudy.run

        def counting(self, *args, **kwargs):
            runs.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CharacterizationStudy, "run", counting)
        set_study_cache_dir(str(tmp_path))
        clear_cache()
        study = get_study(TESTS, [MODULE], scale=StudyScale.tiny(), seed=0)
        assert runs == [1]
        assert _both_files(store, fingerprint) == [True, True]
        assert study.modules == tiny_study.modules
        clear_cache()
        assert get_study(
            TESTS, [MODULE], scale=StudyScale.tiny(), seed=0
        ).modules == tiny_study.modules
        assert runs == [1]  # the new entry is a hit


class TestLockfile:
    def test_held_lock_times_out(self, tmp_path, tiny_study, fingerprint):
        store = StudyStore(
            str(tmp_path), lock_timeout=0.15, stale_lock_seconds=3600
        )
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(store._lock_path(fingerprint), "w") as handle:
            handle.write("someone-else")
        with pytest.raises(TimeoutError):
            store.store(tiny_study, fingerprint)

    def test_stale_lock_broken(self, tmp_path, tiny_study, fingerprint):
        store = StudyStore(
            str(tmp_path), lock_timeout=5.0, stale_lock_seconds=0.01
        )
        os.makedirs(str(tmp_path), exist_ok=True)
        lock = store._lock_path(fingerprint)
        with open(lock, "w") as handle:
            handle.write("dead-writer")
        os.utime(lock, (time.time() - 60, time.time() - 60))
        store.store(tiny_study, fingerprint)  # breaks the lock, publishes
        assert store.contains(fingerprint)
        assert not os.path.exists(lock)

    def test_waiter_adopts_published_entry(
        self, tmp_path, tiny_study, fingerprint
    ):
        """A writer that finds the entry already published while waiting
        on the lock returns without re-serializing."""
        store = StudyStore(str(tmp_path), lock_timeout=2.0)
        store.store(tiny_study, fingerprint)
        published = os.path.getmtime(store.path(fingerprint))
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(store._lock_path(fingerprint), "w") as handle:
            handle.write("racing-writer")
        try:
            path = store.store(tiny_study, fingerprint)
        finally:
            os.unlink(store._lock_path(fingerprint))
        assert path == store.path(fingerprint)
        assert os.path.getmtime(path) == published  # not rewritten


def _race_writer(directory, barrier, failures):
    """Child process: build the study independently, then race the
    sibling writer on the shared fingerprint."""
    try:
        scale = StudyScale.tiny()
        study = build_study(scale)
        fingerprint = study_fingerprint(TESTS, [MODULE], scale, 0)
        store = StudyStore(directory, lock_timeout=30.0)
        barrier.wait(timeout=120)
        store.store(study, fingerprint)
    except Exception as error:  # pragma: no cover - failure reporting
        failures.put(f"writer: {type(error).__name__}: {error}")


def _race_reader(directory, fingerprint, stop, failures):
    """Child process: hammer reads during the race; every observed
    entry must be complete and schema-valid (no torn reads)."""
    try:
        store = StudyStore(directory)
        path = store.path(fingerprint)
        while not stop.is_set():
            if os.path.isfile(path):
                with open(path) as handle:
                    raw = handle.read()
                if not raw:
                    failures.put("reader: observed an empty entry")
                    return
                document = json.loads(raw)  # torn JSON raises here
                if "modules" not in document:
                    failures.put("reader: entry missing modules")
                    return
            time.sleep(0.001)
    except Exception as error:  # pragma: no cover - failure reporting
        failures.put(f"reader: {type(error).__name__}: {error}")


class TestCrossProcessRace:
    def test_two_writers_one_reader_race_free(self, tmp_path):
        """Two processes publish the same fingerprint concurrently while
        a third reads: no torn reads, one valid entry, no leaked state."""
        directory = str(tmp_path)
        scale = StudyScale.tiny()
        fingerprint = study_fingerprint(TESTS, [MODULE], scale, 0)
        barrier = multiprocessing.Barrier(2)
        stop = multiprocessing.Event()
        failures = multiprocessing.Queue()
        writers = [
            multiprocessing.Process(
                target=_race_writer, args=(directory, barrier, failures)
            )
            for _ in range(2)
        ]
        reader = multiprocessing.Process(
            target=_race_reader,
            args=(directory, fingerprint, stop, failures),
        )
        reader.start()
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=300)
            assert writer.exitcode == 0
        stop.set()
        reader.join(timeout=30)
        assert reader.exitcode == 0
        assert failures.empty(), failures.get()
        # Exactly one complete, loadable entry (its document and its
        # column file); no lock or temp debris, no orphan.
        store = StudyStore(directory)
        assert store.fingerprints() == [fingerprint]
        assert sorted(os.listdir(directory)) == sorted(
            os.path.basename(path) for path in
            (store.path(fingerprint), store.columns_path(fingerprint))
        )
        loaded = store.load(fingerprint)
        assert loaded is not None
        assert loaded.provenance["fingerprint"] == fingerprint
        debris = [
            entry for entry in os.listdir(directory)
            if entry.startswith((".lock-", ".tmp-"))
        ]
        assert debris == []

    def test_race_is_bit_identical_to_solo_write(
        self, tmp_path, tiny_study
    ):
        """The entry surviving a race carries exactly the bytes a lone
        writer would have produced (content addressing is honest)."""
        scale = StudyScale.tiny()
        fingerprint = study_fingerprint(TESTS, [MODULE], scale, 0)
        solo = StudyStore(str(tmp_path / "solo"))
        solo.store(tiny_study, fingerprint)
        raced = StudyStore(str(tmp_path / "raced"))
        barrier = multiprocessing.Barrier(2)
        failures = multiprocessing.Queue()
        writers = [
            multiprocessing.Process(
                target=_race_writer,
                args=(str(tmp_path / "raced"), barrier, failures),
            )
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=300)
            assert writer.exitcode == 0
        assert failures.empty(), failures.get()
        solo_doc = solo.load_dict(fingerprint)
        raced_doc = raced.load_dict(fingerprint)
        strip = lambda doc: {
            key: value for key, value in doc.items() if key != "provenance"
        }
        assert strip(solo_doc) == strip(raced_doc)
        assert (
            solo_doc["provenance"]["fingerprint"]
            == raced_doc["provenance"]["fingerprint"]
        )
