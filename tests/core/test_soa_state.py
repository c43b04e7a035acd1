"""Tests for the shared-memory struct-of-arrays device state.

Covers the full lifecycle contract of :mod:`repro.core.soa`: plane
bit-identity against fresh RNG derivation, worker attach under both
multiprocessing start methods (fork and spawn), crash hygiene (a dead
worker must never unlink the owner's segment; the owner's cleanup must
leave ``/dev/shm`` empty), install-time identity validation, and the
end-to-end guarantee that a shared-state parallel campaign is
record-identical to a sequential private-state one.
"""

import multiprocessing as mp
import os
import pickle
import time

import numpy as np
import pytest

from repro.core.scale import StudyScale
from repro.core.soa import (
    FIELDS,
    attach_device_state,
    build_device_state,
)
from repro.core.study import CharacterizationStudy
from repro.dram.module import DramModule
from repro.dram.profiles import module_profile
from repro.errors import ConfigurationError
from repro.service import CampaignService

SEED = 3


def _soa_segments():
    try:
        return [n for n in os.listdir("/dev/shm") if "repro-soa" in n]
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def _segment_alive(name):
    return any(name in segment for segment in _soa_segments())


def _plane_checksums(state):
    return {
        fieldname: float(np.asarray(
            state.plane(fieldname), dtype=np.float64
        ).sum())
        for fieldname, _ in FIELDS
    }


def _attach_worker(handle, queue):
    """Child: attach, report plane checksums, detach cleanly."""
    state = attach_device_state(handle)
    try:
        queue.put(_plane_checksums(state))
    finally:
        state.close()


def _crash_worker(handle):
    """Child: attach, then die without any cleanup at all."""
    attach_device_state(handle)
    os._exit(1)


@pytest.fixture
def device_state():
    state = build_device_state("A0", scale=StudyScale.tiny(), seed=SEED)
    try:
        yield state
    finally:
        state.close(unlink=True)


class TestBuild:
    def test_planes_bit_identical_to_fresh_derivation(self, device_state):
        module = DramModule(
            module_profile("A0"), geometry=StudyScale.tiny().geometry,
            seed=SEED,
        )
        generator = module.bank(0).cells
        for physical in device_state.handle.physical_rows:
            slot = device_state._slots[physical]
            times, sensitivity = generator.retention_structure_pair(physical)
            expected = {
                "cell_tolerances": generator.cell_tolerances(physical),
                "cell_outlier_mask": generator.cell_outlier_mask(physical),
                "cell_retention_times": times,
                "cell_retention_vpp_sensitivity": sensitivity,
                "cell_trcd_factors": generator.cell_trcd_factors(physical),
            }
            for fieldname, vector in expected.items():
                assert np.array_equal(
                    device_state.plane(fieldname)[slot], vector
                ), fieldname

    def test_handle_is_picklable_and_complete(self, device_state):
        handle = pickle.loads(pickle.dumps(device_state.handle))
        assert handle == device_state.handle
        fingerprint = handle.fingerprint()
        assert fingerprint["module"] == "A0"
        assert fingerprint["seed"] == SEED
        assert fingerprint["rows"] == len(handle.physical_rows)
        assert set(fingerprint["fields"]) == {name for name, _ in FIELDS}

    def test_planes_are_read_only(self, device_state):
        attached = attach_device_state(device_state.handle)
        try:
            for fieldname, _ in FIELDS:
                for state in (device_state, attached):
                    with pytest.raises(ValueError):
                        state.plane(fieldname)[0, 0] = 1
        finally:
            attached.close()

    def test_study_seed_mismatch_rejected(self, device_state):
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=SEED + 1,
            device_state=device_state,
        )
        with pytest.raises(ConfigurationError, match="seed"):
            study.build_context("A0")

    def test_module_mismatch_rejected(self, device_state):
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=SEED, device_state=device_state,
        )
        with pytest.raises(ConfigurationError, match="module"):
            study.build_context("B3")

    def test_module_mapping_filters_by_name(self, device_state):
        """The dict form installs only into its matching module."""
        study = CharacterizationStudy(
            scale=StudyScale.tiny(), seed=SEED,
            device_state={"A0": device_state},
        )
        ctx = study.build_context("B3")  # no state for B3: plain context
        assert not ctx.infra.module.bank(0).cells._preload
        ctx = study.build_context("A0")
        assert ctx.infra.module.bank(0).cells._preload


class TestWorkers:
    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_attach_matches_owner(self, device_state, method):
        ctx = mp.get_context(method)
        queue = ctx.SimpleQueue()
        worker = ctx.Process(
            target=_attach_worker, args=(device_state.handle, queue)
        )
        worker.start()
        checksums = queue.get()
        worker.join(timeout=60)
        assert worker.exitcode == 0
        assert checksums == _plane_checksums(device_state)
        # The worker's exit (and its resource tracker) must not have
        # unlinked the owner's segment.
        time.sleep(0.2)
        assert _segment_alive(device_state.handle.shm_name)

    @pytest.mark.parametrize("method", ("fork", "spawn"))
    def test_worker_crash_leaves_segment_for_owner(self, device_state,
                                                   method):
        ctx = mp.get_context(method)
        worker = ctx.Process(
            target=_crash_worker, args=(device_state.handle,)
        )
        worker.start()
        worker.join(timeout=60)
        assert worker.exitcode == 1
        time.sleep(0.2)
        assert _segment_alive(device_state.handle.shm_name)

    def test_owner_unlink_reclaims_segment(self):
        state = build_device_state("A0", scale=StudyScale.tiny(), seed=SEED)
        name = state.handle.shm_name
        assert _segment_alive(name)
        state.close(unlink=True)
        assert not _segment_alive(name)
        # Idempotent: double close must not raise.
        state.close(unlink=True)


class TestCampaignEquivalence:
    def test_shared_state_campaign_bit_identical(self):
        """A pool campaign attaching shared device state agrees record
        for record with a sequential, private-state study -- and leaves
        no shared-memory segments behind."""
        modules = ("A0", "B3")
        scale = StudyScale.tiny()
        sequential = CharacterizationStudy(
            scale=scale, seed=SEED, probe_engine="fused"
        )
        baseline = {
            name: sequential.run_module(name) for name in modules
        }
        before = set(_soa_segments())
        service = CampaignService(
            modules, scale=scale, seed=SEED, probe_engine="fused",
            max_workers=2,
        )
        parallel = service.run().study
        assert set(_soa_segments()) == before
        shared = {
            record["module"] for record in service.telemetry.events
            if record["event"] == "device_state_shared"
        }
        assert shared == set(modules)
        for name in modules:
            merged = parallel.module(name)
            assert merged.rowhammer == baseline[name].rowhammer
            assert merged.trcd == baseline[name].trcd
            assert merged.retention == baseline[name].retention

    def test_shared_state_study_matches_private_study(self):
        state = build_device_state("B3", scale=StudyScale.tiny(), seed=SEED)
        try:
            private = CharacterizationStudy(
                scale=StudyScale.tiny(), seed=SEED, probe_engine="fused"
            ).run_module("B3", tests=("rowhammer", "retention"))
            preloaded = CharacterizationStudy(
                scale=StudyScale.tiny(), seed=SEED, probe_engine="fused",
                device_state=state,
            ).run_module("B3", tests=("rowhammer", "retention"))
        finally:
            state.close(unlink=True)
        assert preloaded.rowhammer == private.rowhammer
        assert preloaded.retention == private.retention
