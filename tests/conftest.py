"""Shared fixtures for the test suite.

Everything uses small geometries so the full suite stays fast; the
calibration anchors are geometry-independent, so small banks exercise
exactly the same physics.
"""

from __future__ import annotations

import pytest

from repro.core.scale import StudyScale
from repro.dram.calibration import ModuleGeometry
from repro.dram.module import DramModule
from repro.dram.profiles import module_profile
from repro.harness.cache import clear_cache, set_study_cache_dir
from repro.softmc.infrastructure import TestInfrastructure
from repro.units import ms


@pytest.fixture
def small_geometry() -> ModuleGeometry:
    """A small but non-trivial bank geometry."""
    return ModuleGeometry(rows_per_bank=1024, banks=2, row_bits=2048)


@pytest.fixture
def b3_module(small_geometry) -> DramModule:
    """Module B3 (the paper's strongest V_PP responder)."""
    return DramModule(module_profile("B3"), geometry=small_geometry, seed=7)


@pytest.fixture
def b3_infra(b3_module) -> TestInfrastructure:
    """A fully wired bench around B3."""
    return TestInfrastructure(b3_module)


@pytest.fixture
def tiny_scale() -> StudyScale:
    """The integration-test study scale."""
    return StudyScale.tiny()


@pytest.fixture(autouse=True)
def _clear_study_cache():
    """Isolate tests from both study-cache layers (in-process dict and
    any ambient REPRO_STUDY_CACHE_DIR disk cache)."""
    previous = set_study_cache_dir(None)
    clear_cache()
    yield
    clear_cache()
    set_study_cache_dir(previous)


@pytest.fixture
def worker_pids():
    """``worker_pids(pool)``: the process ids of a
    :class:`~repro.service.pool.WorkerPool`'s current workers."""
    def pids(pool):
        return sorted(pool._executor._processes)
    return pids
