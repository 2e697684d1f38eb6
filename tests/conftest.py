"""Shared fixtures for the test suite.

Tests run against deliberately tiny structures so that capacity effects
(evictions, partition resizes, sampler displacement) can be triggered with a
few hundred accesses instead of tens of thousands.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.client import ServiceClient
from repro.experiments import store as store_module
from repro.memory.dram import DramModel
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.memory.partitioned_cache import PartitionedCache
from repro.sim.config import SystemConfig


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    """Point the default persistent store at a per-test temporary directory.

    Tests must never read results persisted by earlier runs (or by the
    benchmark harness), and ``clear_caches()`` — which clears the default
    store — must never wipe a store the user cares about.
    """

    monkeypatch.setenv(store_module.CACHE_DIR_ENV, str(tmp_path / "repro_cache"))
    previous = store_module.set_default_store(None)
    yield
    store_module.set_default_store(previous)


@pytest.fixture
def connect():
    """``connect(url, **kwargs)``: a ServiceClient closed when the test ends.

    Clients keep their connections open between calls; closing them at
    teardown keeps the HTTP tests free of unclosed-socket warnings.
    """

    with contextlib.ExitStack() as stack:
        yield lambda url, **kwargs: stack.enter_context(ServiceClient(url, **kwargs))


@pytest.fixture
def tiny_params() -> HierarchyParams:
    """A very small hierarchy: 1 KiB L1, 2 KiB L2, 8 KiB L3."""

    return HierarchyParams(
        l1_size=1024,
        l1_assoc=2,
        l2_size=2048,
        l2_assoc=4,
        l3_size=8192,
        l3_assoc=8,
        max_markov_ways=4,
        dram_latency=100.0,
    )


@pytest.fixture
def tiny_hierarchy(tiny_params) -> MemoryHierarchy:
    return MemoryHierarchy(tiny_params)


@pytest.fixture
def small_system() -> SystemConfig:
    """A scaled system with short adaptation windows for fast tests."""

    system = SystemConfig.scaled()
    system.bloom_window = 512
    system.dueller_window = 512
    system.sampler_entries = 128
    system.training_entries = 128
    return system


def line(index: int, base: int = 0) -> int:
    """Byte address of the ``index``-th cache line above ``base``."""

    return base + index * 64
