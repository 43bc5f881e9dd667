"""Shared fixtures for the cache-tier suite: in-process backends on
ephemeral ports, and a clean fault-injection slate per test."""

import pytest

from repro import faults
from repro.cachenet.server import CacheServerHandle
from repro.pipeline.cache import ArtifactCache


@pytest.fixture(autouse=True)
def no_ambient_plan():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture
def backend_factory(tmp_path):
    """Start `romfsm cached` backends in-process; stopped on teardown."""
    handles = []

    def start(name="backend"):
        handle = CacheServerHandle(
            ArtifactCache(tmp_path / f"store-{name}-{len(handles)}")
        )
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()


@pytest.fixture
def backend(backend_factory):
    return backend_factory()
