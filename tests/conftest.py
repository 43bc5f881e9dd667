"""Suite-wide fixtures.

The suite is hermetic: every ``REPRO_*`` variable the library reads is
removed before each test, so an exported cache directory, tier, fault
plan, engine or log level cannot change what a test observes.  Tests
that need one set it explicitly (``monkeypatch.setenv``).

The compiled-simulation engine keeps process-global counters
(:func:`repro.synth.codegen.stats`): compiles, cache hits, fallbacks.
Several suites assert on them (``fallbacks == 0`` is the "codegen never
silently degrades" invariant), which only means anything if each test
observes its *own* activity.  Reset the counters before every test so
assertions never depend on suite order or ``-k`` selections.
"""

import pytest

from repro.synth import codegen

AMBIENT_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_PEERS",
    "REPRO_CACHE_SECRET",
    "REPRO_FAULTS",
    "REPRO_SIM_ENGINE",
    "REPRO_LOG_LEVEL",
)


def _scrub(monkeypatch):
    for name in AMBIENT_ENV:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(autouse=True, scope="session")
def _hermetic_session():
    # Module-scoped fixtures are set up before any function-scoped one,
    # so the session scope scrubs what they see.
    with pytest.MonkeyPatch.context() as monkeypatch:
        _scrub(monkeypatch)
        yield


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    # Per test too: a library call (a server exporting its tier for
    # pool workers, say) may leave one behind.
    _scrub(monkeypatch)


@pytest.fixture(autouse=True)
def _fresh_codegen_stats():
    codegen.reset_stats()
    yield
