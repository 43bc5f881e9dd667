"""Suite-wide fixtures.

The suite is hermetic: every ``REPRO_*`` variable is removed before
each test.  Only the ``romfsm`` CLI reads them (the library takes
explicit values), and many tests drive ``main()`` in process, so an
exported cache directory, tier, fault plan or log level in the caller's
shell cannot change what a test observes.  Tests that need one set it
explicitly (``monkeypatch.setenv``).
"""

import pytest

AMBIENT_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_PEERS",
    "REPRO_CACHE_SECRET",
    "REPRO_FAULTS",
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
    # Per test too: a test's own setenv must not leak into the next.
    _scrub(monkeypatch)
