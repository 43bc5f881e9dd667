"""Chaos-suite plumbing: the seed matrix and failure-plan artifacts.

``CHAOS_SEED`` (env, default 0) parameterizes every randomized plan so
one CI matrix entry = one deterministic chaos universe.  When a test
fails and ``CHAOS_ARTIFACT_DIR`` is set, the exact fault plans the test
ran under are dumped as JSON there — CI uploads them, and a red run
replays locally with ``REPRO_FAULTS=<plan.json>`` or ``--faults``.
"""

import json
import os
import re

import pytest

from repro import faults

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
ARTIFACT_DIR = os.environ.get("CHAOS_ARTIFACT_DIR")


@pytest.fixture(autouse=True)
def no_ambient_plan():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture
def chaos_seed():
    return CHAOS_SEED


@pytest.fixture
def record_plan(request):
    """Register a plan so a red test leaves a replayable artifact."""
    plans = []

    def record(plan):
        plans.append(plan)
        return plan

    request.node._chaos_plans = plans
    return record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    plans = getattr(item, "_chaos_plans", None)
    if report.when == "call" and report.failed and plans and ARTIFACT_DIR:
        os.makedirs(ARTIFACT_DIR, exist_ok=True)
        stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", item.name)
        path = os.path.join(ARTIFACT_DIR, f"{stem}-seed{CHAOS_SEED}.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "test": item.nodeid,
                    "chaos_seed": CHAOS_SEED,
                    "plans": [plan.as_dict() for plan in plans],
                },
                fh,
                indent=2,
            )
