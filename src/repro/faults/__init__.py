"""Deterministic fault injection for the cache/driver/service stack.

See :mod:`repro.faults.plan` for the plan/rule model and
:mod:`repro.faults.runtime` for the failure-point catalogue and
activation (:func:`install`, the :func:`injected` context manager, and
:func:`adopt` in pool workers; the ``romfsm`` CLI installs ``--faults``
/ ``REPRO_FAULTS``).
"""

from repro.faults.plan import (
    ACTION_KINDS,
    FaultAction,
    FaultInjected,
    FaultPlan,
    FaultRule,
)
from repro.faults.runtime import (
    active_plan,
    adopt,
    corrupt_bytes,
    hit,
    injected,
    install,
    uninstall,
)

__all__ = [
    "ACTION_KINDS",
    "FaultAction",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "adopt",
    "corrupt_bytes",
    "hit",
    "injected",
    "install",
    "uninstall",
]
