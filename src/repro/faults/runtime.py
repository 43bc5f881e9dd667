"""The process-global fault-injection switchboard.

Production code calls :func:`hit` at named failure points; with no plan
active this is one global read and a ``None`` return, so the hooks cost
nothing in normal operation.  The points threaded through the hot paths:

=====================  =============================================  ==================
point                  where                                          honoured kinds
=====================  =============================================  ==================
``cache.get``          ``ArtifactCache.get`` before the disk read     oserror, disk_full,
                                                                      truncate, bitflip,
                                                                      stall
``cache.put``          ``ArtifactCache.put`` before the disk write    oserror, disk_full,
                                                                      stall
``pipeline.stage``     ``Pipeline.run`` at each stage boundary        raise, stall
``driver.worker``      pool-worker entry in ``run_sharded``           kill, stall, raise
``service.job``        ``run_job`` before pipeline execution          raise, stall
``service.connection`` the server, just before writing a response     reset, stall
``cachenet.request``   both cache-tier sides: the sharded client      client: truncate,
                       before each backend request, and the           bitflip, reset,
                       ``romfsm cached`` server per incoming frame    stall; server:
                       (``side="server"`` in the context)             kill, stall
=====================  =============================================  ==================

Activation: :func:`install` (or the :func:`injected` context manager
in tests) makes a plan the process-wide active one; nothing here reads
the environment — the ``romfsm`` CLI turns ``--faults`` /
``REPRO_FAULTS`` into an installed plan.  Pool workers are handed the
plan's JSON spec as an argument: the ``run_sharded`` pool initializer
installs it in each fresh worker, and the service's executor target
calls :func:`adopt` with it on every job.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Optional

from repro.faults.plan import FaultAction, FaultInjected, FaultPlan
from repro.logutil import get_logger, kv

__all__ = [
    "active_plan",
    "adopt",
    "corrupt_bytes",
    "hit",
    "injected",
    "install",
    "uninstall",
]

logger = get_logger("faults")

_installed: Optional[FaultPlan] = None
_installed_spec: Optional[str] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process-wide active plan (``None`` clears it)."""
    global _installed, _installed_spec
    _installed = plan
    _installed_spec = plan.to_json() if plan is not None else None


def uninstall() -> None:
    install(None)


def adopt(spec: Optional[str]) -> None:
    """Install the plan ``spec`` serializes (``None`` clears), unless it
    is already the active one.

    A long-lived pool worker is handed the current plan with every job;
    reinstalling only on a change keeps the worker's fire counters
    running across jobs, while a new (or no) plan takes effect at once.
    """
    if (spec or None) != _installed_spec:
        install(FaultPlan.from_spec(spec) if spec else None)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None``."""
    return _installed


@contextmanager
def injected(plan: FaultPlan):
    """Scope ``plan`` to a ``with`` block (the test-fixture activation)."""
    previous = _installed
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def hit(point: str, **ctx: Any) -> Optional[FaultAction]:
    """Consult the active plan at ``point``; apply generic actions.

    ``oserror``/``disk_full`` raise :class:`OSError`, ``raise`` raises
    :class:`~repro.faults.plan.FaultInjected`, ``stall`` sleeps for the
    rule's ``delay_s`` (a *bounded* delay — stalls model slowness, not
    livelock), ``kill`` hard-exits the process (pool-worker death).
    Data/transport kinds (``truncate``/``bitflip``/``reset``) are
    returned for the call site to interpret; call sites ignore kinds
    they cannot apply.
    """
    plan = active_plan()
    if plan is None:
        return None
    action = plan.fire(point, **ctx)
    if action is None:
        return None
    logger.info(kv("fault_fired", point=point, kind=action.kind))
    if action.kind == "oserror":
        import errno

        raise OSError(errno.EIO, f"injected I/O error at {point}")
    if action.kind == "disk_full":
        import errno

        raise OSError(errno.ENOSPC, f"injected disk-full at {point}")
    if action.kind == "raise":
        raise FaultInjected(point)
    if action.kind == "stall":
        time.sleep(action.delay_s)
        return None
    if action.kind == "kill":
        os._exit(42)
    return action


def corrupt_bytes(action: FaultAction, payload: bytes) -> bytes:
    """Apply a data-corruption action to freshly read bytes.

    Deterministic on purpose: ``truncate`` keeps the first half (a torn
    read), ``bitflip`` flips one bit in the middle byte (silent media
    corruption).  Anything else passes through unchanged.
    """
    if not payload:
        return payload
    if action.kind == "truncate":
        return payload[: len(payload) // 2]
    if action.kind == "bitflip":
        index = len(payload) // 2
        flipped = payload[index] ^ 0x01
        return payload[:index] + bytes([flipped]) + payload[index + 1:]
    return payload
