"""Structured logging for the CLI, the pipeline driver, and the service.

Everything logs through the stdlib :mod:`logging` machinery under the
``repro`` logger hierarchy, but messages are emitted as flat
``key=value`` event lines so they stay grep-able and machine-parseable
without a JSON dependency::

    2026-08-05T12:00:00 INFO repro.service event=request path=/v1/evaluate status=200 ms=41.3

:func:`configure_logging` is idempotent and takes the level as an
argument (the CLI passes ``--log-level``, whose default comes from
``REPRO_LOG_LEVEL``), defaulting to ``WARNING`` so normal CLI output is
unchanged.
"""

from __future__ import annotations

import logging
from typing import Any, Optional

__all__ = ["configure_logging", "get_logger", "kv"]

_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"
_DATE_FORMAT = "%Y-%m-%dT%H:%M:%S"

_configured = False


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    if " " in text or "=" in text or not text:
        return repr(text)
    return text


def kv(event: str, **fields: Any) -> str:
    """Render one structured event line: ``event=<event> k=v k=v ...``."""
    parts = [f"event={_format_value(event)}"]
    parts.extend(f"{key}={_format_value(val)}" for key, val in fields.items())
    return " ".join(parts)


def resolve_level(level: Optional[str] = None) -> int:
    """Numeric level for a level name; WARNING when absent or unknown."""
    name = level or "WARNING"
    resolved = logging.getLevelName(str(name).upper())
    if not isinstance(resolved, int):
        resolved = logging.WARNING
    return resolved


def configure_logging(level: Optional[str] = None) -> int:
    """Install the structured handler on the ``repro`` root logger.

    Safe to call more than once: the handler is attached only on the
    first call, later calls just adjust the level (so tests and the
    long-lived server can tighten/loosen verbosity).  Returns the
    numeric level in effect.
    """
    global _configured
    numeric = resolve_level(level)
    root = logging.getLogger("repro")
    if not _configured:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(_FORMAT, _DATE_FORMAT))
        root.addHandler(handler)
        root.propagate = False
        _configured = True
    root.setLevel(numeric)
    return numeric


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)
