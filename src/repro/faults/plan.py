"""Fault plans: which failure points fire, when, and how.

A :class:`FaultPlan` is an ordered list of :class:`FaultRule` objects
plus a seed.  Each time the code under test reaches a named failure
point (see :mod:`repro.faults.runtime` for the catalogue) the plan is
consulted; the first rule whose ``point`` pattern and ``match`` context
filter apply decides — deterministically, given the seed and the
sequence of matches seen so far — whether a fault fires and what kind.

Determinism matters more than realism here: a chaos run that fails in
CI must be reproducible locally from nothing but the plan JSON.  The
probabilistic decision for the *n*-th match of rule *i* is therefore a
pure function ``h(seed, i, n)`` (SHA-256 derived), not a shared RNG
whose state depends on unrelated events.

Plans serialize to/from JSON so they can travel through the
``REPRO_FAULTS`` environment variable into pool worker processes and be
attached to CI failure artifacts.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "ACTION_KINDS",
    "FaultAction",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
]

# What a firing rule does.  "oserror"/"disk_full"/"raise"/"stall"/"kill"
# are applied generically by runtime.hit(); "truncate"/"bitflip"/"reset"
# are data/transport corruptions interpreted by the call site.
ACTION_KINDS = (
    "oserror", "disk_full", "raise", "stall", "kill",
    "truncate", "bitflip", "reset",
)


class FaultInjected(RuntimeError):
    """The typed error produced by a ``raise`` fault action.

    Surviving flows either recover from an injection or propagate this
    (or another typed error) — never a hang or a silent wrong answer.
    """

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


@dataclass(frozen=True)
class FaultRule:
    """One trigger: a failure-point pattern plus firing conditions.

    ``point`` is an ``fnmatch`` pattern over failure-point names
    (``"cache.*"`` matches both cache points).  ``match`` restricts the
    rule to calls whose context carries equal values (e.g.
    ``{"attempt": 0}`` fires only on first-attempt pool workers).
    ``skip`` ignores the first N matching calls, ``max_fires`` bounds
    the total, and ``probability`` gates each remaining match through
    the seeded hash.
    """

    point: str
    kind: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    skip: int = 0
    match: Mapping[str, Any] = field(default_factory=dict)
    delay_s: float = 0.05

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {ACTION_KINDS}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    def as_dict(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {"point": self.point, "kind": self.kind}
        if self.probability != 1.0:
            spec["probability"] = self.probability
        if self.max_fires is not None:
            spec["max_fires"] = self.max_fires
        if self.skip:
            spec["skip"] = self.skip
        if self.match:
            spec["match"] = dict(self.match)
        if self.delay_s != 0.05:
            spec["delay_s"] = self.delay_s
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "FaultRule":
        unknown = set(spec) - {
            "point", "kind", "probability", "max_fires", "skip", "match", "delay_s"
        }
        if unknown:
            raise ValueError(f"unknown fault-rule field(s): {sorted(unknown)}")
        return cls(
            point=spec["point"],
            kind=spec["kind"],
            probability=float(spec.get("probability", 1.0)),
            max_fires=spec.get("max_fires"),
            skip=int(spec.get("skip", 0)),
            match=dict(spec.get("match", {})),
            delay_s=float(spec.get("delay_s", 0.05)),
        )


@dataclass(frozen=True)
class FaultAction:
    """What a firing rule asks the failure point to do."""

    kind: str
    point: str
    delay_s: float = 0.05


class _RuleState:
    __slots__ = ("matches", "fires")

    def __init__(self):
        self.matches = 0
        self.fires = 0


def _fraction(seed: int, rule_index: int, match_index: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (rule, match) pair."""
    digest = hashlib.sha256(
        f"{seed}:{rule_index}:{match_index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultPlan:
    """A seeded, serializable set of fault rules with per-process state.

    Match/fire counters live in the plan instance, so a plan installed
    in a fresh process (a pool worker re-reading ``REPRO_FAULTS``)
    starts counting from zero — worker-side rules should therefore
    discriminate on context (``match``) rather than counters when the
    distinction must survive a process boundary.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0):
        self.rules: List[FaultRule] = list(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._states = [_RuleState() for _ in self.rules]

    # -- firing --------------------------------------------------------

    def fire(self, point: str, **ctx: Any) -> Optional[FaultAction]:
        """First applicable rule's action for this call, or ``None``."""
        for index, rule in enumerate(self.rules):
            if not fnmatchcase(point, rule.point):
                continue
            if any(ctx.get(k) != v for k, v in rule.match.items()):
                continue
            state = self._states[index]
            with self._lock:
                n = state.matches
                state.matches += 1
                if n < rule.skip:
                    continue
                if rule.max_fires is not None and state.fires >= rule.max_fires:
                    continue
                if (
                    rule.probability < 1.0
                    and _fraction(self.seed, index, n) >= rule.probability
                ):
                    continue
                state.fires += 1
            return FaultAction(kind=rule.kind, point=point, delay_s=rule.delay_s)
        return None

    def reset(self) -> None:
        """Forget all match/fire counters (fresh deterministic replay)."""
        with self._lock:
            self._states = [_RuleState() for _ in self.rules]

    # -- serialization -------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": [rule.as_dict() for rule in self.rules],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(spec, Mapping):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(spec) - {"seed", "rules"}
        if unknown:
            raise ValueError(f"unknown fault-plan field(s): {sorted(unknown)}")
        rules = spec.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ValueError("'rules' must be a list")
        return cls(
            rules=[FaultRule.from_dict(rule) for rule in rules],
            seed=int(spec.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(spec)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a CLI/env spec: inline JSON or a path to a JSON file."""
        text = spec.strip()
        if not text.startswith("{"):
            path = Path(text)
            try:
                text = path.read_text()
            except OSError as exc:
                raise ValueError(f"cannot read fault plan {spec!r}: {exc}") from exc
        return cls.from_json(text)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, rules={len(self.rules)})"
