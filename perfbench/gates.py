"""Correctness gates: every timed output is checked against a reference.

A gate returns ``None`` when the output is right and a one-line reason
when it is not; the benchmark counts each failure in ``failed``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from benchlib import BENCH_DIR, RESULTS_DIR

TUNE_GOLDEN = BENCH_DIR / "golden" / "tune_ex1.json"


def _non_blank_lines(text: str):
    return [line for line in text.split("\n") if line != ""]


def expected_tables(results_dir: Path = RESULTS_DIR) -> str:
    return "".join(
        (results_dir / f"table{i}.txt").read_text() for i in range(1, 5))


def check_tables(text: str, expected: str) -> Optional[str]:
    """Rendered Tables 1-4 against ``results/table1..4.txt``, byte for
    byte apart from the blank separator lines."""
    got, want = _non_blank_lines(text), _non_blank_lines(expected)
    if got == want:
        return None
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"tables line {index + 1}: {a!r} != {b!r}"
    return f"tables have {len(got)} lines, reference has {len(want)}"


def check_tune(canonical: str, golden: str) -> Optional[str]:
    """``TuneResult.canonical_json()`` against the recorded golden."""
    if canonical == golden:
        return None
    return (f"tune frontier differs from the golden "
            f"({len(canonical)} vs {len(golden)} bytes)")


def normalise(payload: Any) -> Any:
    """A payload as it reads after a JSON round trip (what a reply
    carries), so in-process and served payloads compare equal."""
    return json.loads(json.dumps(payload))


def check_reply(reply: Mapping[str, Any], expected: Any) -> Optional[str]:
    """One ``/v1/evaluate`` reply or ``/v1/batch`` item line against
    ``evaluate_payload()`` of an in-process cacheless evaluation."""
    if not reply.get("ok", False):
        return f"not ok: {reply.get('error')}: {reply.get('message')}"
    if reply.get("result") != expected:
        return "result differs from the in-process evaluation"
    return None


def check_campaign(lines: Sequence[Mapping[str, Any]],
                   expected: Sequence[Any]) -> list:
    """Every item of one campaign stream, exactly once, correct; returns
    one reason per bad or missing item."""
    reasons = []
    seen = set()
    for line in lines:
        if "item" not in line:
            continue
        index = line["item"]
        if index in seen or not 0 <= index < len(expected):
            reasons.append(f"item {index} unexpected or repeated")
            continue
        seen.add(index)
        reason = check_reply(line, expected[index])
        if reason:
            reasons.append(f"item {index}: {reason}")
    reasons.extend(f"item {i} missing"
                   for i in range(len(expected)) if i not in seen)
    return reasons
