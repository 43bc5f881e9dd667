"""Spans recorded from the benchmark's own files, and their self times.

A :class:`Tracer` keeps spans (name, start, end, parent, label) in
memory.  :func:`install` wraps the program's public layer functions so
each call records one span; it patches the function in its defining
module *and* at every module that imported it by name, because a
``from x import f`` binding would otherwise call the unwrapped original.

:func:`summarize` turns spans into per-name self time (a span's
duration minus the part of it that child spans cover) and call counts.
Over one thread's span tree the self times add up to the root's
duration; the root's own self time is what no wrapped layer explains,
reported as ``unaccounted_s``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (span name, module, attribute path) of every wrapped layer function.
# Several functions may share a span name; their calls pool.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("fsm.stimulus", "repro.fsm.simulate", "random_stimulus"),
    ("fsm.stimulus", "repro.fsm.simulate", "idle_biased_stimulus"),
    ("fsm.reference_sim", "repro.fsm.simulate", "FsmSimulator.run"),
    ("logic.espresso", "repro.logic.minimize", "espresso"),
    ("logic.lutmap", "repro.logic.lutmap", "map_network"),
    ("synth.ff_synth", "repro.synth.ff_synth", "synthesize_ff"),
    ("synth.netsim", "repro.synth.netsim", "simulate_ff_netlist"),
    ("synth.stg_table", "repro.synth.codegen", "stg_table"),
    ("romfsm.map", "repro.romfsm.mapper", "map_fsm_to_rom"),
    ("romfsm.compaction", "repro.romfsm.compaction", "compact_columns"),
    ("romfsm.compaction", "repro.romfsm.compaction",
     "ColumnCompaction.build_mux_network"),
    ("romfsm.clock_control", "repro.romfsm.clock_control",
     "synthesize_clock_control"),
    ("romfsm.run", "repro.romfsm.impl", "RomFsmImplementation.run"),
    ("power.activity", "repro.power.activity", "extract_ff_activity"),
    ("power.activity", "repro.power.activity", "extract_decomposed_activity"),
    ("power.activity", "repro.power.activity", "extract_rom_activity"),
    ("power.estimate", "repro.power.estimator", "estimate_ff_power"),
    ("power.estimate", "repro.power.estimator", "estimate_rom_power"),
    ("pipeline.run", "repro.pipeline.pipeline", "Pipeline.run"),
    ("pipeline.fingerprint", "repro.pipeline.artifact", "fingerprint"),
    ("pipeline.cache_get", "repro.pipeline.cache", "ArtifactCache.get"),
    ("pipeline.cache_put", "repro.pipeline.cache", "ArtifactCache.put"),
    ("flows.evaluate", "repro.flows.flow", "evaluate_benchmark_detailed"),
    ("tune.search", "repro.tune.search", "tune_benchmark"),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    label: Optional[str] = None
    payload: object = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, label: Optional[str] = None) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, name, self._clock(), 0.0,
                    stack[-1] if stack else None, label)
        stack.append(sid)
        return span

    def end(self, span: Span) -> Span:
        span.end = self._clock()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, name: str, func: Callable,
             label: Optional[Callable] = None,
             keep: Optional[Callable] = None) -> Callable:
        """``func`` recording one span per call.  ``label`` derives a
        label from the call's arguments; ``keep`` derives a payload
        from its result to store on the span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.begin(name, label(*args, **kwargs) if label else None)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(span)
            if keep is not None:
                span.payload = keep(result)
            return result

        return traced


# -- installing wrappers -------------------------------------------------


def _import_all(package: str = "repro") -> None:
    """Import every module of the program, so every by-name binding of
    a layer function exists before patching (a module imported later
    would bind the wrapper, which is also fine)."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)


def _evaluation_label(name_or_fsm, *args, **kwargs) -> str:
    return name_or_fsm if isinstance(name_or_fsm, str) else name_or_fsm.name


_LABELS = {"flows.evaluate": _evaluation_label}
_KEEP = {
    # Stage timings of each pipeline run, from the same run's report.
    "pipeline.run": lambda result: [
        (r.stage, r.seconds) for r in result.report.records],
    "pipeline.cache_get": lambda result: result is not None,
}


def install(tracer: Tracer,
            functions: Sequence[Tuple[str, str, str]] = LAYER_FUNCTIONS,
            package: str = "repro") -> List[str]:
    """Wrap ``functions`` everywhere they are bound.  Returns the ones
    the program no longer has (their metrics then read zero)."""
    _import_all(package)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    missing = []
    for name, module_name, path in functions:
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        wrapper = tracer.wrap(name, original, label=_LABELS.get(name),
                              keep=_KEEP.get(name))
        if outer:  # a method: the class attribute is its only binding
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing


# -- self-time arithmetic --------------------------------------------------


def _covered(interval: Tuple[float, float],
             children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@dataclass
class Summary:
    """Per-name self time and calls over one set of spans.

    ``wall`` is the summed duration of the root spans (one per thread
    that did traced work); ``unaccounted`` is the roots' self time, so
    ``sum(self_s.values()) + unaccounted == wall`` when each thread's
    spans nest (child spans of one thread never overlap).
    """

    wall: float
    unaccounted: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    inclusive_by_label: Dict[Tuple[str, str], float]


def summarize(spans: Sequence[Span]) -> Summary:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    by_label: Dict[Tuple[str, str], float] = {}
    wall = unaccounted = 0.0
    for span in spans:
        own = span.duration - _covered((span.start, span.end),
                                       children.get(span.sid, ()))
        if span.parent is None:
            wall += span.duration
            unaccounted += own
            continue
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.label is not None:
            key = (span.name, span.label)
            by_label[key] = by_label.get(key, 0.0) + span.duration
    return Summary(wall, unaccounted, self_s, calls, by_label)


def export(spans: Sequence[Span]) -> Dict[str, object]:
    """JSON-ready digest of one traced repetition: self times, calls,
    inclusive time per label, and the stage timings and cache hits the
    spans carried."""
    summary = summarize(spans)
    stage_s: Dict[str, float] = {}
    cache_hits = 0
    for span in spans:
        if span.name == "pipeline.run" and span.payload:
            for stage, seconds in span.payload:
                stage_s[stage] = stage_s.get(stage, 0.0) + seconds
        elif span.name == "pipeline.cache_get":
            cache_hits += bool(span.payload)
    return {
        "wall": summary.wall,
        "unaccounted": summary.unaccounted,
        "self_s": summary.self_s,
        "calls": summary.calls,
        "inclusive": {f"{name}.{label}": seconds for (name, label), seconds
                      in summary.inclusive_by_label.items()},
        "stage_s": stage_s,
        "cache_hits": cache_hits,
    }
