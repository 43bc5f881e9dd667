"""The benchmark's metric catalogue and the traced-run conversion.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` lists (a
test keeps them in step).  Each per-layer entry also records, in
``moves``, the end-to-end metric it should move and on which workload,
written down before any optimisation is measured against it.

Additivity: the self-time metrics marked ``SELF`` plus ``unaccounted_s``
add up to ``traced_wall_s`` of the same traced repetition.  Inclusive
figures (``pipeline.stage_s.*``, ``flows.evaluate_s.*``,
``service.request_s``) overlap them and are not part of that sum.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

WORKLOADS = {
    "tables-cold": "run_all(cache=False) over the nine paper benchmarks "
                   "plus the Table 1-4 text, fresh interpreter per sample: "
                   "the headline reproduction, pure compute",
    "tune-cold": "tune_benchmark('ex1') against an empty artifact cache, "
                 "fresh interpreter per sample: mapper, compaction and "
                 "fingerprint heavy, write-heavy cache",
    "service-warm": "closed loop of 2 clients sending seeded /v1/evaluate "
                    "requests to a warm serve: every stage is a local "
                    "cache read, so HTTP, admission and dispatch dominate",
    "campaign-tier": "one seeded /v1/batch campaign through a fresh serve "
                     "whose only warmth is a filled cache-tier backend: "
                     "tier read-through and local backfill",
}

# (name, unit, better, bound, meaning)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25,
     "median host seconds of one timed unit: a tables regeneration, a "
     "tune, a campaign, or a block of 100 service requests"),
    ("throughput_rps", "1/s", "higher", 0.25,
     "items completed per second of the timed phase: evaluations, tune "
     "candidates, requests or campaign items"),
    ("latency_p50_ms", "ms", "lower", 0.25,
     "median time a caller waits for one operation: a regeneration, a "
     "tune, a request, or a campaign item's line"),
    ("latency_p99_ms", "ms", "lower", 0.25,
     "99th percentile of the same, or the highest percentile with at "
     "least 10 samples beyond it"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "peak RSS of the benchmark process plus the largest peak among the "
     "processes it spawned"),
    ("setup_s", "s", "lower", 0.25,
     "everything before the timed phase, median of several set-ups"),
)

STAGES = ("parse", "complete-encode", "ff-synth", "rom-map", "rom-cc",
          "simulate", "activity", "power", "tune-map", "tune-fitness")
PAPER_BENCHMARKS = ("prep4", "dk14", "tbk", "keyb", "donfile", "sand",
                    "styr", "ex1", "planet")

# Self-time metric of each span name (see spans.LAYER_FUNCTIONS).
SELF = {
    "fsm.stimulus": "fsm.stimulus_s",
    "fsm.reference_sim": "fsm.reference_sim_s",
    "logic.espresso": "logic.espresso_s",
    "logic.lutmap": "logic.lutmap_s",
    "synth.ff_synth": "synth.ff_synth_s",
    "synth.netsim": "synth.netsim_s",
    "synth.stg_table": "synth.stg_table_s",
    "romfsm.map": "romfsm.map_s",
    "romfsm.compaction": "romfsm.compaction_s",
    "romfsm.clock_control": "romfsm.clock_control_s",
    "romfsm.run": "romfsm.run_s",
    "power.activity": "power.activity_s",
    "power.estimate": "power.estimate_s",
    "pipeline.run": "pipeline.run_s",
    "pipeline.fingerprint": "pipeline.fingerprint_s",
    "pipeline.cache_get": "pipeline.cache_get_s",
    "pipeline.cache_put": "pipeline.cache_put_s",
    "flows.evaluate": "flows.evaluate_self_s",
    "tune.search": "tune.search_s",
    # Client-side spans; split into transport/dispatch/stage below.
    "service.call": None,
}
CALLS = {
    "fsm.stimulus": "fsm.stimulus_calls",
    "logic.espresso": "logic.espresso_calls",
    "logic.lutmap": "logic.lutmap_calls",
    "romfsm.map": "romfsm.map_calls",
    "romfsm.run": "romfsm.run_calls",
    "pipeline.fingerprint": "pipeline.fingerprint_calls",
}

_T = "wall_s on tables-cold"
_U = "wall_s on tune-cold"
_S = "latency_p50_ms, latency_p99_ms and throughput_rps on service-warm"
_C = "wall_s on campaign-tier"


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


def _layers() -> List[Layer]:
    s, n = "s", "count"
    rows = [
        Layer("fsm.stimulus_s", s, "lower", f"{_T}; little on tune-cold"),
        Layer("fsm.stimulus_calls", n, "lower", f"{_T}; little on tune-cold"),
        Layer("fsm.reference_sim_s", s, "lower", f"{_T}; little on tune-cold"),
        Layer("logic.espresso_s", s, "lower", f"{_T} (ff-synth) and {_U} "
              "(compaction); no work on the service workloads"),
        Layer("logic.espresso_calls", n, "lower", f"{_T} and {_U}"),
        Layer("logic.lutmap_s", s, "lower", f"{_T} (ff-synth) and {_U} "
              "(compaction); no work on the service workloads"),
        Layer("logic.lutmap_calls", n, "lower", f"{_T} and {_U}"),
        Layer("synth.ff_synth_s", s, "lower", f"{_T}; nearly absent on tune-cold"),
        Layer("synth.netsim_s", s, "lower", _T),
        Layer("synth.stg_table_s", s, "lower", f"{_T} and {_U}"),
        Layer("synth.codegen_compiles", n, "lower", _T),
        Layer("synth.codegen_calls", n, "lower", _T),
        Layer("synth.codegen_fallbacks", n, "lower", f"{_T}; must stay 0"),
        Layer("romfsm.map_s", s, "lower", f"{_U}; less on tables-cold"),
        Layer("romfsm.map_calls", n, "lower", f"{_U}; less on tables-cold"),
        Layer("romfsm.compaction_s", s, "lower", f"{_U}; less on tables-cold"),
        Layer("romfsm.clock_control_s", s, "lower", f"{_U}; less on tables-cold"),
        Layer("romfsm.run_s", s, "lower", f"{_U}; less on tables-cold"),
        Layer("romfsm.run_calls", n, "lower", f"{_U}; less on tables-cold"),
        Layer("power.activity_s", s, "lower",
              "about 3% of tables-cold; no visible end-to-end move predicted"),
        Layer("power.estimate_s", s, "lower",
              "about 3% of tables-cold; no visible end-to-end move predicted"),
        Layer("pipeline.run_s", s, "lower",
              f"stage orchestration self time: {_T} and {_U}"),
    ]
    rows += [Layer(f"pipeline.stage_s.{stage}", s, "lower",
                   f"{_U}" if stage.startswith("tune-") else _T)
             for stage in STAGES]
    rows += [
        Layer("pipeline.fingerprint_s", s, "lower", f"{_T} and {_U}"),
        Layer("pipeline.fingerprint_calls", n, "lower", f"{_T} and {_U}"),
        Layer("pipeline.cache_get_s", s, "lower",
              f"latency_p50_ms on service-warm (served inside the serve "
              f"workers, seen there as service.stage_s); {_U}"),
        Layer("pipeline.cache_put_s", s, "lower", f"{_U} only"),
        Layer("pipeline.cache_put_bytes", "bytes", "lower", f"{_U} only"),
        Layer("pipeline.cache_hit_ratio", "ratio", "higher", _U),
        Layer("tune.search_s", s, "lower", _U),
        Layer("tune.candidates", n, "higher", f"{_U} (exact count)"),
        Layer("tune.structures", n, "lower", f"{_U} (exact count)"),
        Layer("tune.evaluated", n, "lower", f"{_U} (exact count)"),
        Layer("tune.pruned", n, "higher", f"{_U} (exact count)"),
        Layer("tune.evaluated_ratio", "ratio", "lower",
              f"{_U} (evaluated / candidates, the useful-work ratio)"),
        Layer("service.request_s", s, "lower", f"{_S}; {_C}"),
        Layer("service.stage_s", s, "lower",
              f"{_S} (all-hit: cache read time); {_C}"),
        Layer("service.dispatch_s", s, "lower",
              f"{_S} (admission, queueing, executor, pickling); on "
              "campaign-tier stage_s sums parallel workers, so this may "
              "go below zero"),
        Layer("service.transport_s", s, "lower", f"{_S}; {_C}"),
        Layer("service.pipeline_runs", n, "lower", _S),
        Layer("service.coalesced_ratio", "ratio", "higher", _S),
        Layer("service.rejections", n, "lower", f"{_S}; must stay 0"),
        Layer("cachenet.tier_gets", n, "lower", f"{_C}; zero elsewhere"),
        Layer("cachenet.tier_puts", n, "lower", f"{_C}; zero elsewhere"),
        Layer("cachenet.l2_hit_ratio", "ratio", "higher", f"{_C}; zero elsewhere"),
        Layer("cachenet.put_drops", n, "lower", f"{_C}; zero elsewhere"),
        Layer("cachenet.errors", n, "lower", f"{_C}; zero elsewhere"),
        Layer("flows.evaluate_self_s", s, "lower", _T),
    ]
    rows += [Layer(f"flows.evaluate_s.{bench}", s, "lower",
                   f"{_T}" + ("; the ROADMAP cold-evaluation anchor"
                              if bench == "planet" else ""))
             for bench in PAPER_BENCHMARKS]
    rows += [
        Layer("unaccounted_s", s, "lower",
              "traced wall minus the layer self times; every workload"),
        Layer("traced_wall_s", s, "lower",
              "wall of the traced repetition the layers come from"),
        Layer("trace_overhead_s", s, "lower",
              "traced median minus untraced median wall; every workload"),
    ]
    return rows


PER_LAYER = tuple(_layers())

# Which span names each workload must exercise at least once when traced.
EXERCISED = {
    "tables-cold": ("fsm.stimulus", "fsm.reference_sim", "logic.espresso",
                    "logic.lutmap", "synth.ff_synth", "synth.netsim",
                    "synth.stg_table", "romfsm.map", "romfsm.compaction",
                    "romfsm.clock_control", "romfsm.run", "power.activity",
                    "power.estimate", "pipeline.run", "pipeline.fingerprint",
                    "flows.evaluate"),
    "tune-cold": ("logic.lutmap", "romfsm.map", "romfsm.compaction",
                  "pipeline.run", "pipeline.fingerprint",
                  "pipeline.cache_get", "pipeline.cache_put", "tune.search"),
    "service-warm": ("service.call",),
    "campaign-tier": ("service.call",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Mapping, *, overhead_s: float,
                  codegen: Optional[Mapping] = None,
                  tune: Optional[Mapping] = None,
                  store_bytes: int = 0,
                  service: Optional[Mapping] = None,
                  cachenet: Optional[Mapping] = None) -> Dict[str, float]:
    """Every per-layer metric from one traced repetition's digest
    (:func:`spans.export`) plus the counters read beside it; layers a
    workload does not exercise read zero."""
    values = {layer.name: 0.0 for layer in PER_LAYER}
    self_s, calls = trace["self_s"], trace["calls"]
    for span, seconds in self_s.items():
        if SELF.get(span):
            values[SELF[span]] += seconds
    for span, count in calls.items():
        if span in CALLS:
            values[CALLS[span]] = count
    for stage, seconds in trace["stage_s"].items():
        values[f"pipeline.stage_s.{stage}"] = seconds
    for key, seconds in trace["inclusive"].items():
        if key.startswith("flows.evaluate."):
            values[f"flows.evaluate_s.{key.split('.', 2)[2]}"] = seconds
    values["pipeline.cache_hit_ratio"] = _ratio(
        trace["cache_hits"], calls.get("pipeline.cache_get", 0))
    values["pipeline.cache_put_bytes"] = store_bytes
    if codegen:
        for key in ("compiles", "calls", "fallbacks"):
            values[f"synth.codegen_{key}"] = codegen[key]
    if tune:
        for key, count in tune.items():
            values[f"tune.{key}"] = count
        values["tune.evaluated_ratio"] = _ratio(
            tune["evaluated"], tune["candidates"])
    if service:
        # The client-call spans' time, split by the server's counters:
        # client = transport + dispatch + stage, exactly.
        client_s = self_s.get("service.call", 0.0)
        values["service.request_s"] = service["request_s"]
        values["service.stage_s"] = service["stage_s"]
        values["service.dispatch_s"] = service["request_s"] - service["stage_s"]
        values["service.transport_s"] = client_s - service["request_s"]
        values["service.pipeline_runs"] = service["pipeline_runs"]
        values["service.coalesced_ratio"] = _ratio(
            service["coalesced"], service["requests"])
        values["service.rejections"] = service["rejections"]
    if cachenet:
        for key, count in cachenet.items():
            values[f"cachenet.{key}"] = count
    values["unaccounted_s"] = trace["unaccounted"]
    values["traced_wall_s"] = trace["wall"]
    values["trace_overhead_s"] = overhead_s
    return values


def layers_from_reps(reps: List[Mapping]) -> Tuple[Dict[str, float], Mapping]:
    """Per-layer metrics of the median traced repetition (one run is one
    sample: wall, stage and layer numbers all come from it), with the
    tracing overhead as traced median minus untraced median wall.
    Also returns that repetition's span digest."""
    traced = sorted((r for r in reps if r["traced"]), key=lambda r: r["wall_s"])
    plain = [r["wall_s"] for r in reps if not r["traced"]]
    rep = traced[(len(traced) - 1) // 2]
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(plain))
    return layer_metrics(
        rep["trace"], overhead_s=overhead, codegen=rep.get("codegen"),
        tune=rep.get("tune"), store_bytes=rep.get("store_bytes", 0),
        service=rep.get("service"), cachenet=rep.get("cachenet")), rep["trace"]


def self_time_names() -> List[str]:
    """The metrics that, with ``unaccounted_s``, add up to the traced wall."""
    names = [m for m in SELF.values() if m]
    return names + ["service.transport_s", "service.dispatch_s",
                    "service.stage_s"]


def unexercised(workload: str, trace: Mapping) -> List[str]:
    return [span for span in EXERCISED[workload]
            if not trace["calls"].get(span)]
