#!/usr/bin/env python
"""Benchmark the evaluation pipeline; write BENCH_pipeline.json.

Runs the Fig. 6 flow over a fixed benchmark set twice — once *cold*
against a fresh artifact cache (every stage executes) and once *warm*
against the cache the cold round just filled (every stage should hit)
— and records per-stage and per-benchmark wall times.  These are the
numbers the word-parallel simulation rewrite is judged against: the
pre-rewrite cold `planet` evaluation took ~3.14 s on the reference
machine, and the report computes the speedup against that anchor.

A further ``eco`` section records the latency of absorbing a
one-transition ROM-only edit via the warm incremental ECO path (cached
parse/rom-map + in-place word patch) vs a full cold re-evaluation of
the edited machine.

Usage::

    PYTHONPATH=src python tools/bench_pipeline.py
    PYTHONPATH=src python tools/bench_pipeline.py --benchmarks planet styr
    PYTHONPATH=src python tools/bench_pipeline.py --cycles 500 --repeat 3
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.flows.flow import evaluate_benchmark_detailed  # noqa: E402
from repro.fsm.memo import clear_fsm_memo  # noqa: E402
from repro.pipeline.driver import RunManifest  # noqa: E402

# Subset of the paper suite that spans the size range (planet is the
# largest/slowest and anchors the headline speedup number).
DEFAULT_BENCHMARKS = ["dk14", "ex1", "keyb", "planet", "styr"]

# Cold wall time of evaluate_benchmark("planet", cache=False) measured
# *before* the word-parallel simulation rewrite, on the same machine
# and in the same sitting as the committed BENCH_pipeline.json numbers
# (re-measure with --baseline-planet-s when regenerating the report on
# different hardware).
PLANET_COLD_BASELINE_S = 3.27


def run_round(benchmarks, cache, cycles, repeat):
    """Evaluate every benchmark ``repeat`` times against ``cache``.

    ``cache`` is ``False`` for the cold round (no artifact store at
    all, matching ``evaluate_benchmark(..., cache=False)``; the
    in-process FSM memo is cleared before each trial too) or a cache
    directory for the warm round.  Returns (per-benchmark dict, list
    of PipelineReports).  The wall time and the stage seconds both
    come from the best of ``repeat`` trials, so they reconcile.
    """
    per_bench = {}
    reports = []
    for name in benchmarks:
        best = None
        for trial in range(repeat):
            if cache is False:
                clear_fsm_memo()
            start = time.perf_counter()
            _, report = evaluate_benchmark_detailed(
                name, cache=cache, num_cycles=cycles
            )
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, report)
        wall, report = best
        reports.append(report)
        per_bench[name] = {
            "wall_s": round(wall, 6),
            "stages": {
                r.stage: {
                    "seconds": round(r.seconds, 6),
                    "cache_hit": r.cache_hit,
                }
                for r in report.records
            },
        }
    return per_bench, reports


def eco_round(benchmark, cache_dir, cycles, repeat):
    """Warm incremental-ECO latency vs a full cold re-evaluation.

    The edit retargets one transition's destination state — the paper's
    §4.2 scenario: next-state codes always live in ROM words, so only
    ROM words change.  The warm path runs against the cache the main
    rounds already filled (parse/rom-map hit); the cold comparison
    re-runs the default Fig. 6 evaluation of the *edited* machine from
    scratch with no cache — parse through clock-control power, the same
    configuration as this report's cold round — which is what absorbing
    the edit costs without the ECO path.
    """
    from repro.bench.suite import load_benchmark
    from repro.flows.eco import eco_evaluate
    from repro.fsm.diff import apply_edits

    fsm = load_benchmark(benchmark)
    t = fsm.transitions[0]
    new_dst = next(s for s in fsm.states if s != t.dst)
    edits = [{
        "state": t.src, "input": str(t.inputs),
        "next": new_dst, "outputs": t.outputs,
    }]

    # Each trial runs against a fresh copy of the main rounds' cache:
    # parse/rom-map warm, eco stages cold — the first-time-seeing-this-
    # edit cost a long-lived service pays when an edit arrives.
    walls = []
    for _ in range(repeat):
        with tempfile.TemporaryDirectory() as trial_dir:
            trial_cache = Path(trial_dir) / "cache"
            shutil.copytree(cache_dir, trial_cache)
            start = time.perf_counter()
            result, report = eco_evaluate(
                benchmark, edits=edits, cache=str(trial_cache),
                num_cycles=cycles,
            )
            walls.append(time.perf_counter() - start)
    hits = {r.stage: r.cache_hit for r in report.records}
    assert hits.get("parse") and hits.get("rom-map"), hits

    new_fsm = apply_edits(fsm, edits)
    cold_walls = []
    for _ in range(repeat):
        start = time.perf_counter()
        evaluate_benchmark_detailed(new_fsm, cache=False, num_cycles=cycles)
        cold_walls.append(time.perf_counter() - start)

    warm_s = min(walls)
    cold_s = min(cold_walls)
    return {
        "benchmark": benchmark,
        "changed_words": result.changed_words,
        "total_words": result.total_words,
        "warm_edit_s": round(warm_s, 6),
        "full_rerun_s": round(cold_s, 6),
        "speedup": round(cold_s / warm_s, 3) if warm_s else None,
    }


def stage_totals(reports):
    manifest = RunManifest.from_reports(reports)
    return {
        name: totals.as_dict()
        for name, totals in manifest.stages.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", nargs="+", default=DEFAULT_BENCHMARKS)
    parser.add_argument("--cycles", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed warm trials per benchmark; wall_s "
                             "keeps the best")
    parser.add_argument("--cold-repeat", type=int, default=1,
                        help="timed cold trials per benchmark; wall_s "
                             "keeps the best (use >1 on noisy machines)")
    parser.add_argument("--baseline-planet-s", type=float,
                        default=PLANET_COLD_BASELINE_S,
                        help="pre-rewrite cold planet wall time to "
                             "compute the speedup against")
    parser.add_argument("--eco-benchmark", default="keyb",
                        help="benchmark for the incremental-ECO latency "
                             "comparison (default keyb: the largest "
                             "suite member whose outputs live in ROM "
                             "words rather than Moore fabric LUTs, so "
                             "the rewrite envelope accepts edits)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_pipeline.json"))
    args = parser.parse_args(argv)

    cache_dir = tempfile.mkdtemp(prefix="romfsm-bench-pipeline-")
    try:
        # Cold: no artifact store at all — the configuration the
        # word-parallel rewrite is specced against.
        cold_start = time.perf_counter()
        cold, cold_reports = run_round(
            args.benchmarks, False, args.cycles, repeat=args.cold_repeat
        )
        cold_wall = time.perf_counter() - cold_start

        # Fill the cache (untimed), then measure the all-hits path.
        run_round(args.benchmarks, cache_dir, args.cycles, repeat=1)
        warm_start = time.perf_counter()
        warm, warm_reports = run_round(
            args.benchmarks, cache_dir, args.cycles, repeat=args.repeat
        )
        warm_wall = time.perf_counter() - warm_start

        eco = eco_round(
            args.eco_benchmark, cache_dir, args.cycles,
            repeat=max(args.repeat, 3),
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    report = {
        "workload": {
            "benchmarks": args.benchmarks,
            "num_cycles": args.cycles,
            "repeat": args.repeat,
            "cold_repeat": args.cold_repeat,
            "cores": os.cpu_count(),
            "python": platform.python_version(),
        },
        "cold": {
            "wall_s": round(cold_wall, 6),
            "benchmarks": cold,
            "stages": stage_totals(cold_reports),
        },
        "warm": {
            "wall_s": round(warm_wall, 6),
            "benchmarks": warm,
            "stages": stage_totals(warm_reports),
        },
        "eco": eco,
    }
    if "planet" in cold:
        planet_cold = cold["planet"]["wall_s"]
        report["speedup"] = {
            "planet_cold_s": planet_cold,
            "planet_cold_baseline_s": args.baseline_planet_s,
            "planet_cold_speedup": round(
                args.baseline_planet_s / planet_cold, 3
            ) if planet_cold else None,
        }

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
