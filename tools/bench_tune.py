#!/usr/bin/env python
"""Benchmark the tuner's search throughput; write BENCH_tune.json.

Per benchmark, four measured phases (one process, one report):

1. **cold** — full tuned search (dedupe + exact bound pruning) against
   a fresh artifact cache;
2. **warm** — the same search again: every fitness evaluation should be
   a ``tune-point`` sidecar hit, and ``simulations`` (FF-netlist and ROM
   runs counted in process) should be zero;
3. **naive** — the no-cache / no-prune / no-dedupe reference: each grid
   candidate simulated individually (a sample, rate-extrapolated), the
   baseline the tuned path's candidates/sec is compared against;
4. **replay** — the frontier's best-power point re-mapped and
   re-simulated (no cache) with the stored artifact's settings; must
   match bit-for-bit.

The headline number is ``speedup_vs_naive`` (warm tuned candidates/sec
over naive candidates/sec); CI asserts it stays ≥ 10×.  A second tuned
pass on the ``reram-1t1r`` backend records the non-volatile fabric's
frontier alongside.

Usage::

    PYTHONPATH=src python tools/bench_tune.py
    PYTHONPATH=src python tools/bench_tune.py --benchmarks dk14 sand ex1 --jobs 2
"""

from __future__ import annotations

import argparse
import functools
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

from repro.tune import (  # noqa: E402
    baseline_candidate,
    candidate_fitness,
    default_space,
    replay_point,
    tune_benchmark,
)
from repro.arch.memblock import resolve_backend  # noqa: E402
from repro.bench.suite import load_benchmark  # noqa: E402
from repro.fsm.memo import clear_fsm_memo  # noqa: E402
from repro.romfsm.impl import RomFsmImplementation  # noqa: E402
from repro.romfsm.mapper import map_fsm_to_rom  # noqa: E402
from repro.synth import netsim  # noqa: E402


def counting_simulations(fn):
    """Run ``fn()`` and count the FF-netlist and ROM simulations it
    starts in this process (``--jobs 1`` runs every search inline).

    Returns ``(result, count)``.  ``simulate_ff_netlist`` is wrapped in
    every loaded module that imported it by name.
    """
    count = 0

    def counted(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            nonlocal count
            count += 1
            return original(*args, **kwargs)
        return wrapper

    ff = netsim.simulate_ff_netlist
    owners = [m for m in list(sys.modules.values())
              if getattr(m, "simulate_ff_netlist", None) is ff]
    rom_run = RomFsmImplementation.run
    for module in owners:
        module.simulate_ff_netlist = counted(ff)
    RomFsmImplementation.run = counted(rom_run)
    try:
        result = fn()
    finally:
        for module in owners:
            module.simulate_ff_netlist = ff
        RomFsmImplementation.run = rom_run
    return result, count


def tuned_round(name, backend, cache_dir, jobs, cycles, seed):
    """One tuned search; returns (TuneResult, summary dict)."""
    result = tune_benchmark(
        name, backend=backend, jobs=jobs, cache=cache_dir,
        num_cycles=cycles, seed=seed,
    )
    s = result.stats
    return result, {
        "wall_s": s["wall_seconds"],
        "candidates_per_sec": s["candidates_per_sec"],
        "candidates": s["candidates"],
        "structures": s["structures"],
        "deduped": s["deduped"],
        "pruned": s["pruned"],
        "evaluated": s["evaluated"],
        "fitness_cache_hits": s["fitness_cache_hits"],
        "cache_hit_ratio": round(
            s["fitness_cache_hits"] / s["evaluated"], 4
        ) if s["evaluated"] else 0.0,
        "frontier_points": len(result.frontier),
        "best_power_mw": round(result.best_power.power_mw, 6),
        "baseline_power_mw": round(result.baseline.power_mw, 6),
        "best_power_saving_percent": round(
            result.best_power_saving_percent(), 3
        ),
    }


def naive_round(name, backend, cycles, seed, limit):
    """The reference the tuner is judged against: every candidate
    simulated individually — no cache, no dedupe, no pruning, no
    in-process memos.  The sample *strides* across the full grid (the
    enumeration orders the encoding axis outermost, so a head-of-list
    sample would be all cheap binary-encoding candidates) and the FSM
    memo (encodings, occupancy, ROM contents and glue logic) is cleared
    before each candidate, the per-candidate state a tunerless loop
    would have.  ``limit`` bounds the bench's wall-clock; the rate is
    what matters and is per-candidate."""
    fsm = load_benchmark(name)
    model = resolve_backend(backend)
    space = default_space(fsm, model)
    candidates = [baseline_candidate()] + space.enumerate()
    if limit and limit < len(candidates):
        step = max(1, len(candidates) // limit)
        sample = candidates[::step][:limit]
    else:
        sample = candidates
    start = time.perf_counter()
    for candidate in sample:
        clear_fsm_memo()
        impl = map_fsm_to_rom(fsm, **candidate.mapper_kwargs(), backend=model)
        candidate_fitness(fsm, impl, num_cycles=cycles, seed=seed)
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 6),
        "sampled": len(sample),
        "grid": len(candidates),
        "candidates_per_sec": round(len(sample) / wall, 3) if wall else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", nargs="+",
                        default=["dk14", "sand", "ex1"])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=256)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--naive-limit", type=int, default=24,
                        help="naive-reference sample size per benchmark "
                             "(0 = the whole grid)")
    parser.add_argument("--out", default="BENCH_tune.json")
    args = parser.parse_args(argv)

    cache_dir = tempfile.mkdtemp(prefix="romfsm-bench-tune-")
    benchmarks = {}
    try:
        for name in args.benchmarks:
            entry = {}

            def search():
                return tuned_round(
                    name, "virtex2-bram", cache_dir, args.jobs,
                    args.cycles, args.seed,
                )

            (_, entry["cold"]), cold_sims = counting_simulations(search)
            entry["cold"]["simulations"] = cold_sims
            # A warm search re-simulates nothing.
            (result, entry["warm"]), warm_sims = counting_simulations(search)
            entry["warm"]["simulations"] = warm_sims

            entry["naive"] = naive_round(
                name, "virtex2-bram", args.cycles, args.seed,
                args.naive_limit,
            )

            naive_cps = entry["naive"]["candidates_per_sec"]
            entry["speedup_vs_naive"] = round(
                entry["warm"]["candidates_per_sec"] / naive_cps, 3
            ) if naive_cps else None
            entry["speedup_cold_vs_naive"] = round(
                entry["cold"]["candidates_per_sec"] / naive_cps, 3
            ) if naive_cps else None

            # Replayability: the stored best-power point re-maps and
            # re-simulates bit-identically from the frontier artifact's
            # settings.
            fresh = replay_point(
                result.best_power, name, backend="virtex2-bram",
                **result.settings,
            )
            entry["replay_ok"] = fresh == result.best_power.fitness

            _, entry["reram"] = tuned_round(
                name, "reram-1t1r", cache_dir, args.jobs,
                args.cycles, args.seed,
            )
            benchmarks[name] = entry
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    beat = [
        n for n, e in benchmarks.items()
        if e["cold"]["best_power_saving_percent"] > 0
    ]
    report = {
        "workload": {
            "benchmarks": args.benchmarks,
            "num_cycles": args.cycles,
            "seed": args.seed,
            "jobs": args.jobs,
            "naive_limit": args.naive_limit,
            "cores": os.cpu_count(),
            "python": platform.python_version(),
        },
        "benchmarks": benchmarks,
        "summary": {
            "beats_fixed_heuristic": beat,
            "min_speedup_vs_naive": min(
                e["speedup_vs_naive"] for e in benchmarks.values()
            ),
            "all_replays_bit_identical": all(
                e["replay_ok"] for e in benchmarks.values()
            ),
        },
    }

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report["summary"], indent=2, sort_keys=True))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
