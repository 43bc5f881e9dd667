"""One cold repetition of ``tables-cold`` or ``tune-cold``, in a fresh
interpreter so no in-process memo (codegen compile memo, Markov
stationary cache, tables results memo) carries over between samples.

Usage (the benchmark spawns it; it prints one JSON line)::

    python perfbench/child.py tables --trace 0
    python perfbench/child.py tune --trace 1 --cache-dir DIR

``ready`` is the CLOCK_MONOTONIC time at which imports finished, so the
parent can compute set-up time from its own spawn timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

# The paper inputs behind results/table1..4.txt and the tune golden.
TABLES_INPUTS = dict(num_cycles=2000, seed=2004, jobs=1, cache=False,
                     backend="virtex2-bram")
TUNE_BENCHMARK = "ex1"


def _tables(cache_dir):
    from repro.flows.tables import run_all, table1, table2, table3, table4

    def run():
        results = run_all(**TABLES_INPUTS)
        # The CLI's rendering: each table, then a blank separator line.
        text = "".join(f"{t(results).text}\n\n"
                       for t in (table1, table2, table3, table4))
        return {"text": text, "items": len(results)}

    return run


def _tune(cache_dir):
    from repro.tune import tune_benchmark

    def run():
        result = tune_benchmark(TUNE_BENCHMARK, jobs=1, cache=cache_dir)
        stats = result.stats
        return {
            "canonical": result.canonical_json(),
            "items": stats["candidates"],
            "tune": {k: stats[k] for k in
                     ("candidates", "structures", "evaluated", "pruned")},
        }

    return run


WORKLOADS = {"tables": _tables, "tune": _tune}


def _store_bytes(root) -> int:
    if not root:
        return 0
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir")
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    missing = spans.install(tracer) if tracer is not None else []
    run = WORKLOADS[args.workload](args.cache_dir)
    ready = time.monotonic()

    if tracer is not None:
        root = tracer.begin("root")
    start = time.perf_counter()
    out = run()
    wall = time.perf_counter() - start
    if tracer is not None:
        wall = tracer.end(root).duration

    from repro.synth import codegen

    out.update(ready=ready, wall_s=wall)
    if tracer is not None:
        out["trace"] = spans.export(tracer.spans)
        out["unwrapped"] = missing
        out["codegen"] = codegen.stats().as_dict()
        out["store_bytes"] = _store_bytes(args.cache_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
