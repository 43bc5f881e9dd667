"""The repository's benchmark: one command, four workloads, checked outputs.

Usage::

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``metrics.WORKLOADS``): ``tables-cold``, ``tune-cold``,
``service-warm`` and ``campaign-tier``.  ``--seed`` draws the service
request mix and the campaign items; the two cold workloads keep the
paper's fixed inputs because their references depend on them.

With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` a separate, traced run carries every per-layer metric
(self times, ``unaccounted_s`` and ``trace_overhead_s``).  The line
before it records the environment and the run's details.  Any output
that differs from its reference counts in ``failed``.  Exit status 2,
with no result line, means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import benchlib  # noqa: E402
import gates  # noqa: E402
import metrics  # noqa: E402

CHILD_TIMEOUT_S = 150.0


def cold(kind: str, seconds: float, trace: bool, group, tmp) -> dict:
    """Fresh-interpreter repetitions until ``seconds`` have passed (and,
    when tracing, at least one untraced and one traced).  No seed: the
    references hold only for the paper's fixed inputs."""
    expected = (gates.expected_tables() if kind == "tables"
                else gates.TUNE_GOLDEN.read_text())
    reps, failures = [], []
    begun = time.perf_counter()
    while time.perf_counter() - begun < seconds or (trace and len(reps) < 2):
        traced = trace and len(reps) % 2 == 1
        argv = [str(BENCH_DIR / "child.py"), kind, "--trace", str(int(traced))]
        if kind == "tune":
            argv += ["--cache-dir", str(tmp.fresh("tune-cache"))]
        spawned = time.monotonic()
        proc = group.python(*argv, stdout=subprocess.PIPE, text=True)
        try:
            rep = benchlib.read_json_line(proc, CHILD_TIMEOUT_S)
        finally:
            group.stop(proc)
        rep.update(setup_s=rep["ready"] - spawned, traced=traced)
        reason = (gates.check_tables(rep.pop("text"), expected)
                  if kind == "tables"
                  else gates.check_tune(rep.pop("canonical"), expected))
        if reason:
            failures.append(reason)
        reps.append(rep)
    out = {"attempted": len(reps), "failures": failures,
           "details": {"repetitions": len(reps)}}
    if trace:
        out["layers"], out["digest"] = metrics.layers_from_reps(reps)
        # Layer functions the program no longer has read zero.
        out["details"]["unwrapped"] = sorted(
            {name for r in reps if r["traced"] for name in r["unwrapped"]})
        return out
    walls = [r["wall_s"] for r in reps]
    out.update(walls=walls, items=sum(r["items"] for r in reps),
               timed_s=sum(walls), latencies=walls,
               setup_s=statistics.median([r["setup_s"] for r in reps]))
    return out


def end_to_end(out: dict) -> tuple:
    """Every end-to-end metric (but peak RSS) from an untraced run."""
    p99, quantile = benchlib.tail_percentile(out["latencies"], 0.99)
    values = {
        "wall_s": statistics.median(out["walls"]),
        "throughput_rps": out["items"] / out["timed_s"],
        "latency_p50_ms": statistics.median(out["latencies"]) * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "setup_s": out["setup_s"],
    }
    return values, {"latency_samples": len(out["latencies"]),
                    "p99_quantile_used": quantile,
                    "walls_s": [round(w, 4) for w in out["walls"]]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 group, tmp) -> dict:
    if name in ("tables-cold", "tune-cold"):
        return cold(name.split("-")[0], seconds, trace, group, tmp)
    import services  # imports the program: only after the env scrub

    runner = (services.service_warm if name == "service-warm"
              else services.campaign_tier)
    return runner(seed, seconds, trace, group, tmp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated benchmark still reaps its processes and temp files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Hermetic: nothing ambient reaches the program, here or in children.
    for key in [k for k in os.environ if k.startswith(benchlib.ENV_PREFIX)]:
        del os.environ[key]
    try:
        benchlib.check_sources()
    except benchlib.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(benchlib.SRC_DIR))
    from repro.synth.codegen import current_engine

    tmp = benchlib.TempRoot()
    group = benchlib.ProcessGroup(tmp.path)
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), group, tmp)
    except Exception:  # noqa: BLE001 - report, reap, and exit non-zero
        traceback.print_exc()
        return 2
    finally:
        group.close()
        tmp.close()

    details = out["details"]
    if args.trace:
        values = out["layers"]
        details["unexercised"] = metrics.unexercised(args.workload,
                                                     out["digest"])
    else:
        values, more = end_to_end(out)
        details.update(more)
        # Counted after every spawned process has been reaped.
        values["peak_rss_mb"] = benchlib.peak_rss_mb()
    attempted, failures = out["attempted"], out["failures"]
    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        environment=benchlib.environment_record(current_engine()),
        failed_ratio=len(failures) / attempted,
        failures=failures[:5],
    )
    print(json.dumps({"details": details}, sort_keys=True))
    units = {m[0]: m[1] for m in metrics.END_TO_END}
    units.update({layer.name: layer.unit for layer in metrics.PER_LAYER})
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
