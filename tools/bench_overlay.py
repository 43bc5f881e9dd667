#!/usr/bin/env python
"""Benchmark the multi-tenant overlay; write BENCH_overlay.json.

Two measurements:

* **overlay ledger** — for each registered backend, pack the paper
  benchmark group into a shared block inventory and compare physical
  blocks, power and energy-per-serviced-transition against N separate
  standalone mappings (same stimuli on both sides);
* **batch throughput** — boot a throwaway ``romfsm serve`` subprocess
  and stream one ``/v1/batch`` campaign through it, recording items/s
  and how the streamed results split between fresh runs and coalesced
  duplicates.

Usage::

    PYTHONPATH=src python tools/bench_overlay.py
    PYTHONPATH=src python tools/bench_overlay.py --cycles 300 --items 32
    PYTHONPATH=src python tools/bench_overlay.py --no-service
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.arch.memblock import list_backends  # noqa: E402
from repro.overlay import build_overlay_report  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402

TENANTS = ["dk14", "donfile", "keyb", "styr"]
BATCH_BENCHMARKS = ["dk14", "donfile", "ex1", "keyb", "sand", "styr"]


def child_env():
    """Environment for a spawned ``romfsm``: the checkout's sources and
    no ``REPRO_*`` setting from the caller's shell, which would change
    the numbers (a cache tier, a fault plan, a cache directory)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def wait_ready(client, deadline_s=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            if client.healthz()["status"] == "ok":
                return
        except ServiceError:
            time.sleep(0.1)
    raise SystemExit("server did not become healthy in time")


def overlay_ledger(cycles: int, frequency: float) -> dict:
    ledger = {}
    for model in list_backends():
        report = build_overlay_report(
            TENANTS, backend=model.name,
            num_cycles=cycles, frequencies_mhz=(frequency,),
        )
        ovl_nj, sep_nj = report.energy_per_transition_nj(frequency)
        ledger[model.name] = {
            "tenants": TENANTS,
            "overlay_blocks": report.overlay_blocks,
            "separate_blocks": report.separate_blocks,
            "block_saving_percent": round(report.block_saving_percent, 2),
            "overlay_mw": round(report.overlay_mw(frequency), 4),
            "separate_mw": round(report.separate_mw[f"{frequency:g}"], 4),
            "power_saving_percent": round(
                report.saving_percent(frequency), 2),
            "nj_per_transition": {
                "overlay": round(ovl_nj, 5),
                "separate": round(sep_nj, 5),
            },
        }
    return ledger


def batch_throughput(args) -> dict:
    cache_dir = tempfile.mkdtemp(prefix="romfsm-overlay-cache-")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.flows.cli", "serve",
            "--host", args.host, "--port", str(args.port),
            "--jobs", str(args.jobs), "--max-queue", "256",
            "--timeout", "120", "--cache-dir", cache_dir,
        ],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(host=args.host, port=args.port, timeout_s=300.0)
    try:
        wait_ready(client)
        items = [
            {
                "benchmark": BATCH_BENCHMARKS[i % len(BATCH_BENCHMARKS)],
                "num_cycles": args.cycles,
                "frequencies_mhz": [100.0],
                "seed": i // len(BATCH_BENCHMARKS) % args.distinct_seeds,
            }
            for i in range(args.items)
        ]
        start = time.perf_counter()
        first_item_s = None
        ok = failed = coalesced = 0
        for line in client.batch_stream(items):
            if "item" in line:
                if first_item_s is None:
                    first_item_s = time.perf_counter() - start
                if line.get("ok"):
                    ok += 1
                    coalesced += bool(line.get("coalesced"))
                else:
                    failed += 1
        wall = time.perf_counter() - start
        return {
            "items": args.items,
            "distinct_jobs": len({json.dumps(i, sort_keys=True)
                                  for i in items}),
            "server_jobs": args.jobs,
            "num_cycles": args.cycles,
            "ok": ok,
            "failed": failed,
            "coalesced": coalesced,
            "wall_s": round(wall, 6),
            "first_item_s": round(first_item_s or 0.0, 6),
            "throughput_items_per_s": round(ok / wall, 3) if wall else 0.0,
        }
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=18481)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cycles", type=int, default=500)
    parser.add_argument("--items", type=int, default=24)
    parser.add_argument("--distinct-seeds", type=int, default=2,
                        help="seeds per benchmark in the campaign (extra "
                             "repeats coalesce or hit the cache)")
    parser.add_argument("--frequency", type=float, default=100.0)
    parser.add_argument("--no-service", action="store_true",
                        help="skip the batch-throughput phase")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_overlay.json"))
    args = parser.parse_args(argv)

    report = {
        "workload": {
            "tenants": TENANTS,
            "num_cycles": args.cycles,
            "frequency_mhz": args.frequency,
        },
        "overlay": overlay_ledger(args.cycles, args.frequency),
    }
    if not args.no_service:
        report["batch"] = batch_throughput(args)

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
