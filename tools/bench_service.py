#!/usr/bin/env python
"""Load-test the compilation service; write BENCH_service.json.

Boots a throwaway `romfsm serve` subprocess (or targets a running one
with --host/--port/--no-spawn), fires a mix of identical and distinct
evaluate requests from a thread pool, and records throughput plus
latency percentiles — the seed numbers for the service perf trajectory.

Usage::

    PYTHONPATH=src python tools/bench_service.py
    PYTHONPATH=src python tools/bench_service.py --requests 500 --concurrency 32
    PYTHONPATH=src python tools/bench_service.py --no-spawn --port 8000
    PYTHONPATH=src python tools/bench_service.py --instances 4

With ``--instances N`` the report also gains a ``multi_instance``
section: for 1/2/4 instances (capped at N), a sharded campaign is run
against freshly spawned serves joined to a 2-backend cache tier —
once cold, then again with brand-new serves whose only warmth is the
tier (the L2-warm round).  Stage-run counters from /metrics show how
much execution the tier saved.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cachenet.campaign import run_campaign  # noqa: E402
from repro.cachenet.client import CacheBackendClient  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402


def child_env():
    """Environment for a spawned ``romfsm``: the checkout's sources and
    no ``REPRO_*`` setting from the caller's shell, which would change
    the numbers (a cache tier, a fault plan, a cache directory)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def wait_ready(client, deadline_s=30.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            if client.healthz()["status"] == "ok":
                return
        except ServiceError:
            time.sleep(0.1)
    raise SystemExit("server did not become healthy in time")


def metrics_sum(text, prefix):
    """Sum every sample of a (possibly labelled) counter family."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(prefix) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return int(total)


def spawn_cached(root, name):
    """Boot a ``romfsm cached`` backend; returns (proc, "host:port")."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.flows.cli", "cached",
            "--port", "0", "--cache-dir", os.path.join(root, f"tier-{name}"),
        ],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    announce = json.loads(proc.stdout.readline())["cachenet"]
    return proc, f"{announce['host']}:{announce['port']}"


def spawn_serve(port, cache_dir, peers, jobs):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.flows.cli", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--jobs", str(jobs), "--max-queue", "256",
            "--timeout", "120", "--cache-dir", cache_dir,
            "--cache-peers", peers,
        ],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def stop_all(procs):
    for proc in procs:
        proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


def multi_instance_sweep(args, root):
    """The scale-out curve: campaign throughput at 1/2/4 instances,
    cold versus L2-warm (fresh serves, warm tier)."""
    counts = [c for c in (1, 2, 4) if c <= args.instances]
    items = [
        {"benchmark": "dk14", "num_cycles": args.cycles,
         "frequencies_mhz": [100.0], "seed": seed}
        for seed in range(max(args.distinct, 8))
    ]
    section = {"backends": 2, "items": len(items), "instances": {}}
    next_port = args.port + 10

    for count in counts:
        backends = [spawn_cached(root, f"{count}-{i}") for i in range(2)]
        peers = ",".join(addr for _, addr in backends)
        rounds = {}

        def tier_requests():
            """Cumulative GET/PUT totals across the tier backends."""
            totals = {"get": 0, "put": 0}
            for _, addr in backends:
                host, port = addr.rsplit(":", 1)
                stats = CacheBackendClient(host, int(port)).stats()
                for verb in totals:
                    totals[verb] += stats.get("requests", {}).get(verb, 0)
            return totals

        try:
            previous = tier_requests()
            for label in ("cold", "l2_warm"):
                serves, urls = [], []
                for i in range(count):
                    port = next_port
                    next_port += 1
                    cache_dir = os.path.join(
                        root, f"local-{count}-{label}-{i}")
                    serves.append(spawn_serve(
                        port, cache_dir, peers, args.jobs))
                    urls.append(f"127.0.0.1:{port}")
                try:
                    for url in urls:
                        wait_ready(ServiceClient(
                            port=int(url.rsplit(":", 1)[1]), timeout_s=30.0))
                    start = time.perf_counter()
                    lines = list(run_campaign(
                        items, urls, timeout_s=300.0, retries=1))
                    wall = time.perf_counter() - start
                    done = lines[-1]
                    # Let the write-behind queues drain into the tier
                    # before tearing the serves down.
                    time.sleep(1.0)
                    stage_runs = stage_hits = 0
                    for url in urls:
                        text = ServiceClient(
                            port=int(url.rsplit(":", 1)[1])).metrics_text()
                        stage_runs += metrics_sum(
                            text, "romfsm_stage_runs_total")
                        stage_hits += metrics_sum(
                            text, "romfsm_stage_cache_hits_total")
                finally:
                    stop_all(serves)
                current = tier_requests()
                rounds[label] = {
                    "ok": done["ok"],
                    "failed": done["failed"],
                    "wall_s": round(wall, 6),
                    "throughput_rps": round(done["ok"] / wall, 3)
                    if wall else 0.0,
                    "stage_runs": stage_runs,
                    "stage_cache_hits": stage_hits,
                    "tier_gets": current["get"] - previous["get"],
                    "tier_puts": current["put"] - previous["put"],
                }
                previous = current
        finally:
            stop_all([proc for proc, _ in backends])
        section["instances"][str(count)] = rounds
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=18480)
    parser.add_argument("--no-spawn", action="store_true",
                        help="target an already-running server")
    parser.add_argument("--jobs", type=int, default=2,
                        help="server worker processes (spawned server)")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--distinct", type=int, default=4,
                        help="number of distinct request configs in the mix "
                             "(the rest coalesce or hit the artifact cache)")
    parser.add_argument("--cycles", type=int, default=500)
    parser.add_argument("--instances", type=int, default=0,
                        help="also benchmark sharded campaigns at 1/2/4 "
                             "instances (capped here) over a 2-backend "
                             "cache tier; 0 skips the sweep")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_service.json"))
    args = parser.parse_args(argv)

    proc = None
    cache_dir = None
    if not args.no_spawn:
        cache_dir = tempfile.mkdtemp(prefix="romfsm-bench-cache-")
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

    client = ClientPool(args.host, args.port)
    try:
        wait_ready(client.get())

        # One cold round over the distinct configs: measures the uncached
        # pipeline and warms the artifact cache for the hot phase.
        cold_latencies = []
        for seed in range(args.distinct):
            start = time.perf_counter()
            client.get().evaluate(
                benchmark="dk14", num_cycles=args.cycles,
                frequencies_mhz=[100.0], seed=seed,
            )
            cold_latencies.append(time.perf_counter() - start)

        latencies = []
        errors = {"overloaded": 0, "timeout": 0, "other": 0}

        def fire(i):
            seed = i % args.distinct
            start = time.perf_counter()
            try:
                reply = client.get().evaluate(
                    benchmark="dk14", num_cycles=args.cycles,
                    frequencies_mhz=[100.0], seed=seed,
                )
            except ServiceError as exc:
                key = exc.reason if exc.reason in errors else "other"
                errors[key] += 1
                return None
            elapsed = time.perf_counter() - start
            return elapsed, bool(reply.get("coalesced"))

        wall_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
            outcomes = list(pool.map(fire, range(args.requests)))
        wall = time.perf_counter() - wall_start

        coalesced = sum(1 for o in outcomes if o and o[1])
        latencies = sorted(o[0] for o in outcomes if o)
        completed = len(latencies)

        metrics_text = client.get().metrics_text()
        runs = 0
        for line in metrics_text.splitlines():
            if line.startswith("romfsm_pipeline_runs_total"):
                runs += int(float(line.rsplit(" ", 1)[1]))

        report = {
            "workload": {
                "requests": args.requests,
                "concurrency": args.concurrency,
                "distinct_configs": args.distinct,
                "num_cycles": args.cycles,
                "server_jobs": args.jobs,
                "spawned": not args.no_spawn,
            },
            "cold": {
                "runs": len(cold_latencies),
                "mean_s": round(statistics.fmean(cold_latencies), 6)
                if cold_latencies else 0.0,
            },
            "hot": {
                "completed": completed,
                "rejected": errors,
                "coalesced": coalesced,
                "pipeline_runs_total": runs,
                "wall_s": round(wall, 6),
                "throughput_rps": round(completed / wall, 3) if wall else 0.0,
                "latency_s": {
                    "p50": round(percentile(latencies, 0.50), 6),
                    "p95": round(percentile(latencies, 0.95), 6),
                    "p99": round(percentile(latencies, 0.99), 6),
                    "max": round(latencies[-1], 6) if latencies else 0.0,
                },
            },
        }
        if args.instances > 0:
            sweep_root = tempfile.mkdtemp(prefix="romfsm-bench-tier-")
            report["multi_instance"] = multi_instance_sweep(args, sweep_root)

        out = Path(args.out)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {out}", file=sys.stderr)
        return 0
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()


class ClientPool:
    """One ServiceClient per thread is unnecessary (clients are
    stateless one-connection-per-call), so share a single instance."""

    def __init__(self, host, port):
        self._client = ServiceClient(host=host, port=port, timeout_s=300.0)

    def get(self) -> ServiceClient:
        return self._client


if __name__ == "__main__":
    sys.exit(main())
