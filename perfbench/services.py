"""The two service workloads: ``service-warm`` and ``campaign-tier``.

Both talk to real ``romfsm serve`` subprocesses (and, for the campaign,
a ``romfsm cached`` backend) spawned with a scrubbed environment, on
ports the benchmark picks, with cache directories under the run's temp
root.  Every reply is checked against ``evaluate_payload()`` of an
in-process, cacheless evaluation computed during set-up.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import gates
import metrics
import spans
from benchlib import BenchError, ProcessGroup, TempRoot, free_port

from repro.cachenet.campaign import run_campaign
from repro.cachenet.client import CacheBackendClient
from repro.flows.flow import evaluate_benchmark_detailed
from repro.pipeline.cache import resolve_cache
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import evaluate_payload

SERVE_JOBS = 2
CLIENTS = 2  # closed-loop connections, one per core of the reference box
BLOCK = 100  # service-warm requests per wall_s sample
SETUPS = 3  # service-warm set-ups per run; setup_s is their median
BOOT_DEADLINE_S = 60.0

FREQUENCY_SETS = ((100.0,), (50.0, 100.0), (25.0, 50.0, 100.0), (50.0, 200.0))
# Fixed benchmark composition keeps the cost of a mix alike across
# seeds; the seed draws stimulus seeds, frequency sets and order.
SERVICE_BENCHMARKS = ("dk14", "donfile", "keyb", "styr")
SERVICE_PER_BENCHMARK = 2
SERVICE_CYCLES = 500
CAMPAIGN_BENCHMARKS = ("prep4", "dk14", "keyb", "donfile", "styr", "tbk")
CAMPAIGN_PER_BENCHMARK = 4
CAMPAIGN_CYCLES = 300


# -- inputs and references ----------------------------------------------


def _configs(rng: random.Random, benchmarks: Sequence[str], per: int,
             cycles: int) -> List[Dict]:
    configs = []
    for bench in benchmarks:
        seeds = rng.sample(range(1, 1 << 30), per)
        for stim_seed in seeds:
            configs.append({
                "benchmark": bench,
                "num_cycles": cycles,
                "seed": stim_seed,
                "frequencies_mhz": list(rng.choice(FREQUENCY_SETS)),
            })
    return configs


def service_mix(seed: int) -> List[Dict]:
    return _configs(random.Random(f"service-warm/{seed}"),
                    SERVICE_BENCHMARKS, SERVICE_PER_BENCHMARK, SERVICE_CYCLES)


def campaign_items(seed: int) -> List[Dict]:
    rng = random.Random(f"campaign-tier/{seed}")
    items = _configs(rng, CAMPAIGN_BENCHMARKS, CAMPAIGN_PER_BENCHMARK,
                     CAMPAIGN_CYCLES)
    rng.shuffle(items)
    return items


def _evaluate(config: Mapping, cache) -> Dict:
    result, _ = evaluate_benchmark_detailed(
        config["benchmark"], cache=cache,
        frequencies_mhz=tuple(config["frequencies_mhz"]),
        num_cycles=config["num_cycles"], seed=config["seed"],
    )
    return gates.normalise(evaluate_payload(result))


def references(configs: Sequence[Mapping]) -> List[Dict]:
    """The expected reply of each config, computed in-process with
    caching off."""
    return [_evaluate(config, False) for config in configs]


# -- serve processes --------------------------------------------------------


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text as ``{family: value summed over labels}``."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        family = series.split("{", 1)[0]
        totals[family] = totals.get(family, 0.0) + float(value)
    return totals


class Serve:
    """One ``romfsm serve`` on a free port with a fresh local cache."""

    def __init__(self, group: ProcessGroup, tmp: TempRoot,
                 peers: Optional[str] = None):
        self.group = group
        start = time.perf_counter()
        for _attempt in range(3):  # a picked port can be taken meanwhile
            self.port = free_port()
            argv = ["-m", "repro.flows.cli", "serve", "--host", "127.0.0.1",
                    "--port", str(self.port), "--jobs", str(SERVE_JOBS),
                    "--max-queue", "256", "--timeout", "120",
                    "--cache-dir", str(tmp.fresh("serve-cache"))]
            if peers:
                argv += ["--cache-peers", peers]
            self.proc = group.python(*argv, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
            if self._wait_healthy():
                self.boot_s = time.perf_counter() - start
                return
            group.stop(self.proc)
        raise BenchError("serve did not become healthy")

    def client(self, timeout_s: float = 120.0) -> ServiceClient:
        # No retries: a failed request is counted, not hidden.
        return ServiceClient("127.0.0.1", self.port, timeout_s=timeout_s,
                             retries=0)

    def _wait_healthy(self) -> bool:
        client = self.client(timeout_s=5.0)
        deadline = time.monotonic() + BOOT_DEADLINE_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            try:
                if client.healthz().get("status") == "ok":
                    return True
            except ServiceError:
                pass
            time.sleep(0.02)
        return False

    def metrics(self) -> Dict[str, float]:
        return parse_metrics(self.client().metrics_text())

    def stop(self) -> None:
        self.group.stop(self.proc)


def service_deltas(before: Mapping, after: Mapping, requests: int,
                   coalesced: int) -> Dict[str, float]:
    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    return {
        "request_s": delta("romfsm_request_seconds_sum"),
        "stage_s": delta("romfsm_stage_seconds_total"),
        "pipeline_runs": delta("romfsm_pipeline_runs_total"),
        "rejections": delta("romfsm_rejections_total"),
        "requests": requests,
        "coalesced": coalesced,
    }


# -- service-warm ------------------------------------------------------------


class Outcomes:
    """Per-request results of a closed loop (thread-safe appends)."""

    def __init__(self):
        self.lock = threading.Lock()
        self.done: List[float] = []  # completion times
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.coalesced = 0
        self.stage_misses = 0


def closed_loop(serve: Serve, mix: Sequence[Mapping], expected: Sequence,
                seed: int, seconds: float, phase: str,
                tracer: Optional[spans.Tracer] = None
                ) -> Tuple[Outcomes, float]:
    """``CLIENTS`` connections each send the next request as soon as the
    previous reply arrives, until ``seconds`` have passed."""
    outcomes = Outcomes()
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop(index: int) -> None:
        rng = random.Random(f"{seed}/{phase}/client{index}")
        client = serve.client()
        root = tracer.begin("root") if tracer else None
        while time.perf_counter() < deadline:
            pick = rng.randrange(len(mix))
            span = tracer.begin("service.call") if tracer else None
            sent = time.perf_counter()
            try:
                reply = client.evaluate(**mix[pick])
                reason = gates.check_reply(reply, expected[pick])
            except ServiceError as exc:
                reply, reason = {}, f"{exc.reason}: {exc}"
            finished = time.perf_counter()
            if span:
                tracer.end(span)
            pipeline = reply.get("pipeline", {})
            with outcomes.lock:
                outcomes.done.append(finished)
                if reason:
                    outcomes.failures.append(reason)
                else:
                    outcomes.latencies.append(finished - sent)
                outcomes.coalesced += bool(reply.get("coalesced"))
                outcomes.stage_misses += (pipeline.get("stage_runs", 0)
                                          - pipeline.get("cache_hits", 0))
        if root:
            tracer.end(root)

    with ThreadPoolExecutor(CLIENTS) as pool:
        for future in [pool.submit(client_loop, i) for i in range(CLIENTS)]:
            future.result()
    return outcomes, start


def block_walls(done: Sequence[float], start: float,
                block: int = BLOCK) -> List[float]:
    """Seconds to complete each successive full block of requests."""
    done = sorted(done)
    marks = [start] + [done[i] for i in range(block - 1, len(done), block)]
    walls = [b - a for a, b in zip(marks, marks[1:])]
    return walls or [done[-1] - start]


def warm_setup(group: ProcessGroup, tmp: TempRoot, mix, expected
               ) -> Tuple[Serve, float, List[str]]:
    """Boot a serve and evaluate each config of the mix once through
    it, so every later request is a local cache read."""
    start = time.perf_counter()
    serve = Serve(group, tmp)
    client = serve.client()

    def warm(index: int):
        try:
            return gates.check_reply(client.evaluate(**mix[index]),
                                     expected[index])
        except ServiceError as exc:
            return f"{exc.reason}: {exc}"

    with ThreadPoolExecutor(SERVE_JOBS) as pool:
        failures = [r for r in pool.map(warm, range(len(mix))) if r]
    return serve, time.perf_counter() - start, failures


def service_warm(seed: int, seconds: float, trace: bool,
                 group: ProcessGroup, tmp: TempRoot) -> Dict:
    mix = service_mix(seed)
    expected = references(mix)
    setups, failures, serve = [], [], None
    for _ in range(SETUPS):
        if serve is not None:
            serve.stop()
        serve, took, bad = warm_setup(group, tmp, mix, expected)
        setups.append(took)
        failures += bad
    attempted = SETUPS * len(mix)

    phases = [("untraced", seconds / 2), ("traced", seconds / 2)] if trace \
        else [("timed", seconds)]
    runs = {}
    for phase, length in phases:
        tracer = spans.Tracer() if phase == "traced" else None
        before = serve.metrics()
        outcomes, start = closed_loop(serve, mix, expected, seed, length,
                                      phase, tracer)
        after = serve.metrics()
        attempted += len(outcomes.done)
        failures += outcomes.failures
        runs[phase] = (outcomes, start, tracer, before, after)
    serve.stop()

    result = {"attempted": attempted, "failures": failures,
              "details": {"mix": len(mix)}}
    if not trace:
        outcomes, start, *_ = runs["timed"]
        result.update(
            walls=block_walls(outcomes.done, start),
            latencies=outcomes.latencies,
            items=len(outcomes.done),
            timed_s=max(outcomes.done) - start,
            setup_s=statistics.median(setups),
        )
        result["details"]["stage_misses"] = outcomes.stage_misses
        return result
    plain, traced = runs["untraced"], runs["traced"]
    outcomes, start, tracer, before, after = traced
    digest = spans.export(tracer.spans)
    result["layers"] = metrics.layer_metrics(
        digest,
        overhead_s=(statistics.median(block_walls(outcomes.done, start))
                    - statistics.median(block_walls(plain[0].done, plain[1]))),
        service=service_deltas(before, after, len(outcomes.done),
                               outcomes.coalesced))
    result["digest"] = digest
    return result


# -- campaign-tier -----------------------------------------------------------


class Backend:
    """One ``romfsm cached`` backend (it announces its ephemeral port)."""

    def __init__(self, group: ProcessGroup, tmp: TempRoot):
        self.group = group
        self.proc = group.python(
            "-m", "repro.flows.cli", "cached", "--port", "0",
            "--cache-dir", str(tmp.fresh("tier")),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("cache backend did not announce a port")
        announce = json.loads(line)["cachenet"]
        self.address = f"{announce['host']}:{announce['port']}"
        self.client = CacheBackendClient(announce["host"], announce["port"])

    def stats(self) -> Dict:
        return self.client.stats()

    def stop(self) -> None:
        self.group.stop(self.proc)


def fill_tier(backend: Backend, tmp: TempRoot, items) -> None:
    """Evaluate every item once against an empty local store joined to
    the tier, then wait until the write-behind queue has drained."""
    cache = resolve_cache(str(tmp.fresh("fill")), peers=backend.address)
    try:
        for item in items:
            _evaluate(item, cache)
        if not cache.flush(timeout_s=60.0):
            raise BenchError("tier fill did not drain")
    finally:
        cache.close()
    if not backend.stats()["entries"]:
        raise BenchError("tier fill stored nothing")


def tier_deltas(before: Mapping, after: Mapping, serve_before: Mapping,
                serve_after: Mapping) -> Dict[str, float]:
    def delta(section, key):
        return after[section].get(key, 0) - before[section].get(key, 0)

    def served(name):
        return serve_after.get(name, 0.0) - serve_before.get(name, 0.0)

    hits, misses = delta("session", "hits"), delta("session", "misses")
    return {
        "tier_gets": delta("requests", "get"),
        "tier_puts": delta("requests", "put"),
        "l2_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        # The serve's own /metrics sees only its in-process L2 client;
        # process-pool workers hold their own (backend STATS sees all).
        "put_drops": served("romfsm_l2_put_drops_total"),
        "errors": delta("requests", "errors")
        + served("romfsm_l2_errors_total"),
    }


def campaign_rep(group: ProcessGroup, tmp: TempRoot, backend: Backend,
                 items, expected, tracer: Optional[spans.Tracer]) -> Dict:
    serve = Serve(group, tmp, peers=backend.address)
    try:
        tier_before, before = backend.stats(), serve.metrics()
        root = tracer.begin("root") if tracer else None
        call = tracer.begin("service.call") if tracer else None
        start = time.perf_counter()
        lines, arrivals = [], []
        try:
            for line in run_campaign(items, [f"127.0.0.1:{serve.port}"],
                                     timeout_s=120.0, retries=0):
                lines.append(line)
                if "item" in line:
                    arrivals.append(time.perf_counter() - start)
        except Exception as exc:  # noqa: BLE001 - any failure is counted
            lines.append({"error": f"{type(exc).__name__}: {exc}"})
        wall = time.perf_counter() - start
        if tracer:
            tracer.end(call)
            tracer.end(root)
        after, tier_after = serve.metrics(), backend.stats()
    finally:
        serve.stop()
    failures = gates.check_campaign(lines, expected)
    coalesced = sum(bool(line.get("coalesced")) for line in lines)
    rep = {"boot_s": serve.boot_s, "wall_s": wall, "arrivals": arrivals,
           "failures": failures}
    if tracer:
        rep["trace"] = spans.export(tracer.spans)
        rep["service"] = service_deltas(before, after, len(items), coalesced)
        rep["cachenet"] = tier_deltas(tier_before, tier_after, before, after)
    return rep


def campaign_tier(seed: int, seconds: float, trace: bool,
                  group: ProcessGroup, tmp: TempRoot) -> Dict:
    items = campaign_items(seed)
    expected = references(items)
    start = time.perf_counter()
    backend = Backend(group, tmp)
    fill_tier(backend, tmp, items)
    tier_setup_s = time.perf_counter() - start

    reps: List[Dict] = []
    begun = time.perf_counter()
    try:
        while (time.perf_counter() - begun < seconds
               or (trace and len(reps) < 2)):
            traced = trace and len(reps) % 2 == 1
            reps.append(campaign_rep(group, tmp, backend, items, expected,
                                     spans.Tracer() if traced else None))
            reps[-1]["traced"] = traced
    finally:
        backend.stop()
    result = {
        "attempted": len(items) * len(reps),
        "failures": [f for r in reps for f in r["failures"]],
        "details": {"items": len(items), "repetitions": len(reps),
                    "tier_setup_s": tier_setup_s},
    }
    if trace:
        result["layers"], result["digest"] = metrics.layers_from_reps(reps)
        return result
    walls = [r["wall_s"] for r in reps]
    result.update(
        walls=walls,
        items=len(items) * len(reps),
        timed_s=sum(walls),
        # A campaign streams: its caller waits for each item's line.
        latencies=[t for r in reps for t in r["arrivals"]],
        setup_s=tier_setup_s + statistics.median([r["boot_s"] for r in reps]),
    )
    return result
