"""Chaos suite: the paper's flow under seeded fault plans.

The acceptance invariant (ISSUE 5): under every fault plan, each
benchmark either reproduces its fault-free Tables 1-4 numbers
**bit-identically** or fails with a **typed** error — never a hang,
never a corrupt cache artifact served as valid, never a silently wrong
number.

Reproduce a CI failure locally with the same seed::

    CHAOS_SEED=<n> PYTHONPATH=src python -m pytest tests/chaos -q

or replay the uploaded failure-plan artifact directly::

    romfsm tables --faults chaos-artifacts/<test>-seed<n>.json ...
"""

import asyncio
import json
import random

import pytest

from repro import faults
from repro.faults import FaultInjected, FaultPlan, FaultRule
from repro.flows.flow import evaluate_benchmark, evaluate_many
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.driver import WorkerCrashError
from repro.service.client import ServiceClient
from repro.service.jobs import evaluate_payload
from repro.service.server import ServerConfig

from tests.service.conftest import http_request, run_async, serving

# Small enough to run many times, big enough to exercise every stage.
SMALL = dict(num_cycles=150, frequencies_mhz=(100.0,), seed=11)


def payload_of(result):
    """Canonical byte string for Tables 1-4 comparisons."""
    return json.dumps(evaluate_payload(result), sort_keys=True)


class TestCacheFaultStorm:
    def test_tables_identical_under_randomized_cache_faults(
        self, tmp_path, chaos_seed, record_plan
    ):
        baseline = payload_of(evaluate_benchmark("dk14", cache=False, **SMALL))

        rng = random.Random(chaos_seed)
        plan = record_plan(FaultPlan(
            [
                FaultRule(
                    point="cache.put",
                    kind=rng.choice(["oserror", "disk_full"]),
                    probability=round(rng.uniform(0.2, 0.6), 3),
                ),
                FaultRule(
                    point="cache.get",
                    kind=rng.choice(["truncate", "bitflip", "oserror"]),
                    probability=round(rng.uniform(0.2, 0.6), 3),
                ),
            ],
            seed=chaos_seed,
        ))

        cache = ArtifactCache(tmp_path / "cache")
        with faults.injected(plan):
            # First run populates through the write faults; the second
            # reads back through the read faults.
            first = payload_of(
                evaluate_benchmark("dk14", cache=cache, **SMALL))
            second = payload_of(
                evaluate_benchmark("dk14", cache=cache, **SMALL))

        assert first == baseline
        assert second == baseline

    def test_degraded_cache_still_bit_identical(self, tmp_path, record_plan):
        baseline = payload_of(evaluate_benchmark("dk14", cache=False, **SMALL))
        plan = record_plan(FaultPlan(
            [FaultRule(point="cache.put", kind="disk_full")]
        ))
        cache = ArtifactCache(tmp_path / "cache", degrade_threshold=2)
        with faults.injected(plan):
            got = payload_of(evaluate_benchmark("dk14", cache=cache, **SMALL))
        assert got == baseline
        assert cache.degraded  # every write failed; memory took over


class TestPipelineFaults:
    def test_stage_fault_is_typed_not_silent(self, record_plan):
        plan = record_plan(FaultPlan(
            [FaultRule(point="pipeline.stage", kind="raise",
                       match={"stage": "power"})]
        ))
        with faults.injected(plan):
            with pytest.raises(FaultInjected) as info:
                evaluate_benchmark("dk14", cache=False, **SMALL)
        assert info.value.point == "pipeline.stage"


class TestWorkerKillRetry:
    def test_run_survives_injected_worker_kills(
        self, chaos_seed, record_plan, caplog
    ):
        benchmarks = ["dk14", "donfile"]
        baseline, _ = evaluate_many(benchmarks, jobs=1, cache=False, **SMALL)
        expected = {name: payload_of(r) for name, r in baseline.items()}

        # Every first-attempt worker dies; the retry round completes.
        plan = record_plan(FaultPlan(
            [FaultRule(point="driver.worker", kind="kill",
                       match={"attempt": 0})],
            seed=chaos_seed,
        ))
        # run_sharded hands the installed plan to each pool worker.
        import logging
        with caplog.at_level(logging.WARNING):
            with faults.injected(plan):
                results, _ = evaluate_many(
                    benchmarks, jobs=2, cache=False, **SMALL)

        assert {n: payload_of(r) for n, r in results.items()} == expected
        # Not vacuous: the kill really happened and the retry round
        # really ran.
        assert "shard_retry" in caplog.text

    def test_unconditional_kill_is_a_typed_error(self, record_plan):
        plan = record_plan(FaultPlan(
            [FaultRule(point="driver.worker", kind="kill")]
        ))
        with faults.injected(plan):
            with pytest.raises(WorkerCrashError):
                # Two items: a single item takes the inline (poolless)
                # path, which deliberately carries no worker fault point.
                evaluate_many(["dk14", "donfile"], jobs=2, cache=False,
                              max_retries=1, **SMALL)


class TestBackendChaos:
    """The crash-safety invariant is backend-agnostic (ISSUE 6)."""

    def test_reram_tables_identical_under_cache_faults(
        self, tmp_path, chaos_seed, record_plan
    ):
        baseline = payload_of(evaluate_benchmark(
            "dk14", cache=False, backend="reram-1t1r", **SMALL))

        rng = random.Random(chaos_seed)
        plan = record_plan(FaultPlan(
            [
                FaultRule(
                    point="cache.put",
                    kind=rng.choice(["oserror", "disk_full"]),
                    probability=round(rng.uniform(0.2, 0.6), 3),
                ),
                FaultRule(
                    point="cache.get",
                    kind=rng.choice(["truncate", "bitflip", "oserror"]),
                    probability=round(rng.uniform(0.2, 0.6), 3),
                ),
            ],
            seed=chaos_seed,
        ))

        cache = ArtifactCache(tmp_path / "cache")
        with faults.injected(plan):
            first = payload_of(evaluate_benchmark(
                "dk14", cache=cache, backend="reram-1t1r", **SMALL))
            second = payload_of(evaluate_benchmark(
                "dk14", cache=cache, backend="reram-1t1r", **SMALL))

        assert first == baseline
        assert second == baseline

    def test_reram_stage_fault_is_typed_not_silent(self, record_plan):
        plan = record_plan(FaultPlan(
            [FaultRule(point="pipeline.stage", kind="raise",
                       match={"stage": "rom-map"})]
        ))
        with faults.injected(plan):
            with pytest.raises(FaultInjected) as info:
                evaluate_benchmark(
                    "dk14", cache=False, backend="reram-1t1r", **SMALL)
        assert info.value.point == "pipeline.stage"

    def test_poisoned_cache_never_leaks_across_backends(self, tmp_path):
        """Same benchmark, two backends, one shared cache: the reram run
        must never be served a virtex2 artifact (fingerprint isolation)."""
        cache = ArtifactCache(tmp_path / "cache")
        v2 = payload_of(evaluate_benchmark("dk14", cache=cache, **SMALL))
        rr = payload_of(evaluate_benchmark(
            "dk14", cache=cache, backend="reram-1t1r", **SMALL))
        assert v2 != rr
        # Replays from the now-warm shared cache stay distinct too.
        assert payload_of(evaluate_benchmark(
            "dk14", cache=cache, **SMALL)) == v2
        assert payload_of(evaluate_benchmark(
            "dk14", cache=cache, backend="reram-1t1r", **SMALL)) == rr


class TestServiceChaos:
    def test_connection_reset_survived_by_client_retry(self, record_plan):
        expected = evaluate_payload(
            evaluate_benchmark("dk14", cache=False, **SMALL))

        plan = record_plan(FaultPlan(
            [FaultRule(point="service.connection", kind="reset",
                       max_fires=1)]
        ))

        async def body():
            config = ServerConfig(port=0, executor="thread", cache=False)
            async with serving(config) as server:
                loop = asyncio.get_running_loop()
                client = ServiceClient(
                    port=server.port, timeout_s=60.0,
                    retries=2, backoff_s=0.05, retry_seed=0,
                )
                with faults.injected(plan):
                    return await loop.run_in_executor(
                        None,
                        lambda: client.evaluate(benchmark="dk14", **SMALL),
                    )

        reply = run_async(body(), timeout=120.0)
        assert reply["ok"] is True
        assert reply["result"] == expected

    def test_job_stall_times_out_typed_never_hangs(self, record_plan):
        plan = record_plan(FaultPlan(
            [FaultRule(point="service.job", kind="stall", delay_s=3.0)]
        ))

        async def body():
            config = ServerConfig(
                port=0, executor="thread", cache=False,
                timeout_s=0.3, drain_grace_s=0.1,
            )
            async with serving(config) as server:
                with faults.injected(plan):
                    return await http_request(
                        server.port, "POST", "/v1/evaluate",
                        body={"benchmark": "dk14", "num_cycles": 50,
                              "frequencies_mhz": [100.0]},
                    )

        status, reply = run_async(body(), timeout=60.0)
        assert status == 504
        assert reply["error"] == "timeout"


class TestBatchChaos:
    """ISSUE 7: /v1/batch under worker kills and stalled items."""

    def test_worker_kill_mid_batch_completes_bit_identical(
        self, record_plan
    ):
        benchmarks = ["dk14", "donfile"]
        expected = {
            name: evaluate_payload(
                evaluate_benchmark(name, cache=False, **SMALL))
            for name in benchmarks
        }

        # Every item's first pool attempt dies; the server rebuilds the
        # broken ProcessPoolExecutor and the retry round completes.
        plan = record_plan(FaultPlan(
            [FaultRule(point="service.worker", kind="kill",
                       match={"attempt": 0})]
        ))

        async def body():
            config = ServerConfig(
                port=0, executor="process", jobs=2, cache=False,
                timeout_s=120.0, drain_grace_s=5.0,
            )
            # The server hands the installed plan to each pool job.
            with faults.injected(plan):
                async with serving(config) as server:
                    loop = asyncio.get_running_loop()
                    client = ServiceClient(
                        port=server.port, timeout_s=150.0, retries=0,
                    )
                    items = [
                        {"benchmark": name, "num_cycles": 150,
                         "frequencies_mhz": [100.0], "seed": 11}
                        for name in benchmarks
                    ]
                    results = await loop.run_in_executor(
                        None, lambda: client.batch(items)
                    )
                    crashes = server.metrics.render()
                    return results, crashes

        results, metrics = run_async(body(), timeout=300.0)
        assert all(r["ok"] for r in results)
        for index, name in enumerate(benchmarks):
            got = json.dumps(results[index]["result"], sort_keys=True)
            want = json.dumps(expected[name], sort_keys=True)
            assert got == want, f"{name} diverged after worker kill"
        # Not vacuous: the pool really broke and was really rebuilt.
        crash_lines = [
            line for line in metrics.splitlines()
            if line.startswith("romfsm_worker_crashes_total ")
        ]
        assert crash_lines and float(crash_lines[0].split()[-1]) >= 1

    def test_stalled_batch_item_times_out_typed_not_hanging(
        self, record_plan
    ):
        # Only donfile stalls; dk14 must stream through unharmed and
        # the campaign must end with a done line, never a hang.
        plan = record_plan(FaultPlan(
            [FaultRule(point="service.job", kind="stall", delay_s=3.0,
                       match={"source": "donfile"})]
        ))

        async def body():
            config = ServerConfig(
                port=0, executor="thread", jobs=2, cache=False,
                timeout_s=0.4, drain_grace_s=0.1,
            )
            async with serving(config) as server:
                with faults.injected(plan):
                    return await http_request(
                        server.port, "POST", "/v1/batch",
                        body={"items": [
                            {"benchmark": "dk14", "num_cycles": 50,
                             "frequencies_mhz": [100.0]},
                            {"benchmark": "donfile", "num_cycles": 50,
                             "frequencies_mhz": [100.0]},
                        ]},
                    )

        status, text = run_async(body(), timeout=60.0)
        assert status == 200
        lines = [json.loads(l) for l in text.splitlines() if l.strip()]
        done = lines[-1]
        assert done["done"] is True
        assert done["ok_count"] == 1 and done["failed"] == 1
        by_index = {l["item"]: l for l in lines if "item" in l}
        assert by_index[0]["ok"] is True
        assert by_index[1]["ok"] is False
        assert by_index[1]["error"] == "timeout"
