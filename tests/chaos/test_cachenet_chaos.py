"""Chaos suite for the distributed cache tier (ISSUE 10).

The tier invariant extends the cache invariant one hop outward: a
backend may die, reset connections, or hand back corrupted frames at
any moment, and every campaign must still end with the fault-free
Tables 1-4 numbers **bit-identically** — the tier can only ever save
work, never change answers.  Degradation is *typed*: open circuit
breakers and error counters, never a hang or a silently wrong value.
"""

import asyncio
import json
import random

from repro import faults
from repro.cachenet.campaign import run_campaign
from repro.cachenet.client import ShardedCacheClient
from repro.cachenet.l2 import L2Cache
from repro.cachenet.server import CacheServerHandle
from repro.faults import FaultPlan, FaultRule
from repro.flows.flow import evaluate_benchmark
from repro.pipeline.cache import ArtifactCache
from repro.service.client import ServiceClient
from repro.service.jobs import evaluate_payload
from repro.service.server import ServerConfig

from tests.service.conftest import run_async, serving

SMALL = dict(num_cycles=150, frequencies_mhz=(100.0,), seed=11)
BENCHMARKS = ["dk14", "donfile"]


def payload_of(result):
    return json.dumps(evaluate_payload(result), sort_keys=True)


def _expected():
    return {
        name: evaluate_payload(
            evaluate_benchmark(name, cache=False, **SMALL))
        for name in BENCHMARKS
    }


def _items():
    return [
        {"benchmark": name, "num_cycles": 150,
         "frequencies_mhz": [100.0], "seed": 11}
        for name in BENCHMARKS
    ]


class TestBackendDeathMidBatch:
    def test_tier_death_mid_campaign_stays_bit_identical(
        self, tmp_path, record_plan
    ):
        """A /v1/batch campaign through a tiered serve: the tier dies
        (every backend request resets) between the warm round and the
        replay round.  Both rounds must match the fault-free baseline,
        and the death must surface as open breakers in /metrics."""
        expected = _expected()
        b1 = CacheServerHandle(ArtifactCache(tmp_path / "b1"))
        b2 = CacheServerHandle(ArtifactCache(tmp_path / "b2"))
        spec = f"{b1.address},{b2.address}"

        plan = record_plan(FaultPlan(
            [FaultRule(point="cachenet.request", kind="reset")]
        ))

        async def body():
            config = ServerConfig(
                port=0, executor="thread", jobs=2,
                cache=str(tmp_path / "serve-local"), cache_peers=spec,
                timeout_s=120.0, drain_grace_s=5.0,
            )
            async with serving(config) as server:
                loop = asyncio.get_running_loop()
                client = ServiceClient(port=server.port, timeout_s=150.0,
                                       retries=0)
                # Round 1: healthy tier; artifacts flow to the backends.
                healthy = await loop.run_in_executor(
                    None, lambda: client.batch(_items()))
                server._cache.flush(10.0)
                # Drop the local store so the replay round must consult
                # the tier — which dies under it.  Degrade to compute.
                server._cache.clear()
                with faults.injected(plan):
                    dead = await loop.run_in_executor(
                        None, lambda: client.batch(_items()))
                    metrics = server.render_metrics()
                tier = server._cache.remote.stats()
                return healthy, dead, metrics, tier

        healthy, dead, metrics, tier = run_async(body(), timeout=300.0)
        for results in (healthy, dead):
            assert all(line["ok"] for line in results)
            for index, name in enumerate(BENCHMARKS):
                got = json.dumps(results[index]["result"], sort_keys=True)
                want = json.dumps(expected[name], sort_keys=True)
                assert got == want, f"{name} diverged through the tier"
        # Round 1 really used the tier...
        assert any(
            stats["puts_sent"] > 0 for stats in tier["backends"].values()
        )
        # ...and round 2's death is typed, not silent: breakers opened
        # and the gauge shows it.
        assert any(
            stats["breaker"] != "closed"
            for stats in tier["backends"].values()
        )
        assert 'romfsm_l2_backend_open{backend="' in metrics
        b1.stop()
        b2.stop()


class TestCorruptTierFrames:
    def test_randomized_wire_corruption_never_changes_answers(
        self, tmp_path, chaos_seed, record_plan
    ):
        """Seeded truncate/bitflip/reset storm on tier reads: the CRC
        envelope gate turns every damaged frame into a miss (recompute),
        never into a wrong value."""
        baseline = payload_of(
            evaluate_benchmark("dk14", cache=False, **SMALL))

        backend = CacheServerHandle(ArtifactCache(tmp_path / "backend"))
        warm = L2Cache(
            ArtifactCache(tmp_path / "warm"),
            ShardedCacheClient([(backend.host, backend.port)]),
        )
        try:
            # Warm the backend with the genuine artifacts.
            assert payload_of(evaluate_benchmark(
                "dk14", cache=warm, **SMALL)) == baseline
            assert warm.flush(10.0)

            rng = random.Random(chaos_seed)
            plan = record_plan(FaultPlan(
                [FaultRule(
                    point="cachenet.request",
                    kind=rng.choice(["truncate", "bitflip", "reset"]),
                    probability=round(rng.uniform(0.3, 0.8), 3),
                )],
                seed=chaos_seed,
            ))
            # A second machine: empty local disk, same (now hostile)
            # tier.  Every read either survives the CRC gate or misses.
            cold = L2Cache(
                ArtifactCache(tmp_path / "cold"), warm.remote
            )
            with faults.injected(plan):
                first = payload_of(
                    evaluate_benchmark("dk14", cache=cold, **SMALL))
                second = payload_of(
                    evaluate_benchmark("dk14", cache=cold, **SMALL))
            assert first == baseline
            assert second == baseline
        finally:
            warm.close()
            backend.stop()


class TestCampaignInstanceLoss:
    def test_dead_instance_redispatches_bit_identically(
        self, tmp_path, record_plan
    ):
        """A two-instance campaign where one instance is unreachable:
        every item fails over to the survivor and the merged lines carry
        exactly the single-instance answers."""
        expected = _expected()

        async def body():
            config = ServerConfig(port=0, executor="thread", jobs=2,
                                  cache=str(tmp_path / "cache"),
                                  timeout_s=120.0, drain_grace_s=5.0)
            async with serving(config) as server:
                live = f"127.0.0.1:{server.port}"
                dead = "127.0.0.1:1"  # nothing listens here
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    None,
                    lambda: list(run_campaign(
                        _items(), [dead, live],
                        timeout_s=120.0, retries=0,
                    )),
                )

        lines = run_async(body(), timeout=300.0)
        done = lines[-1]
        assert done["done"] and done["failed"] == 0
        assert done["ok"] == len(BENCHMARKS)
        item_lines = {l["item"]: l for l in lines if "item" in l}
        assert sorted(item_lines) == list(range(len(BENCHMARKS)))
        for index, name in enumerate(BENCHMARKS):
            got = json.dumps(item_lines[index]["result"], sort_keys=True)
            assert got == json.dumps(expected[name], sort_keys=True), (
                f"{name} diverged after instance loss"
            )

    def test_all_instances_lost_is_typed_never_a_hang(self):
        """No instance reachable: the campaign still terminates with an
        explicit unreachable line per item and an honest done line."""
        lines = list(run_campaign(
            _items(), ["127.0.0.1:1", "127.0.0.1:2"],
            timeout_s=5.0, retries=0,
        ))
        done = lines[-1]
        assert done["done"] and done["ok"] == 0
        assert done["failed"] == len(BENCHMARKS)
        for line in lines:
            if "item" in line:
                assert line["ok"] is False
                assert line["error"] == "unreachable"
