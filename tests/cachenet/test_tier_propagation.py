"""A tiered cache handed to a flow or a serve reaches every worker.

The cache crosses into shards and pool workers as a pickled value that
rebuilds itself on the tier, so each stage entry a run stores locally
also lands on the cache-tier backend — inline, in a process pool, and
in a serve whose forkserver was started before the serve existed.
"""

import asyncio
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.bench.suite import load_benchmark
from repro.flows.design import FsmDesign
from repro.flows.flow import evaluate_many
from repro.flows.tables import clear_results_memo, run_all
from repro.pipeline.cache import resolve_cache
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig
from tests.service.conftest import run_async, serving


def _keys(cache):
    return {path.stem for path in cache._entries()}


@pytest.fixture
def tiered(backend, tmp_path):
    """A fresh local store joined to one in-process backend."""
    cache = resolve_cache(tmp_path / "local", peers=backend.address)
    yield cache, backend.server.cache
    cache.close()


def assert_tier_holds_local(local, store, timeout_s=10.0):
    """Every local entry reaches the backend (write-behind may lag)."""
    local.flush(timeout_s)
    keys = _keys(local)
    assert keys, "the run stored nothing locally"
    deadline = time.monotonic() + timeout_s
    while not keys <= _keys(store) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert keys <= _keys(store), (
        f"{len(keys - _keys(store))} of {len(keys)} stage entries "
        f"never reached the tier"
    )


class TestFlowsCarryTheTier:
    def test_run_all_inline(self, tiered):
        cache, store = tiered
        clear_results_memo()
        try:
            run_all(num_cycles=60, seed=16, jobs=1, cache=cache)
        finally:
            clear_results_memo()
        assert len(_keys(cache)) == 72
        assert_tier_holds_local(cache, store)

    def test_evaluate_many_in_a_pool(self, tiered):
        cache, store = tiered
        evaluate_many(["dk14", "donfile"], jobs=2, cache=cache,
                      num_cycles=60, seed=16)
        assert_tier_holds_local(cache, store)

    def test_design_implement_in_a_pool(self, tiered):
        cache, store = tiered
        design = FsmDesign()
        design.add(load_benchmark("dk14"))
        design.add(load_benchmark("donfile"), idle_fraction=0.5)
        design.implement(num_cycles=60, jobs=2, cache=cache)
        assert_tier_holds_local(cache, store)


class TestServeWorkersJoinTheTier:
    def test_process_workers_after_an_earlier_forkserver(
        self, backend, tmp_path
    ):
        # A forkserver keeps the state it started with; start one now,
        # before the serve exists, so the serve's workers fork from it.
        context = multiprocessing.get_context("forkserver")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            pool.submit(os.getpid).result()
        store = backend.server.cache

        async def body():
            config = ServerConfig(
                port=0, executor="process", jobs=1,
                cache=str(tmp_path / "serve-local"),
                cache_peers=backend.address,
                timeout_s=120.0, drain_grace_s=5.0,
            )
            async with serving(config) as server:
                client = ServiceClient(port=server.port, timeout_s=120.0,
                                       retries=0)
                loop = asyncio.get_running_loop()
                reply = await loop.run_in_executor(None, lambda: (
                    client.evaluate(benchmark="dk14", num_cycles=60,
                                    frequencies_mhz=[100.0])))
                assert reply["ok"]
                # The worker outlives the request; give its write-behind
                # queue time to drain while it is still running.
                await loop.run_in_executor(
                    None,
                    lambda: assert_tier_holds_local(server._cache, store))

        run_async(body(), timeout=180.0)
