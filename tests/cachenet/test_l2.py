"""The L2 adapter: read-through, backfill, write-behind, maintenance
isolation, and resolve_cache() wiring."""

import pytest

from repro.cachenet.client import ShardedCacheClient
from repro.cachenet.l2 import L2Cache
from repro.pipeline.cache import ArtifactCache, resolve_cache

CACHE_PEERS_ENV = "REPRO_CACHE_PEERS"

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


@pytest.fixture
def tier(backend_factory, tmp_path):
    """Two backends plus an L2 over a fresh local store."""
    b1, b2 = backend_factory("one"), backend_factory("two")
    spec = f"{b1.address},{b2.address}"
    l2 = L2Cache(
        ArtifactCache(tmp_path / "local"),
        ShardedCacheClient([(b1.host, b1.port), (b2.host, b2.port)]),
    )
    yield l2, spec, (b1, b2)
    l2.close()


class TestReadThrough:
    def test_local_hit_never_touches_the_tier(self, tier):
        l2, _spec, _backends = tier
        l2.local.put(KEY, "fp", 1)
        assert l2.get(KEY) == ("fp", 1)
        assert l2.l2_stats.hits == 0
        assert l2.l2_stats.misses == 0

    def test_remote_hit_backfills_local(self, tier):
        l2, _spec, _backends = tier
        l2.put(KEY, "fp", {"value": 9})
        assert l2.flush(5.0)

        # A different machine: same tier, empty local disk.
        peer = L2Cache(
            ArtifactCache(l2.local.root.parent / "machine2"), l2.remote
        )
        assert peer.get(KEY) == ("fp", {"value": 9})
        assert peer.l2_stats.hits == 1
        # Backfilled: the next read is a pure local hit.
        assert peer.local.get(KEY) == ("fp", {"value": 9})

    def test_miss_everywhere_is_a_plain_miss(self, tier):
        l2, _spec, _backends = tier
        assert l2.get(OTHER) is None
        assert l2.l2_stats.misses == 1

    def test_corrupt_remote_entry_is_an_error_not_a_value(
        self, tier, monkeypatch
    ):
        l2, _spec, _backends = tier
        damaged = bytearray(ArtifactCache._encode("fp", 1))
        damaged[-1] ^= 0x01
        monkeypatch.setattr(
            l2.remote, "get", lambda key: bytes(damaged)
        )
        assert l2.get(KEY) is None
        assert l2.l2_stats.errors == 1
        assert l2.local.get(KEY) is None  # nothing backfilled

    def test_degraded_local_still_serves_remote_values(self, tier):
        l2, _spec, _backends = tier
        l2.put(KEY, "fp", 5)
        assert l2.flush(5.0)
        peer_local = ArtifactCache(
            l2.local.root.parent / "sick", degrade_threshold=1
        )
        peer_local.degraded = True
        peer = L2Cache(peer_local, l2.remote)
        # put_raw refuses while degraded, but the value still flows.
        assert peer.get(KEY) == ("fp", 5)


class TestWriteBehind:
    def test_put_lands_locally_and_remotely(self, tier):
        l2, _spec, (b1, b2) = tier
        l2.put(KEY, "fp", [1, 2])
        assert l2.local.get(KEY) == ("fp", [1, 2])  # synchronous
        assert l2.flush(5.0)
        owner = l2.remote.ring.node_for(KEY)
        store = (b1 if owner == b1.address else b2).server.cache
        assert store.get(KEY) == ("fp", [1, 2])
        assert l2.l2_stats.puts == 1


class TestDelegation:
    def test_is_an_artifact_cache(self, tier):
        l2, _spec, _backends = tier
        assert isinstance(l2, ArtifactCache)
        assert resolve_cache(l2) is l2

    def test_identity_and_stats_delegate_to_local(self, tier):
        l2, _spec, _backends = tier
        assert l2.root == l2.local.root
        assert l2.stats is l2.local.stats
        assert l2.degraded == l2.local.degraded
        l2.put(KEY, "fp", 1)
        assert l2.entry_count == 1
        assert l2.size_bytes > 0

    def test_contains_probes_local_only(self, tier):
        l2, _spec, _backends = tier
        l2.put(KEY, "fp", 1)
        assert KEY in l2
        assert OTHER not in l2
        assert l2.stats.probes == 2

    def test_clear_touches_only_the_local_store(self, tier):
        l2, _spec, (b1, b2) = tier
        l2.put(KEY, "fp", 1)
        assert l2.flush(5.0)
        assert l2.clear() == 1
        # The tier keeps its copy: peers stay warm.
        owner = l2.remote.ring.node_for(KEY)
        store = (b1 if owner == b1.address else b2).server.cache
        assert store.get(KEY) == ("fp", 1)

    def test_describe_reports_the_tier_section(self, tier):
        l2, _spec, _backends = tier
        info = l2.describe()
        assert "l2" in info
        assert set(info["l2"]) == {"session", "tier"}
        assert "backends" in info["l2"]["tier"]


class TestResolveCacheWiring:
    def test_peers_spec_wraps_in_l2(self, tier, tmp_path):
        _l2, spec, _backends = tier
        cache = resolve_cache(tmp_path / "fresh", peers=spec)
        assert isinstance(cache, L2Cache)
        assert cache.root == tmp_path / "fresh"

    def test_environment_activates_the_tier(self, tier, tmp_path,
                                            monkeypatch):
        # The CLI turns REPRO_CACHE_PEERS into the resolved cache.
        from repro.flows.cli import _resolve_cli_cache, build_parser

        _l2, spec, _backends = tier
        monkeypatch.setenv(CACHE_PEERS_ENV, spec)
        args = build_parser().parse_args(
            ["eval", "dk14", "--cache-dir", str(tmp_path / "env-local")])
        cache = _resolve_cli_cache(args)
        assert isinstance(cache, L2Cache)
        assert cache.root == tmp_path / "env-local"

    def test_peers_false_stays_local(self, tier, tmp_path, monkeypatch):
        # No peers given, no tier: an exported REPRO_CACHE_PEERS is not
        # read below the CLI (the maintenance commands rely on this).
        _l2, spec, _backends = tier
        monkeypatch.setenv(CACHE_PEERS_ENV, spec)
        cache = resolve_cache(tmp_path / "local-only")
        assert isinstance(cache, ArtifactCache)
        assert not isinstance(cache, L2Cache)

    def test_bad_peer_spec_falls_back_to_local(self, tmp_path):
        cache = resolve_cache(tmp_path / "fallback", peers="not a spec :::")
        assert isinstance(cache, ArtifactCache)
        assert not isinstance(cache, L2Cache)

    def test_no_peers_no_wrap(self, tmp_path):
        cache = resolve_cache(tmp_path / "plain")
        assert not isinstance(cache, L2Cache)


class TestPickle:
    def test_pickles_as_its_spec(self, tier, tmp_path):
        import pickle

        _l2, spec, _backends = tier
        cache = resolve_cache(tmp_path / "p", peers=spec, secret="s3cret")
        try:
            clone = pickle.loads(pickle.dumps(cache))
            assert isinstance(clone, L2Cache)
            assert clone.root == cache.root
            # Rebuilt through from_spec: the same process-shared client.
            assert clone.remote is cache.remote
            assert clone.remote.secret == b"s3cret"
        finally:
            cache.close()


class TestBitIdenticalDegradation:
    def test_results_identical_with_dead_tier(self, tmp_path):
        """The acceptance property in miniature: computing through an
        L2 whose backends are all unreachable yields byte-identical
        values to a plain local cache."""
        plain = ArtifactCache(tmp_path / "plain")
        l2 = L2Cache(
            ArtifactCache(tmp_path / "tiered"),
            ShardedCacheClient(
                [("127.0.0.1", 1)], timeout_s=0.2, breaker_threshold=1
            ),
        )
        try:
            value = {"table": [1.25, 2.5], "fingerprint": "x" * 64}
            plain.put(KEY, "fp", value)
            l2.put(KEY, "fp", value)
            assert l2.get(KEY) == plain.get(KEY)
            assert l2.get_raw(KEY) == plain.get_raw(KEY)  # byte-identical
            # The dead tier shows up in stats, not in answers.
            assert l2.get(OTHER) is None
        finally:
            l2.close()
