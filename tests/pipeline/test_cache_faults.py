"""Crash-safety tests for the artifact cache: races, torn reads,
I/O-error degradation, and maintenance hygiene."""

import os
import pickle

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.pipeline.cache import ArtifactCache

KEY = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


@pytest.fixture(autouse=True)
def no_ambient_plan():
    faults.uninstall()
    yield
    faults.uninstall()


class TestConcurrentUnlinkTolerance:
    def test_size_bytes_survives_entry_vanishing_mid_scan(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        cache.put(OTHER, "b", 2)

        victim = str(cache._path(KEY))
        import pathlib
        original = pathlib.Path.stat

        # Simulate a concurrent worker unlinking between listing and
        # stat: the victim vanishes exactly when stat() reaches it.
        def racing_stat(self, **kwargs):
            if str(self) == victim:
                if os.path.exists(victim):
                    os.unlink(victim)
                raise FileNotFoundError(victim)
            return original(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racing_stat)
        size = cache.size_bytes
        monkeypatch.undo()
        assert size > 0  # the survivor still counts; no crash

    def test_entry_count_survives_shard_vanishing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        import shutil
        shutil.rmtree(cache.objects_dir / KEY[:2])
        assert cache.entry_count == 0

    def test_contains_counts_probes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        assert KEY in cache
        assert OTHER not in cache
        assert cache.stats.probes == 2


class TestClearHygiene:
    def test_clear_removes_tmp_orphans_and_empty_shards(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "a", 1)
        cache.put(OTHER, "b", 2)
        # An interrupted put() leaves a .tmp-* file behind.
        shard = cache.objects_dir / KEY[:2]
        orphan = shard / ".tmp-interrupted.pkl"
        orphan.write_bytes(b"partial")

        assert cache.clear() == 2
        assert not orphan.exists()
        # Shard directories are gone, not just emptied.
        assert not any(cache.objects_dir.iterdir())

    def test_clear_resets_degraded_state(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=1)
        plan = FaultPlan([FaultRule(point="cache.put", kind="disk_full",
                                    max_fires=1)])
        with faults.injected(plan):
            cache.put(KEY, "a", 1)
        assert cache.degraded
        assert cache.get(KEY) == ("a", 1)  # served from memory fallback
        removed = cache.clear()
        assert removed == 1
        assert not cache.degraded
        cache.put(KEY, "a", 2)
        assert cache._path(KEY).exists()  # back on disk


class TestCorruptEntryRace:
    def test_corrupt_read_does_not_unlink_concurrent_replacement(
        self, tmp_path, monkeypatch
    ):
        """Regression: get() reads a corrupt entry, a concurrent writer
        replaces the file before the unlink — the *new* entry must
        survive the corrupt-path cleanup."""
        cache = ArtifactCache(tmp_path)
        path = cache._path(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"torn write from a crashed worker")

        def racing_decode(data):
            # Interleave the replacement exactly between the read and
            # the corrupt-entry cleanup.
            writer = ArtifactCache(tmp_path)
            writer.put(KEY, "fresh", {"v": 2})
            return pickle.loads(data)

        monkeypatch.setattr(ArtifactCache, "_decode",
                            staticmethod(racing_decode))
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        monkeypatch.undo()

        # The replacement written mid-race is still there and valid.
        assert path.exists()
        assert cache.get(KEY) == ("fresh", {"v": 2})

    def test_corrupt_entry_without_race_is_still_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", [1, 2])
        path = cache._path(KEY)
        path.write_bytes(b"not a pickle")
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        assert not path.exists()

    def test_injected_torn_read_is_a_miss_not_a_wrong_value(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", {"payload": list(range(100))})
        plan = FaultPlan([FaultRule(point="cache.get", kind="truncate",
                                    max_fires=1)])
        with faults.injected(plan):
            assert cache.get(KEY) is None
        assert cache.stats.errors == 1

    def test_injected_bitflip_is_never_served_as_valid(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        value = {"payload": bytes(512)}
        cache.put(KEY, "fp", value)
        plan = FaultPlan([FaultRule(point="cache.get", kind="bitflip",
                                    max_fires=1)])
        with faults.injected(plan):
            got = cache.get(KEY)
        # A flipped payload bit decodes fine under pickle alone — the
        # CRC envelope must catch it and turn it into a miss.
        assert got is None
        assert cache.stats.errors == 1
        # The entry was dropped as corrupt; a rewrite reads back clean.
        cache.put(KEY, "fp", value)
        assert cache.get(KEY) == ("fp", value)


class TestDegradation:
    def test_repeated_io_errors_degrade_to_memory(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=3)
        plan = FaultPlan([FaultRule(point="cache.put", kind="oserror",
                                    max_fires=3)])
        with faults.injected(plan):
            for i in range(3):
                cache.put(f"{i:02d}" + "e" * 62, "fp", i)
        assert cache.degraded
        assert cache.stats.io_errors == 3

        # Degraded mode still caches — in memory.
        cache.put(KEY, "fp", "value")
        assert cache.get(KEY) == ("fp", "value")
        assert KEY in cache
        assert not cache._path(KEY).exists()
        assert cache.describe()["degraded"] is True

    def test_single_error_recovers_without_degrading(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=3)
        plan = FaultPlan([FaultRule(point="cache.put", kind="disk_full",
                                    max_fires=1)])
        with faults.injected(plan):
            cache.put(KEY, "fp", 1)     # absorbed, not raised
            cache.put(OTHER, "fp", 2)   # succeeds, resets the streak
        assert not cache.degraded
        assert cache.stats.io_errors == 1
        assert cache.get(OTHER) == ("fp", 2)
        assert cache.get(KEY) is None  # lost write is a plain miss

    def test_read_errors_count_toward_degradation(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=2)
        cache.put(KEY, "fp", 1)
        plan = FaultPlan([FaultRule(point="cache.get", kind="oserror",
                                    max_fires=2)])
        with faults.injected(plan):
            assert cache.get(KEY) is None
            assert cache.get(KEY) is None
        assert cache.degraded

    def test_put_never_raises_on_unwritable_root(self, tmp_path):
        # A root we cannot create shards under: parent is a file.
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        cache = ArtifactCache(blocker / "cache", degrade_threshold=1)
        cache.put(KEY, "fp", 1)  # must not raise
        assert cache.degraded
        assert cache.get(KEY) == ("fp", 1)


class TestDegradedMemoryBudget:
    """Satellite regression: the degraded-mode store is a bounded LRU,
    not an unbounded dict — a long-running service on a sick disk must
    not grow without limit."""

    def _degraded(self, tmp_path, **kwargs) -> ArtifactCache:
        cache = ArtifactCache(tmp_path, degrade_threshold=1, **kwargs)
        plan = FaultPlan([FaultRule(point="cache.put", kind="oserror",
                                    max_fires=1)])
        with faults.injected(plan):
            cache.put("ff" + "f" * 62, "fp", "sacrifice")
        assert cache.degraded
        return cache

    def test_entry_budget_evicts_lru_first(self, tmp_path):
        cache = self._degraded(tmp_path, memory_max_entries=3)
        keys = [f"{i:02d}" + "a" * 62 for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, "fp", i)
        assert cache.memory_entries == 3
        assert cache.stats.evictions == 3  # sacrifice + keys[0] + keys[1]
        assert cache.get(keys[0]) is None
        assert cache.get(keys[4]) == ("fp", 4)

    def test_get_refreshes_recency(self, tmp_path):
        cache = self._degraded(tmp_path, memory_max_entries=2)
        a = "0a" + "a" * 62
        b = "0b" + "b" * 62
        c = "0c" + "c" * 62
        cache.put(a, "fp", 1)
        cache.put(b, "fp", 2)
        assert cache.get(a) == ("fp", 1)  # a is now most-recent
        cache.put(c, "fp", 3)             # evicts b, not a
        assert cache.get(b) is None
        assert cache.get(a) == ("fp", 1)

    def test_byte_budget_bounds_the_store(self, tmp_path):
        cache = self._degraded(tmp_path, memory_max_bytes=4096)
        for i in range(16):
            cache.put(f"{i:02d}" + "b" * 62, "fp", bytes(1024))
        assert cache.memory_bytes <= 4096
        assert cache.stats.evictions > 0
        assert cache.memory_entries >= 1

    def test_single_oversized_entry_is_kept(self, tmp_path):
        # Evicting the value that was just stored would make the store
        # useless for exactly the key being worked on.
        cache = self._degraded(tmp_path, memory_max_bytes=64)
        cache.put(KEY, "fp", bytes(4096))
        assert cache.get(KEY) == ("fp", bytes(4096))
        assert cache.memory_entries == 1

    def test_overwrite_same_key_does_not_evict(self, tmp_path):
        cache = self._degraded(tmp_path, memory_max_entries=2)
        cache.put(KEY, "fp", 1)
        before = cache.stats.evictions
        for i in range(5):
            cache.put(KEY, "fp", i)
        assert cache.stats.evictions == before
        assert cache.memory_entries == 2  # sacrifice entry + KEY

    def test_describe_reports_memory_budget_use(self, tmp_path):
        cache = self._degraded(tmp_path)
        cache.put(KEY, "fp", 1)
        info = cache.describe()
        assert info["memory_entries"] == cache.memory_entries
        assert info["memory_bytes"] == cache.memory_bytes
        assert info["session"]["evictions"] == cache.stats.evictions


class TestContainsValidatesEnvelope:
    """Satellite regression: ``key in cache`` must not trust a bare
    ``.exists()`` — a corrupt envelope would be a phantom hit that
    coalescing and stats then rely on."""

    def test_corrupt_entry_is_not_contained(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        cache._path(KEY).write_bytes(b"exists but is garbage")
        assert KEY not in cache
        assert cache.stats.errors == 1
        # The probe also dropped the corrupt file (inode-guarded).
        assert not cache._path(KEY).exists()

    def test_bitflipped_entry_is_not_contained(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", {"payload": bytes(256)})
        path = cache._path(KEY)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert KEY not in cache
        assert cache.stats.errors == 1

    def test_probe_does_not_unlink_concurrent_replacement(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        path = cache._path(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"torn write")

        original = ArtifactCache.verify_envelope

        def racing_verify(data):
            writer = ArtifactCache(tmp_path)
            writer.put(KEY, "fresh", 7)
            return original(data)

        monkeypatch.setattr(ArtifactCache, "verify_envelope",
                            staticmethod(racing_verify))
        assert KEY not in cache
        monkeypatch.undo()
        assert path.exists()
        assert cache.get(KEY) == ("fresh", 7)


class TestRemoteFillRace:
    """Satellite regression: the inode-guarded corrupt-entry unlink must
    hold when the replacing writer is a *remote* cachenet backend fill
    landing through :meth:`ArtifactCache.put_raw`."""

    def test_corrupt_read_does_not_unlink_remote_backend_fill(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        path = cache._path(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"torn write from a crashed flush")
        envelope = ArtifactCache._encode("remote-fp", {"filled": True})

        def racing_decode(data):
            # An L2 read-through backfill lands exactly between the
            # corrupt read and the cleanup unlink.
            filler = ArtifactCache(tmp_path)
            assert filler.put_raw(KEY, envelope)
            return pickle.loads(data)

        monkeypatch.setattr(ArtifactCache, "_decode",
                            staticmethod(racing_decode))
        assert cache.get(KEY) is None
        assert cache.stats.errors == 1
        monkeypatch.undo()

        # The remote fill survived the cleanup and reads back valid.
        assert path.exists()
        assert cache.get(KEY) == ("remote-fp", {"filled": True})


class TestTmpOrphanTolerance:
    """A crashed write-behind flush leaves ``.tmp-*`` files behind; the
    accounting walks must not count them and clear() must sweep them."""

    def _orphan(self, cache: ArtifactCache) -> None:
        shard = cache.objects_dir / KEY[:2]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / ".tmp-dead-flush.pkl").write_bytes(b"partial envelope")

    def test_size_and_count_ignore_tmp_orphans(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        real_size = cache.size_bytes
        self._orphan(cache)
        assert cache.entry_count == 1
        assert cache.size_bytes == real_size

    def test_clear_sweeps_tmp_orphans_without_counting_them(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        self._orphan(cache)
        assert cache.clear() == 1  # the orphan is swept but not counted
        assert not any(cache.objects_dir.iterdir())


class TestRawEnvelopeTransport:
    """get_raw/put_raw: the seam the cachenet tier moves entries through."""

    def test_round_trip_preserves_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", {"words": [1, 2, 3]})
        data = cache.get_raw(KEY)
        assert data is not None

        other = ArtifactCache(tmp_path / "other")
        assert other.put_raw(KEY, data)
        assert other.get_raw(KEY) == data
        assert other.get(KEY) == ("fp", {"words": [1, 2, 3]})

    def test_put_raw_rejects_corrupt_envelopes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert not cache.put_raw(KEY, b"not an envelope")
        data = bytearray(ArtifactCache._encode("fp", 1))
        data[-1] ^= 0x01
        assert not cache.put_raw(KEY, bytes(data))
        assert cache.get(KEY) is None

    def test_raw_ops_answer_misses_when_degraded(self, tmp_path):
        cache = ArtifactCache(tmp_path, degrade_threshold=1)
        plan = FaultPlan([FaultRule(point="cache.put", kind="oserror",
                                    max_fires=1)])
        with faults.injected(plan):
            cache.put(KEY, "fp", 1)
        assert cache.degraded
        assert cache.get(KEY) == ("fp", 1)      # decoded memory hit
        assert cache.get_raw(KEY) is None       # raw path: miss
        assert not cache.put_raw(KEY, ArtifactCache._encode("fp", 1))

    def test_get_raw_drops_corrupt_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(KEY, "fp", 1)
        cache._path(KEY).write_bytes(b"garbage")
        assert cache.get_raw(KEY) is None
        assert cache.stats.errors == 1
        assert not cache._path(KEY).exists()
