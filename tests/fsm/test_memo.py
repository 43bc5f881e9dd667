"""The content-keyed FSM memo.

:func:`repro.fsm.memo.fsm_memo` keys products by the STG fingerprint,
which is cached on the instance like the :class:`StgTable`: dropped by
``add_transition``, never pickled and never fingerprinted.
"""

import pickle
import sys
import threading
import time

import pytest

from repro.bench.suite import load_benchmark
from repro.fsm import memo
from repro.fsm.kiss import format_kiss, parse_kiss
from repro.fsm.machine import FSM
from repro.fsm.markov import stationary_for
from repro.fsm.memo import clear_fsm_memo, fsm_memo, stg_fingerprint
from repro.pipeline.artifact import fingerprint
from repro.romfsm.mapper import map_fsm_to_rom


@pytest.fixture(autouse=True)
def _empty_memo():
    clear_fsm_memo()
    yield
    clear_fsm_memo()


def counting(value_factory=object):
    calls = []

    def build():
        calls.append(1)
        return value_factory()

    return build, calls


def machine(name="m"):
    fsm = FSM(name, 1, 1, ["A", "B"], "A")
    fsm.add("A", "1", "B", "1")
    fsm.add("B", "-", "A", "0")
    return fsm


class TestKeys:
    def test_hit_returns_the_same_object(self):
        fsm = machine()
        build, calls = counting()
        first = fsm_memo(fsm, ("product", 1), build)
        assert fsm_memo(fsm, ("product", 1), build) is first
        assert len(calls) == 1
        assert fsm_memo(fsm, ("product", 2), build) is not first
        assert len(calls) == 2

    def test_none_is_a_memoised_value(self):
        fsm = machine()
        build, calls = counting(lambda: None)
        assert fsm_memo(fsm, ("none",), build) is None
        assert fsm_memo(fsm, ("none",), build) is None
        assert len(calls) == 1

    def test_failed_build_stores_nothing(self):
        fsm = machine()

        def failing():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            fsm_memo(fsm, ("fails",), failing)
        assert fsm_memo(fsm, ("fails",), lambda: 7) == 7

    def test_add_transition_gives_a_fresh_key(self):
        fsm = FSM("grow", 1, 1, ["A", "B"], "A")
        fsm.add("A", "1", "B", "1")
        before = stg_fingerprint(fsm)
        first = fsm_memo(fsm, ("product",), object)
        fsm.add("A", "0", "B", "0")
        assert "_stg_fingerprint" not in vars(fsm)
        assert stg_fingerprint(fsm) != before
        assert fsm_memo(fsm, ("product",), object) is not first

    def test_equal_kiss_instances_share_and_renamed_copies_do_not(self):
        text = format_kiss(load_benchmark("dk14"))
        a, b = parse_kiss(text, "dk14"), parse_kiss(text, "dk14")
        assert a is not b
        shared = fsm_memo(a, ("product",), object)
        assert fsm_memo(b, ("product",), object) is shared
        assert map_fsm_to_rom(b, clock_control=True).clock_control is (
            map_fsm_to_rom(a, clock_control=True).clock_control)
        renamed = a.copy(name="dk14-copy")
        assert fsm_memo(renamed, ("product",), object) is not shared

    def test_fingerprint_is_computed_once_per_instance(self, monkeypatch):
        fsm = machine()
        calls = []
        real = memo._compute_stg_fingerprint

        def counted(machine_):
            calls.append(1)
            return real(machine_)

        monkeypatch.setattr(memo, "_compute_stg_fingerprint", counted)
        for _ in range(5):
            fsm_memo(fsm, ("product",), object)
        assert len(calls) == 1


class TestHygiene:
    def test_pickle_and_fingerprint_unchanged_by_filling_the_memo(self):
        fsm = load_benchmark("styr").copy()
        pickled, fp = pickle.dumps(fsm), fingerprint(fsm)
        map_fsm_to_rom(fsm, clock_control=True)
        stationary_for(fsm)
        assert "_stg_fingerprint" in vars(fsm)
        assert pickle.dumps(fsm) == pickled
        assert fingerprint(fsm) == fp
        clone = pickle.loads(pickled)
        assert "_stg_fingerprint" not in vars(clone)
        assert stg_fingerprint(clone) == stg_fingerprint(fsm)


class TestBound:
    def test_bound_evicts_the_oldest_machine(self, monkeypatch):
        monkeypatch.setattr(memo, "FSM_MEMO_MAX_MACHINES", 2)
        a, b, c = machine("a"), machine("b"), machine("c")
        first_a = fsm_memo(a, ("product",), object)
        first_b = fsm_memo(b, ("product",), object)
        assert fsm_memo(a, ("other",), object) is not None  # same machine
        fsm_memo(c, ("product",), object)  # evicts a, the oldest
        assert fsm_memo(b, ("product",), object) is first_b
        assert fsm_memo(a, ("product",), object) is not first_a


class TestConcurrency:
    def test_first_use_race_with_nested_use_does_not_deadlock(self):
        fsm = machine("race")
        started = []

        def build():
            started.append(1)
            fsm.stg_table()  # nested: takes the FSM's table lock
            inner = fsm_memo(fsm, ("inner",), object)  # nested memo use
            time.sleep(0.01)
            return (inner, object())

        barrier = threading.Barrier(8)
        seen = []

        def worker():
            barrier.wait(timeout=10)
            seen.append(fsm_memo(fsm, ("outer",), build))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 and all(v is seen[0] for v in seen)
        assert started  # every racer may build; one value is published
        assert fsm_memo(fsm, ("outer",), build) is seen[0]
