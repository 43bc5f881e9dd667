"""Regression guard: a cold search synthesizes each machine's glue
logic once per (encoding, k), not once per candidate."""

import sys

from repro.fsm.memo import clear_fsm_memo
from repro.logic import lutmap
from repro.tune import tune_benchmark


def test_cold_ex1_search_maps_at_most_nine_networks(tmp_path, monkeypatch):
    calls = []
    real = lutmap.map_network

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # Patch every by-name binding, not just the defining module.
    for module in list(sys.modules.values()):
        if getattr(module, "map_network", None) is real:
            monkeypatch.setattr(module, "map_network", counting)
    clear_fsm_memo()
    result = tune_benchmark("ex1", jobs=1, cache=str(tmp_path))
    assert result.stats["evaluated"] > 9
    assert 0 < len(calls) <= 9
