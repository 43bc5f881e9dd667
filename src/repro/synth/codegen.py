"""Compatibility stub for the benchmark harness in ``perfbench/``.

The simulators have one engine (:mod:`repro.synth.wordsim`) and one
per-cycle oracle, so there is nothing to select or count here.  The
harness still imports :func:`current_engine` and :func:`stats`; this
module goes away with the harness's next change.
"""


class _NoStats:
    def as_dict(self) -> dict:
        return {}


def current_engine() -> str:
    return "wordsim"


def stats() -> _NoStats:
    return _NoStats()
