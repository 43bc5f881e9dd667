"""Search-based encoding and mapper auto-tuning (``romfsm tune``).

The paper maps every machine with one fixed heuristic — binary
encoding, widest-first aspect selection, the Fig. 4 compaction policy.
This package searches the mapper's free knobs for the Pareto-optimal
configurations under the paper's own power/area/timing models, as a
*performance subsystem*: candidates are canonical fingerprinted
configurations, candidates that map to the same implementation are
evaluated once, batches dispatch onto the crash-tolerant process-pool
driver, bounds and fitness are memoised in small sidecar entries of the
content-addressed cache, and Pareto-dominated regions are pruned by an
exact lower bound — so wall-clock scales with the frontier, not the
grid.  The machine searched is the one the caller passed (or the named
suite benchmark), unchanged.

Entry points: :func:`tune_benchmark` / :func:`tune_many` (library),
``romfsm tune`` (CLI), ``POST /v1/tune`` (service).  The result is a
replayable frontier artifact: any stored point re-maps and
re-simulates to bit-identical objectives (:func:`replay_point`).
"""

from repro.tune.fitness import (
    BLOCK_LUT_EQUIV,
    DEFAULT_TUNE_CYCLES,
    DEFAULT_TUNE_FREQUENCY_MHZ,
    area_cost,
    candidate_fitness,
    power_lower_bound,
)
from repro.tune.frontier import (
    OBJECTIVES,
    FrontierPoint,
    TuneResult,
    dominates,
    load_frontier,
    pareto_front,
)
from repro.tune.search import (
    BATCH_SIZE,
    replay_point,
    tune_benchmark,
    tune_many,
)
from repro.tune.space import (
    TuneCandidate,
    TuneSpace,
    baseline_candidate,
    default_space,
)

__all__ = [
    "BATCH_SIZE",
    "BLOCK_LUT_EQUIV",
    "DEFAULT_TUNE_CYCLES",
    "DEFAULT_TUNE_FREQUENCY_MHZ",
    "OBJECTIVES",
    "FrontierPoint",
    "TuneCandidate",
    "TuneResult",
    "TuneSpace",
    "area_cost",
    "baseline_candidate",
    "candidate_fitness",
    "default_space",
    "dominates",
    "load_frontier",
    "pareto_front",
    "power_lower_bound",
    "replay_point",
    "tune_benchmark",
    "tune_many",
]
