"""Staged pass pipeline with content-addressed artifact caching.

The paper's Fig. 6 flow is a staged tool chain — synthesis, mapping,
simulation, power estimation — that the original scripts ran end to end
for every data point.  This package makes that chain explicit:

- :mod:`repro.pipeline.artifact` — hashable, serializable stage outputs;
- :mod:`repro.pipeline.stage`    — the :class:`Stage` abstraction and
  its content-addressed cache keys;
- :mod:`repro.pipeline.pipeline` — the :class:`Pipeline` executor;
- :mod:`repro.pipeline.cache`    — the on-disk artifact store;
- :mod:`repro.pipeline.stages`   — the paper's flow re-expressed as
  named stages (``parse`` → ``complete-encode`` → ``ff-synth`` →
  ``rom-map`` → ``rom-cc`` → ``simulate`` → ``activity`` → ``power``);
- :mod:`repro.pipeline.driver`   — process-pool sharding of independent
  evaluations plus the per-run :class:`RunManifest`.

Because every stage is deterministic given its config and seeds
(`docs/architecture.md` §7), the cache key — stage name, stage version,
upstream artifact fingerprints, and the stage-relevant config — fully
identifies the output, so cached artifacts are bit-identical to fresh
computation.
"""

from repro.pipeline.artifact import Artifact, FingerprintError, fingerprint
from repro.pipeline.cache import (
    DEFAULT_CACHE_DIR,
    ArtifactCache,
    CacheStats,
    resolve_cache,
)
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.pipeline import (
    Pipeline,
    PipelineError,
    PipelineReport,
    PipelineResult,
    StageRecord,
)
from repro.pipeline.driver import RunManifest, run_sharded
from repro.pipeline.stages import build_evaluation_pipeline, paper_moore_output_mode

__all__ = [
    "Artifact",
    "FingerprintError",
    "fingerprint",
    "ArtifactCache",
    "CacheStats",
    "resolve_cache",
    "DEFAULT_CACHE_DIR",
    "Stage",
    "StageContext",
    "Pipeline",
    "PipelineError",
    "PipelineReport",
    "PipelineResult",
    "StageRecord",
    "RunManifest",
    "run_sharded",
    "build_evaluation_pipeline",
    "paper_moore_output_mode",
]
