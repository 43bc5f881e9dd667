"""The :class:`Pipeline` executor.

Runs stages in declared order (which must be a topological order of the
dependency graph — validated at construction), consulting an optional
:class:`~repro.pipeline.cache.ArtifactCache` before each stage and
recording a :class:`StageRecord` (key, hit/miss, wall seconds) per
stage for the run manifest.  Without a cache no stage key and no
content fingerprint is computed unless a caller reads one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import faults
from repro.pipeline.artifact import Artifact
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.stage import Stage, StageContext

__all__ = [
    "Pipeline",
    "PipelineCancelled",
    "PipelineError",
    "PipelineReport",
    "PipelineResult",
    "StageRecord",
]


class PipelineError(ValueError):
    """Malformed pipeline: duplicate stage names or unresolvable deps."""


class PipelineCancelled(RuntimeError):
    """Raised between stages when a run's ``should_cancel`` turns true.

    Carries the partial report so callers (the service's timed-out
    requests in particular) can still account for the stages that ran.
    """

    def __init__(self, stage: str, report: "PipelineReport"):
        super().__init__(f"pipeline cancelled before stage {stage!r}")
        self.stage = stage
        self.report = report


class StageRecord:
    """Observability record for one stage execution.

    ``key`` is the stage's cache key, or ``None`` when the run had no
    cache (no key is computed then).  ``fingerprint`` is the output's
    content fingerprint; given an :class:`Artifact` instead of a string,
    the record reads it from the artifact on first access (and before
    pickling, so a record crossing a process boundary carries it).
    """

    __slots__ = ("stage", "version", "key", "cache_hit", "seconds", "_fingerprint")

    def __init__(
        self,
        stage: str,
        version: str,
        key: Optional[str],
        cache_hit: bool,
        seconds: float,
        fingerprint: Union[str, Artifact],
    ):
        self.stage = stage
        self.version = version
        self.key = key
        self.cache_hit = cache_hit
        self.seconds = seconds
        self._fingerprint = fingerprint

    @property
    def fingerprint(self) -> str:
        fp = self._fingerprint
        if isinstance(fp, Artifact):
            fp = self._fingerprint = fp.fingerprint
        return fp

    def _fields(self) -> Tuple[Any, ...]:
        return (self.stage, self.version, self.key, self.cache_hit,
                self.seconds, self.fingerprint)

    def __reduce__(self):
        return (StageRecord, self._fields())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StageRecord):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"StageRecord(stage={self.stage!r}, version={self.version!r}, "
            f"key={self.key!r}, cache_hit={self.cache_hit!r}, "
            f"seconds={self.seconds!r}, fingerprint={self.fingerprint!r})"
        )


@dataclass
class PipelineReport:
    """All stage records of one pipeline run."""

    records: List[StageRecord] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def misses(self) -> int:
        return sum(1 for r in self.records if not r.cache_hit)

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.records)


@dataclass
class PipelineResult:
    """Artifacts plus the run report of one pipeline execution."""

    artifacts: Dict[str, Artifact]
    report: PipelineReport

    def value(self, name: str) -> Any:
        return self.artifacts[name].value

    def get(self, name: str, default: Any = None) -> Any:
        art = self.artifacts.get(name)
        return default if art is None else art.value


class Pipeline:
    """An ordered DAG of stages executed with content-addressed caching."""

    def __init__(self, stages: Sequence[Stage]):
        seen: Dict[str, Stage] = {}
        for stage in stages:
            if stage.name in seen:
                raise PipelineError(f"duplicate stage name {stage.name!r}")
            for dep in stage.deps:
                if dep not in seen:
                    raise PipelineError(
                        f"stage {stage.name!r} depends on {dep!r}, which is "
                        f"not declared earlier in the pipeline"
                    )
            seen[stage.name] = stage
        self.stages: List[Stage] = list(stages)

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}")

    def run(
        self,
        config: Mapping[str, Any],
        cache: Optional[ArtifactCache] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> PipelineResult:
        """Execute the stages in order.

        ``should_cancel`` (when given) is polled before each stage; a
        true result raises :class:`PipelineCancelled` with the partial
        report, so a long run can be abandoned at the next stage
        boundary once every requester has given up on it.
        """
        artifacts: Dict[str, Artifact] = {}
        records: List[StageRecord] = []
        for stage in self.stages:
            if should_cancel is not None and should_cancel():
                raise PipelineCancelled(stage.name, PipelineReport(records))
            # Chaos hook: a "raise" rule here aborts the run with a
            # typed FaultInjected at a stage boundary, a "stall" rule
            # models a slow stage.
            faults.hit("pipeline.stage", stage=stage.name)
            key: Optional[str] = None
            if cache is not None:
                dep_fps = {dep: artifacts[dep].fingerprint for dep in stage.deps}
                key = stage.cache_key(dep_fps, config)
            start = time.perf_counter()
            loaded = cache.get(key) if cache is not None else None
            hit = loaded is not None
            if hit:
                fp, value = loaded
                artifact = Artifact(value, fp)
            else:
                artifact = Artifact(stage.func(StageContext(config, artifacts)))
                if cache is not None:
                    cache.put(key, artifact.fingerprint, artifact.value)
            artifacts[stage.name] = artifact
            records.append(
                StageRecord(
                    stage=stage.name,
                    version=stage.version,
                    key=key,
                    cache_hit=hit,
                    seconds=time.perf_counter() - start,
                    fingerprint=artifact,
                )
            )
        return PipelineResult(artifacts=artifacts, report=PipelineReport(records))
