"""The async FSM-compilation server.

One asyncio event loop fronts a pool of CPU workers:

- **Validation/fingerprinting** — request bodies become
  :class:`~repro.service.jobs.Job` objects whose ``key`` is the
  canonical content fingerprint of the resolved pipeline config.
- **Coalescing** — while a job with some key is in flight, every new
  request with the same key attaches to the existing execution instead
  of spawning another; all waiters receive the same payload.
- **Admission control** — at most ``max_queue`` unique jobs may wait
  for an executor slot; beyond that the server answers 429
  ``overloaded`` immediately, so latency stays bounded under pressure.
- **Timeouts with cancellation** — each waiter gives up after
  ``timeout_s`` (504).  When the *last* waiter of a job gives up, the
  job is cancelled: a queued job is dropped outright, a running one is
  asked to stop at the next pipeline stage boundary.
- **Drain** — SIGTERM/SIGINT stop the listener, let in-flight work
  finish (bounded by ``drain_grace_s``), then shut the executor down.

CPU-bound pipeline work runs in a ``ProcessPoolExecutor`` by default;
``executor="thread"`` keeps it in-process (used by tests to count
executions, and useful when the artifact cache already serves most
stages).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro import faults
from repro.logutil import configure_logging, get_logger, kv
from repro.pipeline.cache import resolve_cache
from repro.pipeline.driver import RunManifest, WorkerCrashError
from repro.pipeline.pipeline import PipelineCancelled
from repro.service import http
from repro.service.jobs import Job, JobError, parse_batch, parse_job, run_job
from repro.service.metrics import MetricsRegistry, render_labels

__all__ = ["CompileServer", "ServerConfig"]

logger = get_logger("service.server")


@dataclass
class ServerConfig:
    """Tunables for one :class:`CompileServer` instance."""

    host: str = "127.0.0.1"
    port: int = 8000
    jobs: int = 2                      # executor workers
    max_queue: int = 32                # admitted-but-not-running unique jobs
    timeout_s: float = 120.0           # per-request wall-clock budget
    cache: Any = True                  # resolve_cache() spec; True = shared default
    # Cache-tier backends ("host:port,host:port"): wraps the artifact
    # cache in the shared L2 tier (repro.cachenet).  Pool workers are
    # handed the tiered cache itself, so they join the same tier.
    cache_peers: Optional[str] = None
    max_body_bytes: int = http.DEFAULT_MAX_BODY_BYTES
    executor: str = "process"          # "process" | "thread"
    drain_grace_s: float = 30.0
    # Process-pool rebuilds tolerated per job before a typed failure
    # (a killed worker breaks the whole pool; see _execute).
    worker_retries: int = 2
    # Concurrent /v1/batch item submissions; 0 = auto (2 * jobs).  The
    # window keeps a campaign from flooding admission control while
    # still keeping every executor slot busy.
    batch_window: int = 0


class _InFlight:
    """One coalesced execution: the shared future plus waiter accounting."""

    __slots__ = ("key", "future", "task", "waiters", "cancel_event", "started")

    def __init__(self, key: str, future: "asyncio.Future"):
        self.key = key
        self.future = future
        self.task: Optional[asyncio.Task] = None
        self.waiters = 0
        self.cancel_event = threading.Event()
        self.started = False


def _pool_run(
    job: Job,
    cache: Any,
    attempt: int = 0,
    plan_spec: Optional[str] = None,
):
    """Module-level executor target (must be picklable for process pools)."""
    # The active fault plan travels as an argument: a forkserver worker
    # inherits nothing of the server's state, so the submit-time plan is
    # the authoritative one.
    faults.adopt(plan_spec)
    # Chaos hook: "kill" here takes the whole pool worker down, which
    # surfaces to the event loop as BrokenProcessPool; _execute rebuilds
    # the pool and retries with the attempt counter advanced.
    faults.hit("service.worker", attempt=attempt)
    return run_job(job, cache=cache)


class CompileServer:
    """Asyncio HTTP frontend over the staged evaluation pipeline."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        runner: Optional[Callable[..., Any]] = None,
    ):
        self.config = config or ServerConfig()
        # runner(job, cache=..., should_cancel=...) -> (payload, records);
        # injectable so tests can count/stall executions.
        self._runner = runner
        self._cache = resolve_cache(
            self.config.cache, peers=self.config.cache_peers
        )
        self._inflight: Dict[str, _InFlight] = {}
        self._slots = asyncio.Semaphore(max(1, self.config.jobs))
        self._batch_window = asyncio.Semaphore(
            self.config.batch_window or max(2, 2 * self.config.jobs)
        )
        self._executor = None
        self._executor_generation = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._drained = asyncio.Event()
        self._started_at = time.monotonic()
        self.port: Optional[int] = None

        self.manifest = RunManifest(jobs=max(1, self.config.jobs))
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_requests = m.counter(
            "romfsm_requests_total", "HTTP requests by route and status.")
        self._m_rejected = m.counter(
            "romfsm_rejections_total", "Requests rejected, by reason.")
        self._m_queue_depth = m.gauge(
            "romfsm_queue_depth", "Unique jobs admitted and waiting for a worker.")
        self._m_in_flight = m.gauge(
            "romfsm_in_flight", "Unique jobs currently executing.")
        self._m_coalesced = m.counter(
            "romfsm_coalesced_requests_total",
            "Requests served by attaching to an identical in-flight job.")
        self._m_runs = m.counter(
            "romfsm_pipeline_runs_total", "Pipeline executions by job kind.")
        self._m_cancelled = m.counter(
            "romfsm_pipeline_cancelled_total",
            "Executions stopped at a stage boundary after all waiters left.")
        self._m_latency = m.histogram(
            "romfsm_request_seconds", "End-to-end request latency (seconds).")
        self._m_batch_items = m.counter(
            "romfsm_batch_items_total",
            "Batch campaign items streamed, by outcome.")
        self._m_worker_crashes = m.counter(
            "romfsm_worker_crashes_total",
            "Process-pool rebuilds after a crashed worker.")
        self._m_tune_candidates = m.counter(
            "romfsm_tune_candidates_total",
            "Tuner candidates by outcome (evaluated / pruned / deduped "
            "/ infeasible).")
        self._m_tune_cache_hits = m.counter(
            "romfsm_tune_cache_hits_total",
            "Tuner candidate evaluations answered by the fitness cache.")

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "CompileServer":
        cfg = self.config
        if cfg.executor == "process":
            self._executor = self._new_process_pool()
        elif cfg.executor == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, cfg.jobs), thread_name_prefix="romfsm-job"
            )
        else:
            raise ValueError(f"unknown executor kind {cfg.executor!r}")
        self._server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info(kv(
            "serve_start", host=cfg.host, port=self.port, jobs=cfg.jobs,
            max_queue=cfg.max_queue, timeout_s=cfg.timeout_s,
            executor=cfg.executor,
            cache=str(self._cache.root) if self._cache else "off",
        ))
        return self

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda s=sig: asyncio.ensure_future(self.drain(s))
            )

    async def serve_forever(self) -> None:
        """Run until a drain (signal or :meth:`drain`) completes."""
        await self._drained.wait()

    async def drain(self, sig: Optional[int] = None) -> None:
        """Stop accepting work, finish what is in flight, shut down."""
        if self._draining:
            return
        self._draining = True
        logger.info(kv(
            "drain_start", signal=getattr(sig, "name", sig) or "-",
            in_flight=len(self._inflight),
        ))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [
            entry.future for entry in self._inflight.values()
            if not entry.future.done()
        ]
        if pending:
            done, not_done = await asyncio.wait(
                pending, timeout=self.config.drain_grace_s
            )
            if not_done:
                logger.warning(kv("drain_timeout", abandoned=len(not_done)))
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        logger.info(kv("drain_done"))
        self._drained.set()

    async def stop(self) -> None:
        await self.drain()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        start = time.perf_counter()
        route = "-"
        try:
            try:
                request = await http.read_request(
                    reader, max_body_bytes=self.config.max_body_bytes
                )
            except http.HttpError as exc:
                self._m_rejected.inc(reason=exc.reason)
                response = http.error_response(exc.status, exc.message, exc.reason)
            else:
                if request is None:
                    return
                base = http.split_query(request.path)[0]
                if base not in ("/healthz", "/metrics", "/v1/evaluate",
                                "/v1/map", "/v1/eco", "/v1/tune",
                                "/v1/batch"):
                    base = "other"  # bound the metrics label cardinality
                route = f"{request.method} {base}"
                if base == "/v1/batch" and request.method == "POST":
                    # Streaming route: the handler writes the response
                    # itself (NDJSON lines as items complete).
                    status = await self._handle_batch(request, writer)
                    seconds = time.perf_counter() - start
                    self._m_requests.inc(route=route, status=str(status))
                    self._m_latency.observe(seconds)
                    logger.info(kv(
                        "request", route=route, status=status,
                        ms=seconds * 1e3,
                    ))
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, BrokenPipeError):
                        pass
                    return
                response = await self._dispatch(request)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            logger.exception(kv("request_error", route=route, error=type(exc).__name__))
            response = http.error_response(500, str(exc), "internal")
        seconds = time.perf_counter() - start
        self._m_requests.inc(route=route, status=str(response.status))
        self._m_latency.observe(seconds)
        logger.info(kv(
            "request", route=route, status=response.status, ms=seconds * 1e3
        ))
        try:
            encoded = response.encode()
            action = faults.hit("service.connection", route=route)
            if action is not None and action.kind == "reset":
                # Chaos hook: ship half the response, then hard-abort
                # the transport (RST) — the client must see a broken
                # read, never a short body parsed as success.
                writer.write(encoded[: len(encoded) // 2])
                try:
                    await writer.drain()
                finally:
                    writer.transport.abort()
                return
            writer.write(encoded)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _dispatch(self, request: http.Request) -> http.Response:
        path, _query = http.split_query(request.path)
        if path == "/healthz":
            if request.method != "GET":
                return http.error_response(405, "use GET", "bad_method")
            return http.json_response(self.health())
        if path == "/metrics":
            if request.method != "GET":
                return http.error_response(405, "use GET", "bad_method")
            return http.Response(
                status=200,
                body=self.render_metrics().encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        if path in ("/v1/evaluate", "/v1/map", "/v1/eco", "/v1/tune"):
            if request.method != "POST":
                return http.error_response(405, "use POST", "bad_method")
            return await self._handle_job(request, kind=path.rsplit("/", 1)[1])
        if path == "/v1/batch":
            # POST is intercepted (streaming) before dispatch.
            return http.error_response(405, "use POST", "bad_method")
        return http.error_response(404, f"no route {path!r}", "not_found")

    # -- job orchestration ---------------------------------------------

    async def _handle_job(self, request: http.Request, kind: str) -> http.Response:
        if self._draining:
            self._m_rejected.inc(reason="draining")
            return http.error_response(
                503, "server is draining; retry elsewhere", "draining"
            )
        try:
            job = parse_job(request.json(), kind=kind)
        except http.HttpError as exc:
            self._m_rejected.inc(reason=exc.reason)
            return http.error_response(exc.status, exc.message, exc.reason)
        except JobError as exc:
            self._m_rejected.inc(reason=exc.reason)
            return http.error_response(400, str(exc), exc.reason)

        entry, coalesced = self._admit(job)
        if entry is None:
            return http.error_response(
                429,
                f"overloaded: {int(self._m_in_flight.value())} running and "
                f"{int(self._m_queue_depth.value())} queued jobs "
                f"(max queue {self.config.max_queue})",
                "overloaded",
            )

        status, value, records = await self._await_job(
            entry, job, self.config.timeout_s
        )
        if status == "timeout":
            return http.error_response(
                504,
                f"job {job.label} exceeded the {self.config.timeout_s:g}s budget",
                "timeout",
            )
        if status == "cancelled":
            # Should only reach waiters in a drain-abandon corner; report
            # it as the timeout it effectively is.
            return http.error_response(
                504, f"job {job.label} was cancelled", "timeout"
            )
        if status == "job_error":
            return http.error_response(400, str(value), value.reason)
        if status == "internal":
            return http.error_response(
                500, f"{type(value).__name__}: {value}", "internal"
            )

        hits = sum(1 for r in records if r.cache_hit)
        return http.json_response({
            "ok": True,
            "kind": job.kind,
            "key": job.key,
            "coalesced": coalesced,
            "result": value,
            "pipeline": {
                "stage_runs": len(records),
                "cache_hits": hits,
                "cache_misses": len(records) - hits,
            },
        })

    def _admit(
        self, job: Job, enforce_queue_limit: bool = True
    ) -> Tuple[Optional[_InFlight], bool]:
        """Attach to an identical in-flight job, or spawn the execution.

        Returns ``(entry, coalesced)``; ``(None, False)`` means the
        admission queue rejected the job (only when
        ``enforce_queue_limit`` — batch items are windowed by their own
        semaphore instead, so a campaign cannot starve single requests
        of 429 headroom they never got to race for).
        """
        entry = self._inflight.get(job.key)
        if entry is not None:
            self._m_coalesced.inc()
            return entry, True
        if enforce_queue_limit:
            queued = int(self._m_queue_depth.value())
            running = int(self._m_in_flight.value())
            if queued >= self.config.max_queue and running >= self.config.jobs:
                self._m_rejected.inc(reason="overloaded")
                logger.warning(kv(
                    "reject_overloaded", key=job.key[:12], queued=queued,
                    running=running, max_queue=self.config.max_queue,
                ))
                return None, False
        entry = _InFlight(job.key, asyncio.get_running_loop().create_future())
        self._inflight[job.key] = entry
        entry.task = asyncio.ensure_future(self._execute(entry, job))
        return entry, False

    async def _await_job(
        self, entry: _InFlight, job: Job, timeout_s: float
    ) -> Tuple[str, Any, Any]:
        """Wait on a coalesced execution.

        Returns ``(status, value, records)``: ``("ok", payload,
        records)`` on success; otherwise status is ``"timeout"``,
        ``"cancelled"``, ``"job_error"`` or ``"internal"`` with the
        exception (if any) in ``value``.  Waiter accounting and
        last-waiter cancellation live here so every route (single or
        batch) shares the same semantics.
        """
        entry.waiters += 1
        try:
            payload, records = await asyncio.wait_for(
                asyncio.shield(entry.future), timeout=timeout_s
            )
            return "ok", payload, records
        except asyncio.TimeoutError:
            self._m_rejected.inc(reason="timeout")
            logger.warning(kv(
                "request_timeout", key=job.key[:12],
                timeout_s=timeout_s, waiters=entry.waiters - 1,
            ))
            return "timeout", None, None
        except (PipelineCancelled, asyncio.CancelledError):
            self._m_rejected.inc(reason="timeout")
            return "cancelled", None, None
        except JobError as exc:
            self._m_rejected.inc(reason=exc.reason)
            return "job_error", exc, None
        except Exception as exc:  # noqa: BLE001 - runner bug → 500
            return "internal", exc, None
        finally:
            entry.waiters -= 1
            if entry.waiters == 0 and not entry.future.done():
                # Last interested party left: stop the work.  A queued
                # job dies immediately; a running one stops at the next
                # stage boundary via the cancel event.
                entry.cancel_event.set()
                if not entry.started and entry.task is not None:
                    entry.task.cancel()

    # -- batch campaigns -----------------------------------------------

    async def _handle_batch(self, request: http.Request, writer) -> int:
        """POST /v1/batch: run a campaign, streaming per-item NDJSON.

        The response is close-delimited: a header line, one line per
        item *in completion order* (each carrying its ``item`` index),
        and a final ``done`` line with the tally.  Items coalesce with
        each other and with single-endpoint requests through the same
        in-flight map; a stalled item yields a typed in-stream timeout
        line, never a hung campaign.
        """
        if self._draining:
            self._m_rejected.inc(reason="draining")
            return await self._write_plain(
                writer,
                http.error_response(
                    503, "server is draining; retry elsewhere", "draining"
                ),
            )
        try:
            items = parse_batch(request.json())
        except http.HttpError as exc:
            self._m_rejected.inc(reason=exc.reason)
            return await self._write_plain(
                writer, http.error_response(exc.status, exc.message, exc.reason)
            )
        except JobError as exc:
            self._m_rejected.inc(reason=exc.reason)
            return await self._write_plain(
                writer, http.error_response(400, str(exc), exc.reason)
            )

        async def run_item(index: int, job: Job) -> Dict[str, Any]:
            async with self._batch_window:
                entry, coalesced = self._admit(job, enforce_queue_limit=False)
                status, value, records = await self._await_job(
                    entry, job, self.config.timeout_s
                )
            if status == "ok":
                hits = sum(1 for r in records if r.cache_hit)
                return {
                    "item": index,
                    "ok": True,
                    "kind": job.kind,
                    "key": job.key,
                    "coalesced": coalesced,
                    "result": value,
                    "pipeline": {
                        "stage_runs": len(records),
                        "cache_hits": hits,
                        "cache_misses": len(records) - hits,
                    },
                }
            if status in ("timeout", "cancelled"):
                return {
                    "item": index, "ok": False, "error": "timeout",
                    "message": (
                        f"item {job.label} exceeded the "
                        f"{self.config.timeout_s:g}s budget"
                    ),
                }
            if status == "job_error":
                return {
                    "item": index, "ok": False,
                    "error": value.reason, "message": str(value),
                }
            return {
                "item": index, "ok": False, "error": "internal",
                "message": f"{type(value).__name__}: {value}",
            }

        async def bad_item(index: int, exc: JobError) -> Dict[str, Any]:
            return {
                "item": index, "ok": False,
                "error": exc.reason, "message": str(exc),
            }

        tasks = [
            asyncio.ensure_future(
                bad_item(i, item) if isinstance(item, JobError)
                else run_item(i, item)
            )
            for i, item in enumerate(items)
        ]

        ok_count = failed = 0
        try:
            writer.write(http.stream_head())
            writer.write(http.ndjson_line(
                {"ok": True, "kind": "batch", "items": len(tasks)}
            ))
            await writer.drain()
            for done in asyncio.as_completed(tasks):
                line = await done
                if line.get("ok"):
                    ok_count += 1
                    self._m_batch_items.inc(outcome="ok")
                else:
                    failed += 1
                    self._m_batch_items.inc(
                        outcome=line.get("error", "error")
                    )
                writer.write(http.ndjson_line(line))
                await writer.drain()
            writer.write(http.ndjson_line({
                "done": True, "items": len(tasks),
                "ok_count": ok_count, "failed": failed,
            }))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            # Client went away mid-stream: abandon what nobody reads.
            logger.warning(kv(
                "batch_client_gone", streamed=ok_count + failed,
                items=len(tasks),
            ))
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        except Exception as exc:  # noqa: BLE001 - keep the stream typed
            logger.exception(kv("batch_error", error=type(exc).__name__))
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.write(http.ndjson_line({
                    "done": True, "items": len(tasks),
                    "ok_count": ok_count, "failed": failed,
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }))
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass
        logger.info(kv(
            "batch_done", items=len(tasks), ok=ok_count, failed=failed,
        ))
        return 200

    @staticmethod
    async def _write_plain(writer, response: http.Response) -> int:
        """Write a non-streaming response on the batch route."""
        try:
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        return response.status

    async def _execute(self, entry: _InFlight, job: Job) -> None:
        """Run one unique job through the executor; settle the future."""
        queued = True
        self._m_queue_depth.inc()
        try:
            async with self._slots:
                self._m_queue_depth.dec()
                queued = False
                entry.started = True
                if entry.cancel_event.is_set():
                    raise asyncio.CancelledError
                self._m_in_flight.inc()
                started = time.perf_counter()
                try:
                    payload, records = await self._run_in_executor(entry, job)
                finally:
                    self._m_in_flight.dec()
                self._m_runs.inc(kind=job.kind)
                if job.kind == "tune":
                    stats = payload.get("stats", {})
                    for outcome in ("evaluated", "pruned", "deduped",
                                    "infeasible"):
                        count = int(stats.get(outcome, 0))
                        if count:
                            self._m_tune_candidates.inc(
                                count, outcome=outcome
                            )
                    hits = int(stats.get("fitness_cache_hits", 0))
                    if hits:
                        self._m_tune_cache_hits.inc(hits)
                self.manifest.add_records(records)
                logger.info(kv(
                    "job_done", kind=job.kind, source=job.source,
                    key=job.key[:12], seconds=time.perf_counter() - started,
                    stage_runs=len(records),
                    cache_hits=sum(1 for r in records if r.cache_hit),
                ))
                if not entry.future.done():
                    entry.future.set_result((payload, records))
        except PipelineCancelled as exc:
            self._m_cancelled.inc(kind=job.kind)
            self.manifest.add_records(exc.report.records)
            logger.info(kv(
                "job_cancelled", kind=job.kind, key=job.key[:12],
                before_stage=exc.stage,
            ))
            if not entry.future.done():
                entry.future.set_exception(exc)
        except asyncio.CancelledError:
            if queued:
                self._m_queue_depth.dec()
            self._m_cancelled.inc(kind=job.kind)
            if not entry.future.done():
                entry.future.cancel()
        except Exception as exc:  # noqa: BLE001 - runner bug
            logger.exception(kv(
                "job_error", kind=job.kind, key=job.key[:12],
                error=type(exc).__name__,
            ))
            if not entry.future.done():
                entry.future.set_exception(exc)
        finally:
            self._inflight.pop(job.key, None)
            # Futures nobody awaits anymore must not warn on teardown.
            if entry.future.done() and entry.future.cancelled() is False:
                exc = entry.future.exception()
                del exc

    async def _run_in_executor(self, entry: _InFlight, job: Job):
        """Dispatch one job to the executor, surviving crashed workers.

        A worker that dies mid-job (OOM kill, chaos ``os._exit``) breaks
        the *whole* ``ProcessPoolExecutor`` — every queued future fails
        with :class:`BrokenProcessPool`.  The first job to observe the
        break swaps in a fresh pool (generation-guarded so concurrent
        observers rebuild once) and each affected job retries with its
        attempt counter advanced, up to ``worker_retries`` rebuilds.
        """
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            generation = self._executor_generation
            if self.config.executor == "process":
                # The cancel event cannot cross the process boundary;
                # an abandoned job runs to completion there and at
                # least warms the artifact cache.
                # The cache pickles as its spec (tier included); the
                # worker reopens it.
                if self._runner is not None:
                    call = partial(self._runner, job, self._cache)
                else:
                    plan = faults.active_plan()
                    call = partial(
                        _pool_run, job, self._cache, attempt,
                        plan.to_json() if plan is not None else None,
                    )
            else:
                runner = self._runner or run_job
                # Thread workers share the server's cache instance, so
                # degradation state and stats are process-wide truths
                # (and /metrics can report them).
                call = partial(
                    runner, job, cache=self._cache,
                    should_cancel=entry.cancel_event.is_set,
                )
            try:
                return await loop.run_in_executor(self._executor, call)
            except BrokenProcessPool:
                attempt += 1
                self._m_worker_crashes.inc()
                if (
                    self._draining
                    or self.config.executor != "process"
                    or attempt > self.config.worker_retries
                ):
                    raise WorkerCrashError(1, attempt)
                logger.warning(kv(
                    "worker_retry", key=job.key[:12], kind=job.kind,
                    attempt=attempt,
                ))
                self._rebuild_executor(generation)

    def _new_process_pool(self) -> ProcessPoolExecutor:
        """A worker pool whose processes never inherit connection fds.

        Plain ``fork`` taken mid-request would duplicate every open
        client socket into the long-lived workers; a close-delimited
        stream (``/v1/batch``) then never reaches EOF on the client
        because a worker still holds the fd after the server closes its
        copy.  Forking from a forkserver (itself spawned fd-clean via
        exec) breaks that inheritance for the initial pool and for
        every crash rebuild.
        """
        return ProcessPoolExecutor(
            max_workers=max(1, self.config.jobs),
            mp_context=multiprocessing.get_context("forkserver"),
        )

    def _rebuild_executor(self, generation: int) -> None:
        """Replace a broken process pool (once per break, not per job)."""
        if generation != self._executor_generation:
            return  # another job already rebuilt past this generation
        self._executor_generation += 1
        broken = self._executor
        self._executor = self._new_process_pool()
        if broken is not None:
            broken.shutdown(wait=False)

    # -- introspection --------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "in_flight": int(self._m_in_flight.value()),
            "queue_depth": int(self._m_queue_depth.value()),
            "max_queue": self.config.max_queue,
            "jobs": self.config.jobs,
            "executor": self.config.executor,
            "cache": str(self._cache.root) if self._cache is not None else None,
            "cache_degraded": (
                self._cache.degraded if self._cache is not None else None
            ),
            "cache_peers": self.config.cache_peers,
        }

    def render_metrics(self) -> str:
        """The /metrics page: registry metrics + per-stage manifest lines."""
        lines = []
        stages = dict(self.manifest.stages)  # snapshot
        if stages:
            lines.append(
                "# HELP romfsm_stage_runs_total Pipeline stage executions "
                "(cache hits included).")
            lines.append("# TYPE romfsm_stage_runs_total counter")
            for name, totals in sorted(stages.items()):
                labels = render_labels({"stage": name})
                lines.append(f"romfsm_stage_runs_total{labels} {totals.runs}")
            lines.append(
                "# HELP romfsm_stage_cache_hits_total Stage runs served "
                "from the artifact cache.")
            lines.append("# TYPE romfsm_stage_cache_hits_total counter")
            for name, totals in sorted(stages.items()):
                labels = render_labels({"stage": name})
                lines.append(f"romfsm_stage_cache_hits_total{labels} {totals.hits}")
            lines.append(
                "# HELP romfsm_stage_seconds_total Wall-clock seconds spent "
                "per stage.")
            lines.append("# TYPE romfsm_stage_seconds_total counter")
            for name, totals in sorted(stages.items()):
                labels = render_labels({"stage": name})
                lines.append(
                    f"romfsm_stage_seconds_total{labels} {totals.seconds:.6f}"
                )
        if self._cache is not None:
            # In-process cache health (authoritative for the thread
            # executor; process-pool workers hold their own instances).
            lines.append(
                "# HELP romfsm_cache_degraded Whether the artifact cache "
                "fell back to its in-memory store after repeated I/O errors.")
            lines.append("# TYPE romfsm_cache_degraded gauge")
            lines.append(f"romfsm_cache_degraded {int(self._cache.degraded)}")
            lines.append(
                "# HELP romfsm_cache_io_errors_total I/O errors absorbed "
                "by the artifact cache.")
            lines.append("# TYPE romfsm_cache_io_errors_total counter")
            lines.append(
                f"romfsm_cache_io_errors_total {self._cache.stats.io_errors}"
            )
            lines.append(
                "# HELP romfsm_cache_memory_entries Entries held by the "
                "degraded-mode in-memory LRU store.")
            lines.append("# TYPE romfsm_cache_memory_entries gauge")
            lines.append(
                f"romfsm_cache_memory_entries {self._cache.memory_entries}"
            )
            lines.append(
                "# HELP romfsm_cache_memory_evictions_total Degraded-mode "
                "LRU entries evicted over the entry/byte budgets.")
            lines.append("# TYPE romfsm_cache_memory_evictions_total counter")
            lines.append(
                f"romfsm_cache_memory_evictions_total "
                f"{self._cache.stats.evictions}"
            )
            l2_stats = getattr(self._cache, "l2_stats", None)
            if l2_stats is not None:
                # The shared cache tier (repro.cachenet) is active.
                for metric, help_text in (
                    ("hits", "Local misses answered by the cache tier."),
                    ("misses", "Lookups the cache tier also missed."),
                    ("errors", "Corrupt or failed cache-tier replies."),
                    ("puts", "Write-behind puts accepted by the tier queue."),
                    ("put_drops", "Write-behind puts dropped (full queue "
                                  "or unreachable backend)."),
                ):
                    lines.append(
                        f"# HELP romfsm_l2_{metric}_total {help_text}")
                    lines.append(f"# TYPE romfsm_l2_{metric}_total counter")
                    lines.append(
                        f"romfsm_l2_{metric}_total "
                        f"{getattr(l2_stats, metric)}"
                    )
                tier = self._cache.remote.stats()
                lines.append(
                    "# HELP romfsm_l2_backend_open Whether a cache-tier "
                    "backend's circuit breaker is open (degraded to "
                    "local-only for its key range).")
                lines.append("# TYPE romfsm_l2_backend_open gauge")
                for name, backend in sorted(tier["backends"].items()):
                    labels = render_labels({"backend": name})
                    is_open = int(backend["breaker"] != "closed")
                    lines.append(f"romfsm_l2_backend_open{labels} {is_open}")
        return self.metrics.render(extra_lines=lines)


async def run_server(config: ServerConfig) -> None:
    """CLI entry: start, install signal handlers, serve until drained."""
    configure_logging()
    server = CompileServer(config)
    await server.start()
    server.install_signal_handlers()
    await server.serve_forever()
