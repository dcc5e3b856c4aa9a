"""The asyncio HTTP front end: ``python -m repro serve``.

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams
(the repository has a no-new-dependencies rule, and the protocol
surface is six endpoints), multiplexing many concurrent run/sweep
requests over one :class:`~repro.harness.pool.WorkerPool` (one forked
process per cell, at most ``--workers`` at a time):

* ``POST /submit`` — JSON body with a ``spec``/``specs`` sweep, a
  priority class, and an optional ``trace`` flag.  Admission control:
  when the bounded queue is full the request is refused with ``429``
  and a ``Retry-After`` estimate.  Accepted requests get a job id.
* ``GET /jobs/<id>`` — job status and per-cell results so far.
* ``GET /jobs/<id>/stream`` — chunked NDJSON: one event per cell as
  it completes, then a terminal summary.  Replayable — late watchers
  see the full history.
* ``GET /jobs/<id>/trace?cell=N`` — the Perfetto trace_event JSON of
  a traced cell.
* ``GET /stats`` — live ``SERVICE_COUNTERS``, queue depths, worker
  state.  ``GET /healthz`` — liveness.
* ``POST /drain`` — graceful shutdown: stop admitting, let in-flight
  work finish, persist the stats file (counters + histograms + the
  recorded arrival log the DES model replays), stop the pool.

Scheduling: cells enter the shared
:class:`~repro.serve.scheduler.WeightedScheduler`; a dispatcher task
pops under smooth weighted RR whenever a worker slot is free.
Identical concurrent cells are **single-flighted** on the run-cache
key: one execution, every requester attached as a follower; a repeat
of a finished cell is answered from the persistent run cache.  Large
sweeps self-limit via a per-request in-flight window, so one bulk
request cannot monopolize the bounded queue (backpressure without
rejection).

Fault tolerance: an attempt whose *worker* failed under it (process
crash, deadline kill) is retried under the priority class's
:class:`~repro.serve.protocol.RetryPolicy` — bounded attempts,
exponential backoff, idempotent by the run-cache key.  The cell stays
single-flighted through its whole retry loop, so followers ride the
retry instead of inheriting a crash.  A spec whose workers crash
``quarantine_after`` times (service-wide) is poisoned: further submits
are refused with ``422`` and the quarantine list survives into the
drained stats document.  In-worker exceptions are deterministic and
fail immediately, exactly as before.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import WorkerCrashed
from repro.harness.pool import CellResult, RunSpec, WorkerPool, execute_spec
from repro.serve.protocol import (
    DEFAULT_PRIORITY,
    DEFAULT_RETRY_POLICIES,
    PRIORITY_CLASSES,
    RetryPolicy,
    backoff_s,
    expand_sweep,
    spec_to_json,
    validate_priority,
)
from repro.serve.scheduler import WeightedScheduler
from repro.serve.stats import ArrivalRecord, ServiceStats

__all__ = ["ServeConfig", "ReproService", "execute_serve_cell"]


def execute_serve_cell(
    spec: RunSpec, trace: bool = False
) -> tuple[Any, Optional[dict]]:
    """Default cell executor: the cached runner, optionally traced.

    Untraced cells go through the run cache, and the result's
    ``cache_hits`` field tells the service whether this execution was
    served from disk.  Traced cells simulate fresh with spans on (the
    cache is bypassed both ways, mirroring ``repro profile``) and ship
    the Perfetto trace_event document alongside the result.
    """
    from repro.harness import runner

    if not trace:
        # A forked worker inherits its parent's in-process memo, whose
        # entries carry the parent's fresh-run accounting: answer from
        # the run cache instead, so ``cache_hits`` stays truthful.
        runner.clear_memory_cache()
        return execute_spec(spec), None

    from repro.telemetry.export import to_trace_events
    from repro.telemetry.spans import TELEMETRY_ENV

    machine = runner.get_machine(spec.machine, spec.n_gpus)
    with runner.pinned_env(TELEMETRY_ENV, "1"):
        result = runner._compute(
            spec.framework,
            spec.app,
            spec.dataset,
            spec.n_gpus,
            spec.validate,
            machine,
            seed=spec.seed,
        )
    trace_doc = None
    if result.telemetry is not None:
        trace_doc = to_trace_events(result.telemetry, result.time_ms * 1000.0)
        result.telemetry = None  # spans don't survive the pipe
    return result, trace_doc


@dataclass
class ServeConfig:
    """Everything the service needs; mirrored into the DES model."""

    host: str = "127.0.0.1"
    port: int = 8787
    workers: int = 2
    max_queue: int = 64
    weights: dict[str, int] = field(
        default_factory=lambda: dict(PRIORITY_CLASSES)
    )
    #: Per-request in-flight cell window (backpressure for sweeps).
    max_inflight_per_request: int = 4
    #: Per-cell wall-clock deadline inside a worker (None = none).
    cell_timeout_s: Optional[float] = None
    #: How long a drain waits for in-flight work before cancelling.
    drain_grace_s: float = 30.0
    #: Where the drained service writes its stats document.
    stats_path: Optional[str] = None
    #: Per-priority retry policies for worker-crash / deadline failures
    #: (in-worker exceptions are deterministic and never retried).
    retry: dict[str, RetryPolicy] = field(
        default_factory=lambda: dict(DEFAULT_RETRY_POLICIES)
    )
    #: Quarantine a spec after its workers crashed this many times
    #: (counted service-wide, across submits): further submits of the
    #: same run-cache key are refused with 422.
    quarantine_after: int = 3

    def to_json(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "max_queue": self.max_queue,
            "weights": dict(self.weights),
            "max_inflight_per_request": self.max_inflight_per_request,
            "cell_timeout_s": self.cell_timeout_s,
            "retry": {p: r.to_json() for p, r in self.retry.items()},
            "quarantine_after": self.quarantine_after,
        }


class _Cell:
    """One single-flighted execution unit."""

    __slots__ = (
        "key",
        "spec",
        "priority",
        "trace",
        "followers",
        "t_arrive",
        "state",
        "attempts",
    )

    def __init__(self, key: str, spec: RunSpec, priority: str, trace: bool):
        self.key = key
        self.spec = spec
        self.priority = priority
        self.trace = trace
        #: ``(request, cell_index)`` pairs to fan the outcome out to.
        #: The cell stays registered in ``service._cells`` through its
        #: whole retry loop, so followers attached mid-retry (and the
        #: original ones) all ride the retries — a crashed *attempt*
        #: is never fanned out, only the terminal outcome is.
        self.followers: list[tuple["_Request", int]] = []
        self.t_arrive = 0.0
        self.state = "queued"
        #: Executions dispatched so far (the first is attempt 1).
        self.attempts = 0


class _Request:
    """One accepted submit: its cells, stream history, and waiters."""

    def __init__(
        self,
        job_id: str,
        priority: str,
        specs: list[RunSpec],
        trace: bool,
        inflight_window: int,
    ):
        self.id = job_id
        self.priority = priority
        self.specs = specs
        self.trace = trace
        self.submitted = time.time()
        self.events: list[dict[str, Any]] = []
        self.cond = asyncio.Condition()
        self.sem = asyncio.Semaphore(inflight_window)
        self.results: dict[int, dict[str, Any]] = {}
        self.traces: dict[int, dict] = {}
        self.done_cells = 0
        self.failed_cells = 0

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def finished(self) -> bool:
        return self.done_cells >= self.total

    @property
    def state(self) -> str:
        if self.finished:
            return "failed" if self.failed_cells else "done"
        return "running" if self.results or self.events else "queued"

    def status_json(self) -> dict[str, Any]:
        return {
            "job_id": self.id,
            "state": self.state,
            "priority": self.priority,
            "cells_total": self.total,
            "cells_done": self.done_cells,
            "cells_failed": self.failed_cells,
            "results": [
                self.results[i] for i in sorted(self.results)
            ],
        }

    async def push_event(self, event: dict[str, Any]) -> None:
        async with self.cond:
            self.events.append(event)
            self.cond.notify_all()


class ReproService:
    """The serving layer: admission, scheduling, dedup, streaming."""

    def __init__(
        self,
        config: ServeConfig,
        run_fn: Callable[..., Any] = execute_serve_cell,
    ):
        self.config = config
        self.run_fn = run_fn
        self.scheduler = WeightedScheduler(
            config.weights, max_queue=config.max_queue
        )
        self.stats = ServiceStats(config=config.to_json())
        self.pool: Optional[WorkerPool] = None
        self._reaper: Optional[threading.Thread] = None
        self.draining = False
        self._requests: dict[str, _Request] = {}
        self._active: set[str] = set()
        self._cells: dict[str, _Cell] = {}
        #: Worker crashes per base run key (service-wide, across
        #: submits) — the quarantine trigger.
        self._crash_counts: dict[str, int] = {}
        #: Poisoned base run keys -> reason; submits touching one are
        #: refused with 422 before admission.
        self._quarantine: dict[str, str] = {}
        self._job_counter = 0
        self._work = asyncio.Event()
        self._space = asyncio.Condition()
        self._all_idle = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None

    # -- lifecycle --------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Start the worker pool and bind the listener; returns (host, port)."""
        self.pool = WorkerPool()
        self._reaper = threading.Thread(
            target=self._reap_loop, name="serve-reaper", daemon=True
        )
        self._reaper.start()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-dispatch"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until drained (``POST /drain`` or SIGINT/SIGTERM)."""
        host, port = await self.start()
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(up to {self.config.workers} cells at once, one forked "
            f"worker each, queue bound "
            f"{self.config.max_queue})",
            flush=True,
        )
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.create_task(self.drain()),
                    )
                except (NotImplementedError, RuntimeError):
                    pass  # pragma: no cover - non-unix
        await self._stopped.wait()

    def _reap_loop(self) -> None:
        """The pool's polling thread: forks, reaps, resolves futures."""
        while self.pool.poll():
            pass

    async def drain(self) -> None:
        """Graceful shutdown; idempotent."""
        if self.draining:
            return
        self.draining = True
        print("repro serve: draining...", flush=True)
        deadline = (
            asyncio.get_running_loop().time() + self.config.drain_grace_s
        )
        while self._active:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                break
            await asyncio.sleep(min(0.05, max(remaining, 0.01)))
        await self._cancel_queued()
        if self.config.stats_path:
            try:
                self.stats.write(self.config.stats_path)
                print(
                    f"repro serve: wrote stats to {self.config.stats_path}",
                    flush=True,
                )
            except OSError as exc:  # pragma: no cover - unwritable path
                print(f"repro serve: stats write failed: {exc}", flush=True)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        if self.pool is not None:
            # The reaper finishes the stop; only it touches the pipes.
            self.pool.stop(self.config.drain_grace_s)
            await asyncio.get_running_loop().run_in_executor(
                None, self._reaper.join
            )
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()
        print("repro serve: stopped", flush=True)

    async def _cancel_queued(self) -> None:
        """Drop still-queued cells after the drain grace expired."""
        cancelled = [cell for _, cell in iter_pop_all(self.scheduler)]
        for cell in cancelled:
            await self._drop_cell(cell)

    async def _drop_cell(self, cell: _Cell) -> None:
        """End a cell the drain stopped: followers see ``cancelled``."""
        self._cells.pop(cell.key, None)
        self.stats.record_cell(
            ArrivalRecord(
                cell.t_arrive, cell.priority, "cancelled", key=cell.key[:16]
            )
        )
        for request, index in cell.followers:
            await self._finish_follower(
                request,
                index,
                {
                    "cell": index,
                    "status": "cancelled",
                    "spec": spec_to_json(cell.spec),
                },
                failed=True,
            )

    # -- dispatch ---------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self.pool is not None
        while True:
            await self._work.wait()
            self._work.clear()
            while (
                len(self.scheduler)
                and self.pool.busy < self.config.workers
            ):
                popped = self.scheduler.pop()
                if popped is None:  # pragma: no cover - len() guarded
                    break
                _, cell = popped
                async with self._space:
                    self._space.notify_all()
                cell.state = "running"
                t_start = self.stats.now()
                future = self.pool.submit(
                    functools.partial(self.run_fn, trace=cell.trace),
                    cell.spec,
                    self.config.cell_timeout_s,
                )
                cell.attempts += 1
                asyncio.create_task(
                    self._await_cell(cell, t_start, future),
                    name=f"cell-{cell.key[:8]}",
                )

    # -- retry / quarantine ----------------------------------------------
    @staticmethod
    def _base_key(key: str) -> str:
        """The quarantine identity: the run key sans the trace bit."""
        return key[:-7] if key.endswith(":traced") else key

    def _record_crash(self, cell: _Cell) -> bool:
        """Count one worker crash against the spec; True = quarantined."""
        base = self._base_key(cell.key)
        count = self._crash_counts.get(base, 0) + 1
        self._crash_counts[base] = count
        if count >= self.config.quarantine_after and base not in (
            self._quarantine
        ):
            reason = (
                f"crashed its worker {count} time(s) "
                f"(threshold {self.config.quarantine_after})"
            )
            self._quarantine[base] = reason
            self.stats.quarantine[base[:16]] = reason
            self.stats.counters["service_quarantined"] += 1
            self.stats.counters["resilience_specs_quarantined"] += 1
        return base in self._quarantine

    def _maybe_retry(self, cell: _Cell, outcome: CellResult) -> bool:
        """Decide (and schedule) a retry for a failed attempt.

        Worker crashes and deadline kills are the worker's fault, not
        the spec's — retry under the priority class's policy, unless
        the crash count just tripped quarantine.  In-worker exceptions
        are deterministic: never retried.
        """
        policy = self.config.retry.get(cell.priority)
        if policy is None or self.draining:
            return False
        if isinstance(outcome.failure, WorkerCrashed):
            if self._record_crash(cell):
                return False  # poisoned: fail followers now
            self.stats.counters["service_respawn_retries"] += 1
        elif outcome.status == "timeout":
            if not policy.retry_timeouts:
                return False
        else:
            return False
        if cell.attempts >= policy.max_attempts:
            return False
        self.stats.counters["service_retries"] += 1
        self.stats.counters["resilience_jobs_retried"] += 1
        delay = backoff_s(policy, cell.attempts)
        cell.state = "retrying"
        asyncio.create_task(
            self._requeue_after(cell, delay),
            name=f"retry-{cell.key[:8]}",
        )
        return True

    async def _requeue_after(self, cell: _Cell, delay: float) -> None:
        await asyncio.sleep(delay)
        if self.draining:
            # Drained out from under the backoff.
            await self._drop_cell(cell)
            return
        cell.state = "queued"
        while not self.scheduler.offer(cell.priority, cell):
            async with self._space:
                await self._space.wait()
        self._work.set()

    async def _await_cell(self, cell: _Cell, t_start: float, future) -> None:
        await asyncio.wait([asyncio.wrap_future(future)])
        if future.cancelled():
            # The drain's grace ran out and the pool killed the worker.
            await self._drop_cell(cell)
            return
        result: CellResult = future.result()
        t_done = self.stats.now()
        if not result.ok and self._maybe_retry(cell, result):
            # The attempt failed but the cell lives on; nothing is
            # fanned out and the single-flight entry stays registered.
            self._work.set()
            return
        self._cells.pop(cell.key, None)
        cell.state = "done"
        run, trace_doc = result.result if result.ok else (None, None)
        status = "completed" if result.ok else "failed"
        self.stats.record_cell(
            ArrivalRecord(
                cell.t_arrive,
                cell.priority,
                status,
                service_s=t_done - t_start,
                t_start=t_start,
                t_done=t_done,
                key=cell.key[:16],
            )
        )
        if result.ok and getattr(run, "cache_hits", 0):
            self.stats.counters["service_cache_hits"] += 1
        if trace_doc is not None:
            self.stats.counters["service_trace_exports"] += 1
        summary_base = {
            "status": result.status,
            "wall_clock_s": round(result.wall_clock_s, 6),
            "attempts": cell.attempts,
        }
        if result.ok:
            summary_base.update(
                {
                    "digest": run.digest(),
                    "time_ms": run.time_ms,
                    "cache_hit": bool(run.cache_hits),
                }
            )
        else:
            summary_base["error"] = result.error.strip().splitlines()[-1:]
            if self._base_key(cell.key) in self._quarantine:
                summary_base["quarantined"] = True
        for request, index in cell.followers:
            summary = dict(summary_base)
            summary["cell"] = index
            summary["spec"] = spec_to_json(cell.spec)
            if trace_doc is not None:
                request.traces[index] = trace_doc
                summary["trace"] = True
            await self._finish_follower(
                request, index, summary, failed=not result.ok
            )
        self._work.set()

    async def _finish_follower(
        self,
        request: _Request,
        index: int,
        summary: dict[str, Any],
        failed: bool,
    ) -> None:
        request.results[index] = summary
        request.done_cells += 1
        if failed:
            request.failed_cells += 1
        request.sem.release()
        await request.push_event(dict(summary, event="cell"))
        if request.finished:
            self._active.discard(request.id)
            await request.push_event(
                {
                    "event": "done",
                    "job_id": request.id,
                    "state": request.state,
                    "cells_total": request.total,
                    "cells_failed": request.failed_cells,
                }
            )

    # -- submission -------------------------------------------------------
    async def _submit(self, body: dict[str, Any]) -> tuple[int, dict, dict]:
        """Handle one submit body -> (http_status, response, headers)."""
        if self.draining:
            return 503, {"error": "service is draining"}, {}
        priority = validate_priority(
            str(body.get("priority", DEFAULT_PRIORITY))
        )
        trace = bool(body.get("trace", False))
        specs = expand_sweep(body)
        keys = [self._cell_key(spec, trace) for spec in specs]
        self.stats.counters["service_requests"] += 1
        for spec, key in zip(specs, keys):
            reason = self._quarantine.get(self._base_key(key))
            if reason is not None:
                # 422, not 429: the request is well-formed and there
                # is capacity — this *spec* is poisoned, and retrying
                # the submit will not help.
                return (
                    422,
                    {
                        "error": "spec is quarantined",
                        "reason": reason,
                        "spec": spec_to_json(spec),
                    },
                    {},
                )
        if self.scheduler.full:
            self.stats.record_rejected(priority)
            retry = self.scheduler.retry_after_s(
                self.stats.mean_service_s(), self.config.workers
            )
            return (
                429,
                {
                    "error": "admission queue is full",
                    "queued": len(self.scheduler),
                    "retry_after_s": retry,
                },
                {"Retry-After": str(retry)},
            )
        self._job_counter += 1
        job_id = f"j{self._job_counter:05d}"
        request = _Request(
            job_id,
            priority,
            specs,
            trace,
            self.config.max_inflight_per_request,
        )
        self._requests[job_id] = request
        self._active.add(job_id)
        asyncio.create_task(
            self._feed(request, keys), name=f"feed-{job_id}"
        )
        return (
            202,
            {
                "job_id": job_id,
                "cells": len(specs),
                "priority": priority,
                "queued": len(self.scheduler),
            },
            {},
        )

    @staticmethod
    def _cell_key(spec: RunSpec, trace: bool) -> str:
        """The single-flight identity: the run-cache key (+trace bit).

        Traced executions bypass the run cache, so they never coalesce
        with untraced ones — a trace requester must get real spans.
        """
        from repro.harness.runner import run_key

        key = run_key(
            spec.framework,
            spec.app,
            spec.dataset,
            spec.machine,
            spec.n_gpus,
            spec.validate,
            seed=spec.seed,
        )
        return f"{key}:traced" if trace else key

    async def _feed(self, request: _Request, keys: list[str]) -> None:
        """Admit a request's cells under its in-flight window."""
        for index, (spec, key) in enumerate(zip(request.specs, keys)):
            await request.sem.acquire()
            await self._enqueue_cell(request, index, spec, key)

    async def _enqueue_cell(
        self, request: _Request, index: int, spec: RunSpec, key: str
    ) -> None:
        self.stats.counters["service_cells"] += 1
        existing = self._cells.get(key)
        if existing is not None:
            existing.followers.append((request, index))
            self.stats.counters["service_deduped"] += 1
            return
        cell = _Cell(key, spec, request.priority, request.trace)
        cell.followers.append((request, index))
        cell.t_arrive = self.stats.now()
        self._cells[key] = cell
        while not self.scheduler.offer(cell.priority, cell):
            # Queue full: per-request backpressure, not rejection —
            # the request was admitted; its cells wait for space.
            async with self._space:
                await self._space.wait()
        self._work.set()

    # -- HTTP layer -------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            try:
                method, path, _version = (
                    request_line.decode("latin-1").split()
                )
            except ValueError:
                await _respond_json(
                    writer, 400, {"error": "malformed request line"}
                )
                return
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", "0") or 0)
            if length:
                body = await reader.readexactly(length)
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            try:
                await _respond_json(writer, 500, {"error": repr(exc)})
            except ConnectionError:  # pragma: no cover
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _route(
        self, method: str, path: str, body: bytes, writer
    ) -> None:
        path, _, query = path.partition("?")
        if method == "GET" and path == "/healthz":
            await _respond_json(
                writer,
                200,
                {
                    "status": "draining" if self.draining else "ok",
                    "active_jobs": len(self._active),
                },
            )
        elif method == "GET" and path == "/stats":
            await _respond_json(writer, 200, self._stats_json())
        elif method == "POST" and path == "/submit":
            try:
                doc = json.loads(body.decode("utf-8") or "{}")
                status, payload, extra = await self._submit(doc)
            except ValueError as exc:
                status, payload, extra = 400, {"error": str(exc)}, {}
            await _respond_json(writer, status, payload, extra)
        elif method == "POST" and path == "/drain":
            asyncio.create_task(self.drain(), name="drain")
            await _respond_json(writer, 202, {"status": "draining"})
        elif path.startswith("/jobs/"):
            await self._route_job(method, path, query, writer)
        else:
            await _respond_json(
                writer, 404, {"error": f"no route {method} {path}"}
            )

    async def _route_job(
        self, method: str, path: str, query: str, writer
    ) -> None:
        parts = path.split("/")  # ['', 'jobs', id, maybe-verb]
        request = self._requests.get(parts[2]) if len(parts) > 2 else None
        if method != "GET" or request is None:
            await _respond_json(writer, 404, {"error": "unknown job"})
            return
        verb = parts[3] if len(parts) > 3 else ""
        if verb == "":
            await _respond_json(writer, 200, request.status_json())
        elif verb == "stream":
            await self._stream_job(request, writer)
        elif verb == "trace":
            cell = 0
            for pair in query.split("&"):
                if pair.startswith("cell="):
                    cell = int(pair[5:] or 0)
            trace = request.traces.get(cell)
            if trace is None:
                await _respond_json(
                    writer,
                    404,
                    {"error": f"no trace for cell {cell} (submit with "
                              f'"trace": true)'},
                )
            else:
                await _respond_json(writer, 200, trace)
        else:
            await _respond_json(writer, 404, {"error": f"no verb {verb!r}"})

    async def _stream_job(self, request: _Request, writer) -> None:
        """Replayable chunked NDJSON of the job's event history."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        sent = 0
        while True:
            async with request.cond:
                while sent >= len(request.events) and not request.finished:
                    await request.cond.wait()
                events = request.events[sent:]
            for event in events:
                chunk = (json.dumps(event) + "\n").encode("utf-8")
                writer.write(
                    f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n"
                )
                sent += 1
            await writer.drain()
            if sent >= len(request.events) and request.finished:
                break
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    def _stats_json(self) -> dict[str, Any]:
        doc = self.stats.to_json()
        doc["live"] = {
            "draining": self.draining,
            "queued": len(self.scheduler),
            "queue_depths": self.scheduler.depths(),
            "active_jobs": len(self._active),
            "workers": self.config.workers,
            "idle_workers": (
                self.config.workers - self.pool.busy
                if self.pool is not None
                else 0
            ),
            # Workers lost to a crash or a deadline kill (each cell
            # gets a fresh fork, so every loss is "respawned").
            "worker_respawns": (
                self.pool.workers_lost if self.pool is not None else 0
            ),
            "inflight_cells": len(self._cells),
            "quarantined_specs": len(self._quarantine),
        }
        # The arrival log can grow large; /stats trims it to a tail.
        doc["arrivals"] = doc["arrivals"][-50:]
        return doc


def iter_pop_all(scheduler: WeightedScheduler):
    """Drain a scheduler to a list of ``(priority, job)`` pairs."""
    while True:
        popped = scheduler.pop()
        if popped is None:
            return
        yield popped


async def _respond_json(
    writer, status: int, payload: Any, extra_headers: Optional[dict] = None
) -> None:
    reason = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        422: "Unprocessable Entity",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }.get(status, "OK")
    body = json.dumps(payload).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
    await writer.drain()
