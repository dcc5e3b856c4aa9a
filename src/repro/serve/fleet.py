"""Persistent warm worker fleet for the serving layer.

:mod:`repro.harness.pool` forks one process per grid cell — right for
a batch grid, wrong for a service: a long-running server wants workers
that stay warm (loaded datasets, populated in-process memo, imported
driver stack) and are *reused* across requests.  This module keeps
``n`` worker processes alive, each running a recv/execute/send loop
over a duplex pipe, with the same failure envelope the pool
established: a worker that raises reports the traceback, one that
exceeds its deadline is killed, one that dies outright is detected by
pipe EOF — and in every case the fleet **respawns a replacement**, so
a poisoned cell degrades one request, never the service.

Thread model: ``submit`` is called from the event-loop thread (the
service guarantees an idle worker first); a single reaper thread waits
on all worker pipes and resolves :class:`concurrent.futures.Future`\\ s,
which asyncio consumes via ``wrap_future``.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from concurrent.futures import Future
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Optional

from repro.errors import WorkerCrashed
from repro.harness.pool import CellResult, RunSpec, _mp_context

__all__ = ["FleetResult", "WorkerFleet", "execute_serve_cell"]

#: Reaper poll interval (s): deadline checks between pipe waits.
_REAP_POLL_S = 0.1


def execute_serve_cell(
    spec: RunSpec, trace: bool = False
) -> tuple[Any, Optional[dict]]:
    """Default cell executor: the cached runner, optionally traced.

    Untraced cells go through :func:`repro.harness.runner.run` — the
    two-level cache makes repeated cells nearly free, and the result's
    ``cache_hits`` field tells the service whether this execution was
    served from disk.  Traced cells simulate fresh with spans on (the
    cache is bypassed both ways, mirroring ``repro profile``) and ship
    the Perfetto trace_event document alongside the result.
    """
    from repro.harness import runner

    if not trace:
        key = runner.run_key(
            spec.framework,
            spec.app,
            spec.dataset,
            spec.machine,
            spec.n_gpus,
            spec.validate,
            seed=spec.seed,
        )
        memo_hit = key in runner._memo
        result = runner.run(
            spec.framework,
            spec.app,
            spec.dataset,
            spec.machine,
            spec.n_gpus,
            validate=spec.validate,
            seed=spec.seed,
        )
        if memo_hit and not result.cache_hits:
            # A warm-worker memo hit is a cache hit as far as the
            # service is concerned; report it on a copy so the
            # worker's memoized object keeps its fresh-run accounting.
            result = replace(result, cache_hits=1, cache_misses=0)
        return result, None

    from repro.harness.runner import _compute, get_machine
    from repro.telemetry.export import to_trace_events
    from repro.telemetry.spans import TELEMETRY_ENV

    machine = get_machine(spec.machine, spec.n_gpus)
    saved = os.environ.get(TELEMETRY_ENV)
    os.environ[TELEMETRY_ENV] = "1"
    try:
        result = _compute(
            spec.framework,
            spec.app,
            spec.dataset,
            spec.n_gpus,
            spec.validate,
            machine,
            seed=spec.seed,
        )
    finally:
        if saved is None:
            os.environ.pop(TELEMETRY_ENV, None)
        else:
            os.environ[TELEMETRY_ENV] = saved
    trace_doc = None
    if result.telemetry is not None:
        trace_doc = to_trace_events(result.telemetry, result.time_ms * 1000.0)
        result.telemetry = None  # spans don't survive the pipe
    return result, trace_doc


def _fleet_worker_main(conn, run_fn) -> None:
    """Worker loop: recv ``(tag, spec, trace)``, execute, send back."""
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:  # drain sentinel
                break
            tag, spec, trace = message
            start = time.perf_counter()
            try:
                result, trace_doc = run_fn(spec, trace)
                conn.send(
                    (
                        tag,
                        "ok",
                        result,
                        time.perf_counter() - start,
                        trace_doc,
                    )
                )
            except BaseException:
                conn.send(
                    (
                        tag,
                        "error",
                        traceback.format_exc(),
                        time.perf_counter() - start,
                        None,
                    )
                )
    finally:
        conn.close()


@dataclass
class FleetResult:
    """What a worker produced for one cell."""

    cell: CellResult
    trace: Optional[dict] = None
    #: Index of the worker that ran (or was killed for) this cell.
    worker: int = -1
    #: Set when the worker *process* died under the job (pipe EOF) —
    #: the typed signal the service's retry/quarantine policy keys on,
    #: as opposed to an in-worker exception (``cell.status ==
    #: "error"``, deterministic, never retried).
    failure: Optional[WorkerCrashed] = None


class _Worker:
    """One live fleet member."""

    __slots__ = ("index", "process", "conn", "job")

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: (tag, spec, future, deadline) while busy, else None.
        self.job: Optional[tuple[int, RunSpec, Future, Optional[float]]] = None


class WorkerFleet:
    """``n`` persistent worker processes with crash respawn and drain."""

    def __init__(
        self,
        workers: int,
        run_fn: Callable[[RunSpec, bool], tuple[Any, Optional[dict]]]
        = execute_serve_cell,
        timeout_s: Optional[float] = None,
        on_idle: Optional[Callable[[], None]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.n_workers = workers
        self.run_fn = run_fn
        self.timeout_s = timeout_s
        #: Called (from the reaper thread) whenever a worker frees up;
        #: the service bridges this into its asyncio loop.
        self.on_idle = on_idle
        self._ctx = _mp_context()
        self._lock = threading.Lock()
        self._workers: dict[int, _Worker] = {}
        self._tag = 0
        self._next_index = workers
        self._closing = False
        self.respawns = 0
        for index in range(workers):
            self._workers[index] = self._spawn(index)
        self._reaper = threading.Thread(
            target=self._reap_loop, name="fleet-reaper", daemon=True
        )
        self._reaper.start()

    # -- lifecycle --------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(child_conn, self.run_fn),
            daemon=True,
            name=f"repro-fleet-{index}",
        )
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    @property
    def idle_count(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.job is None)

    @property
    def busy_count(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.job is not None)

    def submit(
        self,
        spec: RunSpec,
        trace: bool = False,
        timeout_s: Optional[float] = None,
    ) -> "Future[FleetResult]":
        """Hand ``spec`` to an idle worker; raises if none is idle.

        The service's scheduler loop only dispatches while
        ``idle_count > 0``, so hitting the ``RuntimeError`` means a
        bookkeeping bug, not load.
        """
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        future: Future[FleetResult] = Future()
        with self._lock:
            if self._closing:
                raise RuntimeError("fleet is draining")
            worker = next(
                (w for w in self._workers.values() if w.job is None), None
            )
            if worker is None:
                raise RuntimeError("no idle worker")
            self._tag += 1
            deadline = (
                time.monotonic() + timeout_s if timeout_s else None
            )
            worker.job = (self._tag, spec, future, deadline)
            worker.conn.send((self._tag, spec, trace))
        return future

    # -- reaper -----------------------------------------------------------
    # Ownership: whichever thread removes a worker from ``_workers``
    # (under the lock) is the only one that stops its process or closes
    # its connection — the reaper for deaths and deadline kills, the
    # draining thread for everything it takes, closing those only after
    # the reaper has exited.  A job is resolved by whichever thread
    # clears ``worker.job`` first, so no future resolves twice.
    def _reap_loop(self) -> None:
        while True:
            with self._lock:
                if self._closing and not self._workers:
                    return
                conns = {
                    w.conn: w for w in self._workers.values()
                }
            if not conns:
                time.sleep(_REAP_POLL_S)
                continue
            ready = _wait_connections(list(conns), timeout=_REAP_POLL_S)
            now = time.monotonic()
            for conn in ready:
                worker = conns[conn]
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._handle_death(worker)
                    continue
                self._handle_message(worker, message)
            self._check_deadlines(now)

    def _handle_message(self, worker: _Worker, message) -> None:
        tag, status, payload, wall, trace_doc = message
        with self._lock:
            job = worker.job
            worker.job = None
        if job is None or job[0] != tag:
            return  # stale reply from a pre-kill job; drop it
        _, spec, future, _ = job
        if status == "ok":
            cell = CellResult(spec, "ok", result=payload, wall_clock_s=wall)
        else:
            cell = CellResult(spec, "error", error=payload, wall_clock_s=wall)
        future.set_result(
            FleetResult(cell=cell, trace=trace_doc, worker=worker.index)
        )
        self._notify_idle()

    def _handle_death(self, worker: _Worker) -> None:
        """Pipe EOF: the worker died.  Fail its job and respawn."""
        with self._lock:
            job = worker.job
            worker.job = None  # the death path owns it from here
            owned = self._workers.pop(worker.index, None) is not None
        if owned:
            worker.process.join(timeout=5.0)
            worker.conn.close()
        if job is not None:
            self._fail_crashed(worker, job)
        if owned:
            self._respawn()

    def _fail_crashed(self, worker: _Worker, job) -> None:
        tag, spec, future, _ = job
        future.set_result(
            FleetResult(
                cell=CellResult(
                    spec,
                    "crashed",
                    error="fleet worker died without reporting a result",
                ),
                worker=worker.index,
                failure=WorkerCrashed(
                    tag, f"{spec.framework}:{spec.app}:{spec.dataset}"
                ),
            )
        )

    def _respawn(self) -> None:
        with self._lock:
            if self._closing:
                return
            index = self._next_index
            self._next_index += 1
            self._workers[index] = self._spawn(index)
            self.respawns += 1
        self._notify_idle()

    def _check_deadlines(self, now: float) -> None:
        expired = []
        with self._lock:
            for worker in list(self._workers.values()):
                if worker.job is not None and worker.job[3] is not None:
                    if now > worker.job[3]:
                        expired.append((worker, worker.job))
                        worker.job = None
                        del self._workers[worker.index]
        for worker, job in expired:
            _stop_process(worker.process)
            worker.conn.close()
            _, spec, future, _ = job
            future.set_result(
                FleetResult(
                    cell=CellResult(
                        spec,
                        "timeout",
                        error="exceeded the per-cell deadline",
                    ),
                    worker=worker.index,
                )
            )
            self._respawn()

    def _notify_idle(self) -> None:
        if self.on_idle is not None:
            try:
                self.on_idle()
            except Exception:  # pragma: no cover - callback bug
                pass

    # -- drain ------------------------------------------------------------
    def drain(self, grace_s: float = 30.0) -> None:
        """Let in-flight cells finish, then stop every worker.

        Busy workers get up to ``grace_s`` to report; survivors are
        terminated and their cells resolve as crashed.  Safe to call
        more than once.
        """
        with self._lock:
            self._closing = True
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline and self.busy_count:
            time.sleep(0.05)
        self._stop(graceful=True)

    def kill(self) -> None:
        """Hard stop: no grace, no sentinels."""
        with self._lock:
            self._closing = True
        self._stop(graceful=False)

    def _stop(self, graceful: bool) -> None:
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        if graceful:
            for worker in workers:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        for worker in workers:
            if graceful:
                _stop_process(worker.process, grace_s=2.0)
            else:
                worker.process.kill()
                worker.process.join(timeout=5.0)
        # With ``_workers`` empty and ``_closing`` set the reaper exits
        # within one poll; after that this thread alone touches these
        # connections and any job the reaper did not resolve.
        self._reaper.join()
        for worker in workers:
            worker.conn.close()
            with self._lock:
                job = worker.job
                worker.job = None
            if job is not None:
                self._fail_crashed(worker, job)


def _stop_process(process, grace_s: float = 0.0) -> None:
    """Wait ``grace_s`` for ``process`` to exit, then SIGTERM, then SIGKILL."""
    process.join(timeout=grace_s)
    for signal_process in (process.terminate, process.kill):
        if not process.is_alive():
            return
        signal_process()
        process.join(timeout=2.0)
