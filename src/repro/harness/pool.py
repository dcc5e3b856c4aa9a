"""Parallel experiment pool: fan a run grid out over worker processes.

The evaluation grid is embarrassingly parallel — every (framework, app,
dataset, machine, #GPUs) cell is an independent deterministic
simulation — so :class:`WorkerPool` simply runs each cell in its own
forked process.  Taking the host off the cells' critical path, the
pool builds each cell's inputs (dataset, BFS source, partition, serial
reference) once, in the parent, just before the fork
(:func:`repro.harness.runner.prepare_inputs`); every worker shares
them copy-on-write instead of rebuilding them.  Echoing the paper's
scheduling philosophy, consistency is decoupled from synchronization:
the inputs are immutable, results travel only through each worker's
pipe and the persistent run cache (whose atomic writes make concurrent
stores benign), and :func:`run_grid` reassembles results in *spec
order* regardless of completion order, so pooled output is
bit-identical to a serial run.  The pool has no threads of its own:
its caller submits, polls and stops it from one thread, so every
worker is forked from a single-threaded process.

Failure isolation is per cell: a worker that raises reports the
traceback, a worker that exceeds its deadline is killed, and a worker
that dies outright (segfault, ``SIGKILL``) is detected by pipe EOF —
in every case only that cell is marked failed and the rest of the grid
completes.

``jobs <= 1`` runs cells serially in-process (sharing the in-memory
memo, no subprocess overhead); ``jobs == 0`` means "one per CPU".  The
default comes from the ``REPRO_JOBS`` environment variable.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "JOBS_ENV",
    "RunSpec",
    "CellResult",
    "GridFailure",
    "GridInterrupted",
    "WorkerPool",
    "resolve_jobs",
    "grid_specs",
    "execute_spec",
    "run_grid",
    "run_cells",
]

#: Environment variable giving the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Default :meth:`WorkerPool.poll` wait (s): how often per-cell
#: deadlines are checked while no pipe is ready.
_REAP_POLL_S = 0.05


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment grid."""

    framework: str
    app: str
    dataset: str
    machine: str
    n_gpus: int
    validate: bool = True
    #: Partition seed for the run.  0 is the evaluation default; other
    #: values re-partition the graph, giving independent repetitions of
    #: a cell (``--seed`` on the grid CLIs).
    seed: int = 0
    #: Optional :class:`repro.config.ConfigOverlay` of tuning-knob
    #: overrides (batch/wait/fetch, engine queue, partitioned
    #: execution).  Frozen and hashable, so an overlaid spec still
    #: works as a dict key; ``None`` is the plain evaluation cell.
    overlay: Any = None

    def label(self) -> str:
        suffix = f"/seed{self.seed}" if self.seed else ""
        if self.overlay:
            knobs = ",".join(
                f"{k}={v}" for k, v in sorted(self.overlay.as_dict().items())
            )
            suffix += f"[{knobs}]"
        return (
            f"{self.framework}/{self.app}/{self.dataset}/"
            f"{self.machine}/{self.n_gpus}gpu{suffix}"
        )


@dataclass
class CellResult:
    """Outcome of one pooled cell: a result or an isolated failure."""

    spec: RunSpec
    #: ``ok`` | ``error`` (raised) | ``timeout`` (killed at deadline) |
    #: ``crashed`` (died without reporting).
    status: str
    result: Any = None
    error: str = ""
    wall_clock_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class GridFailure(RuntimeError):
    """Raised by :func:`run_cells` when any grid cell failed."""

    def __init__(self, failures: Sequence[CellResult]):
        self.failures = list(failures)
        lines = [
            f"{cell.spec.label()}: {cell.status}"
            + (f" ({cell.error.strip().splitlines()[-1]})" if cell.error else "")
            for cell in self.failures
        ]
        super().__init__(
            f"{len(self.failures)} grid cell(s) failed:\n" + "\n".join(lines)
        )


class GridInterrupted(KeyboardInterrupt):
    """A grid run stopped by SIGINT/SIGTERM after a graceful drain.

    Subclasses ``KeyboardInterrupt`` so existing Ctrl-C handling (the
    CLI's, pytest's) still sees an interrupt, but carries what the
    drain salvaged: every cell that finished before or during the
    drain, and the specs that never ran.
    """

    def __init__(
        self, cells: Sequence[CellResult], unstarted: Sequence[RunSpec]
    ):
        self.cells = list(cells)
        self.unstarted = list(unstarted)
        KeyboardInterrupt.__init__(self)

    def __str__(self) -> str:  # KeyboardInterrupt's default is ""
        return (
            f"grid interrupted: {len(self.cells)} cell(s) salvaged, "
            f"{len(self.unstarted)} never ran"
        )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request: None -> $REPRO_JOBS or 1, 0 -> n_cpus."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        jobs = int(env) if env else 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def grid_specs(
    app: str,
    frameworks: Iterable[str],
    datasets: Iterable[str],
    machine: str,
    gpu_counts: Iterable[int],
    skip: Iterable[tuple[str, str]] = frozenset(),
    seed: int = 0,
) -> list[RunSpec]:
    """Specs for a full grid, in the deterministic serial-loop order."""
    skip = set(skip)
    return [
        RunSpec(framework, app, dataset, machine, n, seed=seed)
        for framework in frameworks
        for dataset in datasets
        if (framework, dataset) not in skip
        for n in gpu_counts
    ]


def execute_spec(spec: RunSpec) -> Any:
    """Default cell driver: the cached harness runner."""
    from repro.harness import runner

    return runner.run(
        spec.framework,
        spec.app,
        spec.dataset,
        spec.machine,
        spec.n_gpus,
        validate=spec.validate,
        seed=spec.seed,
        overlay=spec.overlay,
    )


def _prepare_inputs(spec: Any) -> None:
    """Build a :class:`RunSpec` cell's inputs in this (the forking) process.

    Best effort: a cell whose inputs cannot be built (an unknown
    dataset, say) is forked anyway, and its worker reports the same
    error as the cell's ``error``.
    """
    if not isinstance(spec, RunSpec):
        return
    from repro.harness import runner

    try:
        runner.prepare_inputs(spec)
    except Exception:
        pass


def _worker_main(conn, spec: RunSpec, run_fn: Callable[[RunSpec], Any]) -> None:
    """Worker entry point: run one cell, ship (status, payload, wall)."""
    # Forked while the parent deferred interrupts: the inherited latch
    # handler would swallow ``terminate()``, so restore the defaults.
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
    start = time.perf_counter()
    try:
        result = run_fn(spec)
        conn.send(("ok", result, time.perf_counter() - start))
    except BaseException:
        conn.send(
            ("error", traceback.format_exc(), time.perf_counter() - start)
        )
    finally:
        conn.close()


def _mp_context():
    """Prefer fork (cheap, inherits warm module state); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _stop_process(process, grace_s: float = 0.0) -> None:
    """Wait ``grace_s`` for ``process`` to exit, then SIGTERM, then SIGKILL."""
    process.join(timeout=grace_s)
    for signal_process in (process.terminate, process.kill):
        if not process.is_alive():
            return
        signal_process()
        process.join(timeout=2.0)


class _sigterm_as_interrupt:
    """Route SIGTERM through ``KeyboardInterrupt`` for the grid's scope.

    ``kill <pid>`` on a grid run should drain exactly like Ctrl-C does.
    Only possible from the main thread (signal handlers are a
    main-thread affair); elsewhere this is a no-op and SIGTERM keeps
    its default fatal behaviour.
    """

    def __enter__(self):
        self._previous = None
        if threading.current_thread() is threading.main_thread():
            try:
                self._previous = signal.signal(
                    signal.SIGTERM, self._raise_interrupt
                )
            except (ValueError, OSError):  # pragma: no cover - exotic host
                self._previous = None
        return self

    def __exit__(self, *exc):
        if self._previous is not None:
            try:
                signal.signal(signal.SIGTERM, self._previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        return False

    @staticmethod
    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt


@contextlib.contextmanager
def _deferred_interrupts():
    """Hold SIGINT/SIGTERM across a supervisor bookkeeping section.

    The supervisor's state transitions (registering a freshly forked
    worker, recording a received result) must be atomic with respect
    to the interrupt that triggers a drain: a ``KeyboardInterrupt``
    landing between ``process.start()`` and the ``live`` registration
    would leak the worker and lose its cell from both the salvage and
    the unstarted report.

    A thread signal mask is *not* enough here: a process-directed
    signal is delivered on any thread with it unmasked, and CPython
    then runs the Python-level handler on the main thread's next
    bytecode regardless of the main thread's own mask.  So defer at
    the handler level instead — swap in a latch that records the
    signal, and re-raise ``KeyboardInterrupt`` once the section's
    mutations are complete.  ``signal.signal`` is main-thread-only;
    elsewhere this is a no-op (matching ``_sigterm_as_interrupt``).
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    latched: list[int] = []

    def latch(signum, frame):
        latched.append(signum)

    previous = {}
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, latch)
    except (ValueError, OSError):  # pragma: no cover - exotic host
        for sig, old in previous.items():
            signal.signal(sig, old)
        yield
        return
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        if latched:
            raise KeyboardInterrupt


@dataclass
class _Job:
    """One submitted cell; ``process``/``conn`` are set once it forks."""

    run_fn: Callable[[RunSpec], Any]
    spec: RunSpec
    timeout_s: Optional[float]
    process: Any = None
    conn: Any = None
    started: float = 0.0
    #: The cell's :class:`CellResult` once it resolves.  ``None`` while
    #: it is queued or running, and for good if it was cancelled: by a
    #: :meth:`WorkerPool.stop` before it forked, or killed at the end
    #: of the stop's grace.
    result: Optional[CellResult] = None


class WorkerPool:
    """Fork-per-cell worker supervisor, driven by its caller's poll loop.

    :meth:`submit` queues a cell and returns its job, whose ``result``
    slot receives the cell's :class:`CellResult`; :meth:`poll` forks
    queued cells, waits on their pipes and deadlines, and resolves
    each as ``ok``, ``error``, ``timeout`` or ``crashed``;
    :meth:`stop` drains the pool or kills it.  Each worker runs one
    cell, sends one ``(status, payload, wall)`` message and exits.
    The caller bounds concurrency by keeping :attr:`busy` under its
    limit.

    Before it forks a :class:`RunSpec` cell, ``poll`` builds the cell's
    inputs into this process's caches, so the worker inherits them and
    shares them copy-on-write; a cell the run cache already holds
    builds nothing.  The parent keeps what it built, one dataset per
    name and one partition per (dataset, #GPUs, seed).

    Single-threaded by construction: ``submit``, ``poll`` and ``stop``
    are called from one thread, which alone forks workers, reads,
    kills and closes them, and resolves jobs, so a job resolves at
    most once and each pipe has one closer.  :func:`run_grid` is that
    caller, and forks from a process with no other threads.  A fork
    refused by the OS (``EAGAIN``, ``ENOMEM``, ``EMFILE``) fails only
    its cell, as ``error``.
    """

    def __init__(self):
        self._ctx = _mp_context()
        self._queued: deque[_Job] = deque()
        self._live: dict[Any, _Job] = {}
        self._stop_at: Optional[float] = None
        self._closed = False
        #: Cells submitted and not yet resolved (queued or running).
        self.busy = 0
        #: Workers lost to a crash or a deadline kill.
        self.workers_lost = 0

    def submit(
        self,
        run_fn: Callable[[RunSpec], Any],
        spec: RunSpec,
        timeout_s: Optional[float] = None,
    ) -> _Job:
        """Queue ``run_fn(spec)``; the next :meth:`poll` forks it.

        ``timeout_s`` is the cell's wall-clock deadline from its fork.
        """
        if self._stop_at is not None:
            raise RuntimeError("worker pool is stopping")
        job = _Job(run_fn, spec, timeout_s)
        self._queued.append(job)
        self.busy += 1
        return job

    def stop(self, grace_s: float = 0.0) -> None:
        """Refuse new cells, cancel queued ones, give running ones ``grace_s``.

        :meth:`poll` completes the stop: once the running cells are
        done or the grace has run out, it kills the survivors (their
        ``result`` stays ``None``), closes every pipe and returns
        False.  A later call can only shorten the grace.
        """
        stop_at = time.monotonic() + grace_s
        if self._stop_at is None or stop_at < self._stop_at:
            self._stop_at = stop_at
        self.busy -= len(self._queued)
        self._queued.clear()

    def poll(self, timeout: Optional[float] = None) -> bool:
        """Fork queued cells, wait up to ``timeout`` s, resolve what finished.

        Returns False once a :meth:`stop` has completed.  The wait and
        the input builds before each fork are the interruption points:
        on the main thread the bookkeeping around them holds
        SIGINT/SIGTERM, so when an interrupt propagates every cell is
        queued, live or resolved — never forked but untracked.
        """
        if self._closed:
            return False
        timeout = _REAP_POLL_S if timeout is None else timeout
        self._launch_queued()
        if self._stop_at is not None:
            timeout = min(timeout, max(0.0, self._stop_at - time.monotonic()))
        ready = _wait_connections(list(self._live), timeout=timeout)
        with _deferred_interrupts():
            return self._reap(set(ready))

    def _launch_queued(self) -> None:
        while self._queued:
            # Outside the deferred section, so an interrupt during a
            # build leaves the cell queued and the drain cancels it.
            _prepare_inputs(self._queued[0].spec)
            with _deferred_interrupts():
                self._launch(self._queued.popleft())

    def _launch(self, job: _Job) -> None:
        job.started = time.monotonic()
        try:
            job.conn = self._fork(job)
        except OSError:
            # Out of processes, memory or descriptors (EAGAIN,
            # ENOMEM, EMFILE): this cell fails, the pool goes on.
            self._resolve(
                job,
                CellResult(job.spec, "error", error=traceback.format_exc()),
            )
        else:
            self._live[job.conn] = job

    def _fork(self, job: _Job):
        """Start ``job``'s worker; returns the parent end of its pipe."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        try:
            # Not daemonic: a cell may start processes of its own (a
            # pooled-PDES kill cell does), and the pool reaps every
            # worker itself.
            job.process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, job.spec, job.run_fn),
                name="repro-cell",
            )
            job.process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            # Close our copy of the child end so EOF is observable the
            # moment the worker dies.
            child_conn.close()
        return parent_conn

    def _reap(self, ready: set) -> bool:
        now = time.monotonic()
        for conn, job in list(self._live.items()):
            if conn in ready:
                try:
                    status, payload, wall = conn.recv()
                except (EOFError, OSError):
                    # Pipe closed without a message: the worker died
                    # mid-run (e.g. SIGKILL / segfault).
                    self.workers_lost += 1
                    cell = CellResult(
                        job.spec,
                        "crashed",
                        error="worker died without reporting a result",
                        wall_clock_s=now - job.started,
                    )
                else:
                    cell = CellResult(job.spec, status, wall_clock_s=wall)
                    if status == "ok":
                        cell.result = payload
                    else:
                        cell.error = payload
                self._finish(job, cell)
            elif job.timeout_s and now > job.started + job.timeout_s:
                _stop_process(job.process)
                self.workers_lost += 1
                self._finish(
                    job,
                    CellResult(
                        job.spec,
                        "timeout",
                        error=f"exceeded {job.timeout_s:.3g}s deadline",
                        wall_clock_s=now - job.started,
                    ),
                )
        if self._stop_at is None or (self._live and now < self._stop_at):
            return True
        for job in list(self._live.values()):
            job.process.kill()
            self._finish(job, None)
        self._closed = True
        return False

    def _finish(self, job: _Job, cell: Optional[CellResult]) -> None:
        """Reap ``job``'s worker, then resolve it (None cancels)."""
        del self._live[job.conn]
        job.conn.close()
        _stop_process(job.process, grace_s=5.0)
        self._resolve(job, cell)

    def _resolve(self, job: _Job, cell: Optional[CellResult]) -> None:
        """Hand ``job``'s slot back and store its result (None cancels)."""
        self.busy -= 1
        job.result = cell


def _run_serial(
    specs: list[RunSpec], run_fn: Callable[[RunSpec], Any]
) -> list[CellResult]:
    results = []
    for spec in specs:
        start = time.perf_counter()
        try:
            value = run_fn(spec)
            results.append(
                CellResult(
                    spec,
                    "ok",
                    result=value,
                    wall_clock_s=time.perf_counter() - start,
                )
            )
        except Exception:
            results.append(
                CellResult(
                    spec,
                    "error",
                    error=traceback.format_exc(),
                    wall_clock_s=time.perf_counter() - start,
                )
            )
    return results


def run_grid(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    run_fn: Callable[[RunSpec], Any] = execute_spec,
    drain_grace_s: float = 30.0,
) -> list[CellResult]:
    """Run every spec, ``jobs`` at a time; results are in spec order.

    With ``jobs <= 1`` the grid runs serially in-process (exceptions
    become ``error`` cells; ``timeout_s`` is not enforced — a hang
    cannot be pre-empted without a subprocess).  With ``jobs > 1`` each
    cell gets its own process, a ``timeout_s`` deadline, and crash
    isolation: one failed cell never stops the rest of the grid.  The
    :class:`WorkerPool` is polled on the calling thread, so workers
    are forked from a process with no other threads of the pool's.

    SIGINT/SIGTERM trigger a **graceful drain** instead of orphaning
    workers: no new cells launch, in-flight cells get up to
    ``drain_grace_s`` to finish (their results are kept), survivors
    are killed and reaped, and :class:`GridInterrupted` is raised
    carrying the salvage.  A second interrupt skips the grace.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return _run_serial(specs, run_fn)

    pool = WorkerPool()
    submitted: list[_Job] = []
    interrupted = False
    with _sigterm_as_interrupt():
        try:
            while len(submitted) < len(specs) or pool.busy:
                while len(submitted) < len(specs) and pool.busy < jobs:
                    spec = specs[len(submitted)]
                    submitted.append(pool.submit(run_fn, spec, timeout_s))
                pool.poll()
        except KeyboardInterrupt:
            # Graceful drain: stop launching, give in-flight cells a
            # grace window, keep whatever they report.
            interrupted = True
            pool.stop(drain_grace_s)
            try:
                while pool.poll():
                    pass
            except KeyboardInterrupt:
                pass  # second interrupt: drop the grace, kill now
        finally:
            # Never leak workers on any exit path: under an interrupt
            # this kills and reaps the drain's survivors.
            pool.stop()
            while pool.poll():
                pass

    done = [job.result for job in submitted if job.result is not None]
    if interrupted:
        # A cancelled job is a cell that never ran or was killed by
        # the drain; a submit the interrupt cut short never got its
        # job appended, and stop() cancelled it.
        unstarted = [job.spec for job in submitted if job.result is None]
        raise GridInterrupted(done, unstarted + specs[len(submitted):])
    return done


def run_cells(
    specs: Iterable[RunSpec],
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> dict[RunSpec, Any]:
    """Run a grid and return {spec: RunResult}; raise if any cell failed.

    The strict counterpart of :func:`run_grid` for table/figure code,
    which needs every cell present.  Successful results are also seeded
    into the in-process memo so follow-up ``run()`` calls (and grids
    that share cells) hit memory instead of re-reading the disk cache.
    """
    from repro.harness import runner

    cells = run_grid(specs, jobs=jobs, timeout_s=timeout_s)
    failures = [cell for cell in cells if not cell.ok]
    if failures:
        raise GridFailure(failures)
    out = {}
    for cell in cells:
        out[cell.spec] = cell.result
        runner.seed_memo(cell.spec, cell.result)
    return out
