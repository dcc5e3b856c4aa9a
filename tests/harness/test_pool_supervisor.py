"""The worker supervisor, driven by submit/poll/stop on one thread.

:func:`run_grid` is the pool's driver and polls on its calling thread,
so these tests drive :class:`WorkerPool` the same way: deadline kills
under load, a worker killed mid-cell, a drain racing workers that exit
on their own (every pipe closed exactly once), and a fork that fails.
Every fork therefore comes from a single-threaded process.
"""

import contextlib
import errno
import os
import signal
import threading
import time
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess

import pytest

from repro.harness.pool import RunSpec, WorkerPool, run_grid

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: Where cells record their worker pid (set per-test via env so forked
#: workers inherit it).
_PID_DIR_ENV = "REPRO_TEST_PID_DIR"


def sleepy_run(spec):
    """Sleep ``seed`` ms, then echo the label (module-level for fork)."""
    pid_dir = os.environ.get(_PID_DIR_ENV)
    if pid_dir:
        with open(os.path.join(pid_dir, f"{spec.seed}.pid"), "w") as fh:
            fh.write(str(os.getpid()))
    time.sleep(spec.seed / 1000.0)
    return spec.label()


def exit_run(spec):
    """Die ``seed`` ms into the cell without replying (module-level)."""
    time.sleep(spec.seed / 1000.0)
    os._exit(3)


def _spec(seed: int) -> RunSpec:
    return RunSpec(
        framework="atos-standard-persistent",
        app="bfs",
        dataset="hollywood-2009",
        machine="daisy",
        n_gpus=1,
        seed=seed,
    )


@contextlib.contextmanager
def running_pool():
    """A pool that is stopped and fully reaped however the test exits."""
    pool = WorkerPool()
    try:
        yield pool
    finally:
        pool.stop(grace_s=5.0)
        while pool.poll():
            pass


def resolve(pool, job, limit_s=30.0):
    """Poll ``pool`` on this thread until ``job`` resolves."""
    deadline = time.monotonic() + limit_s
    while job.result is None:
        assert time.monotonic() < deadline, "cell never resolved"
        pool.poll()
    return job.result


def test_deadline_kill_under_load_then_recovers():
    with running_pool() as pool:
        # One cell that must die at its deadline, one that must not:
        # the kill must be surgical under concurrent load.
        doomed = pool.submit(sleepy_run, _spec(seed=5000), timeout_s=1.0)
        healthy = pool.submit(sleepy_run, _spec(seed=10), timeout_s=1.0)
        assert resolve(pool, healthy).status == "ok"
        assert resolve(pool, doomed).status == "timeout"
        assert pool.workers_lost == 1
        # The pool serves new work immediately.
        again = resolve(pool, pool.submit(sleepy_run, _spec(seed=10)))
        assert again.status == "ok"
        assert pool.busy == 0


def test_killed_worker_resolves_once_as_crashed(tmp_path, monkeypatch):
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    resolutions = []
    record = WorkerPool._resolve

    def recording_resolve(pool, job, cell):
        resolutions.append(job)
        record(pool, job, cell)

    monkeypatch.setattr(WorkerPool, "_resolve", recording_resolve)
    with running_pool() as pool:
        job = pool.submit(sleepy_run, _spec(seed=20000))
        pid_file = tmp_path / "20000.pid"
        deadline = time.monotonic() + 30.0
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < deadline, "cell never started"
            pool.poll(timeout=0.01)
        os.kill(int(pid_file.read_text()), signal.SIGKILL)
        outcome = resolve(pool, job)
        assert outcome.status == "crashed"  # not "timeout": no deadline
        assert "died without reporting" in outcome.error
        # The pool keeps going and never touches the job again.
        later = pool.submit(sleepy_run, _spec(seed=1))
        assert resolve(pool, later).ok
        assert job.result is outcome
    assert resolutions == [job, later]
    assert pool.workers_lost == 1


@pytest.mark.parametrize("round_", range(10))
def test_drain_while_workers_exit(round_, monkeypatch):
    # Workers exit on their own (crashing mid-cell) while ``stop``
    # ends the pool, so the drain races their pipes closing.  Every
    # cell must resolve, and every pipe end must be closed exactly
    # once: a second close can hit a reused descriptor.
    closed = []
    close = Connection.close

    def recording_close(conn):
        closed.append(conn)
        close(conn)

    monkeypatch.setattr(Connection, "close", recording_close)
    pool = WorkerPool()
    jobs = [pool.submit(exit_run, _spec(seed=s)) for s in (0, 2, 4)]
    resolve(pool, jobs[0])  # workers are forked and exiting
    pool.stop(grace_s=0.0)
    while pool.poll():
        pass
    assert pool.busy == 0
    for job in jobs:
        # Resolved as crashed, or cancelled (None) by the stop.
        assert job.result is None or job.result.status == "crashed"
    assert jobs[0].result.status == "crashed"
    # Both ends of each worker's pipe, each closed once.
    assert len(closed) == 2 * len(jobs)
    assert len({id(conn) for conn in closed}) == len(closed)


def test_failed_fork_fails_one_cell_not_the_pool(monkeypatch):
    # A fork refused under load (EAGAIN, ENOMEM, EMFILE) must cost
    # that one cell and must not end the pool: later cells still run.
    closed = []
    close = Connection.close

    def recording_close(conn):
        closed.append(conn)
        close(conn)

    start = BaseProcess.start
    refusals = [OSError(errno.EAGAIN, "Resource temporarily unavailable")]

    def refusing_start(process):
        if refusals:
            raise refusals.pop()
        start(process)

    monkeypatch.setattr(Connection, "close", recording_close)
    monkeypatch.setattr(BaseProcess, "start", refusing_start)
    with running_pool() as pool:
        outcome = resolve(pool, pool.submit(sleepy_run, _spec(seed=0)))
        assert outcome.status == "error"
        assert "Resource temporarily unavailable" in outcome.error
        assert len(closed) == 2  # both ends of the unused pipe
        assert pool.busy == 0
        again = resolve(pool, pool.submit(sleepy_run, _spec(seed=1)))
        assert again.ok
        assert pool.poll(timeout=0.0)  # still running
    assert pool.workers_lost == 0


def test_grid_forks_only_from_a_single_threaded_process(monkeypatch):
    # run_grid polls on the calling thread, so no supervisor thread
    # exists when it forks (fork from a multi-threaded process is
    # deprecated from Python 3.12 on).
    counts = []
    fork = os.fork

    def recording_fork():
        counts.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    specs = [_spec(seed=i) for i in range(4)]
    cells = run_grid(specs, jobs=2, run_fn=sleepy_run)
    assert [cell.spec for cell in cells] == specs
    assert all(cell.ok for cell in cells)
    assert counts == [1] * len(specs)
