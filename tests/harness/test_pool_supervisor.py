"""The worker supervisor polled from its own thread, as the service runs it.

``repro serve`` polls :class:`WorkerPool` from one reaper thread while
its event loop submits cells, so these tests drive the pool the same
way: deadline kills under load, a worker killed mid-cell, a drain
racing workers that exit on their own (one closer per pipe, all on the
polling thread), and a submit landing while the reaper is blocked in
its wait, and a fork that fails.  ``run_grid`` polls on its calling thread instead, which
keeps every fork in a single-threaded process.
"""

import errno
import os
import signal
import threading
import time
from collections import defaultdict
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess

import pytest

from repro.errors import WorkerCrashed
from repro.harness import pool as pool_mod
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


class Reaper:
    """A pool polled from its own thread until it stops."""

    def __init__(self):
        self.pool = WorkerPool()
        self.thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while self.pool.poll():
            pass

    def __enter__(self):
        self.thread.start()
        return self.pool

    def __exit__(self, *exc):
        self.pool.stop(grace_s=5.0)
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "reaper did not exit"


def test_deadline_kill_under_load_then_recovers():
    with Reaper() as pool:
        # One cell that must die at its deadline, one that must not:
        # the kill must be surgical under concurrent load.
        doomed = pool.submit(sleepy_run, _spec(seed=5000), timeout_s=1.0)
        healthy = pool.submit(sleepy_run, _spec(seed=10), timeout_s=1.0)
        assert healthy.result(timeout=30).status == "ok"
        dead = doomed.result(timeout=30)
        assert dead.status == "timeout"
        assert dead.failure is None  # deadline, not crash: typed apart
        assert pool.workers_lost == 1
        # The pool serves new work immediately.
        again = pool.submit(sleepy_run, _spec(seed=10)).result(timeout=30)
        assert again.status == "ok"
        assert pool.busy == 0


def test_killed_worker_resolves_once_as_crashed(tmp_path, monkeypatch):
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    resolutions = []
    with Reaper() as pool:
        future = pool.submit(sleepy_run, _spec(seed=20000))
        future.add_done_callback(resolutions.append)
        pid_file = tmp_path / "20000.pid"
        deadline = time.monotonic() + 30.0
        while not pid_file.exists() or not pid_file.read_text():
            assert time.monotonic() < deadline, "cell never started"
            time.sleep(0.01)
        os.kill(int(pid_file.read_text()), signal.SIGKILL)
        outcome = future.result(timeout=30)
        assert outcome.status == "crashed"
        assert isinstance(outcome.failure, WorkerCrashed)
        assert outcome.failure.spec_key.startswith(
            "atos-standard-persistent:bfs:"
        )
        # The reaper keeps going and never touches the future again.
        assert pool.submit(sleepy_run, _spec(seed=1)).result(timeout=30).ok
    assert resolutions == [future]
    assert pool.workers_lost == 1


@pytest.mark.parametrize("round_", range(10))
def test_drain_while_workers_exit(round_, monkeypatch):
    # Workers exit on their own (crashing mid-cell) while ``stop``
    # ends the pool from another thread, so the reaper and the
    # stopping thread both see those pipes close.  Each connection
    # must be closed from one thread only — the reaper; a second
    # closer can hit a reused descriptor — and every cell must resolve.
    closers = defaultdict(set)
    close = Connection.close

    def recording_close(conn):
        closers[conn].add(threading.get_ident())
        close(conn)

    monkeypatch.setattr(Connection, "close", recording_close)
    reaper = Reaper()
    with reaper as pool:
        futures = [pool.submit(exit_run, _spec(seed=s)) for s in (0, 2, 4)]
        futures[0].result(timeout=30)  # workers are forked and exiting
        pool.stop(grace_s=0.0)
        reaper.thread.join(timeout=30)
    assert not reaper.thread.is_alive()
    for future in futures:
        assert future.done()
        if not future.cancelled():
            outcome = future.result()
            assert outcome.status == "crashed"
            assert isinstance(outcome.failure, WorkerCrashed)
    assert closers
    assert all(
        threads == {reaper.thread.ident} for threads in closers.values()
    )


def test_failed_fork_fails_one_cell_not_the_pool(monkeypatch):
    # Forking is the polling thread's job, so a fork refused under
    # load (EAGAIN, ENOMEM, EMFILE) must cost that one cell and must
    # not end the reaper: later cells still run.
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
    reaper = Reaper()
    with reaper as pool:
        outcome = pool.submit(sleepy_run, _spec(seed=0)).result(timeout=30)
        assert outcome.status == "error"
        assert "Resource temporarily unavailable" in outcome.error
        assert outcome.failure is None
        assert len(closed) == 2  # both ends of the unused pipe
        assert pool.busy == 0
        again = pool.submit(sleepy_run, _spec(seed=1)).result(timeout=30)
        assert again.ok
        assert reaper.thread.is_alive()
    assert pool.workers_lost == 0


def test_submit_wakes_a_blocked_poll(monkeypatch):
    # With a 10 s poll interval the reaper sits in its wait; cells
    # submitted from another thread must still start and resolve at
    # once, not when the wait times out.
    monkeypatch.setattr(pool_mod, "_REAP_POLL_S", 10.0)
    with Reaper() as pool:
        time.sleep(0.1)  # let the reaper block in its wait
        start = time.monotonic()
        futures = [pool.submit(sleepy_run, _spec(seed=0)) for _ in range(6)]
        for future in futures:
            assert future.result(timeout=30).ok
        assert time.monotonic() - start < 5.0


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
