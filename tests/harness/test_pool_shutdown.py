"""Graceful shutdown of the experiment pool.

A SIGTERM (or Ctrl-C) during a grid run must not orphan workers: the
supervisor stops launching, drains in-flight cells within a grace
window (keeping their results), reaps everything, and raises
:class:`GridInterrupted` carrying the salvage.  The regression these
tests pin: before this, an interrupt left worker processes running
with no parent reading their pipes.
"""

import os
import signal
import threading
import time
from collections import defaultdict
from multiprocessing.connection import Connection

import pytest

from repro.harness.pool import GridInterrupted, RunSpec, run_grid

SPECS = [
    RunSpec("fake", "bfs", f"d{i}", "daisy", 1, seed=i) for i in range(4)
]

#: Where slow cells record their worker pid (set per-test via env so
#: forked workers inherit it).
_PID_DIR_ENV = "REPRO_TEST_PID_DIR"


def _slow_cell(spec: RunSpec) -> str:
    pid_dir = os.environ.get(_PID_DIR_ENV)
    if pid_dir:
        with open(os.path.join(pid_dir, f"{spec.dataset}.pid"), "w") as fh:
            fh.write(str(os.getpid()))
    time.sleep(0.8)
    return f"ok:{spec.dataset}"


def _sigterm_soon(pid_dir, n_started=2, timeout_s=10.0):
    """Fire SIGTERM at ourselves once ``n_started`` workers are live."""

    def waiter():
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if len(os.listdir(pid_dir)) >= n_started:
                os.kill(os.getpid(), signal.SIGTERM)
                return
            time.sleep(0.02)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    return thread


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused
        return True
    return True


def test_sigterm_drains_in_flight_and_reaps_workers(tmp_path, monkeypatch):
    # One closer per pipe, as in the service: the grid's supervisor
    # (this thread) closes every connection, the drain included.
    closers = defaultdict(set)
    close = Connection.close

    def recording_close(conn):
        closers[conn].add(threading.get_ident())
        close(conn)

    monkeypatch.setattr(Connection, "close", recording_close)
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    _sigterm_soon(str(tmp_path))

    with pytest.raises(GridInterrupted) as excinfo:
        run_grid(SPECS, jobs=2, run_fn=_slow_cell, drain_grace_s=10.0)

    interrupt = excinfo.value
    # The two in-flight cells finished inside the grace window and
    # were salvaged; the two never-launched specs are reported.
    assert len(interrupt.cells) == 2
    assert all(cell.ok for cell in interrupt.cells)
    assert {cell.result for cell in interrupt.cells} == {"ok:d0", "ok:d1"}
    assert [spec.dataset for spec in interrupt.unstarted] == ["d2", "d3"]
    assert "2 cell(s) salvaged" in str(interrupt)
    assert closers
    assert all(
        threads == {threading.get_ident()} for threads in closers.values()
    )

    # No orphans: every worker that started is gone.
    time.sleep(0.1)
    for pid_file in os.listdir(tmp_path):
        pid = int((tmp_path / pid_file).read_text())
        assert not _alive(pid), f"worker {pid} ({pid_file}) was orphaned"


def test_expired_grace_kills_survivors_without_orphans(
    tmp_path, monkeypatch
):
    # A grace window shorter than the cells: the drain gives up,
    # kills the in-flight workers, and reports them as unstarted.
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    _sigterm_soon(str(tmp_path))

    with pytest.raises(GridInterrupted) as excinfo:
        run_grid(SPECS, jobs=2, run_fn=_slow_cell, drain_grace_s=0.05)

    interrupt = excinfo.value
    assert len(interrupt.cells) + len(interrupt.unstarted) == 4
    assert len(interrupt.unstarted) >= 2  # the killed pair at minimum

    time.sleep(0.1)
    for pid_file in os.listdir(tmp_path):
        pid = int((tmp_path / pid_file).read_text())
        assert not _alive(pid), f"worker {pid} ({pid_file}) survived"


def test_sigterm_handler_is_restored():
    previous = signal.getsignal(signal.SIGTERM)
    cells = run_grid(SPECS[:2], jobs=2, run_fn=lambda s: s.dataset)
    assert len(cells) == 2
    assert signal.getsignal(signal.SIGTERM) is previous


def test_uninterrupted_grid_unchanged(tmp_path, monkeypatch):
    # No signal: same results, same order, no exception.
    monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
    cells = run_grid(SPECS, jobs=2, run_fn=_slow_cell, drain_grace_s=5.0)
    assert [cell.spec for cell in cells] == SPECS
    assert all(cell.ok for cell in cells)
