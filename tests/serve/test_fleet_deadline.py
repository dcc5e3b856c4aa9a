"""Fleet deadline kills under load, the stale-reply tag guard, and drain.

A deadline kill is asynchronous to the worker: the reaper may have
already read a result the worker sent in its final instant, or a
pre-kill reply may surface on a connection snapshot taken before the
kill.  The tag guard in ``_handle_message`` is what keeps such a stale
reply from resolving the *next* job's future with the wrong payload —
these tests pin both the happy deadline path (kill, typed timeout
result, respawn, service keeps going) and the guard itself.  Drain
racing workers that exit on their own pins the fleet's ownership rule:
one closer per worker pipe.
"""

import os
import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from multiprocessing.connection import Connection

import pytest

from repro.harness.pool import RunSpec
from repro.serve.fleet import FleetResult, WorkerFleet

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def sleepy_run(spec, trace=False):
    """Sleep ``seed`` ms, then echo the label (module-level for fork)."""
    time.sleep(spec.seed / 1000.0)
    return spec.label(), None


def _spec(seed: int) -> RunSpec:
    return RunSpec(
        framework="atos-standard-persistent",
        app="bfs",
        dataset="hollywood-2009",
        machine="daisy",
        n_gpus=1,
        seed=seed,
    )


def test_deadline_kill_under_load_then_recovers():
    fleet = WorkerFleet(workers=2, run_fn=sleepy_run, timeout_s=0.3)
    try:
        # One cell that must die at its deadline, one that must not:
        # the kill must be surgical under concurrent load.
        doomed = fleet.submit(_spec(seed=5000))
        healthy = fleet.submit(_spec(seed=10))
        ok = healthy.result(timeout=30)
        assert ok.cell.status == "ok"
        dead = doomed.result(timeout=30)
        assert dead.cell.status == "timeout"
        assert dead.failure is None  # deadline, not crash: typed apart
        deadline = time.monotonic() + 10.0
        while fleet.respawns < 1 and time.monotonic() < deadline:
            time.sleep(0.02)  # respawn lands just after the future
        assert fleet.respawns == 1
        # The replacement worker serves new work immediately.
        again = fleet.submit(_spec(seed=10)).result(timeout=30)
        assert again.cell.status == "ok"
    finally:
        fleet.drain(grace_s=5.0)


def test_stale_reply_tag_mismatch_is_dropped():
    fleet = WorkerFleet(workers=1, run_fn=sleepy_run, timeout_s=None)
    # Only the reaper reads the pipe: hold its handler at a gate so the
    # stale reply below is injected before the real one is handled.
    handle = fleet._handle_message
    gate, handled = threading.Event(), threading.Event()

    def gated_handle(worker, message):
        gate.wait(timeout=30)
        handle(worker, message)
        handled.set()

    fleet._handle_message = gated_handle
    try:
        worker = next(iter(fleet._workers.values()))
        # A real job is in flight with the current tag ...
        future = fleet.submit(_spec(seed=10))
        with fleet._lock:
            live_tag = worker.job[0]
        # ... when a reply bearing a *pre-kill* tag surfaces.  The
        # guard must drop it without resolving the live future.
        handle(worker, (live_tag - 1, "ok", "stale payload", 0.0, None))
        assert not future.done()
        # The guard cleared the job slot (the kill path owns it), so
        # the real reply that follows is itself treated as stale —
        # dropped, never crossed onto the wrong future.
        gate.set()
        assert handled.wait(timeout=30)
        assert not future.done()
    finally:
        gate.set()
        fleet.kill()


def test_reply_after_death_does_not_resolve_twice():
    # The death path resolves the future with status "crashed"; a
    # stale message handled afterwards must be a no-op (job is None),
    # not an InvalidStateError on the already-resolved future.
    fleet = WorkerFleet(workers=1, run_fn=sleepy_run, timeout_s=None)
    try:
        worker = next(iter(fleet._workers.values()))
        future: Future[FleetResult] = fleet.submit(_spec(seed=2000))
        worker.process.kill()  # hard death mid-job -> pipe EOF
        outcome = future.result(timeout=30)
        assert outcome.cell.status == "crashed"
        assert outcome.failure is not None
        assert outcome.failure.spec_key.startswith(
            "atos-standard-persistent:bfs:"
        )
        fleet._handle_message(
            worker, (1, "ok", "ghost payload", 0.0, None)
        )
        assert future.result(timeout=1).cell.status == "crashed"
    finally:
        fleet.kill()


def exit_run(spec, trace=False):
    """Die mid-cell without replying (module-level for fork)."""
    os._exit(3)


@pytest.mark.parametrize("round_", range(10))
def test_drain_while_workers_exit(round_, monkeypatch):
    # Workers exit on their own (one crashes mid-cell, the others take
    # the drain sentinel) while ``drain`` stops the fleet, so the reaper
    # and the draining thread both see those pipes close.  Each
    # connection must be closed from one thread only — a second closer
    # can hit a reused descriptor — and every cell must resolve.
    closers = defaultdict(set)
    close = Connection.close

    def recording_close(conn):
        closers[conn].add(threading.get_ident())
        close(conn)

    monkeypatch.setattr(Connection, "close", recording_close)
    fleet = WorkerFleet(workers=3, run_fn=exit_run, timeout_s=None)
    future = fleet.submit(_spec(seed=0))
    fleet.drain(grace_s=0.0)
    assert future.done()
    outcome = future.result()
    assert outcome.cell.status == "crashed"
    assert outcome.failure is not None
    assert not fleet._reaper.is_alive()
    assert closers
    assert all(len(threads) == 1 for threads in closers.values())
