"""Fault grid: validated cells, grid verdicts, idle-layer inertness."""

import threading
from collections import defaultdict
from dataclasses import replace
from multiprocessing.connection import Connection

import pytest

from repro.harness.chaos import (
    CHAOS_VARIANTS,
    DELAY_RATE,
    DUPLICATE_RATE,
    ChaosSpec,
    chaos_grid,
    chaos_specs,
    render_chaos,
    run_chaos_cell,
    trace_digest_for,
    verify_inert,
)
from repro.faults import CrashEvent, FaultPlan
from repro.runtime.partitioned import WorkerKillPlan


def _drops(app, variant, rate, seed=0):
    plan = FaultPlan(seed=seed, drop_rate=rate,
                     duplicate_rate=DUPLICATE_RATE, delay_rate=DELAY_RATE)
    return ChaosSpec(app=app, variant=variant, faults=plan, seed=seed)


def _kill(app="bfs", n_partitions=2, window=2):
    return ChaosSpec(app=app, kill=WorkerKillPlan(partition=1, window=window),
                     n_partitions=n_partitions)


def test_chaos_spec_validation():
    with pytest.raises(ValueError):
        ChaosSpec(app="sssp", variant="standard-persistent")
    with pytest.raises(ValueError):
        ChaosSpec(app="bfs", variant="no-such-queue")
    with pytest.raises(ValueError, match="no fault plan"):
        replace(_kill(), faults=FaultPlan(seed=0))
    with pytest.raises(ValueError, match="worker-kill cells only"):
        ChaosSpec(app="bfs", n_partitions=2)
    with pytest.raises(ValueError, match="kill partition"):
        _kill(n_partitions=1)


def test_chaos_spec_label_and_plan():
    (spec,) = [
        spec for spec in chaos_specs(drop_rates=(0.1,), crash_pes=(),
                                     kill_windows=(), quick=True, seed=3)
        if spec.variant == "priority-discrete"
    ]
    assert "bfs" in spec.label() and "drop0.1" in spec.label()
    plan = spec.faults
    assert plan.seed == 3 and plan.drop_rate == 0.1 and plan.active


def test_full_drop_grid_runs_pagerank_priority_once():
    # Priority applies to BFS only, so PageRank's priority-discrete
    # cell would repeat standard-discrete's.
    specs = chaos_specs(crash_pes=(), kill_windows=())
    assert len(specs) == 15
    assert ("pagerank", "priority-discrete") not in {
        (spec.app, spec.variant) for spec in specs
    }


@pytest.mark.parametrize("variant", sorted(CHAOS_VARIANTS))
def test_bfs_cell_survives_ten_percent_drops(variant):
    cell = run_chaos_cell(_drops("bfs", variant, 0.10))
    assert cell.ok, cell.error
    # Whenever a message was lost, the delivery layer recovered it.
    if cell.faults.get("fault_dropped", 0):
        assert cell.faults.get("transport_retransmits", 0) > 0
    assert cell.faults["transport_sends"] == (
        cell.faults["transport_acks_received"]
    )


def test_pagerank_cell_survives_drops():
    cell = run_chaos_cell(_drops("pagerank", "standard-persistent", 0.10))
    assert cell.ok, cell.error
    assert cell.faults.get("fault_dropped", 0) > 0


def test_grid_renders_verdicts():
    cells = chaos_grid(
        [_drops("bfs", "standard-persistent", rate) for rate in (0.0, 0.1)]
    )
    assert all(cell.ok for cell in cells)
    text = render_chaos(cells)
    assert "pass" in text and "FAIL" not in text


# -------------------------------------------------------- worker kills
def test_kill_cell_closes_each_worker_pipe_once(monkeypatch):
    # One closer per pipe across the kill and the respawn: the dead
    # worker's pipe is closed by the recover path, never again by the
    # engine's final sweep.
    closers = defaultdict(list)
    close = Connection.close

    def recording_close(conn):
        closers[conn].append(threading.get_ident())
        close(conn)

    monkeypatch.setattr(Connection, "close", recording_close)
    cell = run_chaos_cell(_kill())
    assert cell.ok, cell.error
    assert cell.faults["resilience_workers_respawned"] == 1
    assert cell.faults["resilience_windows_replayed"] == 3
    # Two partitions plus one replacement, two pipe ends each.
    assert len(closers) == 6
    assert all(
        threads == [threading.get_ident()] for threads in closers.values()
    )


def test_kill_cells_run_in_a_pooled_grid():
    crash = ChaosSpec(app="bfs", faults=FaultPlan(
        seed=0, crashes=(CrashEvent(pe=1, at=15.0),)))
    kill, crashed = chaos_grid([_kill(), crash], jobs=2)
    assert kill.ok and crashed.ok, (kill.error, crashed.error)
    assert kill.faults["resilience_workers_respawned"] == 1
    assert crashed.faults["recovery_ranks_recovered"] == 1


# ----------------------------------------------------------- inertness
def test_zero_fault_plan_is_trace_identical_to_none():
    spec = ChaosSpec(app="bfs", variant="standard-persistent", seed=0)
    baseline = trace_digest_for(spec)
    inert = trace_digest_for(replace(spec, faults=FaultPlan(seed=99)))
    assert baseline == inert


def test_verify_inert_passes():
    assert verify_inert(seed=0, apps=("bfs",))


def test_active_plan_changes_the_trace():
    spec = ChaosSpec(app="bfs", variant="standard-persistent", seed=0)
    baseline = trace_digest_for(spec)
    faulty = trace_digest_for(replace(
        spec, faults=FaultPlan(seed=0, drop_rate=0.2, duplicate_rate=0.1)
    ))
    assert baseline[0] != faulty[0]
