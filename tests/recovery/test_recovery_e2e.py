"""End-to-end fail-stop recovery: crash, roll back, re-home, validate.

The tentpole invariant: every run with a fail-stop rank terminates,
drains its in-flight ledger, and produces output identical to the
fault-free serial reference — recovery is invisible in the result.
Plus the two determinism pins: identical checkpoint/result digests
across repeated runs (serial and pooled), and trace-identical execution
when no crash is scheduled.
"""

from dataclasses import replace

import pytest

from repro.apps import AtosBFS
from repro.errors import ConfigurationError
from repro.faults import CrashEvent, FaultPlan
from repro.harness import chaos
from repro.harness.chaos import (
    ChaosSpec,
    chaos_grid,
    run_chaos_cell,
    trace_digest_for,
)
from repro.recovery import RecoveryPolicy
from repro.runtime import AtosExecutor


def _crash(app, variant, *crashes, **rates):
    """A cell that fail-stops each ``(pe, at)`` in ``crashes``."""
    plan = FaultPlan(
        seed=0, crashes=tuple(CrashEvent(pe=pe, at=at) for pe, at in crashes),
        **rates,
    )
    return ChaosSpec(app=app, variant=variant, faults=plan)


@pytest.fixture
def executors(monkeypatch):
    """Every executor a cell runs, for assertions on its end state."""
    seen = []
    run = AtosExecutor.run

    def recording_run(self):
        seen.append(self)
        return run(self)

    monkeypatch.setattr(AtosExecutor, "run", recording_run)
    return seen


# ------------------------------------------------------------ the grid
CELLS = [
    # Early crashes roll back to the epoch-0 bootstrap checkpoint;
    # later ones replay from a periodic epoch.
    _crash("bfs", "standard-persistent", (1, 15.0)),
    _crash("bfs", "priority-discrete", (2, 30.0)),
    _crash("pagerank", "standard-persistent", (1, 80.0)),
    _crash("pagerank", "priority-discrete", (3, 180.0)),
]


@pytest.mark.parametrize("spec", CELLS, ids=lambda s: s.label())
def test_crashed_run_recovers_and_validates(spec):
    cell = run_chaos_cell(spec)
    assert cell.ok, cell.error
    assert cell.faults["recovery_ranks_recovered"] == 1
    assert cell.faults["recovery_checkpoints_taken"] >= 2
    assert cell.faults["recovery_replay_messages"] >= 1
    assert cell.digest
    assert len(cell.checkpoint_digests) >= 2


def test_double_crash_recovers_twice(executors):
    cell = run_chaos_cell(
        _crash("pagerank", "standard-persistent", (1, 80.0), (3, 200.0))
    )
    (executor,) = executors
    assert sorted(executor.recovery.dead) == [1, 3]
    assert cell.faults["recovery_ranks_recovered"] == 2
    assert executor.ledger.leased == 0
    assert cell.ok, cell.error
    # Degraded mode: routes to the dead ranks are down.
    down = executor.fabric.topology.down_ranks
    assert down == frozenset({1, 3})


def test_crash_with_message_faults_still_validates(executors):
    cell = run_chaos_cell(_crash(
        "bfs", "standard-persistent", (2, 25.0),
        drop_rate=0.05, duplicate_rate=0.02, delay_rate=0.05,
    ))
    (executor,) = executors
    assert executor.ledger.leased == 0
    assert cell.ok, cell.error


def test_crash_requires_recovery_capable_app(monkeypatch):
    monkeypatch.setattr(AtosBFS, "supports_recovery", False)
    with pytest.raises(ConfigurationError, match="checkpoint/restore"):
        run_chaos_cell(CELLS[0])


@pytest.mark.parametrize("kwargs", [
    {"checkpoint_interval": 0.0},
    {"detect_interval": -1.0},
    {"drain_poll": 0.0},
])
def test_recovery_policy_validation(kwargs):
    with pytest.raises(ConfigurationError):
        RecoveryPolicy(**kwargs)


def test_checkpoints_can_persist_to_store(tmp_path, monkeypatch):
    from repro.recovery import CheckpointStore

    monkeypatch.setattr(
        chaos, "RECOVERY", replace(chaos.RECOVERY, store_dir=str(tmp_path))
    )
    digests = run_chaos_cell(CELLS[0]).checkpoint_digests
    store = CheckpointStore(tmp_path)
    assert sorted(set(digests)) == store.keys()
    epoch0 = store.get(digests[0])
    assert epoch0 is not None and epoch0.epoch == 0


# -------------------------------------------------------- determinism
def test_crash_runs_are_digest_deterministic():
    first, second = run_chaos_cell(CELLS[0]), run_chaos_cell(CELLS[0])
    assert first.ok and second.ok
    assert first.digest == second.digest
    assert first.checkpoint_digests == second.checkpoint_digests


def test_serial_and_pooled_crash_grids_agree():
    specs = [CELLS[0], CELLS[2]]
    serial = chaos_grid(specs)
    pooled = chaos_grid(specs, jobs=2)
    assert [c.ok for c in serial] == [c.ok for c in pooled] == [True] * 2
    for a, b in zip(serial, pooled):
        assert a.digest == b.digest
        assert a.checkpoint_digests == b.checkpoint_digests


def test_zero_crash_plan_is_trace_identical():
    spec = ChaosSpec(app="bfs")
    assert trace_digest_for(spec) == trace_digest_for(
        spec, recovery=RecoveryPolicy()
    )
