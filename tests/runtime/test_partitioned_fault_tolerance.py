"""Fault tolerance of the pooled partitioned driver.

The tentpole contract: losing a worker process mid-run (pipe EOF,
hard exit) must be *invisible in the outcome* — the coordinator
respawns a replacement, replays its journal of ``(horizon, imports)``
per window, verifies the replay against the report log and any
checkpoint barriers, and the final :meth:`RunResult.digest` stays
bit-identical to the serial reference.  Checkpoints themselves are
observation-only: enabling them on a kill-free run must not perturb
a single bit.

Everything runs on a small RMAT graph so the matrix stays in tier-1
time; ``python -m repro chaos`` pins the same contract on the
larger seeded grid.
"""

import pytest

from repro.errors import PartitionWorkerLost, SimulationError
from repro.graph.generators import rmat
from repro.graph.partition import random_partition
from repro.harness.runner import get_machine
from repro.runtime import partitioned, run_partitioned
from repro.runtime.partitioned import WorkerKillPlan
from repro.sim.partition import WindowStats

EPSILON = 1e-4


@pytest.fixture(scope="module")
def cell():
    graph = rmat(8, 8, seed=3)
    partition = random_partition(graph, 4, seed=1)
    machine = get_machine("summit-ib", 4)
    return graph, partition, machine


def _run(cell, app, n, engine="pooled", **kwargs):
    graph, partition, machine = cell
    return run_partitioned(
        app, graph, partition, machine,
        n_partitions=n, driver=engine, source=0, epsilon=EPSILON,
        dataset="g8", **kwargs,
    )


@pytest.fixture(scope="module")
def serial_digests(cell):
    return {app: _run(cell, app, 1, "local").digest()
            for app in ("bfs", "pagerank")}


@pytest.mark.parametrize("window", [0, 2, 5])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("app", ["bfs", "pagerank"])
def test_kill_digest_identical_to_serial(
    cell, serial_digests, app, n, window
):
    result = _run(
        cell, app, n, checkpoint_every=3,
        kill_plan=WorkerKillPlan(partition=1, window=window),
    )
    assert result.digest() == serial_digests[app]
    stats = result.host_stats
    if window < stats["windows"]:
        assert stats["workers_respawned"] == 1
        assert stats["windows_replayed"] == window + 1
    else:  # kill site past the end of the run: plan never fires
        assert stats["workers_respawned"] == 0


@pytest.mark.parametrize("app", ["bfs", "pagerank"])
def test_checkpointing_is_inert_without_kills(cell, app):
    baseline = _run(cell, app, 2)
    checkpointed = _run(cell, app, 2, checkpoint_every=2)
    assert checkpointed.digest() == baseline.digest()
    stats = checkpointed.host_stats
    assert stats["checkpoints_taken"] > 0
    assert stats["workers_respawned"] == 0
    assert stats["windows_replayed"] == 0


def test_kill_without_checkpoints_still_replays(cell, serial_digests):
    # Checkpoints only *verify* replay; the journal alone is enough
    # to reconstruct a lost worker.
    result = _run(
        cell, "bfs", 2,
        kill_plan=WorkerKillPlan(partition=1, window=2),
    )
    assert result.digest() == serial_digests["bfs"]
    assert result.host_stats["workers_respawned"] == 1
    assert result.host_stats["checkpoints_taken"] == 0


def test_respawn_budget_exhaustion_raises(cell, monkeypatch):
    # A replacement that is itself killed would loop forever without
    # the budget; a budget of 0 forbids any replacement at all.
    monkeypatch.setattr(partitioned, "MAX_RESPAWNS", 0)
    with pytest.raises((PartitionWorkerLost, SimulationError)):
        _run(
            cell, "bfs", 2,
            kill_plan=WorkerKillPlan(partition=1, window=1),
        )


def test_kill_plan_rejected_by_local_engine(cell):
    # A kill needs a worker process to lose and a journal to replay
    # it from: the pooled driver with at least two partitions.
    from repro.errors import ConfigurationError

    for engine, n in (("local", 2), ("pooled", 1)):
        with pytest.raises(ConfigurationError, match="at least 2"):
            _run(
                cell, "bfs", n, engine=engine,
                kill_plan=WorkerKillPlan(partition=0, window=0),
            )


def test_resilience_counts_surface_in_stats_not_digest(
    cell, serial_digests
):
    # The digest covers RunResult.counters; resilience accounting must
    # live in the window stats only, or recovery would change the
    # outcome.
    result = _run(
        cell, "bfs", 2, checkpoint_every=2,
        kill_plan=WorkerKillPlan(partition=1, window=2),
    )
    assert result.digest() == serial_digests["bfs"]
    assert not any(k.startswith("resilience_") for k in result.counters)
    res = WindowStats(**result.host_stats).resilience()
    assert res["resilience_workers_respawned"] == 1.0
    assert res["resilience_windows_replayed"] >= 1.0
    assert res["resilience_checkpoints_taken"] >= 1.0
    d = result.host_stats
    assert d["workers_respawned"] == 1
    assert d["windows_replayed"] >= 1
