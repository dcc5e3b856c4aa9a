"""Golden-digest equality: partitioned vs serial execution.

The partitioned engine's acceptance bar.  Both drivers — the
in-process ``local`` engine and the ``multiprocessing`` ``pooled``
engine — must produce **bit-identical** :meth:`RunResult.digest`
values to a serial :class:`~repro.frameworks.atos.AtosDriver` run of
the same cell: same counters, same output vector, same simulated
makespan.  Covered axes: app (BFS / PageRank), partition count
(1 / 2 / 4), fault plan (clean / chaos / crash-with-recovery).

The full matrix runs on a small RMAT graph so it stays in tier-1
time; one real evaluation cell (road-usa, summit-ib, 4 GPUs; BFS and
PageRank) pins the same contract at P = 2 and 4 on a dataset the
paper uses.
"""

import pytest

from repro.faults import CrashEvent, FaultPlan
from repro.frameworks.atos import AtosDriver
from repro.graph import bfs_source, load
from repro.graph.generators import rmat
from repro.graph.partition import random_partition
from repro.harness.runner import get_machine, get_partition
from repro.runtime import run_partitioned
from repro.runtime.executor import AtosConfig
from repro.sim.partition import WindowStats

EPSILON = 1e-4

CHAOS = FaultPlan(
    seed=5, drop_rate=0.05, duplicate_rate=0.02,
    delay_rate=0.05, delay_jitter=4.0,
)
CRASH = FaultPlan(seed=7, crashes=(CrashEvent(pe=1, at=50.0),))


@pytest.fixture(scope="module")
def cell():
    graph = rmat(8, 8, seed=3)
    partition = random_partition(graph, 4, seed=1)
    machine = get_machine("summit-ib", 4)
    return graph, partition, machine


def _serial(cell, app, plan=None):
    graph, partition, machine = cell
    driver = AtosDriver(base_config=AtosConfig(faults=plan))
    if app == "bfs":
        return driver.run_bfs(graph, partition, 0, machine, dataset="g8")
    return driver.run_pagerank(
        graph, partition, machine, epsilon=EPSILON, dataset="g8"
    )


def _partitioned(cell, app, n, engine, plan=None, stats=None):
    graph, partition, machine = cell
    return run_partitioned(
        app, graph, partition, machine,
        n_partitions=n, driver=engine, source=0, epsilon=EPSILON,
        dataset="g8", base_config=AtosConfig(faults=plan), stats=stats,
    )


@pytest.mark.parametrize("engine", ["local", "pooled"])
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("app", ["bfs", "pagerank"])
def test_digest_equality_clean(cell, app, n, engine):
    serial = _serial(cell, app)
    stats = WindowStats()
    result = _partitioned(cell, app, n, engine, stats=stats)
    assert result.digest() == serial.digest()
    assert result.framework == serial.framework
    if n > 1:
        assert stats.windows > 0


@pytest.mark.parametrize("engine", ["local", "pooled"])
@pytest.mark.parametrize("n", [2, 4])
def test_digest_equality_under_chaos(cell, n, engine):
    # Drops, duplicates and delays engage the resilient transport on
    # every cross-partition link; the replay must still be exact.
    serial = _serial(cell, "bfs", plan=CHAOS)
    result = _partitioned(cell, "bfs", n, engine, plan=CHAOS)
    assert result.digest() == serial.digest()


@pytest.mark.parametrize("engine", ["local", "pooled"])
def test_crash_plan_collapses_to_one_partition(cell, engine):
    # Fail-stop recovery re-homes ranks across partition boundaries,
    # which windowed execution cannot replay; such plans run serially
    # inside the engine (pooled: inside one worker process) and must
    # still match the serial digest exactly.
    serial = _serial(cell, "bfs", plan=CRASH)
    stats = WindowStats()
    with pytest.warns(RuntimeWarning, match="downgrading"):
        result = _partitioned(
            cell, "bfs", 4, engine, plan=CRASH, stats=stats
        )
    assert result.digest() == serial.digest()
    assert stats.windows == 0  # never entered windowed coordination


@pytest.mark.parametrize("app", ["bfs", "pagerank"])
def test_local_and_pooled_agree_window_for_window(cell, app):
    # Same coordinator, same windows: the drivers must agree not just
    # on the final digest but on the synchronization schedule itself.
    local_stats, pooled_stats = WindowStats(), WindowStats()
    local = _partitioned(cell, app, 4, "local", stats=local_stats)
    pooled = _partitioned(cell, app, 4, "pooled", stats=pooled_stats)
    assert local.digest() == pooled.digest()
    assert local_stats.windows == pooled_stats.windows
    assert local_stats.total_exports == pooled_stats.total_exports
    assert local_stats.total_events == pooled_stats.total_events
    assert (
        local_stats.idle_partition_windows
        == pooled_stats.idle_partition_windows
    )


@pytest.fixture(scope="module", params=["bfs", "pagerank"])
def road_usa(request):
    """An evaluation cell (road-usa, summit-ib, 4 GPUs) and its serial run."""
    app = request.param
    graph = load("road-usa")
    partition = get_partition("road-usa", 4)
    machine = get_machine("summit-ib", 4)
    driver = AtosDriver()
    if app == "bfs":
        serial = driver.run_bfs(
            graph, partition, bfs_source("road-usa"), machine,
            dataset="road-usa",
        )
    else:
        serial = driver.run_pagerank(
            graph, partition, machine, epsilon=EPSILON, dataset="road-usa"
        )
    return app, (graph, partition, machine), serial


@pytest.mark.parametrize("n", [2, 4])
def test_digest_equality_on_evaluation_cell(road_usa, n):
    # The local driver stands in for both: local == pooled is pinned
    # above, window for window.
    app, cell, serial = road_usa
    graph, partition, machine = cell
    result = run_partitioned(
        app, graph, partition, machine,
        n_partitions=n, driver="local", source=bfs_source("road-usa"),
        epsilon=EPSILON, dataset="road-usa",
    )
    assert result.digest() == serial.digest()
