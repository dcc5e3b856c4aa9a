"""Golden-trace equivalence of the vectorized data path.

The batched queue -> aggregator -> executor pipeline
(:mod:`repro.batchpath`) is a host-side optimization: it must not
change the *simulated* execution at all.  This suite pins that the
``REPRO_BATCH_PATH=0`` reference path and the default batched path are
bit-identical:

* **event level** — the full DES event sequence (time, priority, seq,
  event type) digests identically for BFS and PageRank executors,
  including aggregator-on and segment-buffered configurations;
* **result level** — :meth:`RunResult.digest` (simulated time, every
  counter, exact output bytes) agrees between the paths for seeded
  harness runs, both serial and pooled.

The persistent cache must be disabled (or pointed at a fresh
directory) around these comparisons: the cache key does not include
the flag — correctly, since the paths are behaviorally identical — so
a cache hit would trivially equalize the digests being compared.
"""

import pytest

from repro.batchpath import BATCH_PATH_ENV, batch_path_enabled
from repro.config import daisy, summit_ib
from repro.graph import bfs_grow_partition, largest_component_vertex, rmat
from repro.apps import AtosBFS, AtosPageRank
from repro.harness import RunSpec, clear_memory_cache, run_cells, run_grid
from repro.runtime import AtosConfig, AtosExecutor

from tests.sim.test_golden_traces import TraceDigest


def _bfs_app():
    g = rmat(scale=8, edge_factor=6, seed=31)
    return AtosBFS(g, bfs_grow_partition(g, 4, seed=0),
                   largest_component_vertex(g))


def _pagerank_app():
    g = rmat(scale=7, edge_factor=6, seed=7)
    return AtosPageRank(g, bfs_grow_partition(g, 4, seed=0), epsilon=1e-4)


def _traced_run(app_factory, machine, config, monkeypatch, flag):
    monkeypatch.setenv(BATCH_PATH_ENV, flag)
    assert batch_path_enabled() == (flag == "1")
    executor = AtosExecutor(machine, app_factory(), config)
    assert executor.batch_path == (flag == "1")
    digest = TraceDigest()
    executor.env.trace_hook = digest
    makespan, counters = executor.run()
    return digest, makespan, dict(counters)


#: Configurations chosen to exercise every branch the flag gates:
#: eager per-round sends, the aggregator (size and timeout flushes),
#: segment buffering through ``add_many``, and the no-aggregator
#: direct-message path.
CONFIGS = [
    ("bfs-eager", _bfs_app, daisy(4), AtosConfig(fetch_size=1)),
    (
        "bfs-aggregated",
        _bfs_app,
        summit_ib(4),
        AtosConfig(fetch_size=1, wait_time=8, use_aggregator=True),
    ),
    (
        "pagerank-aggregated-segments",
        _pagerank_app,
        summit_ib(4),
        AtosConfig(wait_time=32, segment_rounds=2, use_aggregator=True),
    ),
    (
        "pagerank-segments-no-aggregator",
        _pagerank_app,
        daisy(4),
        AtosConfig(segment_rounds=3, use_aggregator=False),
    ),
]


@pytest.mark.parametrize(
    "app_factory,machine,config",
    [c[1:] for c in CONFIGS],
    ids=[c[0] for c in CONFIGS],
)
def test_batched_path_trace_identical_to_reference(
    app_factory, machine, config, monkeypatch
):
    batched = _traced_run(app_factory, machine, config, monkeypatch, "1")
    reference = _traced_run(app_factory, machine, config, monkeypatch, "0")
    assert batched[0].n_events == reference[0].n_events > 0
    assert batched[0].hexdigest() == reference[0].hexdigest()
    assert batched[1] == reference[1]  # makespan
    assert batched[2] == reference[2]  # counters


# -------------------------------------------------- result-level digests
GOLDEN_SPECS = [
    RunSpec("atos-standard-persistent", "bfs", "hollywood-2009",
            "summit-ib", 4),
    RunSpec("atos-standard-persistent", "pagerank", "hollywood-2009",
            "summit-ib", 2),
    RunSpec("atos-standard-persistent", "bfs", "road-usa", "summit-ib", 4),
]


@pytest.fixture()
def no_cache(monkeypatch):
    """Disable the persistent cache and clear the in-process memo."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    clear_memory_cache()
    yield
    clear_memory_cache()


def _run_serial(monkeypatch, flag):
    monkeypatch.setenv(BATCH_PATH_ENV, flag)
    clear_memory_cache()
    results = run_cells(GOLDEN_SPECS, jobs=1)
    return [results[spec].digest() for spec in GOLDEN_SPECS]


def test_serial_digests_agree_across_paths(no_cache, monkeypatch):
    assert _run_serial(monkeypatch, "0") == _run_serial(monkeypatch, "1")


def test_pooled_digests_agree_across_paths(no_cache, monkeypatch):
    digests = {}
    for flag in ("0", "1"):
        # Workers inherit the flag through fork.
        monkeypatch.setenv(BATCH_PATH_ENV, flag)
        clear_memory_cache()
        cells = run_grid(GOLDEN_SPECS, jobs=2, timeout_s=300.0)
        assert [c.status for c in cells] == ["ok"] * len(GOLDEN_SPECS)
        digests[flag] = [c.result.digest() for c in cells]
    assert digests["0"] == digests["1"]
