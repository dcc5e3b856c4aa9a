"""Golden-trace determinism suite.

The harness's whole caching/parallelism story rests on one contract:
*same spec -> bit-identical run*, regardless of which execution path
produced it.  These tests pin that contract at two levels:

* **event level** — seeded BFS and PageRank runs dispatch the exact
  event sequence (digested as (time, priority, seq, event type) tuples)
  recorded in :data:`GOLDEN_TRACES`;
* **result level** — the serial runner, the pooled runner, and a
  cache-hit replay of fixed seeded runs all produce the same
  :meth:`RunResult.digest`.
"""

import hashlib

import pytest

from repro.config import daisy
from repro.graph import bfs_grow_partition, largest_component_vertex, rmat
from repro.apps import AtosBFS, AtosPageRank
from repro.harness import RunSpec, clear_memory_cache, run_cells, run_grid
from repro.runtime import AtosConfig, AtosExecutor


# ----------------------------------------------------- event-level traces
class TraceDigest:
    """Folds every dispatched heap entry into one SHA-256."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.n_events = 0

    def __call__(self, entry):
        when, priority, seq, event = entry
        self.n_events += 1
        self._hash.update(
            f"{when!r}|{priority}|{seq}|{type(event).__name__}\n".encode()
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _traced_run(app_factory, machine, config):
    executor = AtosExecutor(machine, app_factory(), config)
    digest = TraceDigest()
    executor.env.trace_hook = digest
    makespan, counters = executor.run()
    return digest, makespan, dict(counters)


def _bfs_app():
    g = rmat(scale=8, edge_factor=6, seed=31)
    return AtosBFS(g, bfs_grow_partition(g, 2, seed=0),
                   largest_component_vertex(g))


def _pagerank_app():
    g = rmat(scale=7, edge_factor=6, seed=7)
    return AtosPageRank(g, bfs_grow_partition(g, 2, seed=0), epsilon=1e-4)


#: (trace digest, events dispatched, makespan) of each cell, as the
#: event loop dispatched them when the reference one-event-per-step
#: loop and the cohort-batched loop still ran side by side and agreed
#: on every cell.  The one loop must reproduce them exactly.
GOLDEN_TRACES = {
    "bfs": (
        "cbfb1585587f976466cc96aba3b16127b1c4f765d365bc9260844c714d24171d",
        25,
        23.062620000000003,
    ),
    "pagerank": (
        "892e082808cef5a989576f56fecb20318ee1db0d71c7fc14aa9b3031d02d9426",
        1108,
        70.87712000000002,
    ),
}

TRACE_CELLS = {
    "bfs": (_bfs_app, AtosConfig(fetch_size=1)),
    "pagerank": (_pagerank_app, AtosConfig()),
}


@pytest.mark.parametrize("cell", list(GOLDEN_TRACES))
def test_event_trace_matches_recorded_digest(cell):
    app_factory, config = TRACE_CELLS[cell]
    digest, makespan, _counters = _traced_run(app_factory, daisy(2), config)
    assert (digest.hexdigest(), digest.n_events, makespan) == (
        GOLDEN_TRACES[cell]
    )


def test_trace_digest_stable_across_repeats():
    a = _traced_run(_bfs_app, daisy(2), AtosConfig(fetch_size=1))
    b = _traced_run(_bfs_app, daisy(2), AtosConfig(fetch_size=1))
    assert a[0].hexdigest() == b[0].hexdigest()


# -------------------------------------------------- result-level digests
#: The fixed seeded runs whose digests every execution path must agree
#: on: both apps, two frameworks, one and two GPUs.
GOLDEN_SPECS = [
    RunSpec("atos-standard-persistent", "bfs", "hollywood-2009", "daisy", 1),
    RunSpec("atos-priority-discrete", "bfs", "hollywood-2009", "daisy", 2),
    RunSpec("gunrock", "pagerank", "hollywood-2009", "daisy", 2),
]


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """Point the persistent cache at an empty directory, empty memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_memory_cache()
    yield
    clear_memory_cache()


def _digests(results):
    return [results[spec].digest() for spec in GOLDEN_SPECS]


def test_serial_pooled_and_cached_digests_agree(fresh_cache):
    serial = _digests(run_cells(GOLDEN_SPECS, jobs=1))

    # Pooled: force genuine recomputation in workers by clearing both
    # the memo and their view of the parent's memo (fork inherits it).
    clear_memory_cache()
    cells = run_grid(GOLDEN_SPECS, jobs=2, timeout_s=300.0)
    assert [cell.status for cell in cells] == ["ok"] * len(GOLDEN_SPECS)
    assert [cell.spec for cell in cells] == GOLDEN_SPECS  # spec order
    pooled = [cell.result.digest() for cell in cells]

    # Cache-hit replay: drop the memo so every run is served from disk.
    clear_memory_cache()
    replay_results = run_cells(GOLDEN_SPECS, jobs=1)
    replayed = _digests(replay_results)
    for spec in GOLDEN_SPECS:
        assert replay_results[spec].cache_hits == 1
        assert replay_results[spec].cache_misses == 0

    assert serial == pooled == replayed


def test_cache_replay_preserves_exact_output_bytes(fresh_cache):
    spec = GOLDEN_SPECS[0]
    first = run_cells([spec], jobs=1)[spec]
    clear_memory_cache()
    again = run_cells([spec], jobs=1)[spec]
    assert again is not first  # really deserialized, not memoized
    assert again.digest() == first.digest()
    assert again.time_ms == first.time_ms
    assert dict(again.counters) == dict(first.counters)
