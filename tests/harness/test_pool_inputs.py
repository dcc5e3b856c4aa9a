"""Inputs built once: the pool builds a cell's inputs before it forks.

:class:`~repro.harness.pool.WorkerPool` calls
:func:`repro.harness.runner.prepare_inputs` in the forking process, so
a worker finds its dataset, BFS source, partition and serial reference
already in the caches it inherited.  A cell the memo or the persistent
cache already holds builds nothing, and an interrupt that lands during
a build still drains the grid at once.
"""

import os
import signal
import time
from functools import lru_cache

import pytest

from repro.harness import runner
from repro.harness.pool import GridInterrupted, RunSpec, execute_spec, run_grid

#: The lru caches ``runner.run`` reads a BFS cell's inputs from.
INPUT_CACHES = ("load", "get_partition", "bfs_source", "_reference_depth")

SPECS = [
    RunSpec("gunrock", "bfs", "road-usa", "daisy", n_gpus, seed=3)
    for n_gpus in (2, 4)
]


def _fresh_input_caches(monkeypatch):
    """Give ``runner`` empty input caches, so every build is this test's."""
    for name in INPUT_CACHES:
        cached = getattr(runner, name)
        monkeypatch.setattr(
            runner, name, lru_cache(maxsize=None)(cached.__wrapped__)
        )


@pytest.fixture
def fresh_inputs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(runner, "_memo", {})
    _fresh_input_caches(monkeypatch)
    return monkeypatch


def _misses() -> dict:
    return {
        name: getattr(runner, name).cache_info().misses
        for name in INPUT_CACHES
    }


def run_counting_misses(spec):
    """Run the cell; return the input-cache misses it took (in the worker)."""
    before = _misses()
    execute_spec(spec)
    after = _misses()
    return {name: after[name] - before[name] for name in INPUT_CACHES}


def test_forked_cell_finds_every_input_built(fresh_inputs):
    cells = run_grid(SPECS, jobs=2, run_fn=run_counting_misses)
    assert all(cell.ok for cell in cells), [cell.error for cell in cells]
    for cell in cells:
        assert cell.result == dict.fromkeys(INPUT_CACHES, 0)
    # The parent built each input once, for both cells.
    assert runner.load.cache_info().misses == 1
    assert runner.get_partition.cache_info().misses == len(SPECS)


@pytest.mark.parametrize("held_by", ["memo", "persistent cache"])
def test_cached_cells_build_nothing_in_the_parent(fresh_inputs, held_by):
    if held_by == "memo":
        fresh_inputs.setenv("REPRO_CACHE", "0")
    first = run_grid(SPECS, jobs=2)
    assert all(cell.ok for cell in first)
    if held_by == "memo":
        for cell in first:
            runner.seed_memo(cell.spec, cell.result)
    _fresh_input_caches(fresh_inputs)
    again = run_grid(SPECS, jobs=2)
    assert [cell.result.digest() for cell in again] == [
        cell.result.digest() for cell in first
    ]
    assert _misses() == dict.fromkeys(INPUT_CACHES, 0)
    if held_by == "persistent cache":
        assert all(cell.result.cache_hits == 1 for cell in again)


def _ok(spec):
    return spec.dataset


def test_interrupt_during_a_build_drains_at_once(monkeypatch):
    specs = [RunSpec("fake", "bfs", f"d{i}", "daisy", 1) for i in range(4)]

    def slow_build(spec):
        if spec.dataset == "d2":
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(30.0)

    monkeypatch.setattr(runner, "prepare_inputs", slow_build)
    start = time.monotonic()
    with pytest.raises(GridInterrupted) as caught:
        run_grid(specs, jobs=2, run_fn=_ok)
    assert time.monotonic() - start < 10.0
    assert [spec.dataset for spec in caught.value.unstarted] == ["d2", "d3"]
    assert sorted(cell.result for cell in caught.value.cells) == ["d0", "d1"]
