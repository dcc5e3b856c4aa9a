"""The Fig-4 sweep: analysis pin, one live cell, document schema.

``benchmarks/test_tune_fig4_sweep.py`` reruns the whole study and
requires it to equal ``BENCH_tune.json``; these are the tier-1 pieces
of that pin.
"""

import json
from pathlib import Path

import pytest

from repro.harness import clear_memory_cache
from repro.tune import (
    SCHEMA,
    _fig4_analysis,
    fig4_trials,
    render_tune_bench,
    validate_tune_bench,
)

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_tune.json"


@pytest.fixture(scope="module")
def committed():
    return json.loads(COMMITTED.read_text())


def test_analysis_reproduces_committed_blocks(committed):
    # Feeding the committed grid trials back through the analysis must
    # give every committed fig4.<app> block, byte for byte.
    for app, block in committed["fig4"].items():
        trials = [t for t in committed["trials"] if t["app"] == app]
        assert [t["index"] for t in trials] == list(range(len(trials)))
        assert json.dumps(_fig4_analysis(app, trials), indent=2) == (
            json.dumps(block, indent=2)
        )


def test_one_live_cell_matches_committed_trial(committed):
    # The BFS optimum cell, simulated afresh (the suite's cache is
    # empty), scores bit-equal to the committed trial.
    clear_memory_cache()
    (trial,) = fig4_trials("bfs", [(1 << 16, 4)], jobs=1)
    want = next(
        t for t in committed["trials"]
        if t["app"] == "bfs"
        and t["point"] == {"batch_size": 1 << 16, "wait_time": 4}
    )
    assert trial["status"] == "ok"
    assert trial["objective"] == 38.62478812059223 == want["objective"]
    assert trial["per_rep"] == want["per_rep"]
    assert trial["aux"] == want["aux"]


def test_validate_rejects_malformed_docs(committed):
    assert committed["schema"] == SCHEMA
    assert validate_tune_bench(committed) == len(committed["trials"])
    assert "grid optimum" in render_tune_bench(committed)
    for mutate in (
        lambda d: d.update(schema="repro-tune/1"),
        lambda d: d.pop("accounting"),
        lambda d: d["accounting"].update(simulations=-1),
        lambda d: d.update(trials=[]),
        lambda d: d["trials"][0].pop("point"),
        lambda d: d["trials"][0].update(status="mystery"),
        lambda d: d["trials"][0].pop("objective"),
        lambda d: d.update(fig4={}),
        lambda d: d["fig4"]["bfs"].pop("grid_best"),
        lambda d: d["fig4"]["bfs"].update(sensitivity=[]),
    ):
        broken = json.loads(json.dumps(committed))
        mutate(broken)
        with pytest.raises(ValueError):
            validate_tune_bench(broken)
