"""Fig-4 sensitivity sweep: the full study equals ``BENCH_tune.json``.

Reruns ``repro tune`` (both apps, the whole 5x7 BATCH_SIZE x WAIT_TIME
grid) on an empty run cache and requires the document to equal the
committed one in every field except each trial's host ``wall_s``.
About 96 s on two cores with ``REPRO_JOBS=2``.
"""

import json
from pathlib import Path

from repro.harness import clear_memory_cache
from repro.tune import run_fig4_study

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_tune.json"


def _without_wall(value):
    if isinstance(value, dict):
        return {k: _without_wall(v) for k, v in value.items() if k != "wall_s"}
    if isinstance(value, list):
        return [_without_wall(v) for v in value]
    return value


def test_fig4_sweep_equals_committed_document(
    benchmark, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memory_cache()
    try:
        doc = benchmark.pedantic(
            run_fig4_study, rounds=1, iterations=1, warmup_rounds=0
        )
    finally:
        clear_memory_cache()
    committed = json.loads(COMMITTED.read_text())
    assert _without_wall(doc) == _without_wall(committed)
