"""Checks on the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_schema():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert CONTRACT["command"] == ["python3", "benchmarks/perf/run.py"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in CONTRACT["per_layer"]] == layertrace.PER_LAYER


def test_probe_cell_is_in_no_timed_workload():
    probe = (wl.PROBE_CELL.app, wl.PROBE_CELL.dataset, wl.PROBE_CELL.n_gpus)
    for workload in wl.WORKLOADS.values():
        assert probe not in {(c.app, c.dataset, c.n_gpus)
                             for c in workload.cells if c.partitions}


def test_pdes_cells_are_also_mesh_cells():
    mesh = {(c.app, c.dataset, c.machine, c.n_gpus)
            for c in wl.WORKLOADS["mesh_rounds"].cells}
    assert {(c.app, c.dataset, c.machine, c.n_gpus)
            for c in wl.WORKLOADS["pdes_windows"].cells} <= mesh


def test_self_time_never_exceeds_duration_and_sums_to_the_root():
    tracer = layertrace.Tracer()

    def leaf(n):
        return sum(range(n))

    leaf_w = tracer.wrap("layer.leaf", leaf)

    def middle():
        return leaf_w(2000) + leaf_w(3000)

    middle_w = tracer.wrap("layer.middle", middle, span=True)

    def root():
        return [middle_w() for _ in range(50)]

    tracer.wrap("layer.root", root, span=True)()
    assert tracer.totals["layer.leaf"][1] == 100
    assert tracer.totals["layer.middle"][2] == 100  # direct child calls
    for key, name, cell, start, end, self_s, parent in tracer.spans:
        assert 0.0 <= self_s <= end - start
    root_span = tracer.spans[0]
    assert root_span[0] == "layer.root" and root_span[6] == -1
    assert all(s[6] == 0 for s in tracer.spans[1:])
    total_self = sum(slot[0] for slot in tracer.totals.values())
    assert abs(total_self - (root_span[4] - root_span[3])) < 1e-6


def test_snapshot_merge_round_trips_through_json():
    tracer = layertrace.Tracer()
    tracer.wrap("a", lambda: tracer.wrap("b", lambda: 1, span=True)(),
                span=True)()
    snapshot = json.loads(json.dumps(tracer.snapshot()))
    other = layertrace.Tracer()
    other.merge(snapshot)
    other.merge(snapshot)
    assert other.totals["a"][1] == 2 and other.totals["b"][1] == 2
    assert [s[6] for s in other.spans] == [-1, 0, -1, 2]


def test_wrappers_are_removed_by_identity():
    import repro.harness.runner as runner
    from repro.sim.core import AnyOf, Environment
    from repro.sim.equeue import HeapQueue

    before = (vars(Environment)["run"], vars(HeapQueue)["push"],
              runner.load, runner.run)
    tracer = layertrace.Tracer()
    tracer.install()
    assert vars(Environment)["run"] is not before[0]
    assert "__init__" in vars(AnyOf)
    env = Environment()
    env.timeout(1.0)
    env.run()
    assert tracer.calls("sim.equeue.push") == 1
    tracer.remove()
    assert (vars(Environment)["run"], vars(HeapQueue)["push"],
            runner.load, runner.run) == before
    assert "__init__" not in vars(AnyOf)


def test_layer_metrics_cover_exactly_the_declared_names():
    tracer = layertrace.Tracer()
    values = layertrace.layer_metrics(tracer, {
        "traced_wall_s": 1.0, "untraced_wall_s": 1.0,
        "attributable_wall_s": 1.0})
    assert list(values) == [name for name, _, _ in layertrace.PER_LAYER]


def test_smoke_run_of_every_workload_under_20s():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, cwd=ROOT)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    for name in wl.WORKLOADS:
        assert f"== {name} " in done.stdout
    assert "failed_frac" in done.stdout
    assert elapsed < 20.0, f"smoke took {elapsed:.1f}s"


def test_single_workload_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "engine_queueing", "--seed", "3", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert line["metrics"]["serve.model.jobs"]["value"] > 0
