"""The processes behind one workload run.

``run.py`` starts, per workload, a *reference* sibling and a *measure*
process (always a fresh interpreter, so no ``lru_cache``\\ d graph leaks
into forked workers).  They meet through files in a scratch directory:

reference
    one serial pass (cache off; ``grid_warm``: cache on, which also
    populates the cache) -> ``reference.json``: per-cell digest and
    simulated time, input-graph edge counts; for ``engine_queueing``
    the job-outcome digest.
measure
    imports, builds inputs, runs the warm-up, waits for the reference,
    then runs timed passes for ``--seconds`` and, with ``--trace 1``,
    one traced pass.  Prints one JSON document on its last stdout line.
warm-sample
    one ``grid_warm`` sample: a fresh interpreter that imports the CLI
    and serves the whole grid from the populated cache.

Every pass is checked: a cell fails if it raised, timed out, crashed,
missed its serial reference output (``validate=True`` inside the
program) or its digest differs from the reference sibling's.  Failures
are counted, never raised past the pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import workloads as wl

RUN_PY = Path(__file__).resolve().parent / "run.py"
REFERENCE_WAIT_S = 170.0


# ------------------------------------------------------------------ helpers
def emit(document: dict) -> None:
    print(json.dumps(document), flush=True)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def write_atomic(path: Path, document: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document))
    os.replace(tmp, path)


def wait_for_reference(scratch: Path) -> dict:
    path = scratch / "reference.json"
    deadline = time.monotonic() + REFERENCE_WAIT_S
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"no reference after {REFERENCE_WAIT_S:.0f}s")
        time.sleep(0.02)
    return json.loads(path.read_text())


def summary(samples: list[float]) -> dict:
    """Median + quartiles + count; the metric value is the median."""
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (samples[0],) * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any one descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def host_info() -> dict:
    import numpy

    from repro.batchpath import batch_path_enabled
    from repro.harness.pool import resolve_jobs
    from repro.sim.equeue import engine_queue_name
    from repro.telemetry.spans import telemetry_enabled

    return {
        "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "effective": {
            "batch_path": batch_path_enabled(),
            "engine_queue": engine_queue_name(),
            "telemetry": telemetry_enabled(),
            "default_jobs": resolve_jobs(None),
            "REPRO_CACHE": os.environ.get("REPRO_CACHE", "(unset: on)"),
        },
    }


def sum_dicts(dicts) -> dict[str, float]:
    total: dict[str, float] = {}
    for one in dicts:
        for key, value in one.items():
            total[key] = total.get(key, 0.0) + value
    return total


def outcome_digest(run) -> str:
    """Digest of every job's fate in one simulated service trajectory."""
    flat = array("d")
    for job in run.jobs:
        flat.extend((job.t_arrive, job.service_s, float(job.rejected),
                     -1.0 if job.t_start is None else job.t_start,
                     -1.0 if job.t_done is None else job.t_done))
    h = hashlib.sha256(flat.tobytes())
    h.update("".join(job.priority[0] for job in run.jobs).encode())
    return h.hexdigest()


def cell_record(cell, traced: bool = False) -> dict:
    """A ``CellResult`` reduced to what checks and reports need."""
    result = cell.result[0] if traced and cell.ok else cell.result
    record = {"ok": cell.ok, "status": cell.status,
              "wall_s": cell.wall_clock_s, "label": cell.spec.label()}
    if cell.ok:
        record.update(
            digest=result.digest(), sim_ms=result.time_ms,
            cache_hit=result.cache_hits == 1,
        )
    else:
        record["error"] = cell.error.strip().splitlines()[-1:]
    return record


def count_failed(records: list[dict], reference: dict,
                 need_hits: bool = False) -> int:
    failed = 0
    for record, want in zip(records, reference["digests"]):
        good = (record["ok"] and want is not None
                and record["digest"] == want
                and (not need_hits or record["cache_hit"]))
        if not good:
            failed += 1
            log(f"FAILED {record['label']}: {record.get('status')} "
                f"digest={str(record.get('digest'))[:12]} "
                f"want={str(want)[:12]} {record.get('error', '')}")
    return failed


# ---------------------------------------------------------------- reference
def reference(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    if workload.engine:
        from repro.serve.validate import littles_law_check

        run = wl.service_model(workload).simulate(
            wl.arrival_log(workload, args.seed, args.smoke))
        write_atomic(scratch / "reference.json", {
            "digest": outcome_digest(run), "jobs": len(run.jobs),
            "rejected": run.rejected,
            "littles_law": littles_law_check(run).summary,
        })
        return 0
    from repro.graph import load
    from repro.harness.pool import run_grid

    cells = wl.cells_of(workload, args.smoke)
    start = time.perf_counter()
    results = run_grid(wl.specs(cells, args.seed, serial=True), jobs=1)
    serial_wall = time.perf_counter() - start
    records = [cell_record(c) for c in results]
    write_atomic(scratch / "reference.json", {
        # From a cold process: includes generating every dataset once.
        "serial_wall_s": serial_wall,
        "digests": [r.get("digest") for r in records],
        "sim_ms": [r.get("sim_ms") for r in records],
        "labels": [r["label"] for r in records],
        "edges": {ds: load(ds).n_edges for ds in {c.dataset for c in cells}},
    })
    return 0


# -------------------------------------------------------------- warm sample
def warm_sample(args) -> int:
    t_import = time.perf_counter()
    import repro.cli  # noqa: F401  (the front door a user pays for)
    from repro.harness.pool import execute_spec, run_grid

    import_s = time.perf_counter() - t_import
    workload = wl.WORKLOADS[args.workload]
    specs = wl.specs(wl.cells_of(workload, args.smoke), args.seed)
    tracer = None
    trace_setup = time.perf_counter()
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
    start = time.perf_counter()
    trace_setup = start - trace_setup
    results = run_grid(
        specs, jobs=1, run_fn=tracer.run_cell if tracer else execute_spec)
    grid_s = time.perf_counter() - start
    document = {
        "records": [cell_record(c, traced=bool(tracer)) for c in results],
        "import_s": import_s, "grid_s": grid_s,
    }
    if tracer:
        tracer.remove()
        document["snapshots"] = [c.result[1] for c in results if c.ok]
        document["costs"] = [tracer.cost_inner, tracer.cost_outer]
        # Calibrating and patching are the tracer's cost, not the grid's.
        document["trace_setup_s"] = trace_setup
    emit(document)
    return 0


# ------------------------------------------------------------------ measure
class Measure:
    """One workload's set-up, timed passes and (optionally) traced pass."""

    def __init__(self, args):
        self.args = args
        self.workload = wl.WORKLOADS[args.workload]
        self.scratch = Path(args.scratch)
        self.cells = wl.cells_of(self.workload, args.smoke)
        self.tracer = None

    # -- one pass per mode ------------------------------------------------
    def engine_pass(self) -> tuple[float, list[dict]]:
        from repro.serve.validate import littles_law_check

        start = time.perf_counter()
        run = self.model.simulate(self.log)
        wall = time.perf_counter() - start
        check = littles_law_check(run)
        ok = bool(check.ok) and run.rejected == 0
        return wall, [{
            "ok": ok, "digest": outcome_digest(run), "wall_s": wall,
            "label": f"service-model/{len(run.jobs)}jobs", "status":
            f"{check.summary}; rejected={run.rejected}", "jobs": len(run.jobs),
        }]

    def grid_pass(self) -> tuple[float, list[dict]]:
        from repro.harness import runner
        from repro.harness.pool import execute_spec, run_grid

        workload = self.workload
        if workload.cache == "cold":
            cache_dir = tempfile.mkdtemp(prefix="cold-", dir=self.scratch)
            os.environ["REPRO_CACHE_DIR"] = cache_dir
        runner.clear_memory_cache()
        start = time.perf_counter()
        results = run_grid(
            self.specs, jobs=workload.jobs,
            timeout_s=300 if workload.jobs > 1 else None,
            run_fn=self.tracer.run_cell if self.tracer else execute_spec)
        wall = time.perf_counter() - start
        self.last_results = results
        if workload.cache == "cold":
            shutil.rmtree(cache_dir, ignore_errors=True)
        return wall, [cell_record(c, traced=bool(self.tracer))
                      for c in results]

    def warm_pass(self) -> tuple[float, list[dict]]:
        args = self.args
        command = [sys.executable, str(RUN_PY), "--role", "warm-sample",
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--trace", "1" if self.tracer else "0"]
        if args.smoke:
            command.append("--smoke")
        start = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.PIPE, check=False)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            return wall, [{"ok": False, "status": "sample crashed",
                           "label": c.dataset} for c in self.cells]
        self.last_sample = json.loads(done.stdout.splitlines()[-1])
        return wall, self.last_sample["records"]

    # -- the run ----------------------------------------------------------
    def run(self) -> int:
        args, workload = self.args, self.workload
        t_import = time.perf_counter()
        import repro.cli  # noqa: F401
        import repro.harness  # noqa: F401

        self.import_s = time.perf_counter() - t_import
        if workload.engine:
            self.model = wl.service_model(workload)
            self.log = wl.arrival_log(workload, args.seed, args.smoke)
            self.one_pass = self.engine_pass
        else:
            self.specs = wl.specs(self.cells, args.seed)
            self.one_pass = (self.warm_pass if workload.cache == "warm"
                             else self.grid_pass)
        for _ in range(workload.warmup):
            self.one_pass()
        ref = wait_for_reference(self.scratch)
        if workload.engine:
            ref["digests"] = [ref["digest"]]
            work = ref["jobs"]
        else:
            work = sum(ref["edges"][c.dataset] for c in self.cells)

        walls, attempted, failed, records = [], 0, 0, []
        first_pass_epoch = time.time()
        started = time.perf_counter()
        while True:
            wall, records = self.one_pass()
            walls.append(wall)
            tried, bad = self.tally(records, ref)
            attempted += tried
            failed += bad
            if (len(walls) >= workload.min_passes
                    and time.perf_counter() - started >= args.seconds):
                break
        timing = summary(walls)
        document = {
            "workload": workload.name, "seed": args.seed,
            "first_pass_epoch": first_pass_epoch,
            "import_s": self.import_s, "wall": timing,
            "work": work, "work_unit": workload.work_unit,
            "work_per_s": work / timing["median"],
            "peak_rss_mb": peak_rss_mb(),
            "cells": [
                {"label": r["label"], "sim_ms": r.get("sim_ms"),
                 "wall_s": r.get("wall_s")} for r in records
            ],
            "host": host_info(),
        }
        if workload.paper_table2:
            document["paper_direction_agreement"] = self.paper_agreement(ref)
        if workload.engine:
            document["littles_law"] = records[0]["status"]
        else:
            document["serial_reference_wall_s"] = ref["serial_wall_s"]
        if args.trace:
            layers, t_attempted, t_failed = self.traced(
                ref, timing["median"], work, document)
            document["layers"] = layers
            attempted += t_attempted
            failed += t_failed
        document.update(attempted=attempted, failed=failed)
        emit(document)
        return 0

    def tally(self, records: list[dict], ref: dict) -> tuple[int, int]:
        """(attempted, failed) of one pass, in cells — or in jobs, where
        a pass that fails its check fails every job in it."""
        bad = count_failed(records, ref,
                           need_hits=self.workload.cache == "warm")
        if self.workload.engine:
            jobs = records[0]["jobs"]
            return jobs, jobs if bad else 0
        return len(records), bad

    def paper_agreement(self, ref: dict) -> float:
        """Speedup-direction agreement with the paper's Table II.

        Simulated times only — identical on every pass — so it is
        computed from the reference pass.  The model is otherwise
        unvalidated against hardware.
        """
        from repro.harness.experiments import GridResult
        from repro.harness.paper_data import (
            NVLINK_GPU_COUNTS,
            PAPER_TABLE2_BFS_NVLINK,
        )
        from repro.harness.report import compare_grid

        counts = sorted({c.n_gpus for c in self.cells})
        grid = GridResult(app="bfs", machine="daisy",
                          gpu_counts=tuple(counts))
        for cell, sim_ms in zip(self.cells, ref["sim_ms"]):
            if sim_ms is None:
                return 0.0
            grid.times.setdefault(cell.framework, {}).setdefault(
                cell.dataset, []).append(sim_ms)
        report = compare_grid("Table II", grid, PAPER_TABLE2_BFS_NVLINK,
                              NVLINK_GPU_COUNTS)
        return report.direction_agreement

    # -- the traced pass ----------------------------------------------------
    def traced(self, ref, untraced_wall, work, document):
        from layertrace import Tracer, layer_metrics

        workload = self.workload
        warm = workload.cache == "warm"  # traced inside the sample instead
        facts = {"untraced_wall_s": untraced_wall, "work": work,
                 "work_unit": workload.work_unit, "jobs": workload.jobs,
                 "import_s": self.import_s,
                 "partitions": max((c.partitions or 1 for c in self.cells),
                                   default=1),
                 "paper_direction_agreement": document.get(
                     "paper_direction_agreement", 0.0)}
        if facts["partitions"] > 1:
            facts.update(self.pdes_extras(untraced_wall))

        tracer = self.tracer = Tracer()
        tracer.calibrate()
        if not warm:
            tracer.install()
        try:
            wall, records = self.one_pass()
        finally:
            if not warm:
                tracer.remove()
            self.tracer = None

        facts["attributable_wall_s"] = wall
        if workload.engine:
            facts["model_jobs"] = records[0]["jobs"]
        else:
            if warm:
                sample = self.last_sample
                snapshots = sample["snapshots"]
                tracer.cost_inner, tracer.cost_outer = sample["costs"]
                wall -= sample["trace_setup_s"]
                facts.update(import_s=sample["import_s"],
                             attributable_wall_s=sample["grid_s"])
            else:
                good = [c.result for c in self.last_results if c.ok]
                snapshots = [snapshot for _, snapshot in good]
                facts["result_bytes"] = sum(
                    len(pickle.dumps(r, pickle.HIGHEST_PROTOCOL))
                    for r in good)
                facts["counters"] = sum_dicts(r.counters for r, _ in good)
                facts["pdes"] = sum_dicts(r.host_stats or {} for r, _ in good)
            # Each cell was traced on its own (maybe in its own worker).
            tracer.reset()
            for snapshot in snapshots:
                tracer.merge(snapshot)
            facts["cell_walls"] = [r["wall_s"] for r in records if r["ok"]]
            facts["failed_cells"] = sum(not r["ok"] for r in records)
            if workload.jobs > 1:
                facts["attributable_wall_s"] = sum(facts["cell_walls"])
        facts["traced_wall_s"] = wall
        layers = layer_metrics(tracer, facts)
        self.write_trace(tracer, layers)
        return (layers, *self.tally(records, ref))

    def pdes_extras(self, pdes_wall: float) -> dict:
        """Serial wall of the same cells, and the known-divergence probe.

        Both run untraced, in this process, after the timed passes.
        """
        from repro.harness import runner
        from repro.harness.pool import run_grid

        runner.clear_memory_cache()
        start = time.perf_counter()
        run_grid(wl.specs(self.cells, self.args.seed, serial=True), jobs=1)
        serial_wall = time.perf_counter() - start
        extras = {"speedup_vs_serial": serial_wall / pdes_wall}
        if not self.args.smoke:
            runner.clear_memory_cache()
            pair = run_grid(
                wl.specs([wl.PROBE_CELL], self.args.seed)
                + wl.specs([wl.PROBE_CELL], self.args.seed, serial=True),
                jobs=1)
            digests = [c.result.digest() if c.ok else c.status for c in pair]
            extras["digest_mismatches"] = int(digests[0] != digests[1])
        return extras

    def write_trace(self, tracer, layers: dict) -> None:
        out = Path(self.args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = f"trace-{self.workload.name}-seed{self.args.seed}.json"
        (out / name).write_text(json.dumps({
            "workload": self.workload.name, "seed": self.args.seed,
            "span_fields": ["key", "name", "cell", "start", "end",
                            "self_s", "parent"],
            "spans": tracer.spans,
            "totals_fields": ["raw_self_s", "calls", "child_calls"],
            "totals": tracer.totals,
            "counts": tracer.counts,
            "wrapper_cost_s": [tracer.cost_inner, tracer.cost_outer],
            "layers": layers,
        }))
