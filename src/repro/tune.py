"""The Fig-4 sensitivity sweep: BATCH_SIZE x WAIT_TIME per app.

The paper's aggregator has two knobs, ``BATCH_SIZE`` (flush threshold)
and ``WAIT_TIME`` (poll visits before a timeout flush).  This module
reproduces the paper's Figure 4 study of them: for BFS and PageRank on
road-usa (summit-ib, 8 GPUs, ``atos-standard-persistent``) it runs
every cell of the ``FIG4_BATCH_LEVELS x FIG4_WAIT_LEVELS`` grid through
the pooled, cached harness, scores each cell, and compares the measured
optimum against the analytic :func:`repro.config.wait_time_for`.

The score is :func:`composite` — makespan x sqrt(fabric messages), not
raw makespan.  At the repo's 1/200 dataset scale per-message fixed
costs are ~200x less material than at paper scale, so a pure-makespan
sweep degenerates toward ``WAIT_TIME=1``; the composite restores the
per-message cost term ``WAIT_TIME`` exists to amortize.  The document
reports the raw-makespan optimum alongside (``makespan_best``).

The committed artifact is ``BENCH_tune.json`` (schema
``repro-tune/2``), written by ``python -m repro tune``.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from repro.config import ConfigOverlay, wait_time_for
from repro.errors import ConfigError
from repro.metrics.counters import RunResult
from repro.metrics.tables import format_cache_line

__all__ = [
    "SCHEMA",
    "FIG4_BATCH_LEVELS",
    "FIG4_WAIT_LEVELS",
    "composite",
    "fig4_trials",
    "run_fig4_study",
    "render_tune_bench",
    "validate_tune_bench",
    "write_bench",
]

SCHEMA = "repro-tune/2"

#: Fig-4 sweep levels: BATCH_SIZE 64 KiB..16 MiB, WAIT_TIME 1..64.
FIG4_BATCH_LEVELS = (1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24)
FIG4_WAIT_LEVELS = (1, 2, 4, 8, 16, 32, 64)
FIG4_QUICK_BATCH_LEVELS = (1 << 18, 1 << 20, 1 << 22)
FIG4_QUICK_WAIT_LEVELS = (1, 4, 16, 64)

#: A measured point is "on the plateau" when its objective is within
#: this factor of the measured optimum.
PLATEAU_FACTOR = 1.10


def composite(result: RunResult) -> float:
    """Makespan (ms) x sqrt(fabric messages); lower is better."""
    messages = max(float(result.counters["fabric_messages"]), 1.0)
    return float(result.time_ms) * math.sqrt(messages)


def fig4_trials(
    app: str,
    points: list,
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> list[dict]:
    """Run one app's ``(batch_size, wait_time)`` points; one trial each.

    The cells fan out over the process pool and are served from the
    persistent run cache when already computed; a failed cell (error,
    timeout, crash) becomes an ``error`` trial, not a dead study.
    """
    from repro.harness import runner
    from repro.harness.pool import RunSpec, run_grid

    specs = [
        RunSpec(
            framework="atos-standard-persistent",
            app=app,
            dataset="road-usa",
            machine="summit-ib",
            n_gpus=8,
            overlay=ConfigOverlay(batch_size=batch, wait_time=wait),
        )
        for batch, wait in points
    ]
    cells = run_grid(specs, jobs=jobs, timeout_s=timeout_s)
    trials = []
    for index, ((batch, wait), cell) in enumerate(zip(points, cells)):
        trial = {
            "app": app,
            "index": index,
            "point": {"batch_size": batch, "wait_time": wait},
        }
        if not cell.ok:
            trial.update(
                status="error",
                objective=None,
                error=f"{cell.status}: {cell.error.strip()}",
            )
            trials.append(trial)
            continue
        result = runner.seed_memo(cell.spec, cell.result)
        score = composite(result)
        trial.update(
            status="ok",
            objective=score,
            per_rep=[score],
            wall_s=round(result.wall_clock_s, 6),
            simulations=result.cache_misses,
            disk_hits=result.cache_hits,
            aux={
                "time_ms": float(result.time_ms),
                "fabric_messages": float(
                    result.counters.get("fabric_messages", 0)
                ),
            },
        )
        trials.append(trial)
    return trials


def _fig4_analysis(app: str, trials: list) -> dict:
    """Per-app sensitivity analysis: optimum, plateau, analytic check."""
    cells = [t for t in trials if t["status"] == "ok"]
    if not cells:
        raise ConfigError(f"fig4 {app}: no successful grid cells")
    best = min(cells, key=lambda t: (t["objective"], t["index"]))
    optimum = best["objective"]
    plateau = sorted(
        t["point"]["wait_time"]
        for t in cells
        if t["point"]["batch_size"] == best["point"]["batch_size"]
        and t["objective"] <= optimum * PLATEAU_FACTOR
    )
    analytic_wait = wait_time_for(app)
    wait_levels = sorted({t["point"]["wait_time"] for t in cells})
    # The analytic prediction's own measured objective (its best cell).
    analytic_cells = [
        t for t in cells if t["point"]["wait_time"] == analytic_wait
    ]
    analytic_obj = (
        min(t["objective"] for t in analytic_cells)
        if analytic_cells
        else None
    )
    # The raw-makespan optimum: at 1/200 dataset scale it degenerates
    # toward WAIT_TIME=1, which is exactly why the composite exists —
    # report both.
    raw_best = min(cells, key=lambda t: (t["aux"]["time_ms"], t["index"]))
    return {
        "objective": "composite",
        "grid_budget": len(trials),
        "grid_best": {
            "point": best["point"],
            "objective": optimum,
        },
        "makespan_best": {
            "point": raw_best["point"],
            "time_ms": raw_best["aux"]["time_ms"],
        },
        "wait_levels": wait_levels,
        "plateau_wait_values": plateau,
        "plateau_factor": PLATEAU_FACTOR,
        "analytic_wait": analytic_wait,
        "analytic_objective": analytic_obj,
        "analytic_in_plateau": analytic_wait in plateau,
        #: How far the shipped analytic WAIT_TIME sits from the
        #: measured optimum (1.0 = it IS the optimum).  Reported even
        #: when off-plateau: a conservative shipped default is a
        #: finding, not a failure.
        "analytic_within_factor": (
            None if analytic_obj is None else analytic_obj / optimum
        ),
        "sensitivity": [
            {
                "batch_size": t["point"]["batch_size"],
                "wait_time": t["point"]["wait_time"],
                "objective": t["objective"],
                "time_ms": t["aux"]["time_ms"],
            }
            for t in cells
        ],
    }


def run_fig4_study(
    quick: bool = False,
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
) -> dict:
    """Sweep the Fig-4 grid per app; returns the ``BENCH_tune`` document.

    ``quick`` sweeps BFS only, on a 3x4 subset of the levels.
    """
    apps = ("bfs",) if quick else ("bfs", "pagerank")
    batches = FIG4_QUICK_BATCH_LEVELS if quick else FIG4_BATCH_LEVELS
    waits = FIG4_QUICK_WAIT_LEVELS if quick else FIG4_WAIT_LEVELS
    # Batch is the outer loop: trial indices (and so grid_best's
    # tie-break) follow this order.
    points = [(batch, wait) for batch in batches for wait in waits]
    fig4: dict[str, dict] = {}
    trials: list[dict] = []
    for app in apps:
        app_trials = fig4_trials(app, points, jobs=jobs, timeout_s=timeout_s)
        fig4[app] = _fig4_analysis(app, app_trials)
        trials.extend(app_trials)
    ok = [t for t in trials if t["status"] == "ok"]
    return {
        "schema": SCHEMA,
        "quick": quick,
        "headline": (
            "fig4 sensitivity: analytic wait_time_for vs measured optimum"
        ),
        "fig4": fig4,
        "trials": trials,
        "accounting": {
            "trials": len(trials),
            "simulations": sum(t["simulations"] for t in ok),
            "disk_cache_hits": sum(t["disk_hits"] for t in ok),
            "errors": len(trials) - len(ok),
        },
    }


def render_tune_bench(doc: dict) -> str:
    """Human-readable summary of a tune document."""
    acct = doc["accounting"]
    lines = [
        "fig4 sensitivity sweep" + (" (quick)" if doc["quick"] else ""),
        format_cache_line(acct["disk_cache_hits"], acct["simulations"]),
    ]
    for app, cell in doc["fig4"].items():
        grid_best = cell["grid_best"]
        lines.append("")
        lines.append(
            f"{app} ({cell['objective']}): grid optimum "
            f"batch={grid_best['point']['batch_size']} "
            f"wait={grid_best['point']['wait_time']} "
            f"-> {grid_best['objective']:.4g} "
            f"[{cell['grid_budget']} evals]"
        )
        factor = cell["analytic_within_factor"]
        lines.append(
            f"  analytic wait_time_for({app}) = "
            f"{cell['analytic_wait']} "
            f"{'IS' if cell['analytic_in_plateau'] else 'is NOT'} "
            f"on the measured plateau "
            f"(waits within {cell['plateau_factor']:.2f}x: "
            f"{cell['plateau_wait_values']}"
            + (
                f"; analytic sits at {factor:.2f}x the optimum"
                if factor is not None
                else ""
            )
            + ")"
        )
        raw = cell["makespan_best"]
        lines.append(
            f"  raw-makespan optimum (reported for honesty): "
            f"wait={raw['point']['wait_time']} "
            f"-> {raw['time_ms']:.4g} ms"
        )
    return "\n".join(lines)


def validate_tune_bench(doc: dict) -> int:
    """Schema-check a tune document; returns the trial count.

    Checks the schema tag, the accounting block, non-empty trials each
    carrying a point and a status (and an objective when ok), and a
    non-empty per-app ``fig4`` analysis with the analytic comparison.
    Raises :class:`ValueError` on the first violation.
    """
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}"
        )
    acct = doc.get("accounting")
    if not isinstance(acct, dict):
        raise ValueError("missing accounting block")
    for key in ("trials", "simulations", "disk_cache_hits", "errors"):
        if not isinstance(acct.get(key), int) or acct[key] < 0:
            raise ValueError(f"accounting.{key} must be a non-negative int")
    trials = doc.get("trials")
    if not isinstance(trials, list) or not trials:
        raise ValueError("trials must be a non-empty list")
    for trial in trials:
        if not isinstance(trial.get("point"), dict):
            raise ValueError(f"trial missing point: {trial!r}")
        if trial.get("status") not in ("ok", "error"):
            raise ValueError(f"trial bad status: {trial!r}")
        if trial["status"] == "ok" and not isinstance(
            trial.get("objective"), (int, float)
        ):
            raise ValueError(f"ok trial missing objective: {trial!r}")
    fig4 = doc.get("fig4")
    if not isinstance(fig4, dict) or not fig4:
        raise ValueError("needs a non-empty fig4 block")
    for app, cell in fig4.items():
        for key in (
            "grid_best",
            "analytic_wait",
            "analytic_in_plateau",
            "plateau_wait_values",
            "sensitivity",
        ):
            if key not in cell:
                raise ValueError(f"fig4.{app} missing {key}")
        if not cell["sensitivity"]:
            raise ValueError(f"fig4.{app}: empty sensitivity sweep")
    return len(trials)


def write_bench(doc: dict, path: str) -> None:
    """Write a study document as pretty-printed JSON to ``path``."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
