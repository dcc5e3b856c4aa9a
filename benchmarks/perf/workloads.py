"""The six benchmark workloads, as data.

Nothing here imports the program under test at module level: a
workload is a name, a reason, and the recipe for its inputs.  The only
things that ever reach ``repro`` are the :class:`RunSpec` lists built
by :func:`specs` and the arrival log built by :func:`arrival_log`,
both generated from ``--seed``.

Cache modes
    ``off``   ``REPRO_CACHE=0``; the in-process memo is cleared before
              every pass, so each pass re-simulates every cell.
    ``cold``  persistent cache on, pointed at a fresh empty directory
              for every pass (cache *writes* are on the timed path).
    ``warm``  persistent cache populated once during set-up; every
              timed sample is a fresh interpreter served from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Cell", "Workload", "WORKLOADS", "PROBE_CELL", "cells_of", "specs",
           "arrival_log", "service_model"]

ATOS = "atos-standard-persistent"
TABLE2_FRAMEWORKS = ("gunrock", "groute", ATOS, "atos-priority-discrete")
#: Table II's datasets minus twitter50 (1.7 s to generate, 5-9 s per
#: cell: it alone would eat the time cap).
TABLE2_DATASETS = ("soc-livejournal1", "hollywood-2009", "indochina-2004",
                   "road-usa", "osm-eur")


@dataclass(frozen=True)
class Cell:
    """One (framework, app, dataset, machine, #GPUs) grid cell."""

    framework: str
    app: str
    dataset: str
    machine: str
    n_gpus: int
    #: >= 2 routes the cell through the windowed PDES engine.
    partitions: Optional[int] = None
    pdes_driver: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: One sentence: which layer dominates and what the workload is for.
    why: str
    #: What ``work_per_s`` counts: input-graph ``edges`` summed over
    #: the cells, or ``jobs`` of the arrival log.
    work_unit: str
    cells: tuple[Cell, ...] = ()
    jobs: int = 1
    cache: str = "off"
    #: Untimed passes before the first timed one.
    warmup: int = 1
    #: Timed passes run until ``--seconds`` have been measured *and* at
    #: least this many passes are in (the median of two is their mean,
    #: so a workload that jitters wants three).
    min_passes: int = 1
    #: ``engine_queueing`` only: the Poisson log and the service model.
    engine: Optional[dict[str, Any]] = None
    #: How many leading cells ``--smoke`` keeps.
    smoke_cells: int = 1
    #: The cells are (part of) the paper's Table II grid, so the
    #: speedup-direction agreement with the paper can be reported.
    paper_table2: bool = False


def _grid(frameworks, apps, datasets, machine, gpu_counts) -> tuple[Cell, ...]:
    return tuple(
        Cell(fw, app, ds, machine, n)
        for fw in frameworks for app in apps for ds in datasets
        for n in gpu_counts
    )


_TABLE2 = _grid(TABLE2_FRAMEWORKS, ("bfs",), TABLE2_DATASETS, "daisy", (2, 4))

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mesh_rounds",
        why="mesh-like graphs give 700-3900 tiny rounds per cell, so the "
            "per-round machinery (runtime + sim + interconnect) has its "
            "largest share of any cell workload",
        work_unit="edges",
        cells=_grid((ATOS,), ("bfs", "pagerank"), ("road-usa", "osm-eur"),
                    "summit-ib", (4, 8)),
    ),
    Workload(
        name="scalefree_kernels",
        why="few fat rounds: host time is inside the numpy app kernels; "
            "the bypass workload for every engine/data-path change and "
            "the target for app-kernel work",
        work_unit="edges",
        cells=_grid((ATOS, "gunrock", "groute", "galois"), ("pagerank",),
                    ("soc-livejournal1", "hollywood-2009"), "daisy", (4,)),
    ),
    Workload(
        name="engine_queueing",
        why="generator processes, timeouts and the weighted scheduler "
            "with no numpy: the sim layer driven through processes and "
            "events rather than executor rounds",
        work_unit="jobs",
        engine={
            "workers": 2, "max_queue": 256, "rate": 1.8,
            "mean_service_s": 1.0, "duration_s": 125000.0,
            "priority_mix": {"interactive": 0.2, "batch": 0.5, "bulk": 0.3},
            "smoke_duration_s": 2000.0,
        },
    ),
    Workload(
        name="grid_cold",
        why="fork-per-cell, per-worker dataset regeneration, result "
            "pickling, pipe IPC, the reap poll and cache writes dominate: "
            "the workload a shared worker supervisor must move",
        work_unit="edges",
        cells=_TABLE2, jobs=2, cache="cold", warmup=0, smoke_cells=2,
        paper_table2=True,
    ),
    Workload(
        name="grid_warm",
        why="the harness layer used the other way: cache reads, key and "
            "fingerprint computation and import time, each sample a fresh "
            "interpreter as a user re-rendering a table pays",
        work_unit="edges",
        cells=_TABLE2, cache="warm", warmup=0, smoke_cells=2,
        paper_table2=True,
    ),
    Workload(
        name="pdes_windows",
        why="the same sim/runtime code driven as hundreds of short "
            "windows with pickled exports over pipes: window barriers "
            "and IPC dominate; all cells are also in mesh_rounds",
        work_unit="edges",
        cells=tuple(
            Cell(ATOS, app, ds, "summit-ib", n, partitions=2,
                 pdes_driver="pooled")
            for app, ds, n in (("bfs", "road-usa", 8),
                               ("pagerank", "road-usa", 4),
                               ("pagerank", "road-usa", 8),
                               ("pagerank", "osm-eur", 8))
        ),
        # Three processes on two cores: the noisiest workload.
        min_passes=3,
    ),
)}

#: Known divergence, kept out of every timed workload: at partitions=2
#: this cell returns the right depths and makespan but a digest that
#: differs from serial (tasks_processed 383127 vs 383129).  The traced
#: pdes_windows run probes it and reports
#: ``runtime.partitioned.digest_mismatches``.
PROBE_CELL = Cell(ATOS, "bfs", "osm-eur", "summit-ib", 8, partitions=2,
                  pdes_driver="local")


def cells_of(workload: Workload, smoke: bool) -> tuple[Cell, ...]:
    return workload.cells[:workload.smoke_cells] if smoke else workload.cells


def specs(cells, seed: int, serial: bool = False) -> list:
    """The cells as ``RunSpec``s (``serial=True`` drops the overlays)."""
    from repro.config import ConfigOverlay
    from repro.harness.pool import RunSpec

    out = []
    for cell in cells:
        overlay = None
        if cell.partitions and not serial:
            overlay = ConfigOverlay(partitions=cell.partitions,
                                    pdes_driver=cell.pdes_driver)
        out.append(RunSpec(cell.framework, cell.app, cell.dataset,
                           cell.machine, cell.n_gpus, validate=True,
                           seed=seed, overlay=overlay))
    return out


def arrival_log(workload: Workload, seed: int, smoke: bool):
    from repro.serve.model import poisson_log

    cfg = workload.engine
    return poisson_log(
        rate=cfg["rate"], mean_service_s=cfg["mean_service_s"],
        duration_s=cfg["smoke_duration_s" if smoke else "duration_s"],
        seed=seed, priority_mix=cfg["priority_mix"],
    )


def service_model(workload: Workload):
    from repro.serve.model import ServiceModel

    cfg = workload.engine
    return ServiceModel(workers=cfg["workers"], max_queue=cfg["max_queue"])
