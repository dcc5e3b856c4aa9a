"""Experiment harness: cached grid runner + table/figure definitions.

Layering: :mod:`~repro.harness.runner` executes and caches individual
cells (in-process memo + the persistent on-disk cache in
:mod:`~repro.harness.cache`), :mod:`~repro.harness.pool` fans grids out
over worker processes, and :mod:`~repro.harness.experiments` defines
the paper's tables/figures on top of both.
"""

from repro.harness.cache import (
    RunCache,
    cache_enabled,
    get_cache,
    machine_fingerprint,
)
from repro.harness.chaos import (
    CHAOS_VARIANTS,
    ChaosCell,
    ChaosSpec,
    chaos_grid,
    render_chaos,
    run_chaos_cell,
    verify_inert,
)
from repro.harness.profile import ProfileResult, run_profile
from repro.harness.pool import (
    CellResult,
    GridFailure,
    RunSpec,
    grid_specs,
    resolve_jobs,
    run_cells,
    run_grid,
)
from repro.harness.runner import (
    FRAMEWORKS,
    PR_EPSILON,
    clear_memory_cache,
    get_driver,
    get_machine,
    get_partition,
    run,
    run_key,
    seed_memo,
)
from repro.harness.paper_data import (
    PAPER_TABLE2_BFS_NVLINK,
    PAPER_TABLE3_WORKLOAD,
    PAPER_TABLE4_PR_NVLINK,
    PAPER_TABLE5_BFS_IB,
    PAPER_TABLE5_PR_IB,
)
from repro.harness.report import ShapeReport, compare_grid
from repro.harness.experiments import (
    ALL_DATASETS,
    IB_GPUS,
    NVLINK_GPUS,
    GridResult,
    figure5_scaling,
    figure7_latency_hiding,
    runtime_grid,
    table1_datasets,
    table2_bfs_nvlink,
    table3_priority_workload,
    table4_pagerank_nvlink,
    table5_ib,
)

__all__ = [
    "run",
    "CHAOS_VARIANTS",
    "ChaosCell",
    "ChaosSpec",
    "chaos_grid",
    "render_chaos",
    "run_chaos_cell",
    "verify_inert",
    "ProfileResult",
    "run_profile",
    "run_key",
    "seed_memo",
    "clear_memory_cache",
    "RunCache",
    "cache_enabled",
    "get_cache",
    "machine_fingerprint",
    "RunSpec",
    "CellResult",
    "GridFailure",
    "grid_specs",
    "resolve_jobs",
    "run_cells",
    "run_grid",
    "get_driver",
    "get_machine",
    "get_partition",
    "FRAMEWORKS",
    "PR_EPSILON",
    "GridResult",
    "runtime_grid",
    "table1_datasets",
    "table2_bfs_nvlink",
    "table3_priority_workload",
    "table4_pagerank_nvlink",
    "table5_ib",
    "figure5_scaling",
    "figure7_latency_hiding",
    "ALL_DATASETS",
    "NVLINK_GPUS",
    "IB_GPUS",
    "ShapeReport",
    "compare_grid",
    "PAPER_TABLE2_BFS_NVLINK",
    "PAPER_TABLE3_WORKLOAD",
    "PAPER_TABLE4_PR_NVLINK",
    "PAPER_TABLE5_BFS_IB",
    "PAPER_TABLE5_PR_IB",
]
