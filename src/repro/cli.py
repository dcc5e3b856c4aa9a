"""Command-line interface: run experiments without writing code.

Mirrors the paper artifact's scripts (``figure5_prio.sh`` etc.) as
subcommands::

    python -m repro datasets                    # Table I
    python -m repro run --framework atos-standard-persistent \\
        --app bfs --dataset road-usa --machine daisy --gpus 4
    python -m repro table2 [--quick] [--jobs 4] # any table/figure
    python -m repro fig1
    python -m repro topology daisy
    python -m repro cache stats                 # persistent run cache
    python -m repro chaos --verify-inert        # drop/crash/kill fault grid
    python -m repro profile --export trace.json # span tracing / crit path
    python -m repro serve-validate              # queueing self-validation

Every experiment subcommand prints the paper-style table to stdout.
Grid subcommands take ``--jobs N`` (0 = one worker per CPU; default
``$REPRO_JOBS`` or serial) and ``--timeout SECONDS`` per run; repeated
invocations are served from the persistent cache (``REPRO_CACHE_DIR``
to relocate it, ``REPRO_CACHE=0`` to disable).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro._version import __version__

__all__ = ["main", "build_parser"]

QUICK_DATASETS = ["soc-livejournal1", "road-usa"]
QUICK_NVLINK = (1, 4)
QUICK_IB = (1, 4, 8)


def _grid_args(quick: bool, ib: bool = False):
    if not quick:
        return None, None
    return QUICK_DATASETS, (QUICK_IB if ib else QUICK_NVLINK)


def _pool_kwargs(args: argparse.Namespace) -> dict:
    """--jobs / --timeout / --seed as kwargs for the grid functions."""
    return {
        "jobs": getattr(args, "jobs", None),
        "timeout_s": getattr(args, "timeout", None),
        "seed": getattr(args, "seed", 0),
    }


# ------------------------------------------------------------- commands
def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.harness import table1_datasets

    print(table1_datasets())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.config import ConfigOverlay
    from repro.errors import ConfigError
    from repro.harness import run

    def run_cell(overlay=None):
        return run(
            args.framework, args.app, args.dataset, args.machine, args.gpus,
            seed=args.seed, overlay=overlay,
        )

    overlay = None
    if args.partitions > 1:
        overlay = ConfigOverlay(partitions=args.partitions,
                                pdes_driver=args.pdes_driver)
    try:
        result = run_cell(overlay)
    except ConfigError as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    if overlay is not None:
        stats = result.host_stats
        print(
            f"partitioned ({args.pdes_driver}, {args.partitions} "
            f"partitions): {stats['windows']} windows, "
            f"{stats['total_exports']} cross-partition messages, "
            f"{stats['idle_partition_windows']} idle partition-windows"
        )
        if args.verify_digest:
            serial = run_cell()
            if result.digest() != serial.digest():
                raise SystemExit(
                    f"digest mismatch vs serial: {result.digest()[:16]} "
                    f"!= {serial.digest()[:16]}"
                )
            print(f"digest matches serial: {result.digest()[:16]}")
    print(
        f"{result.framework} {result.app} on {result.dataset} "
        f"({args.machine}, {result.n_gpus} GPUs): {result.time_ms:.3f} ms"
    )
    if args.counters:
        for key in sorted(result.counters):
            print(f"  {key:<28} {result.counters[key]:.0f}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.harness import table2_bfs_nvlink

    datasets, gpus = _grid_args(args.quick)
    grid = table2_bfs_nvlink(
        datasets, gpus or (1, 2, 3, 4), **_pool_kwargs(args)
    )
    print(grid.render(baseline="gunrock"))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.graph import SCALE_FREE
    from repro.harness import table3_priority_workload

    datasets, gpus = _grid_args(args.quick)
    if datasets is not None:
        datasets = [d for d in datasets if d in SCALE_FREE]
    text, _ = table3_priority_workload(
        datasets, gpus or (1, 2, 3, 4), **_pool_kwargs(args)
    )
    print(text)
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.harness import table4_pagerank_nvlink

    datasets, gpus = _grid_args(args.quick)
    grid = table4_pagerank_nvlink(
        datasets, gpus or (1, 2, 3, 4), **_pool_kwargs(args)
    )
    print(grid.render(baseline="gunrock"))
    return 0


def _cmd_table5(args: argparse.Namespace) -> int:
    from repro.harness import table5_ib

    datasets, gpus = _grid_args(args.quick, ib=True)
    grid = table5_ib(
        args.app, datasets, gpus or tuple(range(1, 9)), **_pool_kwargs(args)
    )
    print(grid.render(baseline="galois"))
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.queues import QueueContentionModel

    model = QueueContentionModel()
    threads = np.array([8192, 16384, 32768, 65536, 98304])
    series = model.figure1_series(threads)
    for plot, curves in series.items():
        print(f"\nFigure 1 - concurrent {plot} (ms):")
        header = f"{'threads':>10}" + "".join(
            f"{name:>18}" for name in curves
        )
        print(header)
        for i, n in enumerate(threads):
            row = f"{int(n):>10}" + "".join(
                f"{curves[name][i]:>18.4f}" for name in curves
            )
            print(row)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.interconnect import default_nvlink, default_pcie

    nvlink, pcie = default_nvlink(), default_pcie()
    print("Figure 2 - bandwidth efficiency vs requested bytes:")
    print(f"{'bytes':>8}{'NVLink':>10}{'PCIe3':>10}")
    for size in range(8, 129, 8):
        print(
            f"{size:>8}{nvlink.efficiency(size):>10.3f}"
            f"{pcie.efficiency(size):>10.3f}"
        )
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.interconnect import default_ib, optimal_batch_size

    model = default_ib()
    print("Figure 4 - IB latency / bandwidth vs message size:")
    print(f"{'log2(B)':>8}{'latency_ms':>12}{'BW_GBps':>10}")
    for log_size in range(0, 31, 2):
        size = 1 << log_size
        print(
            f"{log_size:>8}{model.transfer_time(size) / 1000:>12.4f}"
            f"{model.achieved_bandwidth(size) / 1000:>10.2f}"
        )
    print(f"optimal batch size: 2^{int(np.log2(optimal_batch_size(model)))} B")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.harness.profile import run_profile

    profile = run_profile(
        args.framework,
        args.app,
        args.dataset,
        args.machine,
        args.gpus,
        seed=args.seed,
        export=args.export,
    )
    print(profile.render(top_k=args.top))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness import (
        PAPER_TABLE2_BFS_NVLINK,
        PAPER_TABLE4_PR_NVLINK,
        compare_grid,
        table2_bfs_nvlink,
        table4_pagerank_nvlink,
    )

    if args.utilization:
        # Per-rank compute/comm/idle split of one traced cell instead
        # of the grid shape report (grids would re-simulate everything).
        from repro.harness.profile import run_profile

        profile = run_profile(
            "atos-standard-persistent",
            "bfs",
            "road-usa",
            "summit-ib",
            4,
            seed=args.seed,
        )
        print(profile.render())
        return 0

    datasets, gpus = _grid_args(args.quick)
    grids = [
        table2_bfs_nvlink(
            datasets, gpus or (1, 2, 3, 4), **_pool_kwargs(args)
        ),
        table4_pagerank_nvlink(
            datasets, gpus or (1, 2, 3, 4), **_pool_kwargs(args)
        ),
    ]
    reports = [
        compare_grid(
            "Table II (BFS, NVLink)",
            grids[0],
            PAPER_TABLE2_BFS_NVLINK,
            (1, 2, 3, 4),
        ),
        compare_grid(
            "Table IV (PageRank, NVLink)",
            grids[1],
            PAPER_TABLE4_PR_NVLINK,
            (1, 2, 3, 4),
        ),
    ]
    print("\n\n".join(r.render() for r in reports))
    # Cache economics live here, NOT in the table renders — those must
    # stay byte-identical between cold and warm runs (CI diffs them).
    from repro.harness import get_cache
    from repro.metrics.tables import format_cache_line

    print()
    print(
        format_cache_line(
            sum(g.cache_hits for g in grids),
            sum(g.cache_misses for g in grids),
            waits=get_cache().single_flight_waits,
        )
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.harness import get_cache

    cache = get_cache()
    if args.action == "stats":
        stats = cache.stats()
        width = max(len(k) for k in stats)
        for key, value in stats.items():
            print(f"{key:<{width}}  {value}")
    elif args.action == "clear":
        print(f"removed {cache.clear()} cached run(s)")
    elif args.action == "verify":
        ok, removed = cache.verify()
        print(f"verified {ok} entr{'y' if ok == 1 else 'ies'}; "
              f"removed {removed} corrupt")
        return 1 if removed else 0
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tune import (
        render_tune_bench,
        run_fig4_study,
        validate_tune_bench,
        write_bench,
    )

    if args.validate:
        import json

        with open(args.validate) as fh:
            doc = json.load(fh)
        n_trials = validate_tune_bench(doc)
        print(f"{args.validate}: valid ({n_trials} trials)")
        return 0

    doc = run_fig4_study(
        quick=args.quick, jobs=args.jobs, timeout_s=args.timeout
    )
    print(render_tune_bench(doc))
    if args.out:
        write_bench(doc, args.out)
        print(f"\nwrote {args.out}")
    return 0


def _numbers(args: argparse.Namespace, name: str, kind: type) -> tuple:
    """Parse the comma-separated list flag ``name``; ValueError names it."""
    text = getattr(args, name)
    try:
        return tuple(kind(item) for item in text.split(",") if item.strip())
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(
            f"--{name.replace('_', '-')} takes comma-separated {noun}, "
            f"got {text!r}"
        ) from None


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.harness.chaos import (
        chaos_grid,
        chaos_specs,
        render_chaos,
        verify_inert,
    )

    lists = {
        "drop_rates": float,
        "crash_pes": int,
        "crash_times": float,
        "kill_windows": int,
    }
    try:
        grid = {
            name: _numbers(args, name, kind)
            for name, kind in lists.items()
            if getattr(args, name) is not None
        }
        specs = chaos_specs(
            quick=args.quick, seed=args.seed, n_gpus=args.gpus, **grid
        )
    except (ValueError, ReproError) as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2
    if args.verify_inert:
        verify_inert(seed=args.seed, apps=("bfs", "pagerank"))
        print("inertness verified: a zero-fault plan, an idle recovery "
              "policy and idle window checkpoints leave the run "
              "bit-identical (bfs, pagerank)")
    cells = chaos_grid(specs, jobs=args.jobs)
    print(render_chaos(cells))
    failures = [cell for cell in cells if not cell.ok]
    if failures:
        print(f"\n{len(failures)} fault cell(s) FAILED")
        return 1
    return 0


def _cmd_serve_validate(args: argparse.Namespace) -> int:
    from repro.serve.study import render_study, run_serve_study, write_study

    doc = run_serve_study(seed=args.seed, quick=args.quick)
    print(render_study(doc))
    if args.out:
        write_study(doc, args.out)
        print(f"\nwrote {args.out}")
    return 0 if doc["ok"] else 1


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.harness import get_machine
    from repro.interconnect import Topology

    n_gpus = {"daisy": 4, "summit-node": 6, "summit-ib": 8}[args.machine]
    topo = Topology(get_machine(args.machine, args.gpus or n_gpus))
    print(topo.describe())
    print(f"\nmean pair latency: {topo.mean_pair_latency():.2f} us")
    print(f"bisection bandwidth: {topo.bisection_bandwidth() / 1000:.1f} GB/s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Atos (SC22) reproduction: simulated multi-GPU "
        "irregular graph processing.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--seed",
            type=int,
            default=0,
            help="partition/workload seed (0 = the evaluation default)",
        )

    sub.add_parser("datasets", help="Table I dataset summary").set_defaults(
        func=_cmd_datasets
    )

    run_parser = sub.add_parser("run", help="run one experiment cell")
    run_parser.add_argument("--framework", required=True)
    run_parser.add_argument("--app", required=True,
                            choices=["bfs", "pagerank"])
    run_parser.add_argument("--dataset", required=True)
    run_parser.add_argument("--machine", default="daisy")
    run_parser.add_argument("--gpus", type=int, default=1)
    run_parser.add_argument("--counters", action="store_true",
                            help="print run counters")
    run_parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        metavar="N",
        help="run the simulation partitioned across N event loops "
        "(digest-identical to serial; atos-* frameworks only)",
    )
    run_parser.add_argument(
        "--pdes-driver",
        default="pooled",
        choices=["local", "pooled"],
        help="partitioned engine driver: in-process round-robin or one "
        "worker process per partition (default pooled)",
    )
    run_parser.add_argument(
        "--verify-digest",
        action="store_true",
        help="with --partitions: also run the serial engine and fail "
        "unless the result digests are bit-identical",
    )
    add_seed_flag(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    def add_pool_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes for the grid (0 = one per CPU; "
            "default $REPRO_JOBS or serial)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-run deadline when --jobs > 1",
        )
        add_seed_flag(p)

    for name, fn, help_text in [
        ("table2", _cmd_table2, "Table II: BFS on NVLink"),
        ("table3", _cmd_table3, "Table III: priority-queue workload"),
        ("table4", _cmd_table4, "Table IV: PageRank on NVLink"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--quick", action="store_true")
        add_pool_flags(p)
        p.set_defaults(func=fn)

    table5 = sub.add_parser("table5", help="Table V: Galois vs Atos on IB")
    table5.add_argument("--app", default="bfs", choices=["bfs", "pagerank"])
    table5.add_argument("--quick", action="store_true")
    add_pool_flags(table5)
    table5.set_defaults(func=_cmd_table5)

    report = sub.add_parser(
        "report", help="paper-vs-measured shape report (NVLink tables)"
    )
    report.add_argument("--quick", action="store_true")
    report.add_argument(
        "--utilization",
        action="store_true",
        help="print the per-rank compute/comm/idle split of a traced "
        "headline cell instead of the grid shape report",
    )
    add_pool_flags(report)
    report.set_defaults(func=_cmd_report)

    profile = sub.add_parser(
        "profile",
        help="trace one cell: utilization, imbalance, critical path, "
        "optional Perfetto JSON export",
    )
    profile.add_argument(
        "--framework",
        default="atos-standard-persistent",
        help="executor-based framework (atos-* or groute)",
    )
    profile.add_argument("--app", default="bfs",
                         choices=["bfs", "pagerank"])
    profile.add_argument("--dataset", default="road-usa")
    profile.add_argument("--machine", default="summit-ib")
    profile.add_argument("--gpus", type=int, default=4)
    profile.add_argument(
        "--export",
        default=None,
        metavar="PATH",
        help="write a Chrome/Perfetto trace_event JSON (load in "
        "ui.perfetto.dev or chrome://tracing)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="critical-path segments to list (default 10)",
    )
    add_seed_flag(profile)
    profile.set_defaults(func=_cmd_profile)

    cache = sub.add_parser(
        "cache", help="persistent run cache: stats / clear / verify"
    )
    cache.add_argument("action", choices=["stats", "clear", "verify"])
    cache.set_defaults(func=_cmd_cache)

    sub.add_parser("fig1", help="queue microbenchmarks").set_defaults(
        func=_cmd_fig1
    )
    sub.add_parser("fig2", help="bandwidth efficiency").set_defaults(
        func=_cmd_fig2
    )
    sub.add_parser("fig4", help="IB message-size sweep").set_defaults(
        func=_cmd_fig4
    )

    tune = sub.add_parser(
        "tune",
        help="Fig-4 sensitivity sweep: BATCH_SIZE x WAIT_TIME per app",
    )
    tune.add_argument(
        "--quick",
        action="store_true",
        help="BFS only, on a 3x4 subset of the sweep levels",
    )
    tune.add_argument("--jobs", type=int, default=None, metavar="N")
    tune.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS"
    )
    tune.add_argument(
        "--out",
        default="BENCH_tune.json",
        metavar="PATH",
        help="write the study document as JSON (default: "
        "BENCH_tune.json)",
    )
    tune.add_argument(
        "--validate",
        default=None,
        metavar="PATH",
        help="schema-check an existing BENCH_tune.json and exit "
        "(no study run)",
    )
    tune.set_defaults(func=_cmd_tune)

    chaos = sub.add_parser(
        "chaos",
        help="fault grid: message drops, rank crashes and worker kills, "
        "each run validated against the serial reference",
    )
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="smoke subset of each fault kind",
    )
    for flag, metavar, text in (
        ("--drop-rates", "R,R,...",
         "message drop probabilities (default 0,0.05,0.1)"),
        ("--crash-pes", "PE,PE,...",
         "ranks to fail-stop, one cell per rank (default 1)"),
        ("--crash-times", "T,T,...",
         "crash times in sim us (default: per-app early+late schedule)"),
        ("--kill-windows", "W,W,...",
         "windows at which to kill a pooled PDES worker (default 0,2,5)"),
    ):
        chaos.add_argument(
            flag, default=None, metavar=metavar,
            help=f"comma-separated {text}; '' leaves that kind out",
        )
    chaos.add_argument("--gpus", type=int, default=4)
    chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the grid (0 = one per CPU)",
    )
    chaos.add_argument(
        "--verify-inert",
        action="store_true",
        help="also prove the idle fault, recovery and checkpoint layers "
        "leave a run bit-identical",
    )
    add_seed_flag(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    serve_validate = sub.add_parser(
        "serve-validate",
        help="queueing self-validation: replay a weighted-priority job "
        "queue on the DES engine (Little's law, M/M/1 blow-up, "
        "starvation bounds)",
    )
    serve_validate.add_argument(
        "--quick", action="store_true",
        help="3 utilization levels and shorter horizons",
    )
    serve_validate.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the study document as JSON",
    )
    add_seed_flag(serve_validate)
    serve_validate.set_defaults(func=_cmd_serve_validate)

    topo = sub.add_parser("topology", help="show a machine topology")
    topo.add_argument("machine",
                      choices=["daisy", "summit-node", "summit-ib"])
    topo.add_argument("--gpus", type=int, default=None)
    topo.set_defaults(func=_cmd_topology)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
