#!/usr/bin/env python3
"""The repo's one benchmark: six workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--repeat K] [--out FILE] [--list]

Every workload runs in a fresh interpreter next to a reference sibling
(see ``passes.py``); this process only orchestrates, prints every
metric by name with its unit, and checks the outputs.  With exactly one
``--workload`` the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end numbers always come from untraced passes; ``--trace 1`` adds
one traced pass after them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Host-speed and pool flags: never inherited by a measured process.
STRIPPED_ENV = ("REPRO_BATCH_PATH", "REPRO_ENGINE_QUEUE", "REPRO_TELEMETRY",
                "REPRO_JOBS", "REPRO_RUN_TIMEOUT", "REPRO_CACHE",
                "REPRO_CACHE_DIR")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RunSpec.seed of every cell and the Poisson "
                             "log's seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed passes repeat until this much time has "
                             "been measured (default: BENCHMARK.json "
                             "run_seconds); at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = add the traced pass and report per-layer "
                             "metrics")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run the whole set K times and fail if an "
                             "end-to-end metric moves by more than its bound")
    parser.add_argument("--out", metavar="FILE",
                        help="write every number of the run as JSON")
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and why each exists")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny cell per workload, one pass")
    # Internal: the per-workload processes (see passes.py).
    parser.add_argument("--role", default="orchestrate",
                        choices=("orchestrate", "reference", "measure",
                                 "warm-sample"), help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ orchestration
def child_env(workload, scratch: Path, role: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in (env.get("PYTHONPATH"),) if p])
    env["TMPDIR"] = str(scratch)
    # numpy asks for transparent huge pages on big arrays; whether the
    # kernel has any to give moves peak RSS by 15% from run to run.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    cache_on = workload.cache == "warm" or (
        workload.cache == "cold" and role == "measure")
    if not cache_on:
        env["REPRO_CACHE"] = "0"
    return env


def run_workload(name: str, args) -> dict:
    """Reference sibling + measuring process for one workload."""
    import workloads as wl

    workload = wl.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    common = [sys.executable, str(HERE / "run.py"), "--workload", name,
              "--seed", str(args.seed), "--scratch", str(scratch)]
    if args.smoke:
        common.append("--smoke")
    launched = time.time()
    procs = []
    try:
        ref = subprocess.Popen(
            common + ["--role", "reference"], stdout=subprocess.DEVNULL,
            env=child_env(workload, scratch, "reference"))
        procs.append(ref)
        measure = subprocess.Popen(
            common + ["--role", "measure", "--seconds", str(args.seconds),
                      "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
            env=child_env(workload, scratch, "measure"))
        procs.append(measure)
        if ref.wait() != 0:
            raise RuntimeError(f"{name}: reference pass exited {ref.returncode}")
        stdout, _ = measure.communicate()
        if measure.returncode != 0:
            raise RuntimeError(
                f"{name}: measuring process exited {measure.returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    document = json.loads(stdout.splitlines()[-1])
    document["setup_s"] = document.pop("first_pass_epoch") - launched
    document["stripped_env"] = {
        k: os.environ[k] for k in STRIPPED_ENV if k in os.environ}
    return document


def end_to_end(document: dict) -> dict[str, float]:
    return {
        "setup_s": document["setup_s"],
        "wall_s": document["wall"]["median"],
        "work_per_s": document["work_per_s"],
        "peak_rss_mb": document["peak_rss_mb"],
    }


# ------------------------------------------------------------------ report
def print_workload(document: dict, contract: dict) -> None:
    units = {m["name"]: m["unit"] for m in
             contract["end_to_end"] + contract["per_layer"]}
    wall = document["wall"]
    print(f"\n== {document['workload']} (seed {document['seed']}) ==")
    for name, value in end_to_end(document).items():
        extra = ""
        if name == "wall_s":
            extra = (f"   median of {wall['n']} pass(es), "
                     f"q1 {wall['q1']:.4f} q3 {wall['q3']:.4f}")
        if name == "work_per_s":
            extra = f"   {document['work']} {document['work_unit']} per pass"
        print(f"  {name:<14}{value:>14.4f} {units[name]}{extra}")
    attempted, failed = document["attempted"], document["failed"]
    print(f"  {'failed_frac':<14}{failed / attempted:>14.4f} fraction"
          f"   {failed} of {attempted} {'jobs' if 'littles_law' in document else 'cells'}")
    if "paper_direction_agreement" in document:
        print(f"  {'paper_direction_agreement':<14}"
              f"{document['paper_direction_agreement']:>9.4f} fraction"
              "   vs the paper's Table II; the model is otherwise "
              "unvalidated against hardware")
    if "littles_law" in document:
        print(f"  check: {document['littles_law']}")
    if "serial_reference_wall_s" in document:
        print(f"  reference sibling: the same cells serially, cache off, from "
              f"a cold process in {document['serial_reference_wall_s']:.2f} s"
              " (beside the warm-up pass where there is one)")
    for cell in document["cells"]:
        if cell.get("sim_ms") is not None:
            print(f"    {cell['label']:<58} sim {cell['sim_ms']:>10.3f} ms"
                  f"  host {cell['wall_s']:.3f} s")
    if "layers" in document:
        print("  -- per-layer, from the traced pass --")
        for name, value in document["layers"].items():
            if value:
                print(f"  {name:<44}{value:>16.6g} {units[name]}")


def compare_sets(sets: list[dict], contract: dict) -> list[str]:
    """Relative change of every end-to-end metric, set k vs set 1."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    breaches = []
    print("\n== repeat: relative difference vs the first set ==")
    for name in sets[0]:
        first = end_to_end(sets[0][name])
        for k, later in enumerate(sets[1:], start=2):
            for metric, value in end_to_end(later[name]).items():
                diff = abs(value - first[metric]) / first[metric]
                flag = "  > bound" if diff > bounds[metric] else ""
                print(f"  {name:<18}{metric:<13}{first[metric]:>14.4f}"
                      f"{value:>14.4f}{diff:>9.2%}  (set {k}, bound "
                      f"{bounds[metric]:.0%}){flag}")
                if flag:
                    breaches.append(f"{name}.{metric}")
    return breaches


def contract_line(document: dict, contract: dict, trace: int) -> str:
    if trace:
        values = document["layers"]
        declared = contract["per_layer"]
    else:
        values = end_to_end(document)
        declared = contract["end_to_end"]
    return json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    })


def orchestrate(args) -> int:
    import workloads as wl

    contract = load_contract()
    if args.list:
        for workload in wl.WORKLOADS.values():
            print(f"{workload.name}: {len(workload.cells) or 1} "
                  f"{'cells' if workload.cells else 'arrival log'}, "
                  f"jobs={workload.jobs}, cache={workload.cache}, "
                  f"work unit {workload.work_unit}\n    {workload.why}")
        return 0
    names = args.workload or list(wl.WORKLOADS)
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {unknown}; see --list", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(contract["run_seconds"])
    sets = []
    for _ in range(args.repeat):
        sets.append({})
        for name in names:
            sets[-1][name] = run_workload(name, args)
            print_workload(sets[-1][name], contract)
    breaches = compare_sets(sets, contract) if args.repeat > 1 else []
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "sets": sets}, indent=1) + "\n")
    failed = sum(doc["failed"] for one in sets for doc in one.values())
    if breaches:
        print(f"repeat sets disagree beyond bounds: {breaches}",
              file=sys.stderr)
    if len(names) == 1 and args.repeat == 1:
        print(contract_line(sets[0][names[0]], contract, args.trace))
    return 1 if (failed or breaches) else 0


def main() -> int:
    args = parse_args()
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 3
    if args.role == "orchestrate":
        return orchestrate(args)
    import passes

    (args.workload,) = args.workload
    args.out_dir = str(OUT)
    if args.role == "reference":
        return passes.reference(args)
    if args.role == "warm-sample":
        return passes.warm_sample(args)
    return passes.Measure(args).run()


if __name__ == "__main__":
    sys.exit(main())
