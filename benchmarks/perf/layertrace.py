"""Outside-in layer tracing for the traced benchmark pass.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the entry points listed in :data:`PATCHES` — class attributes,
or names a consuming module imported with ``from ... import`` — with
timing wrappers, one traced pass runs, and :meth:`Tracer.remove` puts
the originals back and proves it by identity.

Every wrapped call is a span: key (``layer[.part]``), start, end and
the enclosing span.  A span's *self time* is its duration minus the
time its child spans cover, so self times over a call tree sum to the
root's duration and each second of a pass is charged to exactly one
key.  Boundaries crossed 10^4+ times per cell (event queue, work
tracker, queues) keep only call count and self time; the coarse ones
also keep the span record that is written to ``out/``.

A wrapper costs about a microsecond, which is more than a
``heappush``.  :meth:`Tracer.calibrate` measures that cost on a no-op
(the part that lands inside the callee's own span and the part that
lands in its caller's) and :meth:`Tracer.corrected` subtracts it per
call, so hot thin layers are not reported as fat ones.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["Tracer", "PATCHES", "PER_LAYER", "layer_metrics"]

_MISSING = object()

# --- count hooks: (counts, call args incl. self, result) -> None ---------


def _count_cohort(counts, args, result):
    counts["sim.events_popped"] += len(result)


def _count_pop1(counts, args, result):
    counts["sim.events_popped"] += 1


def _count_pushed(counts, args, result):
    counts["queues.items_pushed"] += len(args[1])


def _count_pushed_batch(counts, args, result):
    counts["queues.items_pushed"] += sum(len(b) for b in args[1])


def _count_popped(counts, args, result):
    counts["queues.items_popped"] += len(result)


def _count_payload(counts, args, result):
    counts["runtime.aggregator.payloads"] += 1


def _count_payloads(counts, args, result):
    counts["runtime.aggregator.payloads"] += len(args[2])


def _count_send(counts, args, result):
    counts["interconnect.fabric.bytes"] += args[3]


def _count_cache_load(counts, args, result):
    counts["harness.cache.misses" if result is None
           else "harness.cache.hits"] += 1


def _count_cache_store(counts, args, result):
    counts["harness.cache.bytes_stored"] += os.path.getsize(result)


def _resume_key(args) -> str:
    """Generator bodies run inside ``Process._resume``: charge the
    resumption to the layer that owns the generator."""
    return _PROCESS_OWNER.get(args[0].name[:3], "sim.dispatch")


_PROCESS_OWNER = {
    "gpu": "runtime.executor", "agg": "runtime.executor",
    "arr": "serve.model", "mon": "serve.model",
}

SPAN = "span"      # also keep a span record
#: (owner as "module" or "module:Class", attribute, key, options)
PATCHES: list[tuple[str, str, Any, dict]] = [
    # sim: dispatch loop, event construction, the event queue
    ("repro.sim.core:Environment", "run", "sim.dispatch", {SPAN: True}),
    ("repro.sim.core:Environment", "timeout", "sim.events", {}),
    ("repro.sim.core:Environment", "event", "sim.events", {}),
    ("repro.sim.core:Environment", "process", "sim.events", {}),
    ("repro.sim.core:Event", "succeed", "sim.events", {}),
    ("repro.sim.core:AnyOf", "__init__", "sim.events", {}),
    ("repro.sim.core:Process", "_resume", _resume_key, {}),
    ("repro.sim.equeue:HeapQueue", "push", "sim.equeue.push", {}),
    ("repro.sim.equeue:HeapQueue", "pop", "sim.equeue.pop",
     {"count": _count_pop1}),
    ("repro.sim.equeue:HeapQueue", "pop_cohort", "sim.equeue.pop_cohort",
     {"count": _count_cohort}),
    ("repro.sim.equeue:CalendarQueue", "push", "sim.equeue.push", {}),
    ("repro.sim.equeue:CalendarQueue", "pop", "sim.equeue.pop",
     {"count": _count_pop1}),
    ("repro.sim.equeue:CalendarQueue", "pop_cohort", "sim.equeue.pop_cohort",
     {"count": _count_cohort}),
    # runtime
    ("repro.runtime.executor:AtosExecutor", "__init__", "runtime.executor",
     {SPAN: True}),
    ("repro.runtime.executor:AtosExecutor", "prepare", "runtime.executor",
     {SPAN: True}),
    ("repro.runtime.executor:AtosExecutor", "finish", "runtime.executor",
     {SPAN: True}),
    ("repro.runtime.executor:AtosExecutor", "_deliver", "runtime.executor",
     {}),
    ("repro.runtime.distributed_queue:PEQueues", "push_local",
     "runtime.distributed_queue", {}),
    ("repro.runtime.distributed_queue:PEQueues", "push_recv",
     "runtime.distributed_queue", {}),
    ("repro.runtime.distributed_queue:PEQueues", "pop",
     "runtime.distributed_queue", {}),
    ("repro.runtime.priority_queue:PEPriorityQueues", "push_local",
     "runtime.distributed_queue", {}),
    ("repro.runtime.priority_queue:PEPriorityQueues", "push_recv",
     "runtime.distributed_queue", {}),
    ("repro.runtime.priority_queue:PEPriorityQueues", "pop",
     "runtime.distributed_queue", {}),
    ("repro.runtime.priority_queue:PEPriorityQueues", "pop_lowest_bucket",
     "runtime.distributed_queue", {}),
    ("repro.runtime.aggregator:Aggregator", "add", "runtime.aggregator",
     {"count": _count_payload}),
    ("repro.runtime.aggregator:Aggregator", "add_many", "runtime.aggregator",
     {"count": _count_payloads}),
    ("repro.runtime.aggregator:Aggregator", "tick", "runtime.aggregator", {}),
    ("repro.runtime.aggregator:Aggregator", "flush_all",
     "runtime.aggregator", {}),
    ("repro.runtime.termination:WorkTracker", "add",
     "runtime.termination", {}),
    ("repro.runtime.termination:WorkTracker", "remove",
     "runtime.termination", {}),
    ("repro.runtime.termination:WindowedWorkTracker", "add",
     "runtime.termination", {}),
    ("repro.runtime.termination:WindowedWorkTracker", "remove",
     "runtime.termination", {}),
    ("repro.runtime.partitioned", "run_partitioned", "runtime.partitioned",
     {SPAN: True}),
    # queues (items are counted at the innermost ring only)
    ("repro.queues.base:ConcurrentQueue", "push", "queues",
     {"count": _count_pushed}),
    ("repro.queues.base:ConcurrentQueue", "push_batch", "queues",
     {"count": _count_pushed_batch}),
    ("repro.queues.atos_queue:AtosQueue", "pop", "queues",
     {"count": _count_popped}),
    ("repro.queues.priority:BucketedPriorityQueue", "push", "queues", {}),
    ("repro.queues.priority:BucketedPriorityQueue", "pop", "queues", {}),
    ("repro.queues.priority:BucketedPriorityQueue", "pop_bucket",
     "queues", {}),
    # interconnect
    ("repro.interconnect.transfer:NetworkFabric", "send",
     "interconnect.fabric", {"count": _count_send}),
    # apps, gpu, graph: the kernels and what they call by imported name
    ("repro.apps.bfs:AtosBFS", "process", "apps.process", {}),
    ("repro.apps.pagerank:AtosPageRank", "process", "apps.process", {}),
    ("repro.apps.bfs:AtosBFS", "handle_remote", "apps.handle_remote", {}),
    ("repro.apps.pagerank:AtosPageRank", "handle_remote",
     "apps.handle_remote", {}),
    ("repro.frameworks.bsp", "bsp_bfs_trace", "apps.variants", {SPAN: True}),
    ("repro.frameworks.bsp", "bsp_pagerank_trace", "apps.variants",
     {SPAN: True}),
    ("repro.frameworks.bulk_async", "direction_optimized_bfs_trace",
     "apps.variants", {SPAN: True}),
    ("repro.frameworks.bulk_async", "bsp_pagerank_trace", "apps.variants",
     {SPAN: True}),
    ("repro.apps.bfs", "atomic_min_relaxed", "gpu.atomics", {}),
    ("repro.apps.bfs", "duplicate_conflicts", "gpu.atomics", {}),
    ("repro.graph.csr:CSRGraph", "expand_batch", "graph.csr", {}),
    # frameworks: the driver loops outside apps
    ("repro.frameworks.atos:AtosDriver", "run_bfs", "frameworks",
     {SPAN: True}),
    ("repro.frameworks.atos:AtosDriver", "run_pagerank", "frameworks",
     {SPAN: True}),
    ("repro.frameworks.bsp:GunrockLikeDriver", "run_bfs", "frameworks",
     {SPAN: True}),
    ("repro.frameworks.bsp:GunrockLikeDriver", "run_pagerank", "frameworks",
     {SPAN: True}),
    ("repro.frameworks.bulk_async:GaloisLikeDriver", "run_bfs", "frameworks",
     {SPAN: True}),
    ("repro.frameworks.bulk_async:GaloisLikeDriver", "run_pagerank",
     "frameworks", {SPAN: True}),
    # harness: runner, cache, and the set-up work a forked worker repeats
    ("repro.harness.runner", "run", "harness.runner", {SPAN: True}),
    ("repro.harness.runner", "load", "graph.load", {SPAN: True}),
    ("repro.harness.runner", "bfs_source", "graph.load", {SPAN: True}),
    ("repro.harness.runner", "get_partition", "graph.partition",
     {SPAN: True}),
    ("repro.harness.runner", "reference_bfs", "harness.runner.validate",
     {SPAN: True}),
    ("repro.harness.runner", "reference_pagerank", "harness.runner.validate",
     {SPAN: True}),
    ("repro.harness.runner", "pagerank_close", "harness.runner.validate",
     {SPAN: True}),
    ("repro.harness.runner", "code_fingerprint", "cli.fingerprint", {}),
    ("repro.harness.runner", "machine_fingerprint", "cli.fingerprint", {}),
    ("repro.harness.cache", "code_fingerprint", "cli.fingerprint", {}),
    ("repro.harness.cache:RunCache", "key", "harness.runner.key", {}),
    ("repro.harness.cache:RunCache", "load", "harness.cache.load",
     {SPAN: True, "count": _count_cache_load}),
    ("repro.harness.cache:RunCache", "store", "harness.cache.store",
     {SPAN: True, "count": _count_cache_store}),
    # serve: the queueing self-model
    ("repro.serve.model:ServiceModel", "simulate", "serve.model",
     {SPAN: True}),
    ("repro.serve.scheduler:WeightedScheduler", "offer",
     "serve.scheduler", {}),
    ("repro.serve.scheduler:WeightedScheduler", "pop", "serve.scheduler", {}),
]


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Span stack, per-key totals, and the patch install/remove pair."""

    def __init__(self) -> None:
        #: key -> [raw self seconds, calls, direct child calls]
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()
        #: (key, name, cell, start, end, self_s, parent index or -1)
        self.spans: list[tuple] = []
        self.cell = ""
        #: Frames are [child seconds, child calls]; the sentinel at the
        #: bottom absorbs what top-level spans report to "their parent".
        self._stack: list[list] = [[0.0, 0]]
        self._open_spans: list[int] = []
        self._installed: list[tuple] = []
        #: Per-call wrapper cost charged inside the callee's span, and
        #: to its caller (seconds); set by :meth:`calibrate`.
        self.cost_inner = 0.0
        self.cost_outer = 0.0

    # ------------------------------------------------------------ wrappers
    def _slot(self, key: str) -> list:
        slot = self.totals.get(key)
        if slot is None:
            slot = self.totals[key] = [0.0, 0, 0]
        return slot

    def wrap(self, key, fn: Callable, span: bool = False,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``key`` (a string, or ``f(args) -> key``)."""
        stack = self._stack
        clock = perf_counter
        counts = self.counts
        dynamic = callable(key)
        slot = None if dynamic else self._slot(key)
        slots = self._slot

        def account(frame, dur, slot):
            slot[0] += dur - frame[0]
            slot[1] += 1
            slot[2] += frame[1]
            parent = stack[-1]
            parent[0] += dur
            parent[1] += 1

        if span:
            spans, open_spans = self.spans, self._open_spans
            name = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))

            def wrapper(*args, **kwargs):
                frame = [0.0, 0]
                stack.append(frame)
                index = len(spans)
                spans.append(None)
                parent_span = open_spans[-1] if open_spans else -1
                open_spans.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    open_spans.pop()
                    spans[index] = (key, name, self.cell, start, end,
                                    end - start - frame[0], parent_span)
                    account(frame, end - start, slot)
                if count is not None:
                    count(counts, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                frame = [0.0, 0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    account(frame, dur, slots(key(args)) if dynamic else slot)
                if count is not None:
                    count(counts, args, result)
                return result

        return functools.wraps(fn)(wrapper)

    def calibrate(self, calls: int = 20000) -> None:
        """Measure the wrapper's own cost on a no-op, best of three.

        Call it before recording anything: it ends with a :meth:`reset`.
        """

        def noop():
            return None

        def drive(f):
            start = perf_counter()
            for _ in range(calls):
                f()
            return perf_counter() - start

        best_total, best_inner = float("inf"), float("inf")
        for _ in range(3):
            self.reset()
            wrapped = self.wrap("trace.calibration", noop)
            bare = drive(noop)
            total = (drive(wrapped) - bare) / calls
            inner = self.totals["trace.calibration"][0] / calls
            best_total = min(best_total, max(total, 0.0))
            best_inner = min(best_inner, inner)
        self.cost_inner = min(best_inner, best_total)
        self.cost_outer = best_total - self.cost_inner
        self.reset()

    # ----------------------------------------------------- install / remove
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for target, attr, key, opts in PATCHES:
            owner = _resolve(target)
            raw = vars(owner).get(attr, _MISSING)
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else getattr(owner, attr)
            wrapped = self.wrap(key, fn, span=opts.get(SPAN, False),
                                count=opts.get("count"))
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._installed.append((owner, attr, raw))

    def remove(self) -> None:
        """Restore every original and check each one by identity."""
        installed, self._installed = self._installed, []
        for owner, attr, raw in reversed(installed):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        left = [
            f"{owner.__name__}.{attr}" for owner, attr, raw in installed
            if vars(owner).get(attr, _MISSING) is not raw
        ]
        if left:
            raise RuntimeError(f"tracing wrappers still installed: {left}")

    # ------------------------------------------------------------ plumbing
    def reset(self, cell: str = "") -> None:
        for slot in self.totals.values():
            slot[:] = [0.0, 0, 0]
        self.counts.clear()
        self.spans.clear()
        self.cell = cell
        del self._stack[1:]
        self._stack[0][:] = [0.0, 0]
        self._open_spans.clear()

    def snapshot(self) -> dict:
        """Everything recorded since :meth:`reset`, as plain data."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items() if v[1]},
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }

    def merge(self, snapshot: dict) -> None:
        for key, (self_s, calls, children) in snapshot["totals"].items():
            slot = self._slot(key)
            slot[0] += self_s
            slot[1] += calls
            slot[2] += children
        for name, value in snapshot["counts"].items():
            self.counts[name] += value
        base = len(self.spans)
        self.spans.extend(
            tuple(s[:6]) + (s[6] + base if s[6] >= 0 else -1,)
            for s in snapshot["spans"]
        )

    def run_cell(self, spec):
        """Traced ``run_fn`` for ``run_grid``: one root span per cell.

        In a forked worker this runs on the worker's copy of the
        tracer; the snapshot rides back with the result.
        """
        from repro.harness.pool import execute_spec

        self.reset(cell=spec.label())
        result = self.wrap("harness.pool", execute_spec, span=True)(spec)
        return result, self.snapshot()

    def _under(self, prefix: str):
        """Slots of ``prefix`` itself and of every ``prefix.part`` key."""
        return (slot for key, slot in self.totals.items()
                if key == prefix or key.startswith(prefix + "."))

    def corrected(self, prefix: str) -> float:
        """Self seconds under ``prefix`` net of wrapper cost."""
        return sum(
            max(0.0, self_s - calls * self.cost_inner
                - children * self.cost_outer)
            for self_s, calls, children in self._under(prefix))

    def calls(self, prefix: str) -> int:
        return sum(slot[1] for slot in self._under(prefix))

    def raw_total(self) -> float:
        return sum(slot[0] for slot in self.totals.values())

    def wrapper_total(self) -> float:
        per_call = self.cost_inner + self.cost_outer
        return per_call * sum(slot[1] for slot in self.totals.values())


# ---------------------------------------------------------------- metrics
#: Every per-layer metric: (name, unit, better).  ``BENCHMARK.json``'s
#: ``per_layer`` list is exactly this table.
PER_LAYER: list[tuple[str, str, str]] = [
    ("sim.dispatch.self_s", "s", "lower"),
    ("sim.events.self_s", "s", "lower"),
    ("sim.equeue.self_s", "s", "lower"),
    ("sim.equeue.push_calls", "count", "lower"),
    ("sim.equeue.pop_cohort_calls", "count", "lower"),
    ("sim.equeue.events_per_cohort", "ratio", "higher"),
    ("sim.host_us_per_event", "us", "lower"),
    ("runtime.executor.self_s", "s", "lower"),
    ("runtime.executor.rounds", "count", "lower"),
    ("runtime.distributed_queue.self_s", "s", "lower"),
    ("queues.self_s", "s", "lower"),
    ("queues.items_pushed", "count", "lower"),
    ("queues.items_popped", "count", "lower"),
    ("runtime.aggregator.self_s", "s", "lower"),
    ("runtime.aggregator.calls", "count", "lower"),
    ("runtime.aggregator.payloads_per_flush", "ratio", "higher"),
    ("runtime.termination.self_s", "s", "lower"),
    ("interconnect.fabric.self_s", "s", "lower"),
    ("interconnect.fabric.sends", "count", "lower"),
    ("interconnect.fabric.bytes", "count", "lower"),
    ("apps.process.self_s", "s", "lower"),
    ("apps.process.calls", "count", "lower"),
    ("apps.handle_remote.self_s", "s", "lower"),
    ("apps.variants.self_s", "s", "lower"),
    ("gpu.atomics.self_s", "s", "lower"),
    ("gpu.atomics.calls", "count", "lower"),
    ("graph.csr.self_s", "s", "lower"),
    ("apps.edges_processed", "count", "lower"),
    ("apps.work_efficiency", "ratio", "higher"),
    ("frameworks.self_s", "s", "lower"),
    ("graph.load_s", "s", "lower"),
    ("graph.partition_s", "s", "lower"),
    ("harness.runner.validate_s", "s", "lower"),
    ("harness.runner.self_s", "s", "lower"),
    ("harness.runner.key_s", "s", "lower"),
    ("harness.pool.cells", "count", "higher"),
    ("harness.pool.worker_busy_s", "s", "lower"),
    ("harness.pool.worker_setup_s", "s", "lower"),
    ("harness.pool.overhead_s", "s", "lower"),
    ("harness.pool.slowest_cell_s", "s", "lower"),
    ("harness.pool.result_bytes", "count", "lower"),
    ("harness.pool.failed_cells", "count", "lower"),
    ("harness.cache.store_s", "s", "lower"),
    ("harness.cache.bytes_stored", "count", "lower"),
    ("harness.cache.misses", "count", "lower"),
    ("harness.cache.load_s", "s", "lower"),
    ("harness.cache.hits", "count", "higher"),
    ("harness.report.paper_direction_agreement", "fraction", "higher"),
    ("cli.fingerprint_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("runtime.partitioned.self_s", "s", "lower"),
    ("runtime.partitioned.windows", "count", "lower"),
    ("runtime.partitioned.events", "count", "lower"),
    ("runtime.partitioned.exports", "count", "lower"),
    ("runtime.partitioned.idle_partition_windows", "count", "lower"),
    ("runtime.partitioned.critical_wall_s", "s", "lower"),
    ("runtime.partitioned.busy_wall_s", "s", "lower"),
    ("runtime.partitioned.barrier_idle_s", "s", "lower"),
    ("runtime.partitioned.coordination_s", "s", "lower"),
    ("runtime.partitioned.speedup_vs_serial", "ratio", "higher"),
    ("runtime.partitioned.digest_mismatches", "count", "lower"),
    ("serve.model.self_s", "s", "lower"),
    ("serve.scheduler.self_s", "s", "lower"),
    ("serve.model.jobs", "count", "higher"),
    ("trace.wrapper_s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.attributed_frac", "fraction", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced pass.

    ``facts`` carries what the tracer cannot see: the pass wall, the
    untraced ``wall_s``, per-cell walls and run counters, pool and PDES
    accounting.  A layer the workload does not exercise reads 0.
    """
    c, n, counts = tracer.corrected, tracer.calls, tracer.counts
    counters = facts.get("counters", {})
    pdes = facts.get("pdes", {})
    cell_walls = facts.get("cell_walls", [])
    wall = facts["traced_wall_s"]
    jobs = facts.get("jobs", 1)
    sim_s = c("sim.dispatch") + c("sim.events") + c("sim.equeue")
    values = {
        "sim.dispatch.self_s": c("sim.dispatch"),
        "sim.events.self_s": c("sim.events"),
        "sim.equeue.self_s": c("sim.equeue"),
        "sim.equeue.push_calls": n("sim.equeue.push"),
        "sim.equeue.pop_cohort_calls": n("sim.equeue.pop_cohort"),
        "sim.equeue.events_per_cohort": _ratio(
            counts["sim.events_popped"],
            n("sim.equeue.pop_cohort") + n("sim.equeue.pop")),
        "sim.host_us_per_event": _ratio(
            sim_s * 1e6, counts["sim.events_popped"]),
        "runtime.executor.self_s": c("runtime.executor"),
        "runtime.executor.rounds": counters.get("rounds", 0),
        "runtime.distributed_queue.self_s": c("runtime.distributed_queue"),
        "queues.self_s": c("queues"),
        "queues.items_pushed": counts["queues.items_pushed"],
        "queues.items_popped": counts["queues.items_popped"],
        "runtime.aggregator.self_s": c("runtime.aggregator"),
        "runtime.aggregator.calls": n("runtime.aggregator"),
        "runtime.aggregator.payloads_per_flush": _ratio(
            counts["runtime.aggregator.payloads"],
            counters.get("aggregated_messages", 0)),
        "runtime.termination.self_s": c("runtime.termination"),
        "interconnect.fabric.self_s": c("interconnect.fabric"),
        "interconnect.fabric.sends": n("interconnect.fabric"),
        "interconnect.fabric.bytes": counts["interconnect.fabric.bytes"],
        "apps.process.self_s": c("apps.process"),
        "apps.process.calls": n("apps.process"),
        "apps.handle_remote.self_s": c("apps.handle_remote"),
        "apps.variants.self_s": c("apps.variants"),
        "gpu.atomics.self_s": c("gpu.atomics"),
        "gpu.atomics.calls": n("gpu.atomics"),
        "graph.csr.self_s": c("graph.csr"),
        "apps.edges_processed": counters.get("edges_processed", 0),
        "apps.work_efficiency": _ratio(
            facts.get("work", 0) if facts.get("work_unit") == "edges" else 0,
            counters.get("edges_processed", 0)),
        "frameworks.self_s": c("frameworks"),
        "graph.load_s": c("graph.load"),
        "graph.partition_s": c("graph.partition"),
        "harness.runner.validate_s": c("harness.runner.validate"),
        "harness.runner.self_s": (
            c("harness.runner") - c("harness.runner.validate")
            - c("harness.runner.key")),
        "harness.runner.key_s": c("harness.runner.key"),
        "harness.pool.cells": len(cell_walls),
        "harness.pool.worker_busy_s": sum(cell_walls),
        "harness.pool.worker_setup_s": (
            c("graph.load") + c("graph.partition")
            + c("harness.runner.validate")),
        "harness.pool.overhead_s": (
            max(0.0, jobs * wall - sum(cell_walls)) if cell_walls else 0.0),
        "harness.pool.slowest_cell_s": max(cell_walls, default=0.0),
        "harness.pool.result_bytes": facts.get("result_bytes", 0),
        "harness.pool.failed_cells": facts.get("failed_cells", 0),
        "harness.cache.store_s": c("harness.cache.store"),
        "harness.cache.bytes_stored": counts["harness.cache.bytes_stored"],
        "harness.cache.misses": counts["harness.cache.misses"],
        "harness.cache.load_s": c("harness.cache.load"),
        "harness.cache.hits": counts["harness.cache.hits"],
        "harness.report.paper_direction_agreement": facts.get(
            "paper_direction_agreement", 0.0),
        "cli.fingerprint_s": c("cli.fingerprint"),
        "cli.import_s": facts.get("import_s", 0.0),
        "runtime.partitioned.self_s": c("runtime.partitioned"),
        "runtime.partitioned.windows": pdes.get("windows", 0),
        "runtime.partitioned.events": pdes.get("total_events", 0),
        "runtime.partitioned.exports": pdes.get("total_exports", 0),
        "runtime.partitioned.idle_partition_windows": pdes.get(
            "idle_partition_windows", 0),
        "runtime.partitioned.critical_wall_s": pdes.get(
            "critical_wall_s", 0.0),
        "runtime.partitioned.busy_wall_s": pdes.get("busy_wall_s", 0.0),
        "runtime.partitioned.barrier_idle_s": max(0.0, (
            facts.get("partitions", 1) * pdes.get("critical_wall_s", 0.0)
            - pdes.get("busy_wall_s", 0.0))),
        "runtime.partitioned.coordination_s": (
            max(0.0, sum(cell_walls) - pdes["critical_wall_s"])
            if pdes else 0.0),
        "runtime.partitioned.speedup_vs_serial": facts.get(
            "speedup_vs_serial", 0.0),
        "runtime.partitioned.digest_mismatches": facts.get(
            "digest_mismatches", 0),
        "serve.model.self_s": c("serve.model"),
        "serve.scheduler.self_s": c("serve.scheduler"),
        "serve.model.jobs": facts.get("model_jobs", 0),
        "trace.wrapper_s": tracer.wrapper_total(),
        "trace.other_s": max(0.0, facts["attributable_wall_s"]
                             - tracer.raw_total()),
        "trace.attributed_frac": _ratio(
            tracer.raw_total(), facts["attributable_wall_s"]),
        "trace.overhead_frac": _ratio(wall, facts["untraced_wall_s"]) - 1.0,
    }
    assert set(values) == {name for name, _, _ in PER_LAYER}
    return values
