"""Fault grid: seeded runs that must still finish with the serial answer.

The paper's correctness claim is that asynchronous, counter-terminated
execution finishes with the serial answer.  This module checks that
claim under three kinds of injected fault, each one value of the fault
axis of one :class:`ChaosSpec`:

* **message faults** — dropped / duplicated / delayed messages that the
  ack+retransmit transport must absorb (a :class:`~repro.faults.FaultPlan`
  with rates);
* **rank crashes** — fail-stop ranks that checkpoint/rollback/re-home
  recovery must absorb (a plan with :class:`~repro.faults.CrashEvent`
  entries; combined with rates, both at once);
* **worker kills** — a real worker-process death under the pooled
  partitioned driver that respawn + journal replay must absorb (a
  :class:`~repro.runtime.partitioned.WorkerKillPlan`).

:func:`run_chaos_cell` judges every cell the same way: the run
terminates, the in-flight ledger drains, and the output equals the
fault-free serial reference; a kill cell must also reproduce the
single-partition run's digest.  :func:`chaos_grid` runs cells through
:func:`repro.harness.pool.run_grid`, :func:`render_chaos` tabulates
them, and :func:`verify_inert` proves that the three idle layers — a
zero-fault plan, an idle recovery policy, idle window checkpoints —
leave a run bit-identical.  ``python -m repro chaos`` drives all of it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from repro.apps import AtosBFS, AtosPageRank
from repro.apps.validation import (
    pagerank_close,
    reference_bfs,
    reference_pagerank,
)
from repro.config import daisy
from repro.errors import SimulationError
from repro.faults import CrashEvent, FaultPlan
from repro.frameworks.atos import AtosDriver
from repro.gpu.kernel import KernelStrategy
from repro.graph import bfs_grow_partition, largest_component_vertex, rmat
from repro.metrics.counters import RunResult, fault_summary
from repro.metrics.tables import format_generic_table
from repro.recovery import RecoveryPolicy
from repro.runtime import AtosConfig, AtosExecutor
from repro.runtime.partitioned import WorkerKillPlan, run_partitioned
from repro.sim.partition import WindowStats

__all__ = [
    "CHAOS_VARIANTS",
    "CHAOS_EPSILON",
    "ChaosSpec",
    "ChaosCell",
    "run_chaos_cell",
    "chaos_specs",
    "chaos_grid",
    "render_chaos",
    "trace_digest_for",
    "verify_inert",
]

#: The paper's three evaluated queue configurations, by short name.
CHAOS_VARIANTS: dict[str, tuple[KernelStrategy, bool]] = {
    "standard-persistent": (KernelStrategy.PERSISTENT, False),
    "priority-discrete": (KernelStrategy.DISCRETE, True),
    "standard-discrete": (KernelStrategy.DISCRETE, False),
}

#: PageRank validation threshold for chaos cells.
CHAOS_EPSILON = 1e-4

#: The seeded RMAT graph every cell runs on.
SCALE = 9
EDGE_FACTOR = 8

#: Duplicate and delay rates that ride along with every drop rate.
DUPLICATE_RATE = 0.02
DELAY_RATE = 0.05

#: Recovery policy of crash cells (sim us).
RECOVERY = RecoveryPolicy(
    checkpoint_interval=40.0, detect_interval=5.0, drain_poll=1.0
)

#: Kill cells kill this partition's worker, with window checkpoints
#: every this many windows.
KILL_PARTITION = 1
CHECKPOINT_EVERY = 3

#: Default drop-rate sweep (up to 10%).
DEFAULT_DROP_RATES = (0.0, 0.05, 0.10)

#: Default crash times (sim us) per app, chosen to land mid-run on the
#: seeded graph (fault-free makespans: BFS ~40-80 us, PageRank
#: ~300-1500 us depending on variant).  The early crash rolls back to
#: the bootstrap (epoch-0) checkpoint, the late one replays from a
#: periodic epoch.
DEFAULT_CRASH_TIMES: dict[str, tuple[float, ...]] = {
    "bfs": (15.0, 30.0),
    "pagerank": (80.0, 180.0),
}

#: Default windows at which a kill cell loses its worker.  Window 0
#: loses it before any barrier state exists (replay from an empty
#: journal); later windows replay mid-run across checkpoint barriers.
DEFAULT_KILL_WINDOWS = (0, 2, 5)


@dataclass(frozen=True)
class ChaosSpec:
    """One fault cell: app x queue variant x fault, seeded.

    ``faults`` is the message-fault and crash schedule (``None``: no
    fault machinery at all); ``kill`` loses one worker of a pooled run
    over ``n_partitions`` partitions.  The graph, partition and fault
    schedule are pure functions of the fields, so a cell is exactly
    replayable — including its checkpoint digests.
    """

    app: str
    variant: str = "standard-persistent"
    faults: Optional[FaultPlan] = None
    kill: Optional[WorkerKillPlan] = None
    n_partitions: int = 1
    seed: int = 0
    n_gpus: int = 4

    def __post_init__(self) -> None:
        if self.app not in ("bfs", "pagerank"):
            raise ValueError(f"unknown chaos app {self.app!r}")
        if self.variant not in CHAOS_VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; "
                f"known: {sorted(CHAOS_VARIANTS)}"
            )
        if self.n_gpus < 1:
            raise ValueError(f"need at least one GPU, got {self.n_gpus}")
        for crash in self.faults.crashes if self.faults else ():
            if crash.pe >= self.n_gpus:
                raise ValueError(
                    f"crash rank {crash.pe} out of range for "
                    f"{self.n_gpus} GPU(s)"
                )
        if self.kill is None:
            if self.n_partitions != 1:
                raise ValueError("partitions apply to worker-kill cells only")
            return
        if self.faults is not None:
            raise ValueError("a worker-kill cell takes no fault plan")
        if not 1 <= self.n_partitions <= self.n_gpus:
            raise ValueError(
                f"{self.n_partitions} partitions out of range for "
                f"{self.n_gpus} GPU(s)"
            )
        if not 0 <= self.kill.partition < self.n_partitions:
            raise ValueError(
                f"kill partition {self.kill.partition} out of range for "
                f"{self.n_partitions} partitions"
            )
        if self.kill.window < 0:
            raise ValueError(
                f"kill window must be >= 0, got {self.kill.window}"
            )

    def fault(self) -> str:
        """Short name of what this cell injects (``drop0.1``, ``pe1@15``)."""
        parts = []
        plan = self.faults
        if plan is not None:
            if plan.drop_rate or plan.duplicate_rate or plan.delay_rate:
                parts.append(f"drop{plan.drop_rate:g}")
            parts.extend(f"pe{c.pe}@{c.at:g}" for c in plan.crashes)
        if self.kill is not None:
            parts.append(
                f"P{self.n_partitions} kill "
                f"p{self.kill.partition}@w{self.kill.window}"
            )
        return "+".join(parts) or "none"

    def label(self) -> str:
        return f"{self.app}/{self.variant}/{self.fault()}/seed{self.seed}"


@dataclass
class ChaosCell:
    """Verdict of one fault cell."""

    spec: ChaosSpec
    ok: bool
    time_ms: float = 0.0
    error: str = ""
    #: ``fault_summary`` of the run's counters (what was injected, what
    #: the transport and recovery absorbed) plus the pooled driver's
    #: ``WindowStats.resilience()`` (zero for in-process cells).
    faults: dict = field(default_factory=dict)
    #: SHA-256 of the output array.
    digest: str = ""
    #: Content digest of every recovery checkpoint epoch, in order.
    checkpoint_digests: list[str] = field(default_factory=list)


def _inputs(spec: ChaosSpec):
    """The seeded graph, partition and BFS source of a cell."""
    graph = rmat(scale=SCALE, edge_factor=EDGE_FACTOR, seed=spec.seed + 31)
    partition = bfs_grow_partition(graph, spec.n_gpus, seed=spec.seed)
    return graph, partition, largest_component_vertex(graph)


def _validator(spec: ChaosSpec, graph, source):
    """Output check against the fault-free serial reference."""
    if spec.app == "bfs":
        reference = reference_bfs(graph, source)
        return lambda output: bool(
            np.array_equal(np.asarray(output), reference)
        )
    reference = reference_pagerank(graph, epsilon=CHAOS_EPSILON)
    return lambda output: pagerank_close(
        np.asarray(output), reference, CHAOS_EPSILON
    )


def _executor(
    spec: ChaosSpec, inputs, recovery: Optional[RecoveryPolicy]
) -> AtosExecutor:
    graph, partition, source = inputs
    if spec.app == "bfs":
        app = AtosBFS(graph, partition, source)
    else:
        app = AtosPageRank(graph, partition, epsilon=CHAOS_EPSILON)
    kernel, priority = CHAOS_VARIANTS[spec.variant]
    config = AtosConfig(
        kernel=kernel,
        # The priority queue applies to BFS only, as in AtosDriver.
        priority=priority and spec.app == "bfs",
        fetch_size=1 if spec.app == "bfs" else 8,
        # Always exercise the aggregator flush path: it is the batch
        # send site the reliable transport wraps.  The small batch size
        # forces frequent size-triggered flushes, so even these small
        # seeded graphs put enough messages on the wire for the fault
        # rates to actually bite.
        use_aggregator=True,
        batch_size=1 << 12,
        faults=spec.faults,
        recovery=recovery,
    )
    return AtosExecutor(daisy(spec.n_gpus), app, config)


def _partitioned(
    spec: ChaosSpec, inputs, n_partitions: int, driver: str = "pooled",
    **kwargs,
) -> RunResult:
    graph, partition, source = inputs
    kernel, priority = CHAOS_VARIANTS[spec.variant]
    return run_partitioned(
        spec.app, graph, partition, daisy(spec.n_gpus),
        atos=AtosDriver(kernel=kernel, priority=priority),
        n_partitions=n_partitions, driver=driver, source=source,
        epsilon=CHAOS_EPSILON, **kwargs,
    )


def _output_digest(output) -> str:
    array = np.ascontiguousarray(np.asarray(output))
    h = hashlib.sha256(f"{array.dtype}|{array.shape}\n".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def run_chaos_cell(spec: ChaosSpec) -> ChaosCell:
    """Run one cell end to end and judge it.

    A cell passes only if the run terminates (no exhausted retry
    budget, no work-token underflow, no unrecoverable worker loss),
    every leased in-flight token was retired or reclaimed, and the
    output matches the fault-free serial reference — a faulted run is
    *indistinguishable by result* from a clean one.  A kill cell must
    also match the single-partition run's digest bit for bit.
    """
    inputs = _inputs(spec)
    stats = WindowStats()
    leased, checkpoints, digest_ok = 0, [], True
    try:
        if spec.kill is None:
            crashes = spec.faults is not None and spec.faults.crashes
            executor = _executor(spec, inputs, RECOVERY if crashes else None)
            makespan, counters = executor.run()
            time_ms, output = makespan / 1000.0, executor.app.result()
            if executor.ledger is not None:
                leased = executor.ledger.leased
            if executor.recovery is not None:
                checkpoints = list(executor.recovery.checkpoint_digests)
        else:
            result = _partitioned(
                spec, inputs, spec.n_partitions,
                checkpoint_every=CHECKPOINT_EVERY, kill_plan=spec.kill,
            )
            time_ms, output, counters = (
                result.time_ms, result.output, result.counters
            )
            stats = WindowStats(**result.host_stats)
            serial = _partitioned(spec, inputs, 1, driver="local")
            digest_ok = result.digest() == serial.digest()
    except SimulationError as exc:
        return ChaosCell(spec, ok=False, error=str(exc))
    if leased:
        error = f"{leased} in-flight token(s) never retired"
    elif not _validator(spec, inputs[0], inputs[2])(output):
        error = "output does not match the serial reference"
    elif not digest_ok:
        error = "digest mismatch vs serial reference"
    else:
        error = ""
    return ChaosCell(
        spec,
        ok=not error,
        time_ms=time_ms,
        error=error,
        faults={**fault_summary(counters), **stats.resilience()},
        digest=_output_digest(output),
        checkpoint_digests=checkpoints,
    )


def chaos_specs(
    drop_rates: tuple[float, ...] = DEFAULT_DROP_RATES,
    crash_pes: tuple[int, ...] = (1,),
    crash_times: Optional[tuple[float, ...]] = None,
    kill_windows: tuple[int, ...] = DEFAULT_KILL_WINDOWS,
    quick: bool = False,
    seed: int = 0,
    n_gpus: int = 4,
) -> list[ChaosSpec]:
    """The fault grid in table order: drop, crash, then kill cells.

    Drop cells sweep app x variant x rate, crash cells app x variant x
    rank x time (``crash_times`` None: each app's early and late
    default), kill cells app x partition count x window.  ``quick``
    keeps a smoke subset of each: BFS drops on two variants, the first
    default crash per app on one variant, BFS kills at P=2 in the first
    two windows.  An empty sequence leaves that kind out.  Bad input
    raises ``ValueError`` or ``ConfigurationError`` here, before any
    cell runs.
    """
    apps = ("bfs", "pagerank")
    drop_variants = (
        ("standard-persistent", "priority-discrete")
        if quick
        else tuple(CHAOS_VARIANTS)
    )
    specs = []
    for app in apps[:1] if quick else apps:
        for variant in drop_variants:
            if app != "bfs" and variant == "priority-discrete":
                # Priority applies to BFS only: this cell would repeat
                # the standard-discrete one.
                continue
            for rate in drop_rates:
                plan = FaultPlan(
                    seed=seed, drop_rate=rate,
                    duplicate_rate=DUPLICATE_RATE, delay_rate=DELAY_RATE,
                )
                specs.append(ChaosSpec(app, variant, plan, seed=seed,
                                       n_gpus=n_gpus))
    crash_variants = (
        ("standard-persistent",)
        if quick
        else ("standard-persistent", "priority-discrete")
    )
    for app in apps:
        times = crash_times
        if times is None:
            times = DEFAULT_CRASH_TIMES[app][: 1 if quick else None]
        for variant in crash_variants:
            for pe in crash_pes:
                for at in times:
                    plan = FaultPlan(seed=seed, crashes=(CrashEvent(pe, at),))
                    specs.append(ChaosSpec(app, variant, plan, seed=seed,
                                           n_gpus=n_gpus))
    for app in apps[:1] if quick else apps:
        for n_partitions in (2,) if quick else (2, 4):
            for window in kill_windows[:2] if quick else kill_windows:
                specs.append(ChaosSpec(
                    app, kill=WorkerKillPlan(KILL_PARTITION, window),
                    n_partitions=n_partitions, seed=seed, n_gpus=n_gpus,
                ))
    return specs


def chaos_grid(
    specs: Iterable[ChaosSpec], jobs: Optional[int] = None
) -> list[ChaosCell]:
    """Run ``specs`` through the pool harness; verdicts in spec order.

    With ``jobs`` > 1 each cell runs in its own worker process; a cell
    whose worker raised, timed out or died is a failed verdict.
    """
    from repro.harness.pool import run_grid

    specs = list(specs)
    results = run_grid(specs, jobs=jobs, run_fn=run_chaos_cell)
    return [
        cell.result
        if cell.ok
        else ChaosCell(
            spec, ok=False,
            error=(cell.error.strip().splitlines() or [cell.status])[-1],
        )
        for spec, cell in zip(specs, results)
    ]


#: Table counter columns: header -> the counters summed into it.
_COUNT_COLUMNS = {
    "dropped": ("fault_dropped",),
    "retx": ("transport_retransmits",),
    "dupsup": ("transport_duplicates_suppressed",),
    "ckpts": ("recovery_checkpoints_taken", "resilience_checkpoints_taken"),
    "recov": ("recovery_ranks_recovered",),
    "reclaim": ("recovery_tokens_reclaimed",),
    "replay": ("recovery_replay_messages", "resilience_windows_replayed"),
    "respawn": ("resilience_workers_respawned",),
}


def render_chaos(cells: list[ChaosCell]) -> str:
    """Paper-style text table of a fault grid's verdicts."""
    rows = [
        (
            cell.spec.app,
            cell.spec.variant,
            cell.spec.fault(),
            "pass" if cell.ok else "FAIL",
            f"{cell.time_ms:.3f}",
            *(
                f"{sum(cell.faults.get(name, 0) for name in names):.0f}"
                for names in _COUNT_COLUMNS.values()
            ),
            cell.error,
        )
        for cell in cells
    ]
    return format_generic_table(
        "Chaos grid: message faults (ack+retransmit transport), rank "
        "crashes (checkpoint/rollback/re-home) and worker kills (respawn "
        "+ journal replay), validated against the serial reference; "
        "replay counts messages for crashes, windows for kills",
        ["app", "variant", "fault", "verdict", "ms", *_COUNT_COLUMNS,
         "error"],
        rows,
    )


# ----------------------------------------------------- inertness check
class _TraceDigest:
    """Folds every dispatched heap entry into one SHA-256."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.n_events = 0

    def __call__(self, entry) -> None:
        when, priority, seq, event = entry
        self.n_events += 1
        self._hash.update(
            f"{when!r}|{priority}|{seq}|{type(event).__name__}\n".encode()
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def trace_digest_for(
    spec: ChaosSpec, recovery: Optional[RecoveryPolicy] = None
) -> tuple[str, float, dict]:
    """(event digest, makespan, counters) of one traced in-process run."""
    executor = _executor(spec, _inputs(spec), recovery)
    digest = _TraceDigest()
    executor.env.trace_hook = digest
    makespan, counters = executor.run()
    return digest.hexdigest(), makespan, dict(counters)


def verify_inert(seed: int = 0, apps: tuple[str, ...] = ("bfs",)) -> bool:
    """Prove the three idle fault layers leave a run unchanged.

    For each app, against the same seeded cell with no fault
    machinery: an all-zero :class:`FaultPlan` and an idle
    :class:`RecoveryPolicy` must each give bit-identical event digests,
    makespans and counters (a plan without crashes never builds a
    recovery coordinator), and a pooled two-partition run that takes
    window checkpoints but loses no worker must give the checkpoint-free
    run's digest.  Raises :class:`AssertionError` on any divergence;
    returns ``True``.
    """
    for app in apps:
        spec = ChaosSpec(app=app, seed=seed)
        baseline = trace_digest_for(spec)
        for layer, run in (
            ("inert fault plan",
             trace_digest_for(replace(spec, faults=FaultPlan(seed=seed)))),
            ("idle recovery policy",
             trace_digest_for(spec, recovery=RecoveryPolicy())),
        ):
            if run != baseline:
                raise AssertionError(
                    f"{layer} perturbed the {app} trace: "
                    f"{baseline[0][:16]} != {run[0][:16]}"
                )
        inputs = _inputs(spec)
        plain = _partitioned(spec, inputs, 2).digest()
        checkpointed = _partitioned(spec, inputs, 2, checkpoint_every=2)
        if plain != checkpointed.digest():
            raise AssertionError(
                f"checkpointing perturbed the {app} run: "
                f"{plain[:16]} != {checkpointed.digest()[:16]}"
            )
        stats = checkpointed.host_stats
        if stats["checkpoints_taken"] == 0:
            raise AssertionError(
                f"checkpointed {app} run took no checkpoints "
                f"({stats['windows']} windows)"
            )
    return True
