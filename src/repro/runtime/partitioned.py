"""Partitioned execution of one Atos simulation across N event loops.

The serial :class:`~repro.runtime.executor.AtosExecutor` runs every
rank in one :class:`~repro.sim.core.Environment`.  Here the ranks are
split into partitions, each a :class:`PartitionReplica` — a *full*
executor replica (own environment, event queue, fabric, transport,
aggregators, application state) that only seeds and runs processes for
the ranks it owns.  Replication is cheap because every runtime
structure is already per-rank-sliced (app slices, queues, per-directed-
pair channels, endpoint transport state); the untouched foreign slices
cost nothing and guarantee any accidental cross-partition access is a
loud logic error rather than a silent race.

Cross-partition messages are cut at the fabric: a send whose
destination rank lives elsewhere performs all source-side physics
(serialization, counters, fault fate, telemetry) and becomes an
:class:`~repro.sim.partition.Export` carrying its computed arrival
time; the :class:`~repro.sim.partition.WindowCoordinator` routes it at
the window boundary and the owning replica re-materializes the arrival
in its own environment.  Delivery dispatches on the *payload type* —
transport data/ack packets to the replica's transport endpoint,
anything else to the executor's raw delivery handler — exactly the
callback the serial engine would have invoked.

Termination is the serial tracker's global-zero condition recovered
from per-partition deltas: each replica's
:class:`~repro.runtime.termination.WindowedWorkTracker` reports its
local adds-minus-removes and the time of its last delta; the
coordinator terminates when the global sum is zero with no export in
transit, and the serial termination time is the global latest delta
(the serial zeroing ``remove`` is, provably, the latest token movement
anywhere).

One engine body, :func:`run_partitioned`, drives every run through the
one coordinator; the driver name only decides how the hosts are built:

* ``local`` — :class:`PartitionReplica` objects stepped in-process, in
  partition order.  The correctness spine: deterministic, debuggable,
  and the digest reference for the pooled driver.
* ``pooled`` — one worker process per partition (fork-preferred,
  mirroring :mod:`repro.harness.pool`'s lifecycle and crash isolation),
  each serving its replica over a pipe; windows travel as pickled
  batches.

Both produce **bit-identical** :meth:`RunResult.digest` values to the
serial engine — the partitioned-golden test suite pins that across
apps × fault plans × partition counts.  A run that collapses to one
partition (a 1-GPU machine, or a crash-plan downgrade) is the literal
serial executor, in-process, on either driver.

Crash-plan runs (fail-stop recovery) are downgraded to one partition
with a loud :class:`RuntimeWarning`: the recovery coordinator's
quiesce barriers are global-synchronous (zero lookahead), so
distributing them buys nothing and the collapse keeps digest equality
trivially exact.

Real (OS-level) worker loss is survivable: the pooled driver's pipe
proxies raise typed :class:`~repro.errors.PartitionWorkerLost`, the
coordinator gets a ``recover_host`` callback that spawns a replacement
process, and it replays the lost partition's window journal into it
(see :mod:`repro.sim.partition`).  ``checkpoint_every`` enables
barrier checkpoints (replica snapshots via the ``snapshot`` worker
RPC) that verify the replay; :class:`WorkerKillPlan` injects a
deterministic kill for the fault grid (``repro chaos``).
"""

from __future__ import annotations

import os
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.config import PDES_DRIVERS, MachineConfig
from repro.errors import (
    ConfigurationError,
    PartitionWorkerLost,
    SimulationError,
)
from repro.faults.transport import _AckPacket, _DataPacket
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition
from repro.interconnect.topology import Topology
from repro.interconnect.transfer import Message
from repro.metrics.counters import Counters, RunResult
from repro.runtime.executor import AtosConfig, AtosExecutor
from repro.runtime.termination import WindowedWorkTracker, WorkTracker
from repro.sim.core import Event
from repro.sim.partition import (
    Export,
    WindowCoordinator,
    WindowReport,
    WindowStats,
    lookahead_matrix,
    partition_ranks,
)
from repro.telemetry.spans import Telemetry

if TYPE_CHECKING:
    from repro.frameworks.atos import AtosDriver

__all__ = [
    "PartitionedRunSpec",
    "PartitionBridge",
    "PartitionReplica",
    "PartitionFinal",
    "WorkerKillPlan",
    "MAX_RESPAWNS",
    "run_partitioned",
]


# --------------------------------------------------------------------- spec
@dataclass(frozen=True)
class PartitionedRunSpec:
    """Everything a worker needs to build its replica (picklable)."""

    app_name: str  # "bfs" | "pagerank"
    graph: CSRGraph
    partition: Partition
    machine: MachineConfig
    config: AtosConfig
    framework_name: str
    dataset: str = ""
    source: int = 0
    alpha: float = 0.85
    epsilon: float = 1e-4


def _build_app(spec: PartitionedRunSpec):
    from repro.apps.bfs import AtosBFS
    from repro.apps.pagerank import AtosPageRank

    if spec.app_name == "bfs":
        return AtosBFS(spec.graph, spec.partition, spec.source)
    if spec.app_name == "pagerank":
        return AtosPageRank(
            spec.graph, spec.partition,
            alpha=spec.alpha, epsilon=spec.epsilon,
        )
    raise ConfigurationError(f"unknown app {spec.app_name!r}")


# ------------------------------------------------------------------- bridge
class PartitionBridge:
    """The fabric's window into the partitioned world.

    Installed as ``NetworkFabric.partition_bridge``; the fabric asks it
    who owns a destination rank and hands over the messages that leave
    the partition.  ``link_seq`` stamps exports in creation order so
    the receiver can break same-arrival-time ties exactly as the
    sender-side sequence numbers would have.
    """

    __slots__ = ("owned", "_exports", "_seq")

    def __init__(self, owned: frozenset[int]):
        self.owned = owned
        self._exports: list[Export] = []
        self._seq = 0

    def owns(self, rank: int) -> bool:
        return rank in self.owned

    def export(self, message: Message) -> None:
        self._exports.append(
            Export(
                arrival_time=message.arrival_time,
                send_time=message.send_time,
                src=message.src,
                dst=message.dst,
                payload_bytes=message.payload_bytes,
                payload=message.payload,
                link_seq=self._seq,
            )
        )
        self._seq += 1

    def drain(self) -> list[Export]:
        exports, self._exports = self._exports, []
        return exports


def _import_order(exp: Export) -> tuple:
    return (exp.arrival_time, exp.send_time, exp.src, exp.link_seq)


# ------------------------------------------------------------------ replica
@dataclass(slots=True)
class PartitionFinal:
    """One partition's contribution to the assembled run result."""

    owned: list[int]
    makespan: float
    counters: Counters
    result: Any
    timeline: list[tuple[float, float]]
    telemetry: Optional[Telemetry]
    idle_polls: list[int]


class PartitionReplica(AtosExecutor):
    """A full executor replica owning a slice of the ranks.

    Implements the :class:`~repro.sim.partition.PartitionHost`
    protocol: seed/start, begin and end one safe window, finalize.  The
    windowed tracker substitutes for the serial one (local token
    balances may go negative; termination is the coordinator's call),
    and the partition bridge turns foreign-rank fabric sends into
    exports.
    """

    def __init__(
        self,
        machine: MachineConfig,
        app: Any,
        config: AtosConfig,
        owned: Sequence[int],
    ):
        self.owned = frozenset(int(pe) for pe in owned)
        if not self.owned:
            raise ConfigurationError("a partition must own at least one rank")
        super().__init__(machine, app, config)
        if self.fault_plan is not None and self.fault_plan.crashes:
            # run_partitioned downgrades crash plans to one partition
            # before any replica is built (recovery barriers are globally
            # synchronous — a per-partition quiesce would be unsound),
            # so this only fires on direct construction.  Warn rather
            # than raise: the replica still runs, but rank recovery
            # inside one partition of many is unsupported territory.
            warnings.warn(
                "crash plans are meant to run single-partition "
                "(recovery barriers are globally synchronous); "
                "run_partitioned downgrades them — a directly-built "
                "multi-partition replica with a crash plan is unsound",
                RuntimeWarning,
                stacklevel=2,
            )
        self.bridge = PartitionBridge(self.owned)
        self.fabric.partition_bridge = self.bridge
        self._window: tuple[float, Sequence[Export]] = (0.0, ())

    # ------------------------------------------------- executor overrides
    def _make_tracker(self) -> WorkTracker:
        return WindowedWorkTracker(self.env)

    def _owned_ranks(self) -> list[int]:
        return sorted(self.owned)

    # ------------------------------------------------------ host protocol
    def start(self) -> int:
        return self.prepare()

    def begin_window(
        self, horizon: float, imports: Sequence[Export]
    ) -> None:
        # In-process, the window runs when its report is asked for.
        self._window = (horizon, imports)

    def end_window(self) -> WindowReport:
        horizon, imports = self._window
        t0 = time.perf_counter()
        env = self.env
        if imports:
            for exp in sorted(imports, key=_import_order):
                self._inject(exp)
        before = env.peek()
        # Horizons are not strictly monotone when link latencies break
        # the triangle inequality; a stale (≤ now) horizon simply means
        # nothing new is safe yet — execute nothing.
        if horizon > env.now:
            env.run(until=horizon)
        frontier = env.peek()
        tracker = self.tracker
        return WindowReport(
            frontier=frontier,
            net_tokens=tracker.net,
            last_delta_time=tracker.last_delta_time,
            exports=self.bridge.drain(),
            events=0 if frontier == before else 1,
            wall_s=time.perf_counter() - t0,
        )

    def finalize(self, t_done: float) -> PartitionFinal:
        makespan, counters = self.finish(t_done)
        return PartitionFinal(
            owned=sorted(self.owned),
            makespan=makespan,
            counters=counters,
            result=self.app.result(),
            timeline=self.fabric.timeline,
            telemetry=self.telemetry,
            idle_polls=self.idle_polls,
        )

    def snapshot_state(self, epoch: int) -> Any:
        """A read-only replica snapshot for a window-barrier checkpoint.

        Reuses the recovery layer's :class:`Checkpoint` value: the
        app's global arrays, the owned ranks' queue frontiers (foreign
        ranks snapshot empty — their state lives in other replicas),
        and the windowed tracker's counts.  Unlike a recovery-epoch
        snapshot this is *not* a quiesced cut (the environment holds
        live in-flight events no snapshot can capture), so it is used
        to **verify** respawn-and-replay, never to restore from — see
        :mod:`repro.sim.partition`.  Every source is copied, so taking
        a snapshot cannot perturb the run.
        """
        # Lazy import: repro.recovery sits beside repro.runtime in the
        # layering, and this module must stay importable without it.
        from repro.recovery.checkpoint import Checkpoint

        app_state = (
            self.app.checkpoint_state()
            if getattr(self.app, "supports_recovery", False)
            else {}
        )
        empty = (np.empty(0, dtype=np.int64), None)
        frontier = tuple(
            self.queues[pe].snapshot() if pe in self.owned else empty
            for pe in range(self.machine.n_gpus)
        )
        return Checkpoint(
            epoch=epoch,
            sim_time=self.env.now,
            app_state=app_state,
            frontier=frontier,
            tracker=self.tracker.snapshot(),
            owned_ranks=tuple(sorted(self.owned)),
        )

    # ----------------------------------------------------------- plumbing
    def _inject(self, exp: Export) -> None:
        """Re-materialize a cross-partition arrival in this environment.

        Dispatch is by payload *type* — the pickle-safe equivalent of
        the delivery closure the serial fabric would have scheduled:
        transport packets go to this replica's transport endpoint
        (dedup, ack, incarnation fencing all live there), anything
        else is a raw one-sided delivery.
        """
        payload = exp.payload
        message = Message(
            src=exp.src,
            dst=exp.dst,
            payload_bytes=exp.payload_bytes,
            payload=payload,
            send_time=exp.send_time,
            arrival_time=exp.arrival_time,
        )
        if isinstance(payload, _DataPacket):
            if self.transport is None:  # pragma: no cover - wiring error
                raise SimulationError("data packet without a transport")
            handler = self.transport._on_data
        elif isinstance(payload, _AckPacket):
            if self.transport is None:  # pragma: no cover - wiring error
                raise SimulationError("ack packet without a transport")
            handler = self.transport._on_ack
        else:
            dst = exp.dst
            handler = lambda msg: self._deliver(dst, msg.payload)  # noqa: E731
        event = Event(self.env)
        event._value = message
        event._ok = True
        event.callbacks.append(lambda _ev, m=message, h=handler: h(m))
        self.env.schedule_at(event, exp.arrival_time)


# ----------------------------------------------------------------- assembly
def _assemble(
    spec: PartitionedRunSpec,
    parts: list[list[int]],
    finals: list[PartitionFinal],
    stats: WindowStats,
    horizon_history: Optional[list[list[float]]],
    driver_name: str,
) -> RunResult:
    """Merge partition finals into one serial-equivalent RunResult."""
    counters = Counters()
    for final in finals:
        counters.merge(final.counters)

    # Every vertex is owned by exactly one PE, and every PE by exactly
    # one partition: overlaying each partition's owned slices onto any
    # replica's template reconstructs the serial output exactly.
    result = finals[0].result
    if isinstance(result, np.ndarray):
        result = result.copy()
        part = spec.partition
        for final in finals:
            for pe in final.owned:
                verts = part.part_vertices[pe]
                result[verts] = final.result[verts]

    timeline: list[tuple[float, float]] = []
    for final in finals:
        timeline.extend(final.timeline)
    timeline.sort()

    telemetry = _merge_telemetry(
        spec, parts, finals, stats, horizon_history, driver_name
    )

    return RunResult(
        framework=spec.framework_name,
        app=spec.app_name,
        dataset=spec.dataset,
        n_gpus=spec.machine.n_gpus,
        time_ms=finals[0].makespan / 1000.0,
        counters=counters,
        output=result,
        timeline=timeline,
        telemetry=telemetry,
    )


def _merge_telemetry(
    spec: PartitionedRunSpec,
    parts: list[list[int]],
    finals: list[PartitionFinal],
    stats: WindowStats,
    horizon_history: Optional[list[list[float]]],
    driver_name: str,
) -> Optional[Telemetry]:
    """One hub from the per-partition hubs, plus window sync spans.

    Every span/edge is recorded at exactly one owner (timeline spans on
    the rank itself, comm spans and dep edges at the source rank), so
    the merge is a disjoint union: take each rank's log from its
    owner's hub.  Window synchronization is tagged as ``sync`` overlay
    spans on each partition's lead rank — ``python -m repro profile``
    then shows conservative-window overhead next to compute/comm.
    """
    if all(final.telemetry is None for final in finals):
        return None
    hub = Telemetry(spec.machine.n_gpus, spec.config.telemetry_max_spans)
    for final in finals:
        sub = final.telemetry
        if sub is None:  # pragma: no cover - all-or-nothing in practice
            continue
        hub.meta.update(sub.meta)
        for rank in final.owned:
            hub.logs[rank] = sub.logs[rank]
        hub.total_edges += sub.total_edges
        hub.edges.extend(sub.edges)
    hub.meta["pdes_driver"] = driver_name
    hub.meta["pdes_partitions"] = str(len(parts))
    hub.meta["pdes_windows"] = str(stats.windows)
    hub.meta["pdes_exports"] = str(stats.total_exports)
    if horizon_history:
        prev = [0.0] * len(parts)
        for w, horizons in enumerate(horizon_history):
            for p, ranks in enumerate(parts):
                end = min(horizons[p], finals[p].makespan)
                if end > prev[p]:
                    hub.span(
                        ranks[0], "sync", prev[p], end,
                        f"window{w}",
                    )
                    prev[p] = end
    return hub


# ------------------------------------------------------------ worker process
@dataclass(frozen=True)
class WorkerKillPlan:
    """Deterministic fail-stop injection for the pooled driver.

    The worker spawned for ``partition`` counts the ``step`` requests
    it receives and hard-exits (``os._exit`` — no cleanup, no
    good-bye, a faithful SIGKILL stand-in) immediately before
    executing its ``window``-th one (0-based).  Replacement workers
    never inherit the plan, so a killed run terminates after exactly
    one injected loss.  Needs the pooled driver and at least two
    partitions.  Used by the ``repro chaos`` fault grid to pin digest
    equality under real process death.
    """

    partition: int
    window: int


#: Exit code of an injected kill — distinguishable from a genuine
#: crash in post-mortems (anything nonzero surfaces the same way).
_KILL_EXITCODE = 17

#: Replacement workers the coordinator may spawn per partition before
#: a worker loss becomes fatal.
MAX_RESPAWNS = 3


def _partition_worker(spec, owned, conn, kill_at_step=None) -> None:
    """Worker main: build the replica, serve coordinator RPCs.

    ``kill_at_step`` (from a :class:`WorkerKillPlan`) hard-exits the
    process when the ``kill_at_step``-th ``step`` request arrives —
    before executing it, so the coordinator observes a worker that
    accepted a window and never reported.
    """
    try:
        replica = PartitionReplica(spec.machine, _build_app(spec),
                                   spec.config, owned)
        steps = 0
        while True:
            request = conn.recv()
            op = request[0]
            if op == "start":
                conn.send(("ok", replica.start()))
            elif op == "step":
                steps += 1
                if kill_at_step is not None and steps >= kill_at_step:
                    conn.close()
                    os._exit(_KILL_EXITCODE)
                replica.begin_window(request[1], request[2])
                conn.send(("ok", replica.end_window()))
            elif op == "snapshot":
                conn.send(("ok", replica.snapshot_state(request[1])))
            elif op == "finalize":
                conn.send(("ok", replica.finalize(request[1])))
            elif op == "exit":
                break
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown worker op {op!r}")
    except EOFError:  # pragma: no cover - parent died
        pass
    except BaseException as exc:  # noqa: BLE001 - forwarded to parent
        try:
            conn.send(
                ("error", f"{type(exc).__name__}: {exc}",
                 traceback.format_exc())
            )
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class _WorkerHost:
    """Pipe proxy implementing the PartitionHost protocol.

    ``begin_window`` only sends the window, so the coordinator's
    fan-out of every begin before any end lets the worker processes
    execute their windows concurrently — this pair is the entire
    speedup.
    """

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn

    def _lost(self) -> PartitionWorkerLost:
        return PartitionWorkerLost(self.index, exitcode=self.process.exitcode)

    def begin_window(self, horizon, imports) -> None:
        self._send("step", horizon, list(imports))

    def end_window(self) -> WindowReport:
        return self._recv()

    def start(self) -> int:
        return self._call("start")

    def snapshot_state(self, epoch: int) -> Any:
        return self._call("snapshot", epoch)

    def finalize(self, t_done) -> PartitionFinal:
        return self._call("finalize", t_done)

    def _call(self, *request) -> Any:
        self._send(*request)
        return self._recv()

    def _send(self, *request) -> None:
        try:
            self.conn.send(request)
        except (BrokenPipeError, OSError) as exc:
            raise self._lost() from exc

    def _recv(self) -> Any:
        try:
            reply = self.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise self._lost() from exc
        if reply[0] == "error":
            raise SimulationError(
                f"partition worker {self.index} failed: {reply[1]}\n"
                f"{reply[2]}"
            )
        return reply[1]

    def close(self, timeout: float = 30.0) -> None:
        """Best-effort shutdown: polite exit, close, join, then kill.

        Closing twice is a no-op: the engine's final sweep skips a host
        its recover path already closed, so every pipe has one closer.
        """
        from repro.harness.pool import _stop_process

        if self.conn.closed:
            return
        try:
            self.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        _stop_process(self.process, grace_s=timeout)


def _spawn_worker(
    ctx, spec: PartitionedRunSpec, index: int, owned: Sequence[int],
    kill_at_step: Optional[int] = None,
) -> _WorkerHost:
    parent, child = ctx.Pipe()
    proc = ctx.Process(
        target=_partition_worker,
        args=(spec, list(owned), child, kill_at_step),
        daemon=True,
    )
    proc.start()
    child.close()
    return _WorkerHost(index, proc, parent)


# ---------------------------------------------------------------- entrypoint
def run_partitioned(
    app: str,
    graph: CSRGraph,
    partition: Partition,
    machine: MachineConfig,
    *,
    atos: Optional[AtosDriver] = None,
    n_partitions: int = 2,
    driver: str = "local",
    source: int = 0,
    alpha: float = 0.85,
    epsilon: float = 1e-4,
    dataset: str = "",
    checkpoint_every: Optional[int] = None,
    kill_plan: Optional[WorkerKillPlan] = None,
) -> RunResult:
    """Run one application partitioned across ``n_partitions`` loops.

    ``atos`` (default: a plain :class:`~repro.frameworks.atos.AtosDriver`)
    supplies the framework name and the per-app config, so the result
    digest is directly comparable to ``atos``'s serial run of the same
    cell.  ``driver`` names how partitions are hosted (see module
    docstring); crash plans downgrade to one partition with a
    RuntimeWarning.  ``checkpoint_every`` enables window-barrier
    checkpoints and ``kill_plan`` injects one deterministic worker kill
    (pooled driver, two partitions or more).  The coordinator's window
    accounting, resilience counts included, is attached as
    ``result.host_stats`` (:meth:`WindowStats.as_dict`; all zero when
    the run collapses to one partition).
    """
    from repro.frameworks.atos import AtosDriver

    if driver not in PDES_DRIVERS:
        raise ConfigurationError(
            f"unknown partition driver {driver!r}; known: {PDES_DRIVERS}"
        )
    if app not in ("bfs", "pagerank"):
        raise ConfigurationError(f"unknown app {app!r}")
    if atos is None:
        atos = AtosDriver()
    config = atos._config(app, machine)
    n_partitions = min(n_partitions, machine.n_gpus)
    plan = config.faults
    if n_partitions > 1 and plan is not None and plan.active and plan.crashes:
        warnings.warn(
            "crash plans run single-partition (recovery barriers are "
            f"globally synchronous); downgrading {n_partitions} "
            "partitions to 1 — digests are unchanged by construction",
            RuntimeWarning,
            stacklevel=2,
        )
        n_partitions = 1
    if kill_plan is not None and (driver != "pooled" or n_partitions < 2):
        raise ConfigurationError(
            "kill plans need real worker processes; use the 'pooled' "
            "driver with at least 2 partitions"
        )
    if n_partitions == 1:
        # The serial executor itself: no bridge, no windows, no worker.
        if app == "bfs":
            result = atos.run_bfs(
                graph, partition, source, machine, dataset=dataset
            )
        else:
            result = atos.run_pagerank(
                graph, partition, machine, alpha=alpha, epsilon=epsilon,
                dataset=dataset,
            )
        result.host_stats = WindowStats().as_dict()
        return result

    spec = PartitionedRunSpec(
        app_name=app,
        graph=graph,
        partition=partition,
        machine=machine,
        config=config,
        framework_name=atos.name,
        dataset=dataset,
        source=source,
        alpha=alpha,
        epsilon=epsilon,
    )
    parts = partition_ranks(machine.n_gpus, n_partitions)
    extra = (
        machine.cost.cpu_control_path_latency
        if config.control_path == "cpu" else 0.0
    )
    lookahead = lookahead_matrix(Topology(machine), parts, extra)
    workers: list[_WorkerHost] = []
    recover_host = None
    try:
        if driver == "local":
            hosts: list[Any] = [
                PartitionReplica(machine, _build_app(spec), config, owned)
                for owned in parts
            ]
        else:
            from repro.harness.pool import _mp_context

            ctx = _mp_context()
            for index, owned in enumerate(parts):
                kill_at = None
                if kill_plan is not None and kill_plan.partition == index:
                    kill_at = kill_plan.window + 1
                workers.append(
                    _spawn_worker(ctx, spec, index, owned, kill_at)
                )
            hosts = workers

            def recover_host(p: int) -> _WorkerHost:
                # The dead worker's pipe may still be open parent-side;
                # reap it before spawning the replacement (which never
                # inherits a kill plan — one injected loss per run).
                workers[p].close(timeout=5.0)
                workers[p] = _spawn_worker(ctx, spec, p, parts[p])
                return workers[p]

        horizon_history: list[list[float]] = []

        def on_window(_w: int, horizons: list, _reports: list) -> None:
            horizon_history.append(list(horizons))

        coordinator = WindowCoordinator(
            hosts, lookahead, on_window=on_window,
            checkpoint_every=checkpoint_every,
            recover_host=recover_host,
            max_respawns=MAX_RESPAWNS,
        )
        coordinator.set_rank_owners(parts)
        t_done = coordinator.run()
        finals = []
        for p in range(len(parts)):
            try:
                finals.append(coordinator.hosts[p].finalize(t_done))
            except PartitionWorkerLost as lost:
                # Lost between its last window and finalize; the
                # coordinator replays it to the end and retries.
                finals.append(coordinator.revive(p, lost).finalize(t_done))
    finally:
        for worker in workers:
            worker.close()
    result = _assemble(
        spec, parts, finals, coordinator.stats, horizon_history, driver
    )
    result.host_stats = coordinator.stats.as_dict()
    return result
