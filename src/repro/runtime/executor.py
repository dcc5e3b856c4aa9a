"""The Atos executor: assembles GPUs, queues, fabric, and an application
into a running simulation (the ``launch*`` APIs of paper Listing 4).

Each GPU is one DES process executing scheduling *rounds*: pop up to
(workers x fetch) tasks, run the application's task function over the
batch (vectorized), enqueue produced local work, issue produced remote
updates as one-sided messages (optionally through the communication
aggregator), then advance simulated time by the round's modeled cost.
Idle GPUs sleep until work is pushed to them (or a poll interval
elapses), so mesh-like graphs with starved GPUs don't melt the event
loop.

The same executor runs Groute-like configurations by (a) routing the
communication control path through the CPU (extra latency per send)
and (b) flushing remote updates only at kernel-segment boundaries —
the two knobs the paper credits for Atos's advantage over Groute.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.batchpath import batch_path_enabled
from repro.config import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_WAIT_TIME,
    MachineConfig,
    validate_tuning,
)
from repro.errors import ConfigurationError
from repro.faults.injectors import DeviceFaultInjector, LinkFaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.transport import ReliableTransport, RetryPolicy
from repro.gpu.kernel import FaultyKernelModel, KernelModel, KernelStrategy
from repro.gpu.memory import MemoryModel
from repro.gpu.worker import CTA, WorkerConfig
from repro.interconnect.transfer import NetworkFabric
from repro.metrics.counters import Counters
from repro.sim.monitor import IntervalAccumulator
from repro.runtime.aggregator import Aggregator, MergedBatch
from repro.runtime.distributed_queue import DistributedQueues
from repro.runtime.priority_queue import DistributedPriorityQueues
from repro.runtime.termination import InFlightLedger, WorkTracker
from repro.sim.core import AnyOf, Environment
from repro.telemetry.spans import (
    DEFAULT_MAX_SPANS,
    Telemetry,
    telemetry_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.recovery.coordinator import (
        RecoveryCoordinator,
        RecoveryPolicy,
    )

__all__ = ["AtosConfig", "AtosApplication", "RoundOutcome", "AtosExecutor"]


@dataclass
class RoundOutcome:
    """What one batch of task processing produced."""

    edges_processed: int = 0
    conflicts: int = 0
    #: Tasks to enqueue on the local PE.
    local_pushes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Priorities for local pushes (priority-queue configurations).
    local_priorities: Optional[np.ndarray] = None
    #: Remote one-sided updates: dst PE -> opaque payload array.  The
    #: executor charges ``len(payload) * bytes_per_remote_update`` wire
    #: bytes and delivers the payload to ``handle_remote`` at the
    #: destination.
    remote_updates: dict[int, np.ndarray] = field(default_factory=dict)


class AtosApplication(ABC):
    """A task-parallel application runnable by the executor.

    Implementations are the paper's application function ``f()`` plus
    the arrival-side handler its one-sided updates trigger.
    """

    name: str = "app"

    @abstractmethod
    def setup(
        self, n_pes: int
    ) -> list[tuple[np.ndarray, Optional[np.ndarray]]]:
        """Allocate state; return per-PE (seed tasks, seed priorities)."""

    @abstractmethod
    def process(self, pe: int, tasks: np.ndarray) -> RoundOutcome:
        """Run the application function over a popped batch."""

    @abstractmethod
    def handle_remote(
        self, pe: int, payload: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Apply an arriving one-sided update batch at its owner PE.

        Returns (new tasks, their priorities) to enqueue on ``pe``.
        """

    def result(self) -> Any:
        """Final application output (after the run completes)."""
        return None

    def counters(self) -> Counters:
        """Application-level counters to merge into the run result."""
        return Counters()

    # ------------------------------------------- recovery protocol (opt-in)
    #: True when the application implements checkpoint/restore (required
    #: to run under a fault plan that schedules rank crashes).
    supports_recovery: bool = False

    def checkpoint_state(self) -> dict[str, np.ndarray]:
        """Global (partition-independent) state arrays at a quiesced cut."""
        raise NotImplementedError(
            f"{self.name} does not implement checkpoint_state"
        )

    def restore_state(
        self, state: dict[str, np.ndarray], partition: Any
    ) -> None:
        """Roll back to ``state`` re-sliced onto a (re-homed) partition."""
        raise NotImplementedError(
            f"{self.name} does not implement restore_state"
        )

    def mark_queued(self, pe: int, tasks: np.ndarray) -> None:
        """Recovery re-enqueued ``tasks`` on ``pe`` (frontier replay).

        Default no-op; applications with queue-membership flags (e.g.
        PageRank's ``in_queue``) re-set them here.
        """


@dataclass(frozen=True)
class AtosConfig:
    """Executor configuration: the paper's three key decisions + knobs."""

    worker: WorkerConfig = CTA
    kernel: KernelStrategy = KernelStrategy.PERSISTENT
    priority: bool = False
    threshold: float = 1.0
    threshold_delta: float = 1.0
    #: None = use the aggregator iff the machine is inter-node (IB).
    use_aggregator: Optional[bool] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    wait_time: int = DEFAULT_WAIT_TIME
    #: Span-based tracing (:mod:`repro.telemetry`).  ``None`` = follow
    #: the ``REPRO_TELEMETRY`` environment toggle (default off); off
    #: means no :class:`~repro.telemetry.spans.Telemetry` hub is even
    #: constructed, so the run is bit-identical to the untraced seed.
    telemetry: Optional[bool] = None
    #: Per-rank span ring-buffer bound when tracing is on.
    telemetry_max_spans: int = DEFAULT_MAX_SPANS
    #: "gpu" = Atos's in-kernel control path; "cpu" = the baseline
    #: frameworks' host-mediated control path.
    control_path: str = "gpu"
    #: Remote sends leave only every N rounds (1 = immediately, the
    #: Atos behaviour; >1 models kernel-segment-boundary communication).
    segment_rounds: int = 1
    #: Host-side coordination cost charged every round (us).  Zero for
    #: Atos (the GPU owns scheduling); Groute-like engines pay their
    #: router/link management here.
    round_host_overhead: float = 0.0
    fetch_size: int = 8
    queue_capacity: int = 1 << 22
    num_recv_queues: int = 2
    #: Deterministic fault schedule (:mod:`repro.faults`).  ``None`` or
    #: an inert plan (all rates zero, no windows) leaves the executor
    #: on the exact fault-free code path; an active plan engages the
    #: link/device injectors *and* the resilient ack/retransmit
    #: transport with loss-safe termination accounting.
    faults: Optional[FaultPlan] = None
    #: Retransmission policy when ``faults`` is active (None = default).
    retry: Optional[RetryPolicy] = None
    #: Checkpoint/recovery policy (:class:`repro.recovery.RecoveryPolicy`).
    #: Only consulted when the fault plan schedules rank crashes; a
    #: crash schedule with ``recovery=None`` uses the default policy.
    recovery: Optional["RecoveryPolicy"] = None
    #: Fallback poll interval for idle GPUs (us).
    idle_poll: float = 5.0
    #: Polling cadence of the persistent aggregator kernel (us): the
    #: aggregator "runs persistently and concurrently alongside Atos
    #: workers, monitoring message accumulation" (paper Fig 3), so
    #: WAIT_TIME counts these fast polls, not application rounds.
    aggregator_poll: float = 2.0
    #: Safety valve for runaway simulations (us).
    max_sim_time: float = 5e8

    def __post_init__(self) -> None:
        validate_tuning(
            batch_size=self.batch_size,
            wait_time=self.wait_time,
            fetch_size=self.fetch_size,
        )
        if self.control_path not in ("gpu", "cpu"):
            raise ConfigurationError("control_path must be 'gpu' or 'cpu'")
        if self.segment_rounds < 1:
            raise ConfigurationError("segment_rounds must be >= 1")


class AtosExecutor:
    """Drives one application run on one machine."""

    def __init__(
        self,
        machine: MachineConfig,
        app: AtosApplication,
        config: AtosConfig = AtosConfig(),
    ):
        self.machine = machine
        self.app = app
        self.config = config
        self.env = Environment()
        self.fabric = NetworkFabric(self.env, machine)
        self.tracker = self._make_tracker()
        self.memory = MemoryModel(machine.gpu, machine.cost)
        self.kernel = KernelModel(config.kernel, machine.cost)
        self.counters = Counters()
        #: Busy intervals: "compute" (any GPU processing a round) and
        #: "comm" (any link serializing), for the overlap analysis —
        #: the paper's "small messages ... better overlap with
        #: computation, hiding latency".
        self.intervals = IntervalAccumulator()

        #: Span tracing hub (:mod:`repro.telemetry`).  ``None`` when
        #: tracing is off — every instrumentation site below is a single
        #: ``is not None`` branch, so the disabled executor is provably
        #: the untraced executor (golden-digest inertness test).
        self.telemetry: Optional[Telemetry] = None
        trace = (
            telemetry_enabled()
            if config.telemetry is None
            else config.telemetry
        )
        if trace:
            self.telemetry = Telemetry(
                machine.n_gpus, config.telemetry_max_spans
            )
            self.telemetry.meta["engine_queue"] = self.env.engine_queue
            self.fabric.telemetry = self.telemetry

        # Fault injection + resilient delivery.  Everything below is
        # ``None`` unless the plan can actually inject a fault, so the
        # zero-fault executor is provably the pre-fault executor (the
        # golden-trace suite pins bit-identical event traces).
        plan = config.faults
        self.fault_plan: Optional[FaultPlan] = (
            plan if (plan is not None and plan.active) else None
        )
        self.link_faults: Optional[LinkFaultInjector] = None
        self.device_faults: Optional[DeviceFaultInjector] = None
        self.faulty_kernel: Optional[FaultyKernelModel] = None
        self.transport: Optional[ReliableTransport] = None
        self.ledger: Optional[InFlightLedger] = None
        if self.fault_plan is not None:
            self.link_faults = LinkFaultInjector(
                self.fault_plan, counters=self.counters
            )
            self.fabric.fault_injector = self.link_faults
            self.device_faults = DeviceFaultInjector(
                self.fault_plan, counters=self.counters
            )
            self.faulty_kernel = FaultyKernelModel(
                self.kernel, self.device_faults
            )
            self.ledger = InFlightLedger(self.tracker)
            self.transport = ReliableTransport(
                self.env,
                self.fabric,
                self.ledger,
                self._apply_remote,
                policy=config.retry,
                counters=self.counters,
                extra_latency_fn=self._control_extra_latency,
            )

        worker_cfg = config.worker
        self.tasks_per_round = (
            worker_cfg.n_workers(machine.gpu) * config.fetch_size
        )

        n = machine.n_gpus
        self.queues: Any = self._make_queues()

        # Fail-stop rank recovery.  Installed only when the plan
        # schedules crashes, so crash-free runs (faulty or not) never
        # construct a coordinator — the zero-crash trace-identity test
        # pins this.
        self.recovery: Optional[RecoveryCoordinator] = None
        if self.fault_plan is not None and self.fault_plan.crashes:
            # Imported lazily: repro.recovery sits above the runtime in
            # the layering (its coordinator drives this executor).
            from repro.recovery.coordinator import (
                RecoveryCoordinator,
                RecoveryPolicy,
            )

            policy = config.recovery or RecoveryPolicy()
            self.recovery = RecoveryCoordinator(self, policy)
            assert self.transport is not None
            self.transport.alive_fn = self.recovery.alive_for_transport
            self.transport.on_exhausted = self.recovery.note_exhausted

        #: Vectorized data path (read once at construction; the
        #: ``REPRO_BATCH_PATH=0`` escape hatch restores the per-payload
        #: reference path — bit-identical traces, pinned by the golden
        #: suite).
        self.batch_path = batch_path_enabled()

        use_agg = (
            config.use_aggregator
            if config.use_aggregator is not None
            else machine.inter_node
        )
        self.aggregators: Optional[list[Aggregator]] = None
        if use_agg and n > 1:
            self.aggregators = [
                Aggregator(
                    pe,
                    n,
                    self._make_agg_sender(pe),
                    batch_size=config.batch_size,
                    wait_time=config.wait_time,
                    vectorize=self.batch_path,
                    telemetry=self.telemetry,
                    clock=(
                        None
                        if self.telemetry is None
                        else lambda: self.env.now
                    ),
                )
                for pe in range(n)
            ]

        # Groute-like segment buffering of remote updates.
        self._segment_buffers: list[dict[int, list[np.ndarray]]] = [
            {} for _ in range(n)
        ]
        self._work_notify = [self.env.event() for _ in range(n)]
        #: Starved-wake counts per PE.  Observability only — kept out of
        #: the digested counters because the partitioned engine's final
        #: windows legitimately run idle polls past the serial
        #: termination time (they are side-effect-free otherwise).
        self.idle_polls = [0] * n

    # ------------------------------------------------------------ wiring
    def _make_tracker(self) -> WorkTracker:
        """Tracker factory; the partitioned executor substitutes the
        windowed (per-partition) variant here."""
        return WorkTracker(self.env)

    def _owned_ranks(self) -> range:
        """Ranks this executor seeds and runs processes for (all of
        them, serially; a partition replica overrides with its slice)."""
        return range(self.machine.n_gpus)
    def _make_queues(self) -> Any:
        """Fresh distributed queues per the configuration.

        Called at construction and again by the recovery coordinator,
        which discards the post-crash queues wholesale and replays the
        checkpoint frontier into a clean set.
        """
        config = self.config
        n = self.machine.n_gpus
        if config.priority:
            return DistributedPriorityQueues(
                n,
                config.queue_capacity,
                config.queue_capacity,
                config.num_recv_queues,
                config.threshold,
                config.threshold_delta,
            )
        return DistributedQueues(
            n,
            config.queue_capacity,
            config.queue_capacity,
            config.num_recv_queues,
        )

    def _notify(self, pe: int) -> None:
        event = self._work_notify[pe]
        if not event.triggered:
            event.succeed(None)

    def _control_extra_latency(self) -> float:
        if self.config.control_path == "cpu":
            return self.machine.cost.cpu_control_path_latency
        return 0.0

    def _payload_bytes(self, payload: np.ndarray) -> int:
        return max(
            1, len(payload) * self.machine.cost.bytes_per_remote_update
        )

    def _make_agg_sender(self, src_pe: int):
        def send(dst: int, payloads: list[np.ndarray], n_bytes: int) -> None:
            self.counters["aggregated_messages"] += 1
            if self.transport is not None:
                # Resilient path: the flushed batch carries one work
                # token per aggregated payload; the transport leases
                # them until the destination's ack lands.
                self.transport.send(
                    src_pe, dst, n_bytes, payloads, tokens=len(payloads)
                )
                return
            self.fabric.send(
                src_pe,
                dst,
                n_bytes,
                payloads,
                lambda msg: self._deliver(dst, msg.payload),
                extra_latency=self._control_extra_latency(),
            )

        return send

    def _deliver(self, pe: int, payloads: Any) -> None:
        """Fabric arrival: apply update batches, enqueue produced tasks.

        All payloads of one wire message are merged before the handler
        runs: an aggregated batch lands as *one* bulk update at the
        owner, so contributions to the same vertex consolidate into a
        single enqueue — the work-efficiency payoff of batching that
        motivates PageRank's WAIT_TIME=32.

        On the vectorized path the aggregator already merged the
        payloads into one dense :class:`MergedBatch` at enqueue time
        (where the payload-width invariant was asserted once), so this
        hot handler does no per-payload shape probing at all.  The
        reference path (``REPRO_BATCH_PATH=0``) receives the payload
        list and merges here, the original behavior.
        """
        if isinstance(payloads, MergedBatch):
            tasks, priorities = self.app.handle_remote(pe, payloads.data)
            if len(tasks):
                self.tracker.add(len(tasks))
                self._enqueue_recv(pe, tasks, priorities)
            self.tracker.remove(payloads.count)
            self._notify(pe)
            return
        batch = payloads if isinstance(payloads, list) else [payloads]
        if (
            len(batch) > 1
            and all(
                isinstance(p, np.ndarray) and p.ndim == 2 for p in batch
            )
            and len({p.shape[1] for p in batch}) == 1
        ):
            batch = [np.vstack(batch)]
            merged_tokens = len(payloads)
        else:
            merged_tokens = None
        for payload in batch:
            tasks, priorities = self.app.handle_remote(pe, payload)
            if len(tasks):
                self.tracker.add(len(tasks))
                self._enqueue_recv(pe, tasks, priorities)
            self.tracker.remove(
                merged_tokens if merged_tokens is not None else 1
            )
        self._notify(pe)

    def _apply_remote(self, pe: int, payloads: Any) -> None:
        """Transport delivery: apply update batches, enqueue derived work.

        The resilient counterpart of :meth:`_deliver` — same merge and
        apply logic, but the message's work tokens are *not* retired
        here: they stay leased in the :class:`InFlightLedger` until the
        sender receives the ack (loss-safe termination accounting).
        The transport has already deduplicated, so this runs at most
        once per sequence number.
        """
        if isinstance(payloads, MergedBatch):
            tasks, priorities = self.app.handle_remote(pe, payloads.data)
            if len(tasks):
                self.tracker.add(len(tasks))
                self._enqueue_recv(pe, tasks, priorities)
            self._notify(pe)
            return
        batch = payloads if isinstance(payloads, list) else [payloads]
        if (
            len(batch) > 1
            and all(
                isinstance(p, np.ndarray) and p.ndim == 2 for p in batch
            )
            and len({p.shape[1] for p in batch}) == 1
        ):
            batch = [np.vstack(batch)]
        for payload in batch:
            tasks, priorities = self.app.handle_remote(pe, payload)
            if len(tasks):
                self.tracker.add(len(tasks))
                self._enqueue_recv(pe, tasks, priorities)
        self._notify(pe)

    def _enqueue_local(
        self, pe: int, tasks: np.ndarray, priorities: Optional[np.ndarray]
    ) -> None:
        if self.config.priority:
            if priorities is None:
                priorities = np.zeros(len(tasks))
            self.queues[pe].push_local(tasks, priorities)
        else:
            self.queues[pe].push_local(tasks)

    def _enqueue_recv(
        self, pe: int, tasks: np.ndarray, priorities: Optional[np.ndarray]
    ) -> None:
        # Receive queue choice keyed on the sending side is folded into
        # a single index here; contention modeling happens in costs.
        if self.config.priority:
            if priorities is None:
                priorities = np.zeros(len(tasks))
            self.queues[pe].push_recv(tasks, priorities, src_pe=0)
        else:
            self.queues[pe].push_recv(tasks, src_pe=0)

    def _send_remote(
        self, src: int, dst: int, payload: np.ndarray, tracked: bool = False
    ) -> None:
        """One remote update batch: message token + wire or aggregator.

        ``tracked=True`` means the caller already holds the work token
        for this payload (segment buffering takes the token at
        buffering time so termination cannot fire around it).
        """
        if not tracked:
            self.tracker.add(1)
        n_bytes = self._payload_bytes(payload)
        self.counters["remote_updates"] += len(payload)
        if self.aggregators is not None:
            self.aggregators[src].add(dst, payload, n_bytes)
            return
        self.counters["direct_messages"] += 1
        if self.transport is not None:
            self.transport.send(src, dst, n_bytes, payload, tokens=1)
            return
        self.fabric.send(
            src,
            dst,
            n_bytes,
            payload,
            lambda msg: self._deliver(dst, msg.payload),
            extra_latency=self._control_extra_latency(),
        )

    def _flush_segment(self, pe: int) -> None:
        """Emit buffered remote updates (segment-boundary communication).

        With the aggregator on, the vectorized path hands each
        destination's payload run to :meth:`Aggregator.add_many` in one
        call (identical flush points, one threshold test for the whole
        run) instead of walking the nested dst -> payload loops.
        Without an aggregator each payload is its own wire message —
        that structure is part of the modeled Groute-like behavior, so
        it is preserved on both paths.
        """
        buffers = self._segment_buffers[pe]
        if self.batch_path and self.aggregators is not None:
            aggregator = self.aggregators[pe]
            bytes_per_update = self.machine.cost.bytes_per_remote_update
            for dst, payloads in buffers.items():
                # ``_payload_bytes`` hoisted out of the per-payload
                # call: one C-level length pass per run.
                lengths = list(map(len, payloads))
                self.counters["remote_updates"] += sum(lengths)
                aggregator.add_many(
                    dst,
                    payloads,
                    [max(1, n * bytes_per_update) for n in lengths],
                    lengths,
                )
            buffers.clear()
            return
        for dst, payloads in buffers.items():
            for payload in payloads:
                self._send_remote(pe, dst, payload, tracked=True)
        buffers.clear()

    # --------------------------------------------------------------- run
    def prepare(self) -> int:
        """Seed the owned ranks and start their processes.

        Returns the *global* seed-task count (every replica of a
        partitioned run computes the same deterministic setup, so each
        can validate the whole run was seeded) while enqueuing — and
        registering tracker tokens for — only the owned ranks' seeds.
        """
        seeds = self.app.setup(self.machine.n_gpus)
        if len(seeds) != self.machine.n_gpus:
            raise ConfigurationError("setup() must return one seed per PE")
        owned = set(self._owned_ranks())
        total_seeded = 0
        for pe, (tasks, priorities) in enumerate(seeds):
            if len(tasks):
                total_seeded += len(tasks)
                if pe in owned:
                    self.tracker.add(len(tasks))
                    self._enqueue_local(pe, tasks, priorities)
        if total_seeded == 0:
            raise ConfigurationError("no seed work on any PE")

        if self.recovery is not None:
            # Epoch-0 checkpoint of the freshly seeded (quiescent) state
            # so even a crash before the first periodic checkpoint can
            # roll back.
            self.recovery.bootstrap()
            self.env.process(self.recovery.run(), name="recovery")

        for pe in self._owned_ranks():
            self.env.process(self._gpu_process(pe), name=f"gpu{pe}")
            if self.aggregators is not None:
                self.env.process(
                    self._aggregator_process(pe), name=f"agg{pe}"
                )
        return total_seeded

    def finish(self, t_done: Optional[float] = None) -> tuple[float, Counters]:
        """Close out a completed run; returns (makespan, counters).

        ``t_done`` overrides the termination time for partitioned runs
        (the coordinator's global last-token-delta time); serially it
        is simply ``env.now`` at the ``done`` event.
        """
        end = self.env.now if t_done is None else t_done
        makespan = end + self.kernel.teardown_overhead()
        for start, end_ in self.fabric.transfer_intervals:
            self.intervals.add("comm", start, end_)
        self.counters.merge(self.app.counters())
        stats = self.fabric.stats()
        self.counters["fabric_messages"] += stats["messages"]
        self.counters["fabric_bytes"] += stats["bytes"]
        if self.telemetry is not None:
            self.counters["telemetry_spans"] += self.telemetry.total_spans
            self.counters["telemetry_edges"] += self.telemetry.total_edges
            self.counters["telemetry_spans_evicted"] += (
                self.telemetry.evicted
            )
        return makespan, self.counters

    def run(self) -> tuple[float, Counters]:
        """Execute to quiescence; returns (makespan in us, counters).

        The drained queues' ring buffers are released on return.  The
        executor's processes and callbacks all point back at it, so
        only a full cyclic-GC pass would free them otherwise, and runs
        made one after another in a process would stack them up.
        """
        self.prepare()
        self.env.run(self.tracker.done)
        makespan, counters = self.finish()
        self.queues = None
        return makespan, counters

    def _pop(self, pe: int) -> np.ndarray:
        """Pop one round's tasks, per the kernel strategy.

        Persistent kernels pop what the resident workers can fetch.
        Discrete kernels drain the *whole* queue per launch — the grid
        is sized to the queue (Listing 3's loop interchange) — except
        in priority mode, where each launch processes only the lowest
        priority bucket (delta-stepping rounds).
        """
        if self.config.kernel is KernelStrategy.DISCRETE:
            if self.config.priority:
                return self.queues[pe].pop_lowest_bucket()
            return self.queues[pe].pop(1 << 62)
        return self.queues[pe].pop(self.tasks_per_round)

    def _aggregator_process(self, pe: int):
        """The persistent aggregator kernel: poll, count visits, flush."""
        aggregators = self.aggregators
        assert aggregators is not None
        while not self.tracker.finished:
            if self.recovery is not None and self.recovery.rank_failed(pe):
                return  # fail-stop: the rank's aggregator dies with it
            aggregators[pe].tick()
            yield self.env.timeout(self.config.aggregator_poll)

    # ------------------------------------------------------- GPU process
    def _gpu_process(self, pe: int):
        config = self.config
        telemetry = self.telemetry
        started = self.env.now
        if self.faulty_kernel is not None:
            yield self.env.timeout(
                self.faulty_kernel.startup_overhead(pe, self.env.now)
            )
        else:
            yield self.env.timeout(self.kernel.startup_overhead())
        if telemetry is not None:
            telemetry.span(pe, "compute", started, self.env.now, "startup")
        rounds_since_flush = 0
        while not self.tracker.finished:
            if self.recovery is not None:
                # Fail-stop check + checkpoint barrier.  A crashed rank
                # exits here (its queued tokens stay outstanding until
                # recovery re-homes them); a live rank may park while
                # the coordinator quiesces the system for a snapshot.
                alive = yield from self.recovery.rank_gate(pe)
                if not alive:
                    return
            if self.env.now > config.max_sim_time:
                raise ConfigurationError(
                    "simulation exceeded max_sim_time; likely livelock"
                )
            tasks = self._pop(pe)
            if len(tasks) == 0:
                # Starved: release any half-batched communication so
                # other PEs can make progress, then sleep until poked.
                if rounds_since_flush:
                    self._flush_segment(pe)
                    rounds_since_flush = 0
                if self.tracker.finished:
                    break
                self._work_notify[pe] = self.env.event()
                idle_from = self.env.now
                yield AnyOf(
                    self.env,
                    [
                        self._work_notify[pe],
                        self.env.timeout(config.idle_poll),
                        self.tracker.done,
                    ],
                )
                if telemetry is not None:
                    telemetry.span(
                        pe, "idle", idle_from, self.env.now, "starved"
                    )
                self.idle_polls[pe] += 1
                continue

            outcome = self.app.process(pe, tasks)
            self.counters["rounds"] += 1
            self.counters["tasks_processed"] += len(tasks)
            self.counters["edges_processed"] += outcome.edges_processed

            if len(outcome.local_pushes):
                self.tracker.add(len(outcome.local_pushes))
                self._enqueue_local(
                    pe, outcome.local_pushes, outcome.local_priorities
                )
                self._notify(pe)
            for dst, payload in outcome.remote_updates.items():
                if len(payload) == 0:
                    continue
                if config.segment_rounds > 1:
                    self.tracker.add(1)  # token held while buffered
                    self._segment_buffers[pe].setdefault(dst, []).append(
                        payload
                    )
                else:
                    self._send_remote(pe, dst, payload)
            rounds_since_flush += 1
            if config.segment_rounds > 1 and (
                rounds_since_flush >= config.segment_rounds
            ):
                self._flush_segment(pe)
                rounds_since_flush = 0

            queue_time = self.memory.queue_ops_time(
                len(tasks) + len(outcome.local_pushes)
            )
            duration = (
                self.kernel.round_overhead()
                + config.round_host_overhead
                + self.memory.edge_batch_time(
                    outcome.edges_processed, outcome.conflicts
                )
                + queue_time
            )
            if self.faulty_kernel is not None:
                # Straggler windows stretch the round; due transient
                # stalls land here as dead time.
                duration = self.faulty_kernel.round_duration(
                    pe, self.env.now, duration
                )
            # Retire the popped tasks only after derived work is
            # registered (termination-detection ordering).
            self.tracker.remove(len(tasks), source=f"round pe{pe}")
            self.intervals.add(
                "compute", self.env.now, self.env.now + duration
            )
            if telemetry is not None:
                # Round attribution: queue pop/push bookkeeping is its
                # own category; everything else (kernel + host overhead,
                # edge batch, fault stretch) is compute.  The two spans
                # tile [now, now + duration] exactly.
                split = self.env.now + duration - queue_time
                telemetry.span(
                    pe,
                    "compute",
                    self.env.now,
                    split,
                    "round",
                    n_bytes=outcome.edges_processed
                    * self.machine.cost.bytes_per_edge_update,
                    n_items=len(tasks),
                )
                telemetry.span(
                    pe,
                    "queue",
                    split,
                    self.env.now + duration,
                    "queue-ops",
                    n_items=len(tasks) + len(outcome.local_pushes),
                )
            yield self.env.timeout(duration)
