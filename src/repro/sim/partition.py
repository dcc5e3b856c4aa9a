"""Conservative time-windowed coordination for a partitioned DES run.

One simulation's ranks are grouped into *partitions*, each owning a
full :class:`~repro.sim.core.Environment` (and therefore its own
pluggable event queue).  Partitions advance in lockstep *windows* under
the classic conservative-PDES (Chandy–Misra–Bryant) contract:

* every cross-partition event must traverse a link with a known
  minimum latency — the **lookahead** ``L(q → p)`` (derived from
  :meth:`repro.interconnect.topology.Topology.partition_lookahead`);
* if partition ``q``'s earliest pending event is at time ``F_q`` (its
  **frontier**), nothing ``q`` does can affect ``p`` before
  ``F_q + L(q → p)``;
* so ``p`` may safely execute every event with
  ``t <= H_p = min over q != p of (F_q + L(q → p))`` — its **safe
  horizon** for the window, additionally clamped by the echo bound
  ``F_p + 2 L_min`` because a message ``p`` sends inside the window
  can bounce off a neighbor and return (see :func:`safe_horizons`).
  (Inclusive is safe because serialization time is strictly positive:
  an import generated inside the window arrives strictly *after* the
  horizon.)

At each window boundary partitions exchange the cross-partition events
their window produced (*exports*, carrying arrival times computed on
the sender's clock) plus their new frontier — the frontier exchange is
exactly a null-message broadcast, advancing neighbors even when no
real event crossed.

The module is engine-agnostic: a :class:`PartitionHost` is anything
that can inject imports, run to a horizon, and report.  The runtime's
in-process replica and the multiprocessing worker proxy both implement
it, so the :class:`WindowCoordinator` is *identical code* for the
local and pooled drivers — local/pooled digest equality holds by
construction.

Fault tolerance (fail-stop worker loss)
---------------------------------------
A window is a pure function of its inputs: given the seeded spec, a
partition's state after window ``w`` is fully determined by the
sequence of ``(horizon, imports)`` pairs it executed.  The coordinator
therefore keeps a **window journal** of exactly those inputs, and when
a host raises :class:`~repro.errors.PartitionWorkerLost` (the pooled
driver's typed pipe-EOF), it asks the driver for a replacement host and
**replays** the lost partition's journal into it — deterministically
regenerating the partition's state *and* the report the dead worker
never delivered.  Live partitions are untouched: all cross-partition
state (frontiers, pending exports) lives in the coordinator, so the
replayed exports of past windows are discarded as already-routed
duplicates.

Every K completed windows (``checkpoint_every``) the coordinator takes
a :class:`WindowCheckpoint` — the barrier's coordinator state plus a
per-partition replica snapshot (app arrays, queue frontiers, windowed
tracker counts, via :class:`repro.recovery.checkpoint.Checkpoint`).
Replica state mid-run contains live generator processes (in-flight
intra-partition messages, mid-round timers), which no snapshot can
capture, so checkpoints are not restore *sources* — replay is — but
they are restore **verifiers**: a replayed partition must pass through
bit-identical checkpoint digests at every barrier it crosses, and
window-by-window its replayed reports must match the journal.  Any
divergence raises :class:`~repro.errors.RecoveryError` instead of
silently producing a different answer.  Snapshots are read-only, so a
zero-kill run with checkpointing enabled is digest-identical to a
checkpoint-free run (pinned by ``repro chaos --verify-inert``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, Sequence

from repro.errors import (
    PartitionWorkerLost,
    RecoveryError,
    SimulationError,
)

__all__ = [
    "partition_ranks",
    "lookahead_matrix",
    "safe_horizons",
    "Export",
    "WindowReport",
    "PartitionHost",
    "WindowStats",
    "WindowCheckpoint",
    "WindowCoordinator",
]

_INF = float("inf")


def partition_ranks(n_ranks: int, n_partitions: int) -> list[list[int]]:
    """Contiguous rank → partition assignment.

    Contiguity matters on hierarchical machines: Summit-node's fast
    same-socket NVLinks stay *inside* a partition, so the lookahead
    between partitions is the (larger) cross-socket latency — wider
    windows, fewer synchronizations.
    """
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    if n_partitions > n_ranks:
        raise ValueError(
            f"cannot split {n_ranks} rank(s) into {n_partitions} partitions"
        )
    base, extra = divmod(n_ranks, n_partitions)
    parts: list[list[int]] = []
    start = 0
    for p in range(n_partitions):
        size = base + (1 if p < extra else 0)
        parts.append(list(range(start, start + size)))
        start += size
    return parts


def lookahead_matrix(
    topology: Any,
    parts: Sequence[Sequence[int]],
    extra_latency: float = 0.0,
) -> dict[tuple[int, int], float]:
    """``(q, p) -> L(q → p)`` for every ordered partition pair.

    ``extra_latency`` is added to every link (the CPU control-path hop
    for Groute-like configurations, where even the minimum-latency
    message pays the host detour).
    """
    lookahead: dict[tuple[int, int], float] = {}
    for q, src_ranks in enumerate(parts):
        for p, dst_ranks in enumerate(parts):
            if p == q:
                continue
            lookahead[(q, p)] = topology.partition_lookahead(
                src_ranks, dst_ranks, extra_latency=extra_latency
            )
    return lookahead


def safe_horizons(
    frontiers: Sequence[float],
    lookahead: dict[tuple[int, int], float],
) -> list[float]:
    """Per-partition safe horizon from a consistent frontier snapshot.

    Two bounds compose, and both are necessary:

    * the classic neighbor bound ``min over q != p of F_q + L(q -> p)``
      — nothing a neighbor *already holds* can reach ``p`` earlier;
    * the **echo bound** ``F_p + 2 L_min`` (``L_min`` the smallest
      link lookahead) — windowed synchronization routes messages only
      at boundaries, so a message ``p`` itself sends *inside* the
      window can bounce off a neighbor and return while ``p`` is still
      executing.  The earliest such echo leaves no sooner than ``F_p``
      and traverses at least two links, so it cannot arrive before
      ``F_p + 2 L_min``; executing past that time would execute ``p``'s
      own future.  Per-message conservative engines get this for free
      (channel clocks advance as replies are seen); a windowed engine
      must bake it into the horizon.  The echo bound also keeps the
      horizon finite when every neighbor is drained (``F_q = inf``).
    """
    n = len(frontiers)
    l_min = min(lookahead.values()) if lookahead else _INF
    horizons = []
    for p in range(n):
        h = _INF
        for q in range(n):
            if q == p:
                continue
            h = min(h, frontiers[q] + lookahead.get((q, p), _INF))
        if n > 1 and frontiers[p] != _INF:
            h = min(h, frontiers[p] + 2.0 * l_min)
        horizons.append(h)
    return horizons


@dataclass(frozen=True, slots=True)
class Export:
    """One cross-partition message captured at its source.

    Everything the destination needs to replay the arrival: the wire
    times computed on the sender's clock plus the payload.  ``link_seq``
    is a per-source-partition monotone counter so same-arrival-time
    imports inject in a deterministic order (matching the sender-side
    creation order the serial engine's sequence numbers would impose).
    """

    arrival_time: float
    send_time: float
    src: int
    dst: int
    payload_bytes: int
    payload: Any
    link_seq: int


@dataclass(slots=True)
class WindowReport:
    """What one partition reports at a window boundary."""

    #: Time of the partition's earliest pending event (inf if none).
    frontier: float
    #: Cumulative local work-token balance (adds − removes; the global
    #: sum across partitions is the serial tracker's outstanding count).
    net_tokens: int
    #: Simulated time of the partition's latest token delta.
    last_delta_time: float
    #: Cross-partition messages produced by this window.
    exports: list[Export] = field(default_factory=list)
    #: Events dispatched during this window (progress/stats).
    events: int = 0
    #: Host-measured wall-clock seconds spent executing this window
    #: (excludes transport/IPC wait — the coordinator derives the
    #: parallel critical path from the per-window maxima).
    wall_s: float = 0.0


class PartitionHost(Protocol):
    """One partition as the coordinator sees it (in-process or proxy)."""

    def start(self) -> int:
        """Seed and launch; returns the global seed-task count."""
        ...

    def step_window(
        self, horizon: float, imports: Sequence[Export]
    ) -> WindowReport:
        """Inject ``imports``, execute every event with ``t <=
        horizon``, and report."""
        ...

    def finalize(self, t_done: float) -> Any:
        """Close out after global termination; returns driver-defined
        final state (counters, results, telemetry)."""
        ...

    # Hosts that execute windows *concurrently* (the pooled driver's
    # pipe proxies) may additionally implement the split-phase pair
    # ``begin_window(horizon, imports)`` / ``end_window() ->
    # WindowReport``; the coordinator then issues every begin before
    # gathering any report, so partitions genuinely overlap.  The
    # reports are identical to the synchronous path by construction —
    # a window's inputs are fixed at its start — so the two stepping
    # modes cannot diverge.


@dataclass(slots=True)
class WindowStats:
    """Aggregate synchronization accounting for one coordinated run."""

    windows: int = 0
    total_exports: int = 0
    total_events: int = 0
    #: Windows in which a given partition dispatched zero events —
    #: pure synchronization overhead (summed over partitions).
    idle_partition_windows: int = 0
    #: Σ over windows of the *slowest* partition's execution time: the
    #: run's parallel critical path.  With one core per partition, the
    #: run cannot finish faster than this (plus coordination).
    critical_wall_s: float = 0.0
    #: Σ over windows and partitions of execution time: the total
    #: compute the run performed (the serial engine's equivalent work).
    busy_wall_s: float = 0.0
    #: Barrier checkpoints taken (``checkpoint_every`` enabled).
    checkpoints_taken: int = 0
    #: Journal windows re-executed into respawned workers.
    windows_replayed: int = 0
    #: Replacement workers spawned after a fail-stop loss.
    workers_respawned: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "windows": self.windows,
            "total_exports": self.total_exports,
            "total_events": self.total_events,
            "idle_partition_windows": self.idle_partition_windows,
            "critical_wall_s": self.critical_wall_s,
            "busy_wall_s": self.busy_wall_s,
            "checkpoints_taken": self.checkpoints_taken,
            "windows_replayed": self.windows_replayed,
            "workers_respawned": self.workers_respawned,
        }

    def resilience(self) -> dict[str, float]:
        """The run's :data:`repro.metrics.RESILIENCE_COUNTERS` slice.

        Kept out of :class:`repro.metrics.RunResult.counters` on
        purpose: a recovered run must digest bit-identical to an
        undisturbed one, so chaos tables pull these from the stats.
        """
        return {
            "resilience_checkpoints_taken": float(self.checkpoints_taken),
            "resilience_windows_replayed": float(self.windows_replayed),
            "resilience_workers_respawned": float(self.workers_respawned),
        }


@dataclass(frozen=True)
class WindowCheckpoint:
    """A consistency anchor at a window barrier.

    The coordinator-side barrier state (frontiers, token balances,
    pending-import counts) plus one replica snapshot per partition
    (duck-typed; the pooled driver supplies
    :class:`repro.recovery.checkpoint.Checkpoint` objects, each with a
    ``digest()``).  Used to *verify* respawn-and-replay — a replayed
    partition must reproduce ``parts[p].digest()`` exactly at this
    barrier — and as a post-mortem record of where the run provably
    still agreed with itself.
    """

    #: Completed-window count at the barrier (checkpoint taken *after*
    #: window ``window - 1``).
    window: int
    #: Journal length at the barrier — the replay position the digest
    #: verification keys on.
    journal_len: int
    frontiers: tuple[float, ...]
    nets: tuple[int, ...]
    last_delta: tuple[float, ...]
    #: Pending (routed, not yet injected) import counts per partition.
    pending: tuple[int, ...]
    #: Per-partition replica snapshots (``.digest()`` duck-typed).
    parts: tuple[Any, ...]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(
            f"w={self.window}|f={self.frontiers!r}|n={self.nets!r}"
            f"|d={self.last_delta!r}|p={self.pending!r}\n".encode()
        )
        for part in self.parts:
            h.update(part.digest().encode())
        return h.hexdigest()


class WindowCoordinator:
    """Runs hosts window-by-window until global quiescence.

    Round-robin and deterministic: every window computes all horizons
    from one frontier snapshot, steps every host (in partition order —
    the correctness spine the pooled driver parallelizes without
    changing observable order), routes exports, and checks the global
    termination condition: zero net work tokens *and* no export still
    in the coordinator's hands.

    Safety argument (why imports never land in a receiver's past): an
    import created during window ``W`` by partition ``q`` was sent at
    ``t >= F_q(W)`` and arrives at ``t + serialization + latency >
    F_q(W) + L(q → p) >= H_p(W)``.  The receiver injects it at the
    start of window ``W+1``, when its clock is exactly ``H_p(W)`` —
    strictly before the arrival.  Horizons are monotone in the
    frontiers, and frontiers never retreat, so the windows sweep time
    forward without revisiting it.
    """

    #: Safety valve: a conservative window always makes progress (the
    #: globally-earliest event is below its own partition's horizon),
    #: so hitting this means lookahead was computed wrong.
    MAX_WINDOWS = 50_000_000

    def __init__(
        self,
        hosts: Sequence[PartitionHost],
        lookahead: dict[tuple[int, int], float],
        on_window: Optional[Any] = None,
        checkpoint_every: Optional[int] = None,
        recover_host: Optional[Callable[[int], PartitionHost]] = None,
        max_respawns: int = 3,
    ):
        if not hosts:
            raise ValueError("need at least one partition host")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.hosts = list(hosts)
        self.lookahead = lookahead
        self.stats = WindowStats()
        #: Optional callback ``(window_index, horizons, reports)`` fired
        #: after every window — telemetry taps sync spans here, tests
        #: pin the no-event-past-horizon property.
        self.on_window = on_window
        self.t_done: Optional[float] = None
        #: Lazily detected: all hosts offer begin/end split stepping.
        self._split_phase: Optional[bool] = None
        #: Take a :class:`WindowCheckpoint` every this many completed
        #: windows (None disables checkpointing; replay still works —
        #: the journal, not the checkpoint, is the restore source).
        self.checkpoint_every = checkpoint_every
        #: Driver callback ``partition -> fresh PartitionHost`` invoked
        #: on fail-stop loss.  None means losses are fatal (the
        #: in-process local driver has nothing to respawn).
        self.recover_host = recover_host
        #: Per-partition budget of replacement workers.
        self.max_respawns = max_respawns
        #: Barrier checkpoints, oldest first.
        self.checkpoints: list[WindowCheckpoint] = []
        #: Window journal: ``_journal[w][p]`` is the ``(horizon,
        #: imports)`` pair partition ``p`` executed in window ``w``
        #: (None when it was skipped) — everything needed to replay
        #: ``p`` from scratch.
        self._journal: list[list[Optional[tuple[float, list[Export]]]]] = []
        #: Report log mirroring the journal: the scalar summary
        #: ``(frontier, net_tokens, last_delta_time, n_exports)`` each
        #: stepped partition produced, verified against on replay.
        self._report_log: list[
            list[Optional[tuple[float, int, float, int]]]
        ] = []
        self._respawns = [0] * len(self.hosts)

    def run(self) -> float:
        """Drive all hosts to global quiescence; returns the serial
        termination time (the global last token-delta time)."""
        hosts = self.hosts
        n = len(hosts)
        seeded = []
        for p in range(n):
            try:
                seeded.append(hosts[p].start())
            except PartitionWorkerLost as lost:
                count, _report = self._revive(p, lost)
                seeded.append(count)
        if not any(seeded):
            raise SimulationError("no seed work on any partition")

        # Seeds are enqueued at t=0 on every partition that owns any,
        # and even seedless partitions schedule their rank processes at
        # t=0 — the exact initial frontier, no zeroth exchange needed.
        frontiers = [0.0] * n
        nets = [0] * n
        last_delta = [0.0] * n
        pending: list[list[Export]] = [[] for _ in range(n)]

        while True:
            if (
                sum(nets) == 0
                and not any(pending)
                and self.stats.windows > 0
            ):
                break
            if sum(nets) < 0:
                raise SimulationError(
                    "global work-token balance went negative: some "
                    "message was retired twice across partitions"
                )
            if self.stats.windows >= self.MAX_WINDOWS:
                raise SimulationError(
                    f"window count exceeded {self.MAX_WINDOWS}; "
                    "lookahead is likely zero or mis-derived"
                )
            # A partition's effective frontier includes the imports
            # routed to it at the last boundary but not yet injected —
            # its true next event may be one of them, and horizons
            # derived from the bare local frontier would over-advance
            # its neighbors.
            eff_frontiers = list(frontiers)
            for p in range(n):
                for exp in pending[p]:
                    if exp.arrival_time < eff_frontiers[p]:
                        eff_frontiers[p] = exp.arrival_time
            horizons = safe_horizons(eff_frontiers, self.lookahead)
            # A partition with no imports whose next event lies beyond
            # its horizon cannot execute anything this window — its
            # report is fully predictable, so skip the host call (and,
            # pooled, the IPC roundtrip) and synthesize it.  This is
            # what keeps alternating workloads from paying a full
            # exchange for every idle partition-window.  A *drained*
            # partition (frontier inf) is skipped even when its horizon
            # is unbounded: stepping it would advance its clock past
            # every finite time, poisoning later import injection.
            step = [
                bool(pending[p])
                or not (
                    self.stats.windows
                    and (
                        frontiers[p] > horizons[p]
                        or frontiers[p] == _INF
                    )
                )
                for p in range(n)
            ]
            if self._split_phase is None:
                self._split_phase = all(
                    callable(getattr(host, "begin_window", None))
                    for host in hosts
                )
            skipped = WindowReport(
                frontier=0.0, net_tokens=0, last_delta_time=0.0
            )
            # Journal the window's inputs *before* dispatching them:
            # a worker lost mid-window is replayed from exactly this
            # record, current window included.
            entry: list[Optional[tuple[float, list[Export]]]] = [None] * n
            for p in range(n):
                if step[p]:
                    imports, pending[p] = pending[p], []
                    entry[p] = (horizons[p], imports)
            self._journal.append(entry)
            lost_parts: dict[int, PartitionWorkerLost] = {}
            if self._split_phase:
                # Fan out every window before gathering any report —
                # this is where pooled partitions actually overlap.
                for p, host in enumerate(hosts):
                    if entry[p] is not None:
                        try:
                            host.begin_window(entry[p][0], entry[p][1])
                        except PartitionWorkerLost as exc:
                            exc.window = self.stats.windows
                            lost_parts[p] = exc
                reports = []
                for p, host in enumerate(hosts):
                    if entry[p] is None:
                        reports.append(skipped)
                    elif p in lost_parts:
                        reports.append(skipped)
                    else:
                        try:
                            reports.append(host.end_window())
                        except PartitionWorkerLost as exc:
                            exc.window = self.stats.windows
                            lost_parts[p] = exc
                            reports.append(skipped)
            else:
                reports = []
                for p, host in enumerate(hosts):
                    if entry[p] is None:
                        reports.append(skipped)
                    else:
                        try:
                            reports.append(
                                host.step_window(entry[p][0], entry[p][1])
                            )
                        except PartitionWorkerLost as exc:
                            exc.window = self.stats.windows
                            lost_parts[p] = exc
                            reports.append(skipped)
            for p, exc in sorted(lost_parts.items()):
                # The replay regenerates the current window's report
                # (exports intact — the dead worker never delivered
                # them, so nothing was routed twice).
                _count, report = self._revive(p, exc)
                assert report is not None
                reports[p] = report
            self._report_log.append(
                [
                    None
                    if entry[p] is None
                    else (
                        reports[p].frontier,
                        reports[p].net_tokens,
                        reports[p].last_delta_time,
                        len(reports[p].exports),
                    )
                    for p in range(n)
                ]
            )
            window_max_wall = 0.0
            for p, report in enumerate(reports):
                if report is skipped:
                    # Nothing executed; frontier/net/last-delta stand.
                    self.stats.idle_partition_windows += 1
                    continue
                frontiers[p] = report.frontier
                nets[p] = report.net_tokens
                last_delta[p] = max(last_delta[p], report.last_delta_time)
                self.stats.total_events += report.events
                if report.events == 0:
                    self.stats.idle_partition_windows += 1
                self.stats.busy_wall_s += report.wall_s
                if report.wall_s > window_max_wall:
                    window_max_wall = report.wall_s
                for exp in report.exports:
                    self.stats.total_exports += 1
                    pending[self._owner_of(exp.dst)].append(exp)
            self.stats.critical_wall_s += window_max_wall
            self.stats.windows += 1
            if self.on_window is not None:
                self.on_window(self.stats.windows - 1, horizons, reports)
            if (
                self.checkpoint_every
                and self.stats.windows % self.checkpoint_every == 0
            ):
                self._take_checkpoint(frontiers, nets, last_delta, pending)

        self.t_done = max(last_delta)
        return self.t_done

    # ------------------------------------------------- fault tolerance
    def revive(self, p: int, cause: PartitionWorkerLost) -> PartitionHost:
        """Respawn-and-replay partition ``p`` after a loss surfaced
        outside the window loop (e.g. during finalize); returns the
        replacement host, fully caught up to the last barrier."""
        self._revive(p, cause)
        return self.hosts[p]

    def _revive(
        self, p: int, cause: PartitionWorkerLost
    ) -> tuple[int, Optional[WindowReport]]:
        """Spawn a replacement host for ``p`` and replay its journal.

        Returns ``(seed_count, last_report)`` where ``last_report`` is
        the report of the most recent journaled window in which ``p``
        stepped (None when it never stepped) — when called from the
        window loop that is exactly the report the dead worker owed.
        Replay is verified window-by-window against the report log and
        digest-checked at every checkpoint barrier it crosses.
        """
        if self.recover_host is None:
            raise cause
        barriers = {
            ckpt.journal_len: (i, ckpt)
            for i, ckpt in enumerate(self.checkpoints)
        }
        last_error: Exception = cause
        while self._respawns[p] < self.max_respawns:
            self._respawns[p] += 1
            self.stats.workers_respawned += 1
            host = self.recover_host(p)
            self.hosts[p] = host
            try:
                seed_count = host.start()
                report: Optional[WindowReport] = None
                replayed = 0
                for w, entry in enumerate(self._journal):
                    inp = entry[p]
                    if inp is None:
                        continue
                    report = host.step_window(inp[0], inp[1])
                    replayed += 1
                    if w < len(self._report_log):
                        logged = self._report_log[w][p]
                        got = (
                            report.frontier,
                            report.net_tokens,
                            report.last_delta_time,
                            len(report.exports),
                        )
                        if logged != got:
                            raise RecoveryError(
                                f"replay of partition {p} diverged at "
                                f"window {w}: journal recorded {logged}, "
                                f"replay produced {got}"
                            )
                    at_barrier = barriers.get(w + 1)
                    if at_barrier is not None:
                        epoch, ckpt = at_barrier
                        snap = getattr(host, "snapshot_state", None)
                        if snap is not None:
                            fresh = snap(epoch)
                            want = ckpt.parts[p]
                            if fresh.digest() != want.digest():
                                raise RecoveryError(
                                    f"replay of partition {p} diverged "
                                    f"at checkpoint barrier (window "
                                    f"{w + 1}): snapshot digest mismatch"
                                )
                self.stats.windows_replayed += replayed
                return seed_count, report
            except PartitionWorkerLost as exc:
                # The replacement died too; loop while budget remains.
                last_error = exc
        raise SimulationError(
            f"partition {p} lost its worker and every replacement; "
            f"respawn budget ({self.max_respawns}) exhausted"
        ) from last_error

    def _take_checkpoint(
        self,
        frontiers: Sequence[float],
        nets: Sequence[int],
        last_delta: Sequence[float],
        pending: Sequence[Sequence[Export]],
    ) -> None:
        epoch = len(self.checkpoints)
        parts: list[Any] = []
        for p in range(len(self.hosts)):
            snap = getattr(self.hosts[p], "snapshot_state", None)
            if snap is None:
                # Hosts that cannot snapshot (bare protocol
                # implementations) simply run checkpoint-free.
                return
            try:
                parts.append(snap(epoch))
            except PartitionWorkerLost as exc:
                exc.window = self.stats.windows - 1
                self._revive(p, exc)
                parts.append(self.hosts[p].snapshot_state(epoch))
        self.checkpoints.append(
            WindowCheckpoint(
                window=self.stats.windows,
                journal_len=len(self._journal),
                frontiers=tuple(frontiers),
                nets=tuple(nets),
                last_delta=tuple(last_delta),
                pending=tuple(len(x) for x in pending),
                parts=tuple(parts),
            )
        )
        self.stats.checkpoints_taken += 1

    # ------------------------------------------------------------ routing
    def set_rank_owners(self, parts: Sequence[Sequence[int]]) -> None:
        """Install the rank → partition map used to route exports."""
        owners: dict[int, int] = {}
        for p, ranks in enumerate(parts):
            for rank in ranks:
                if rank in owners:
                    raise ValueError(f"rank {rank} owned twice")
                owners[rank] = p
        self._owners = owners

    def _owner_of(self, rank: int) -> int:
        try:
            return self._owners[rank]
        except AttributeError:  # pragma: no cover - wiring error
            raise SimulationError(
                "WindowCoordinator.set_rank_owners was never called"
            ) from None
        except KeyError:  # pragma: no cover - wiring error
            raise SimulationError(f"no partition owns rank {rank}") from None
