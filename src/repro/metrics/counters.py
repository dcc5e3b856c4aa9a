"""Run results and work/message counters shared by all drivers."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "Counters",
    "RunResult",
    "FAULT_COUNTERS",
    "RECOVERY_COUNTERS",
    "RESILIENCE_COUNTERS",
    "fault_summary",
]

#: The canonical fault/resilience counter family.  Injectors write the
#: ``fault_*`` names (what the plan did to the run); the reliable
#: transport writes the ``transport_*`` names (what the runtime did to
#: survive it).  All are zero — in fact absent — on fault-free runs.
FAULT_COUNTERS = (
    "fault_dropped",
    "fault_duplicated",
    "fault_delayed",
    "fault_straggler_rounds",
    "fault_stalls",
    "fault_stall_time_us",
    "transport_sends",
    "transport_retransmits",
    "transport_acks_sent",
    "transport_acks_received",
    "transport_stale_acks",
    "transport_duplicates_suppressed",
    "transport_stale_incarnation_drops",
    "transport_dead_receiver_drops",
    "transport_dead_sender_timeouts",
)

#: The fail-stop recovery counter family (:mod:`repro.recovery`):
#: what the checkpoint/recovery layer did during a crashed run.  Like
#: the fault counters, absent on runs without a recovery coordinator.
RECOVERY_COUNTERS = (
    "recovery_checkpoints_taken",
    "recovery_bytes_snapshotted",
    "recovery_ranks_recovered",
    "recovery_tokens_reclaimed",
    "recovery_replay_messages",
)


#: The fail-stop *process* resilience family: what the pooled PDES
#: driver did about real OS-level worker loss (written via
#: :class:`repro.sim.partition.WindowStats`).  Deliberately kept out of
#: :class:`RunResult.counters` — a recovered run must digest
#: bit-identical to an undisturbed one, so these live in the run's
#: *stats*, not its result.
RESILIENCE_COUNTERS = (
    "resilience_checkpoints_taken",
    "resilience_windows_replayed",
    "resilience_workers_respawned",
)


def fault_summary(counters: "Counters") -> dict[str, float]:
    """The fault/resilience/recovery counters present in a counter bag.

    Chaos tables and reports use this to show exactly what was injected
    into a run and how the delivery, recovery, and process-resilience
    layers absorbed it.
    """
    return {
        name: float(counters[name])
        for name in (*FAULT_COUNTERS, *RECOVERY_COUNTERS,
                     *RESILIENCE_COUNTERS)
        if name in counters
    }


class Counters(Counter):
    """A string-keyed counter bag with float values.

    Thin wrapper over :class:`collections.Counter` so drivers can do
    ``counters["edges_processed"] += n`` without key setup, plus a
    merge that keeps provenance readable.
    """

    def merge(self, other: "Counters", prefix: str = "") -> None:
        for key, value in other.items():
            self[f"{prefix}{key}"] += value


@dataclass
class RunResult:
    """Outcome of one application run under one framework driver.

    ``time_ms`` is simulated wall time (the paper's tables are in ms).
    ``output`` carries the application's final state (e.g. the global
    depth array) so the harness can validate against the serial
    reference.
    """

    framework: str
    app: str
    dataset: str
    n_gpus: int
    time_ms: float
    counters: Counters = field(default_factory=Counters)
    output: Any = None
    #: Optional communication timeline [(time_us, bytes), ...] for the
    #: smoothness analyses (repro.metrics.analysis).
    timeline: Any = None
    #: The run's :class:`repro.telemetry.Telemetry` span hub when the
    #: run traced itself, else None.  Like the wall-clock fields it is
    #: excluded from :meth:`digest` (spans are observation, not
    #: outcome) and stripped before persistent-cache storage.
    telemetry: Any = None
    #: Host wall-clock seconds spent computing this run (0.0 when the
    #: result came out of a cache rather than a simulation).
    wall_clock_s: float = 0.0
    #: Persistent-cache accounting for this run: (1, 0) served from
    #: disk, (0, 1) computed with caching on, (0, 0) caching off.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Host-side observation of how the run was executed (e.g. the
    #: partitioned coordinator's ``WindowStats.as_dict()``).  Excluded
    #: from :meth:`digest` like the other host metadata, but — unlike
    #: ``telemetry`` — *kept* through persistent-cache storage so
    #: critical-path objectives survive a cache-hit replay.
    host_stats: Any = None

    def speedup_over(self, other: "RunResult") -> float:
        """other.time / self.time — how much faster self is."""
        if self.time_ms <= 0:
            raise ValueError("non-positive runtime")
        return other.time_ms / self.time_ms

    def digest(self) -> str:
        """SHA-256 over the *deterministic* content of the result.

        Covers identity, simulated time, every counter, and the exact
        output bytes — and deliberately excludes host-side metadata
        (``wall_clock_s``, cache accounting), so a fresh simulation, a
        pooled worker's result, and a cache-hit replay of the same spec
        must all digest identically.  The golden-trace suite pins this.
        """
        h = hashlib.sha256()
        h.update(
            f"{self.framework}|{self.app}|{self.dataset}|{self.n_gpus}"
            f"|{self.time_ms!r}".encode()
        )
        for key in sorted(self.counters):
            h.update(f"|{key}={float(self.counters[key])!r}".encode())
        if self.output is not None:
            arr = np.asarray(self.output)
            h.update(f"|{arr.dtype.str}|{arr.shape}".encode())
            h.update(arr.tobytes())
        return h.hexdigest()
