"""Span primitives: the structured trace the whole stack records into.

A :class:`Span` is one attributed slice of simulated time on one rank —
a scheduling round's compute, a link serialization, an aggregation
buffer's residency, an idle wait, a recovery park.  Spans land in a
bounded per-rank :class:`SpanLog` owned by a :class:`Telemetry` hub the
executor threads through the runtime layers.

Two category groups with different accounting contracts:

* **timeline categories** (``compute``, ``queue``, ``idle``,
  ``recovery``) — emitted by the sequential per-rank GPU process, so
  they never overlap on a rank; together with derived gap-fill idle
  they tile ``[0, makespan]`` exactly (the utilization report and the
  Perfetto export both rely on this).
* **overlay categories** (``comm``, ``agg_wait``) — emitted by the
  fabric and the aggregator, concurrent with the timeline by design
  (that overlap *is* the paper's latency-hiding claim), so they are
  reported as utilization/overlap, never summed into the makespan.

The hub is **observation-only**: recording never creates DES events,
never advances time, and never branches runtime behavior, so a
telemetry-enabled run dispatches the exact same event trace as a
disabled one (pinned by the inertness golden test).  Disabled runs do
not construct a hub at all — the instrumentation sites are single
``if telemetry is not None`` branches.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = [
    "CATEGORIES",
    "TIMELINE_CATEGORIES",
    "OVERLAY_CATEGORIES",
    "TELEMETRY_ENV",
    "telemetry_enabled",
    "Span",
    "DepEdge",
    "SpanLog",
    "Telemetry",
    "DEFAULT_MAX_SPANS",
]

#: Every legal span category.  ``sync`` is the partitioned engine's
#: conservative-window accounting: one span per (partition, window) on
#: the partition's lead rank, covering the window's simulated extent —
#: the profile view then shows synchronization cadence and overhead
#: next to compute/comm.
CATEGORIES = (
    "compute", "comm", "agg_wait", "queue", "idle", "recovery", "sync",
)

#: Categories that tile a rank's sequential timeline (sum to makespan).
TIMELINE_CATEGORIES = ("compute", "queue", "idle", "recovery")

#: Categories concurrent with the timeline (reported as overlap).
OVERLAY_CATEGORIES = ("comm", "agg_wait", "sync")

#: Environment variable enabling telemetry for runs that don't set
#: :attr:`repro.runtime.AtosConfig.telemetry` explicitly (default off).
TELEMETRY_ENV = "REPRO_TELEMETRY"

_TRUE = {"1", "true", "on", "yes"}

#: Default per-rank span bound: enough for every evaluation cell while
#: keeping a runaway soak run's memory bounded (~25 MB/rank worst case).
DEFAULT_MAX_SPANS = 1 << 18


def telemetry_enabled() -> bool:
    """True when ``REPRO_TELEMETRY`` asks for span tracing (default off)."""
    return os.environ.get(TELEMETRY_ENV, "0").strip().lower() in _TRUE


@dataclass(frozen=True, slots=True)
class Span:
    """One attributed slice of simulated time on one rank.

    ``start``/``end`` are simulated microseconds; ``n_bytes`` and
    ``n_items`` carry whatever payload sizing the emitting site knows
    (wire bytes for ``comm``, tasks for ``compute``, buffered payloads
    for ``agg_wait``).
    """

    rank: int
    category: str
    start: float
    end: float
    name: str = ""
    n_bytes: int = 0
    n_items: int = 0

    @property
    def duration(self) -> float:
        """Span length in simulated microseconds."""
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class DepEdge:
    """One cross-rank dependency: a message send → its arrival.

    These are the send→recv edges the critical-path analyzer walks;
    the fabric records one per delivered message copy (dropped copies
    produce no edge — nothing downstream depends on them).
    """

    src_rank: int
    dst_rank: int
    send_time: float
    recv_time: float
    kind: str = "msg"
    n_bytes: int = 0


class SpanLog:
    """Bounded, append-only span storage for one rank.

    A ring buffer: ``max_spans`` keeps long soak runs bounded (oldest
    spans evicted first), ``total_recorded`` counts every span ever made, so
    ``evicted`` says exactly how much history was discarded — truncated
    timelines are detectable, never silently "complete".
    """

    __slots__ = ("rank", "max_spans", "total_recorded", "spans")

    def __init__(self, rank: int, max_spans: Optional[int] = None):
        if max_spans is not None and max_spans <= 0:
            raise ValueError("max_spans must be positive (or None)")
        self.rank = rank
        self.max_spans = max_spans
        self.total_recorded = 0
        self.spans: deque[Span] = deque(maxlen=max_spans)

    @property
    def evicted(self) -> int:
        """How many spans the ring buffer has discarded."""
        return self.total_recorded - len(self.spans)

    def append(self, span: Span) -> None:
        """Record one span (oldest evicted first when bounded)."""
        self.total_recorded += 1
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)


class Telemetry:
    """The per-run span hub: one bounded :class:`SpanLog` per rank.

    Pure data — it holds no environment reference and schedules no
    events; every instrumentation site passes explicit times read from
    its own clock.  That keeps the hub picklable (results can carry it
    across pool workers) and observation-only by construction.
    """

    def __init__(
        self,
        n_ranks: int,
        max_spans_per_rank: Optional[int] = DEFAULT_MAX_SPANS,
    ):
        if n_ranks < 1:
            raise ValueError("telemetry needs at least one rank")
        self.n_ranks = n_ranks
        #: Free-form run metadata (e.g. which engine queue produced the
        #: spans) — carried into the trace export's ``otherData`` so a
        #: Perfetto trace is self-describing about its engine config.
        self.meta: dict[str, str] = {}
        self.logs = [
            SpanLog(rank, max_spans_per_rank) for rank in range(n_ranks)
        ]
        #: Cross-rank dependency edges, in record order (bounded by the
        #: same per-run cap as spans, scaled by rank count).
        self.edges: deque[DepEdge] = deque(
            maxlen=None
            if max_spans_per_rank is None
            else max_spans_per_rank * n_ranks
        )
        self.total_edges = 0

    # --------------------------------------------------------- recording
    def span(
        self,
        rank: int,
        category: str,
        start: float,
        end: float,
        name: str = "",
        n_bytes: int = 0,
        n_items: int = 0,
    ) -> None:
        """Record one span; zero-length spans are dropped silently."""
        if end < start:
            raise ValueError(
                f"span ends before it starts: [{start}, {end})"
            )
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown span category {category!r}; known: {CATEGORIES}"
            )
        if end == start:
            return
        self.logs[rank].append(
            Span(rank, category, start, end, name, n_bytes, n_items)
        )

    def edge(
        self,
        src_rank: int,
        dst_rank: int,
        send_time: float,
        recv_time: float,
        kind: str = "msg",
        n_bytes: int = 0,
    ) -> None:
        """Record one send→recv dependency edge."""
        self.total_edges += 1
        self.edges.append(
            DepEdge(src_rank, dst_rank, send_time, recv_time, kind, n_bytes)
        )

    # ----------------------------------------------------------- queries
    @property
    def total_spans(self) -> int:
        """Spans ever recorded, across all ranks (evicted included)."""
        return sum(log.total_recorded for log in self.logs)

    @property
    def evicted(self) -> int:
        """Spans discarded by ring-buffer bounds, across all ranks."""
        return sum(log.evicted for log in self.logs) + (
            self.total_edges - len(self.edges)
        )

    @property
    def truncated(self) -> bool:
        """True when any rank's timeline lost history to eviction."""
        return self.evicted > 0

    def all_spans(self) -> Iterator[Span]:
        """Every retained span, rank by rank, in record order."""
        for log in self.logs:
            yield from log

    def rank_spans(
        self, rank: int, categories: Optional[Iterable[str]] = None
    ) -> list[Span]:
        """Retained spans of one rank, optionally category-filtered."""
        if categories is None:
            return list(self.logs[rank])
        wanted = set(categories)
        return [s for s in self.logs[rank] if s.category in wanted]

    def category_totals(self, rank: int) -> dict[str, float]:
        """Summed span durations per category for one rank."""
        totals: dict[str, float] = {}
        for span in self.logs[rank]:
            totals[span.category] = (
                totals.get(span.category, 0.0) + span.duration
            )
        return totals
