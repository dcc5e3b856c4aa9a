"""Pluggable event queues for the DES engine (``REPRO_ENGINE_QUEUE``).

The :class:`~repro.sim.core.Environment` schedules events as entries of
the fixed shape ``(time, priority, seq, event)`` — the same tuple the
golden-trace suite digests — and pops them in strictly increasing
``(time, priority, seq)`` order.  That total order is the engine's
whole determinism contract; the queue holding the entries is an
implementation detail.  This module makes the queue pluggable:

* :class:`HeapQueue` — the original ``heapq`` binary heap, kept as the
  reference implementation;
* :class:`CalendarQueue` — a Brown-style calendar queue (one sorted
  bucket per ``width`` of simulated time, years wrap modulo the bucket
  count) with lazy bucket resizing, tuned for the engine's workload:
  events cluster at shared timestamps (round boundaries, poll
  cadences), which all land in one bucket.

Both variants produce the **identical pop order** for the identical
push sequence — the differential suite pins bit-identical golden trace
digests heap-vs-calendar across apps, machines, and fault plans.

Select via the environment variable, read once per
:class:`Environment` construction (mirroring ``REPRO_BATCH_PATH``)::

    REPRO_ENGINE_QUEUE=calendar python -m repro table5

The engine pops one entry at a time.  ``pop_cohort`` (the maximal run
of head entries sharing one ``(time, priority)``) has no caller in the
engine; the host-speed benchmark's layer tracer still counts it.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right
from typing import Optional

from repro.config import ENGINE_QUEUES as _ENGINE_QUEUES

__all__ = [
    "ENGINE_QUEUE_ENV",
    "ENGINE_QUEUES",
    "engine_queue_name",
    "make_queue",
    "EventQueue",
    "HeapQueue",
    "CalendarQueue",
]

#: Environment variable selecting the engine's event queue.
ENGINE_QUEUE_ENV = "REPRO_ENGINE_QUEUE"

#: Known variants, in (reference, optimized) order.  The canonical
#: tuple lives in :mod:`repro.config` next to the other tuning-knob
#: bounds; re-exported here for backward compatibility.
ENGINE_QUEUES = _ENGINE_QUEUES

#: Entry shape shared with the environment: (time, priority, seq, event).
Entry = tuple  # (float, int, int, Any)

_INF = float("inf")


def engine_queue_name() -> str:
    """The variant ``REPRO_ENGINE_QUEUE`` selects (default ``heap``)."""
    name = os.environ.get(ENGINE_QUEUE_ENV, "heap").strip().lower() or "heap"
    if name not in ENGINE_QUEUES:
        raise ValueError(
            f"unknown {ENGINE_QUEUE_ENV}={name!r}; known: {ENGINE_QUEUES}"
        )
    return name


def make_queue(queue: "str | EventQueue | None" = None) -> "EventQueue":
    """Build (or pass through) an event queue.

    ``None`` follows ``REPRO_ENGINE_QUEUE``; a string names a variant;
    an :class:`EventQueue` instance is returned as-is (tests inject
    pre-configured queues this way).
    """
    if isinstance(queue, EventQueue):
        return queue
    name = engine_queue_name() if queue is None else queue
    if name == "heap":
        return HeapQueue()
    if name == "calendar":
        return CalendarQueue()
    raise ValueError(
        f"unknown engine queue {name!r}; known: {ENGINE_QUEUES}"
    )


class EventQueue:
    """Interface both variants implement.

    Entries are ``(time, priority, seq, event)`` tuples; ``seq`` is
    unique per queue lifetime (the environment's monotone event id), so
    tuple comparison never reaches the event object.  ``pop`` returns
    entries in strictly increasing ``(time, priority, seq)`` order.
    """

    #: Variant name (matches its :data:`ENGINE_QUEUES` key).
    name: str = ""

    def push(self, entry: Entry) -> None:
        raise NotImplementedError

    def pop(self) -> Entry:
        """Remove and return the minimum entry (raises IndexError if empty)."""
        raise NotImplementedError

    def pop_cohort(self) -> list:
        """Remove and return the maximal run of minimum entries sharing
        the head's ``(time, priority)``, in insertion (``seq``) order."""
        raise NotImplementedError

    def peek(self) -> float:
        """Time of the next entry, or ``inf`` when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class HeapQueue(EventQueue):
    """The reference queue: a ``heapq`` binary heap."""

    __slots__ = ("_heap",)

    name = "heap"

    def __init__(self) -> None:
        self._heap: list[Entry] = []

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> Entry:
        return heapq.heappop(self._heap)

    def pop_cohort(self) -> list:
        heap = self._heap
        head = heapq.heappop(heap)
        when, priority = head[0], head[1]
        cohort = [head]
        while heap and heap[0][0] == when and heap[0][1] == priority:
            cohort.append(heapq.heappop(heap))
        return cohort

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else _INF

    def __len__(self) -> int:
        return len(self._heap)


class CalendarQueue(EventQueue):
    """A calendar queue (Randy Brown, CACM 1988) with lazy resizing.

    Simulated time is divided into buckets of ``width`` microseconds;
    bucket ``v`` of "year" ``y`` shares a physical sorted list with
    bucket ``v`` of every other year (``v mod n_buckets``).  Pops scan
    buckets from the current virtual bucket forward, accepting an entry
    only when it belongs to the bucket's current year, so a pop is O(1)
    when the width matches the event density; pushes append to one
    bucket (a push that breaks the bucket's sorted order marks it
    dirty, and the first read sorts it — Timsort makes the deferred
    sort nearly free for the mostly-ordered runs pushes produce).
    When the population outgrows (or undershoots) the
    bucket count, the next operation lazily rebuilds with doubled
    (halved) buckets and a width re-estimated from the live entries —
    the classic adaptive scheme, made deterministic by sampling the
    sorted population instead of wall-clock behavior.

    Year membership is decided by integer virtual-bucket comparison
    (``int(t / width) == current``), never by accumulating bucket-top
    floats, so floating-point drift cannot reorder events: the pop
    order is bit-identical to :class:`HeapQueue`'s.

    One departure from Brown: resize triggers compare the number of
    **occupied buckets** (tracked on empty/non-empty transitions) to
    the bucket count, not the raw population.  The engine's workload is
    tie-heavy — every poll cadence wakes a whole rank cohort at one
    timestamp — and sizing buckets by population would spread 64
    timestamps over a thousand mostly-empty buckets that the head scan
    then walks one by one; a cohort of ties fills one bucket either
    way, so it should count once.  Occupancy is also exactly the
    quantity the head scan's cost depends on: grow while more than 3/4
    of the buckets are full (collisions pile up), shrink below 1/8
    (scans cross runs of empty buckets); the wide hysteresis stops
    push/pop thrash at a threshold.
    """

    __slots__ = (
        "_buckets", "_n_buckets", "_width", "_size", "_cur_v", "_occupied",
        "_dirty",
    )

    name = "calendar"

    #: Bucket-count bounds: shrink stops at _MIN_BUCKETS; resize
    #: triggers when bucket occupancy leaves [n/8, 3n/4].
    _MIN_BUCKETS = 4

    def __init__(self, n_buckets: int = _MIN_BUCKETS, width: float = 1.0):
        if n_buckets < 1:
            raise ValueError("n_buckets must be positive")
        if width <= 0:
            raise ValueError("width must be positive")
        self._buckets: list[list[Entry]] = [[] for _ in range(n_buckets)]
        self._n_buckets = n_buckets
        self._width = width
        self._size = 0
        #: Virtual bucket index of the scan position: int(now / width).
        self._cur_v = 0
        #: Non-empty physical buckets (drives resizing).
        self._occupied = 0
        #: Buckets whose tail append broke sorted order; sorted lazily
        #: on first read so pushes stay append-only.
        self._dirty: list[bool] = [False] * n_buckets

    # ---------------------------------------------------------- plumbing
    def push(self, entry: Entry) -> None:
        vb = int(entry[0] / self._width)
        i = vb % self._n_buckets
        bucket = self._buckets[i]
        if bucket:
            # Appends arriving in order (the common monotone schedule)
            # keep the bucket sorted for free; only an out-of-order
            # tail marks the bucket for a sort-on-first-read.
            if entry < bucket[-1]:
                self._dirty[i] = True
        else:
            self._occupied += 1
        bucket.append(entry)
        self._size += 1
        if vb < self._cur_v:
            # Earlier than the scan position (the run loop's horizon
            # push-back after a pop that resized, or a fuzz push into
            # the past): rewind so the scan cannot skip it for a year.
            self._cur_v = vb
        if self._occupied * 4 > self._n_buckets * 3:
            self._resize(2 * self._n_buckets)

    def _locate_head(self) -> list:
        """Advance the scan to the bucket holding the minimum entry and
        return that bucket (its head is the minimum).  Requires a
        non-empty queue."""
        n = self._n_buckets
        width = self._width
        buckets = self._buckets
        dirty = self._dirty
        cur = self._cur_v
        for _ in range(n):
            i = cur % n
            bucket = buckets[i]
            if bucket:
                if dirty[i]:
                    bucket.sort()
                    dirty[i] = False
                if int(bucket[0][0] / width) == cur:
                    self._cur_v = cur
                    return bucket
            cur += 1
        # A full year scanned without a hit (sparse far-future jump):
        # direct search for the global minimum head.
        best: Optional[Entry] = None
        best_bucket: Optional[list] = None
        for i, bucket in enumerate(buckets):
            if not bucket:
                continue
            if dirty[i]:
                bucket.sort()
                dirty[i] = False
            if best is None or bucket[0] < best:
                best = bucket[0]
                best_bucket = bucket
        assert best is not None and best_bucket is not None
        self._cur_v = int(best[0] / width)
        return best_bucket

    def pop(self) -> Entry:
        if not self._size:
            raise IndexError("pop from an empty CalendarQueue")
        bucket = self._locate_head()
        entry = bucket.pop(0)
        self._size -= 1
        if not bucket:
            self._occupied -= 1
        if (
            self._occupied * 8 < self._n_buckets
            and self._n_buckets > self._MIN_BUCKETS
        ):
            self._resize(max(self._MIN_BUCKETS, self._n_buckets // 2))
        return entry

    def pop_cohort(self) -> list:
        """Slice the whole same-``(time, priority)`` run out in one cut.

        Equal times always map to the same physical bucket, so the run
        is a contiguous prefix of one sorted bucket: one ``bisect``
        finds its end and one slice removes it.
        """
        if not self._size:
            raise IndexError("pop from an empty CalendarQueue")
        bucket = self._locate_head()
        head = bucket[0]
        # (time, priority, inf) sorts after every (time, priority, seq):
        # bisect lands exactly past the cohort.
        end = bisect_right(bucket, (head[0], head[1], _INF))
        cohort = bucket[:end]
        del bucket[:end]
        self._size -= end
        if not bucket:
            self._occupied -= 1
        if (
            self._occupied * 8 < self._n_buckets
            and self._n_buckets > self._MIN_BUCKETS
        ):
            self._resize(max(self._MIN_BUCKETS, self._n_buckets // 2))
        return cohort

    def peek(self) -> float:
        if not self._size:
            return _INF
        return self._locate_head()[0][0]

    def __len__(self) -> int:
        return self._size

    # ----------------------------------------------------------- resizing
    def _resize(self, n_buckets: int) -> None:
        """Rebuild with ``n_buckets`` buckets and a re-estimated width.

        Deterministic by construction: the new width is a pure function
        of the live entry times (sampled in sorted order), never of
        wall-clock or operation timing.
        """
        entries: list[Entry] = []
        for bucket in self._buckets:
            entries.extend(bucket)
        entries.sort()
        self._width = self._estimate_width(entries)
        self._n_buckets = n_buckets
        self._buckets = [[] for _ in range(n_buckets)]
        width = self._width
        for entry in entries:  # globally sorted -> appends stay sorted
            self._buckets[int(entry[0] / width) % n_buckets].append(entry)
        self._occupied = sum(1 for bucket in self._buckets if bucket)
        self._dirty = [False] * n_buckets
        if entries:
            self._cur_v = int(entries[0][0] / width)

    @staticmethod
    def _estimate_width(entries: list) -> float:
        """Brown's width heuristic: ~3x the mean gap between adjacent
        live entries, so a bucket holds ~1-3 events.  Sampling is an
        evenly-strided slice of the sorted population; duplicate
        timestamps contribute no gap (they share one bucket whatever
        the width, so they should not shrink it)."""
        if len(entries) < 2:
            return 1.0
        step = max(1, len(entries) // 64)
        times = [entries[i][0] for i in range(0, len(entries), step)]
        gaps = [
            b - a for a, b in zip(times, times[1:]) if b > a
        ]
        if not gaps:
            return 1.0
        width = 3.0 * (sum(gaps) / len(gaps))
        # Degenerate spacings (denormal-scale gaps) fall back to unit
        # width rather than creating astronomically many virtual years.
        return width if width > 1e-12 else 1.0
