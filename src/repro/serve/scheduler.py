"""Bounded admission queue with smooth weighted round-robin priorities.

The scheduling discipline of the queueing self-model
(:mod:`repro.serve.model`), kept free of any simulation machinery so
it can be tested on its own, and the one home of the priority-class
table every part of the model shares.

Discipline: smooth weighted round-robin (the nginx upstream algorithm)
across the priority classes, FIFO within a class.  Each pop credits
every backlogged class by its weight, picks the class with the highest
accumulated credit, and debits the winner by the total backlogged
weight.  Over any busy window a class with weight ``w`` therefore
receives ``w / sum(weights of backlogged classes)`` of the pops — a
guaranteed minimum service share, which is what bounds low-priority
waiting time (strict priority has no such bound; see
``repro.serve.validate.starvation_check``).

Admission is a single bound across all classes: ``offer`` refuses once
``max_queue`` jobs are waiting.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Optional

__all__ = [
    "DEFAULT_PRIORITY",
    "PRIORITY_CLASSES",
    "WeightedScheduler",
    "validate_priority",
]

#: Priority classes and their scheduling weights.  Weighted (not
#: strict) priority: an overloaded queue still serves ``bulk`` at
#: ~1/12 of the pop rate instead of starving it — the starvation bound
#: the queueing validator checks.
PRIORITY_CLASSES: dict[str, int] = {
    "interactive": 8,
    "batch": 3,
    "bulk": 1,
}

#: Priority of an arrival that names none.
DEFAULT_PRIORITY = "batch"


def validate_priority(priority: str) -> str:
    if priority not in PRIORITY_CLASSES:
        raise ValueError(
            f"unknown priority {priority!r}; known: "
            f"{sorted(PRIORITY_CLASSES)}"
        )
    return priority


class WeightedScheduler:
    """Deterministic weighted-fair queue over the priority classes."""

    def __init__(
        self,
        weights: Optional[dict[str, int]] = None,
        max_queue: int = 256,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.weights = dict(weights or PRIORITY_CLASSES)
        if any(w < 1 for w in self.weights.values()):
            raise ValueError("weights must be >= 1")
        self.max_queue = max_queue
        #: Stable class order: heaviest first, then name — ties in the
        #: credit race resolve the same way every run.
        self._order = sorted(
            self.weights, key=lambda p: (-self.weights[p], p)
        )
        self._queues: dict[str, deque[Any]] = {
            p: deque() for p in self._order
        }
        self._credit: dict[str, float] = {p: 0.0 for p in self._order}
        self._size = 0

    # -- state ------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.max_queue

    def depth(self, priority: str) -> int:
        """Waiting jobs in one class."""
        return len(self._queues[validate_priority(priority)])

    def depths(self) -> dict[str, int]:
        return {p: len(q) for p, q in self._queues.items()}

    def __iter__(self) -> Iterator[Any]:
        for priority in self._order:
            yield from self._queues[priority]

    # -- queue discipline --------------------------------------------------
    def offer(self, priority: str, job: Any) -> bool:
        """Admit ``job`` unless the bounded queue is full."""
        validate_priority(priority)
        if self.full:
            return False
        self._queues[priority].append(job)
        self._size += 1
        return True

    def pop(self) -> Optional[tuple[str, Any]]:
        """The next ``(priority, job)`` under smooth weighted RR."""
        if self._size == 0:
            return None
        backlogged = [p for p in self._order if self._queues[p]]
        total = 0
        for p in backlogged:
            self._credit[p] += self.weights[p]
            total += self.weights[p]
        winner = max(backlogged, key=lambda p: self._credit[p])
        self._credit[winner] -= total
        job = self._queues[winner].popleft()
        if not self._queues[winner]:
            # An emptied class re-enters the race from scratch: unspent
            # credit must not let a long-idle class burst later.
            self._credit[winner] = 0.0
        self._size -= 1
        return winner, job
