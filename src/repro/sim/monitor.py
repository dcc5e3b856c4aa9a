"""Busy-interval accounting for simulations.

The executor records when any GPU is processing a round ("compute") and
when any link is serializing ("comm") into an
:class:`IntervalAccumulator`; the overlap analysis reads it to report
how much communication the run hid under computation.
"""

from __future__ import annotations

__all__ = ["IntervalAccumulator"]


class IntervalAccumulator:
    """Accumulates labeled [start, end) busy intervals per actor.

    Supports overlap queries used to quantify communication/computation
    overlap: the fraction of communication time hidden under compute.
    """

    def __init__(self) -> None:
        self._intervals: dict[str, list[tuple[float, float]]] = {}

    def add(self, label: str, start: float, end: float) -> None:
        if end < start:
            raise ValueError("interval ends before it starts")
        self._intervals.setdefault(label, []).append((start, end))

    def total(self, label: str) -> float:
        return sum(e - s for s, e in self._intervals.get(label, []))

    def merged(self, label: str) -> list[tuple[float, float]]:
        """Union of intervals for ``label`` as sorted disjoint spans."""
        spans = sorted(self._intervals.get(label, []))
        merged: list[tuple[float, float]] = []
        for s, e in spans:
            if merged and s <= merged[-1][1]:
                last_s, last_e = merged[-1]
                merged[-1] = (last_s, max(last_e, e))
            else:
                merged.append((s, e))
        return merged

    def overlap(self, label_a: str, label_b: str) -> float:
        """Total time during which both labels are active."""
        a = self.merged(label_a)
        b = self.merged(label_b)
        i = j = 0
        out = 0.0
        while i < len(a) and j < len(b):
            s = max(a[i][0], b[j][0])
            e = min(a[i][1], b[j][1])
            if e > s:
                out += e - s
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return out
