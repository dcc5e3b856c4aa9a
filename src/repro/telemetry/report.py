"""Per-rank utilization/timeline reports and load-imbalance statistics.

This is the paper's per-phase attribution (compute vs. communication
vs. idle per GPU) computed from a run's recorded spans:

* :func:`rank_breakdown` — per-rank totals where the timeline
  categories (compute/queue/idle/recovery) tile ``[0, makespan]``
  exactly (unaccounted gaps are folded into ``idle``) and the overlay
  categories (comm/agg_wait) are reported alongside as utilization;
* :func:`imbalance_stats` — the load-imbalance diagnostics
  (max/mean factor, coefficient of variation) over per-rank busy time;
* :func:`phase_breakdown` — the compact whole-run category→us summary
  the chaos harness attaches next to its digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.spans import (
    OVERLAY_CATEGORIES,
    TIMELINE_CATEGORIES,
    Telemetry,
)

__all__ = [
    "rank_breakdown",
    "imbalance_stats",
    "phase_breakdown",
    "ProfileReport",
    "build_report",
]


def rank_breakdown(
    telemetry: Telemetry, makespan: float
) -> dict[int, dict[str, float]]:
    """Per-rank category totals in simulated microseconds.

    For every rank, the timeline categories sum to ``makespan``
    exactly: recorded compute/queue/recovery/idle spans are counted as
    emitted, and whatever the sequential process did not record (tail
    time after the rank drained, teardown) is folded into ``idle``.
    Overlay categories (comm, agg_wait) are reported as recorded and
    excluded from that sum — their overlap with compute is the point.
    """
    out: dict[int, dict[str, float]] = {}
    for rank in range(telemetry.n_ranks):
        totals = telemetry.category_totals(rank)
        row = {cat: totals.get(cat, 0.0) for cat in TIMELINE_CATEGORIES}
        accounted = sum(row.values())
        row["idle"] += max(0.0, makespan - accounted)
        for cat in OVERLAY_CATEGORIES:
            row[cat] = totals.get(cat, 0.0)
        out[rank] = row
    return out


def imbalance_stats(
    per_rank: dict[int, dict[str, float]],
    busy_categories: tuple[str, ...] = ("compute", "queue"),
) -> dict[str, float]:
    """Load-imbalance diagnostics over per-rank busy time.

    ``imbalance`` is max/mean busy time (1.0 = perfectly balanced, the
    classic lambda of load-imbalance analyses); ``cv`` is the
    coefficient of variation.  A mesh partition that starves one GPU
    shows up here long before it shows up in the makespan.
    """
    busy = np.array(
        [
            sum(row.get(cat, 0.0) for cat in busy_categories)
            for row in per_rank.values()
        ],
        dtype=np.float64,
    )
    mean = float(busy.mean()) if len(busy) else 0.0
    if mean <= 0:
        return {"imbalance": 1.0, "cv": 0.0, "busy_mean_us": 0.0,
                "busy_max_us": 0.0}
    return {
        "imbalance": float(busy.max() / mean),
        "cv": float(busy.std() / mean),
        "busy_mean_us": mean,
        "busy_max_us": float(busy.max()),
    }


def phase_breakdown(telemetry: Telemetry, makespan: float) -> dict[str, float]:
    """Whole-run category → total simulated us, summed over ranks.

    The compact summary attached next to the digests of the chaos/crash
    grid cells ("where did the time go").
    """
    per_rank = rank_breakdown(telemetry, makespan)
    out: dict[str, float] = {}
    for row in per_rank.values():
        for cat, value in row.items():
            out[cat] = out.get(cat, 0.0) + value
    return out


@dataclass
class ProfileReport:
    """Everything ``python -m repro profile`` prints for one cell."""

    makespan_us: float
    per_rank: dict[int, dict[str, float]]
    imbalance: dict[str, float]
    #: Aggregator knob values the run actually used (one source of
    #: truth: :mod:`repro.config` via the executor's config).
    knobs: dict[str, float] = field(default_factory=dict)
    spans_recorded: int = 0
    spans_evicted: int = 0

    @property
    def truncated(self) -> bool:
        """True when the span ring buffers lost history."""
        return self.spans_evicted > 0

    def render(self) -> str:
        """The human-readable profile block (table + stats + warnings)."""
        from repro.metrics.analysis import utilization_table

        lines = [
            utilization_table(self.per_rank, self.makespan_us),
            "",
            (
                f"load imbalance: max/mean = "
                f"{self.imbalance['imbalance']:.3f}, "
                f"cv = {self.imbalance['cv']:.3f}"
            ),
        ]
        if self.knobs:
            knob_text = ", ".join(
                f"{k}={v:g}" for k, v in sorted(self.knobs.items())
            )
            lines.append(f"knobs: {knob_text}")
        lines.append(
            f"spans: {self.spans_recorded} recorded, "
            f"{self.spans_evicted} evicted"
        )
        if self.truncated:
            lines.append(
                "WARNING: TIMELINE TRUNCATED — span ring buffer evicted "
                f"{self.spans_evicted} span(s); totals below undercount "
                "early history (raise telemetry_max_spans)"
            )
        return "\n".join(lines)


def build_report(
    telemetry: Telemetry,
    makespan: float,
    knobs: dict[str, float] | None = None,
) -> ProfileReport:
    """Assemble the full :class:`ProfileReport` for one run."""
    per_rank = rank_breakdown(telemetry, makespan)
    return ProfileReport(
        makespan_us=makespan,
        per_rank=per_rank,
        imbalance=imbalance_stats(per_rank),
        knobs=dict(knobs or {}),
        spans_recorded=telemetry.total_spans,
        spans_evicted=telemetry.evicted,
    )
