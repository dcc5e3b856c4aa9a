"""Measurement: counters, run results, tables, timeline analyses."""

from repro.metrics.analysis import (
    burstiness,
    byte_histogram,
    peak_to_mean,
    utilization_table,
)
from repro.metrics.counters import (
    FAULT_COUNTERS,
    RECOVERY_COUNTERS,
    RESILIENCE_COUNTERS,
    Counters,
    RunResult,
    fault_summary,
)

__all__ = [
    "Counters",
    "RunResult",
    "FAULT_COUNTERS",
    "RECOVERY_COUNTERS",
    "RESILIENCE_COUNTERS",
    "fault_summary",
    "burstiness",
    "byte_histogram",
    "peak_to_mean",
    "utilization_table",
]
