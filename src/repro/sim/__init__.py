"""Discrete-event simulation engine (the substrate under everything).

Public surface:

* :class:`~repro.sim.core.Environment` — event loop and simulated clock.
* :class:`~repro.sim.core.Process` / :class:`~repro.sim.core.Timeout` —
  generator-based processes.
* :class:`~repro.sim.monitor.IntervalAccumulator` — busy-interval
  accounting for the overlap analysis.
* :mod:`repro.sim.equeue` — pluggable event queues (``heap`` reference,
  ``calendar`` bucketed by time), selected via ``REPRO_ENGINE_QUEUE``;
  both pop the identical ``(time, priority, seq)`` order.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.equeue import (
    ENGINE_QUEUE_ENV,
    ENGINE_QUEUES,
    CalendarQueue,
    EventQueue,
    HeapQueue,
    engine_queue_name,
    make_queue,
)
from repro.sim.monitor import IntervalAccumulator
from repro.sim.partition import (
    Export,
    PartitionHost,
    WindowCoordinator,
    WindowReport,
    WindowStats,
    lookahead_matrix,
    partition_ranks,
    safe_horizons,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "EventQueue",
    "HeapQueue",
    "CalendarQueue",
    "ENGINE_QUEUE_ENV",
    "ENGINE_QUEUES",
    "engine_queue_name",
    "make_queue",
    "AllOf",
    "AnyOf",
    "IntervalAccumulator",
    "partition_ranks",
    "lookahead_matrix",
    "safe_horizons",
    "Export",
    "WindowReport",
    "PartitionHost",
    "WindowStats",
    "WindowCoordinator",
]
