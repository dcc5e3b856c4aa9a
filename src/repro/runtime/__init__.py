"""The Atos runtime: distributed queues, aggregator, executor, termination."""

from repro.runtime.aggregator import AggregationBuffer, Aggregator
from repro.runtime.distributed_queue import DistributedQueues, PEQueues
from repro.runtime.executor import (
    AtosApplication,
    AtosConfig,
    AtosExecutor,
    RoundOutcome,
)
from repro.runtime.priority_queue import (
    DistributedPriorityQueues,
    PEPriorityQueues,
)
from repro.runtime.partitioned import PartitionReplica, run_partitioned
from repro.runtime.termination import (
    InFlightLedger,
    TrackerSnapshot,
    WindowedWorkTracker,
    WorkTracker,
)

__all__ = [
    "InFlightLedger",
    "TrackerSnapshot",
    "WindowedWorkTracker",
    "PartitionReplica",
    "run_partitioned",
    "DistributedQueues",
    "PEQueues",
    "DistributedPriorityQueues",
    "PEPriorityQueues",
    "Aggregator",
    "AggregationBuffer",
    "WorkTracker",
    "AtosApplication",
    "AtosConfig",
    "AtosExecutor",
    "RoundOutcome",
]
