"""The ``REPRO_BATCH_PATH`` escape hatch.

The vectorized queue -> aggregator -> executor data path carries
payload batches across the runtime as dense arrays instead of
per-payload Python objects.  The batched path is observably equivalent to the original
per-payload path — the golden-trace suite pins bit-identical event
traces and run digests for both — and an escape hatch keeps the
straightforward reference implementation one environment variable away::

    REPRO_BATCH_PATH=0 python -m repro table5   # per-payload reference

The flag is read when a data-path object (executor, aggregator) is
*constructed*, so one simulation never mixes paths mid-run.
"""

from __future__ import annotations

import os

__all__ = ["BATCH_PATH_ENV", "batch_path_enabled"]

#: Environment variable holding the switch (default: batched path on).
BATCH_PATH_ENV = "REPRO_BATCH_PATH"

_FALSE = {"0", "false", "off", "no"}


def batch_path_enabled() -> bool:
    """True unless ``REPRO_BATCH_PATH`` disables the vectorized path."""
    return os.environ.get(BATCH_PATH_ENV, "1").strip().lower() not in _FALSE
