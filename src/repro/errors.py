"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The event loop ran out of events while processes were still waiting."""


class RetryBudgetExhausted(SimulationError):
    """A reliable-transport message ran out of retransmission attempts.

    Carries the link coordinates so a recovery layer can tell "the
    receiving rank is dead" (escalate to rank recovery) apart from "the
    link is flaky" (a genuine delivery failure that must stay loud).
    """

    def __init__(self, src: int, dst: int, seq: int, attempts: int):
        super().__init__(
            f"retry budget exhausted: message {src}->{dst}#{seq} "
            f"unacked after {attempts} attempts"
        )
        self.src = src
        self.dst = dst
        self.seq = seq
        self.attempts = attempts


class RecoveryError(SimulationError):
    """The fail-stop recovery protocol reached an inconsistent state."""


class PartitionWorkerLost(SimulationError):
    """A partitioned-run worker process died (pipe EOF / broken pipe).

    The typed form of "the OS took a worker from us": raised by the
    pooled driver's pipe proxies instead of the raw ``EOFError`` /
    ``BrokenPipeError``, so the window coordinator can tell a
    recoverable fail-stop loss (respawn the worker and replay its
    journal) apart from a genuine protocol error.  ``window`` is filled
    in by the coordinator when the loss surfaces mid-run (``None``
    before the first window or during finalize).
    """

    def __init__(
        self,
        partition: int,
        window: "int | None" = None,
        exitcode: "int | None" = None,
    ):
        at = f" at window {window}" if window is not None else ""
        code = f" (exitcode {exitcode})" if exitcode is not None else ""
        super().__init__(
            f"partition worker {partition} lost{at}{code}"
        )
        self.partition = partition
        self.window = window
        self.exitcode = exitcode


class WorkerCrashed(ReproError):
    """A pool worker process died while running a cell.

    :attr:`repro.harness.pool.CellResult.failure` of a cell that
    resolved ``crashed`` (pipe EOF: segfault, OOM-kill, ``os._exit``),
    threaded through the service's retry and quarantine policy, and
    carrying which spec (``spec_key``) it was running.
    """

    def __init__(self, spec_key: str):
        super().__init__(f"worker crashed running {spec_key}")
        self.spec_key = spec_key


class ProcessInterrupt(ReproError):
    """Raised inside a process generator when it is interrupted."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class QueueFullError(ReproError):
    """A bounded concurrent queue overflowed its capacity."""


class PartitionError(ReproError):
    """A graph partitioning request was invalid or infeasible."""


class TopologyError(ReproError):
    """An interconnect topology was malformed or a route was missing."""


class ConfigurationError(ReproError):
    """A system/machine configuration was inconsistent."""


class ConfigError(ConfigurationError):
    """A tuning knob or config-overlay value is out of bounds.

    The typed form of "this point is malformed": raised by the central
    bounds validation in :mod:`repro.config` (BATCH_SIZE >= 1,
    WAIT_TIME >= 0, partitions >= 1, known queue/driver names), so a
    bad design-space point fails loudly in the parent process before
    any worker is forked for it.  Subclasses
    :class:`ConfigurationError` so existing handlers keep working.
    """


class ConvergenceError(ReproError):
    """An iterative application failed to converge within its budget."""
