"""Discrete-event simulation core.

A small, dependency-free event-loop in the style of SimPy: an
:class:`Environment` owns a time-ordered event queue (pluggable via
:mod:`repro.sim.equeue` — binary heap or calendar queue, selected by
``REPRO_ENGINE_QUEUE``), a :class:`Process` wraps a Python generator
that ``yield``\\ s events to wait on, and :class:`Timeout` models the
passage of simulated time.  :meth:`Environment.run` is one loop: pop
the next ``(time, priority, seq, event)`` entry, advance the clock to
it, fire its callbacks.

The engine is deliberately deterministic: events scheduled for the same
simulated time fire in (priority, insertion-order) order, so repeated
runs of a simulation with the same seed produce identical traces.  This
determinism is what lets the benchmark harness reproduce the paper's
tables bit-for-bit across runs.

Simulated time is a ``float`` in *microseconds* throughout the library
(GPU-scale latencies are naturally expressed in us; milliseconds in the
paper's tables are obtained by dividing by 1000).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, ProcessInterrupt, SimulationError
from repro.sim.equeue import EventQueue, make_queue

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for control events that must fire before same-time
#: normal events (e.g. process resumption after an interrupt).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it becomes *triggered* when
    :meth:`succeed` or :meth:`fail` schedules it on the environment's
    heap, and *processed* once the environment has fired its callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._ok = True
        self.env._schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiting processes see ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.env._schedule(self, delay=delay)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` time units later."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._ok = True
        # Fast-path schedule: timeouts dominate the queue traffic of a
        # busy simulation, and the delay was validated above, so push
        # directly instead of going through ``env._schedule`` (which
        # would re-validate).  The entry shape must stay identical to
        # ``_schedule``'s: (time, priority, sequence, event).
        env._push((env._now + delay, NORMAL, next(env._eid), self))


class _Initialize(Event):
    """Internal event used to start a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._value = None
        self._ok = True
        self.callbacks.append(process._resume)
        env._schedule(self, priority=URGENT)


class Process(Event):
    """Wraps a generator; the process event triggers when it returns.

    The generator yields :class:`Event` instances; the process suspends
    until the yielded event fires, then resumes with the event's value
    (or with the exception thrown into it on failure/interrupt).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process.

        The interrupt is delivered as an urgent event at the current
        simulation time.  Interrupting a finished process is an error.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        event = Event(self.env)
        event._value = ProcessInterrupt(cause)
        event._ok = False
        # Deliver directly to this process, bypassing the normal target:
        event.callbacks.append(self._resume)
        # Detach from whatever we were waiting on.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        self.env._schedule(event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        try:
            if event.ok:
                next_event = self._generator.send(event.value)
            else:
                next_event = self._generator.throw(event.value)
        except StopIteration as stop:
            self.env._active_process = None
            self._value = stop.value
            self._ok = True
            self.env._schedule(self, priority=URGENT)
            return
        except BaseException as exc:
            self.env._active_process = None
            self._value = exc
            self._ok = False
            self.env._schedule(self, priority=URGENT)
            return
        self.env._active_process = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
        if next_event.callbacks is None:
            # Already processed: resume immediately at the current time.
            immediate = Event(self.env)
            immediate._value = next_event._value
            immediate._ok = next_event._ok
            immediate.callbacks.append(self._resume)
            self.env._schedule(immediate, priority=URGENT)
            self._target = None
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event


class _MultiEvent(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events across environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._observe(ev)
            else:
                ev.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_MultiEvent):
    """Triggers when *all* component events have triggered.

    Succeeds with the list of component values; fails with the first
    component failure.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self.events])


class AnyOf(_MultiEvent):
    """Triggers when *any* component event triggers (value = that event's)."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)


class Environment:
    """Owns simulated time and the event queue.

    Usage::

        env = Environment()

        def proc(env):
            yield env.timeout(5.0)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert env.now == 5.0 and p.value == "done"

    ``queue`` selects the event-queue implementation
    (:mod:`repro.sim.equeue`): ``None`` follows ``REPRO_ENGINE_QUEUE``
    (default ``heap``), a string names a variant (``"heap"`` /
    ``"calendar"``), an :class:`~repro.sim.equeue.EventQueue` instance
    is used as-is.  Read once at construction, so one simulation never
    mixes queue disciplines mid-run; every variant dispatches the
    bit-identical event order (the differential suite pins this).
    """

    __slots__ = (
        "_now",
        "_equeue",
        "_push",
        "engine_queue",
        "_eid",
        "_active_process",
        "trace_hook",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        queue: "str | EventQueue | None" = None,
    ):
        self._now = float(initial_time)
        self._equeue: EventQueue = make_queue(queue)
        #: Bound push — the one scheduling entry point (``_schedule``
        #: and the :class:`Timeout` fast path both go through it, so
        #: there is exactly one access path to the queue).
        self._push = self._equeue.push
        #: Name of the active queue variant ("heap" / "calendar").
        self.engine_queue: str = self._equeue.name
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        #: Optional instrumentation hook called once per dispatched
        #: event with the popped queue entry ``(time, priority, seq,
        #: event)`` *before* its callbacks run.  Used by the golden-
        #: trace determinism suite to digest the exact event order.
        #: Read once at the top of :meth:`run`; set it before running.
        self.trace_hook: Optional[
            Callable[[tuple[float, int, int, Event]], None]
        ] = None

    @property
    def now(self) -> float:
        """Current simulated time (microseconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._push((self._now + delay, priority, next(self._eid), event))

    def schedule_at(
        self, event: Event, when: float, priority: int = NORMAL
    ) -> None:
        """Schedule a *triggered* ``event`` at the absolute time ``when``.

        Entry point for externally-sourced events — the partitioned
        engine (:mod:`repro.sim.partition`) injects cross-partition
        arrivals whose timestamps were computed on the sending
        partition's clock.  ``when`` must not lie in this
        environment's past; conservative windowing guarantees that for
        imports (an import's arrival time always exceeds the safe
        horizon the receiver last executed through).
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}"
            )
        if event._value is _PENDING:
            raise SimulationError("schedule_at requires a triggered event")
        self._push((when, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._equeue.peek()

    def _dispatch(
        self,
        stop_event: Optional[Event],
        horizon: Optional[float],
    ) -> None:
        """The event loop behind :meth:`run`: pop, advance, fire.

        Runs until ``stop_event`` is processed (if given), the next
        event lies past ``horizon`` (if given), or the queue drains.
        Events fire one at a time in strictly increasing ``(time,
        priority, seq)`` order, so an urgent event a callback schedules
        at the current time fires before the remaining normal events of
        that time, and an exception out of a callback leaves exactly the
        unfired events scheduled.
        """
        queue = self._equeue
        pop = queue.pop
        hook = self.trace_hook
        while stop_event is None or not stop_event._processed:
            if not queue:
                if stop_event is not None:
                    raise DeadlockError(
                        f"event queue drained before {stop_event!r} "
                        "triggered"
                    )
                return
            entry = pop()
            when, _priority, _seq, event = entry
            if horizon is not None and when > horizon:
                # One push-back per window: the entry's key is unchanged.
                queue.push(entry)
                return
            self._now = when
            if hook is not None:
                hook(entry)
            # Detach the callbacks and mark the event processed first, so
            # a callback that waits on it sees it as already processed.
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if not callbacks and not event._ok and isinstance(event, Process):
                # A process died with an unhandled exception and nothing
                # was waiting on it: surface the failure, do not lose it.
                raise event._value  # type: ignore[misc]
            for cb in callbacks:  # type: ignore[union-attr]
                cb(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the event loop.

        ``until`` may be ``None`` (run until the queue drains), a time
        (run until simulated time reaches it), or an :class:`Event`
        (run until it is processed; returns/raises its value).
        """
        if isinstance(until, Event):
            self._dispatch(until, None)
            if until.ok:
                return until.value
            raise until.value  # type: ignore[misc]
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError("cannot run backwards in time")
            self._dispatch(None, horizon)
            self._now = horizon
            return None
        self._dispatch(None, None)
        return None
