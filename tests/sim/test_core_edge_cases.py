"""Additional DES core coverage: failure paths, composite events, and
the event loop's ordering at same-time ties, callback exceptions and
time horizons."""

import pytest

from repro.errors import SimulationError
from repro.sim import ENGINE_QUEUES, AllOf, AnyOf, Environment


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_event_ok_and_processed_lifecycle():
    env = Environment()
    ev = env.event()
    assert not ev.triggered and not ev.processed
    ev.succeed(5)
    assert ev.triggered and ev.ok and not ev.processed
    env.run()
    assert ev.processed and ev.value == 5


def test_timeout_carries_value():
    env = Environment()
    results = []

    def proc(env):
        value = yield env.timeout(1.0, value="ding")
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["ding"]


def test_all_of_failure_propagates_first_error():
    env = Environment()

    def good(env):
        yield env.timeout(5.0)
        return "late"

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("early failure")

    def waiter(env):
        children = [env.process(good(env)), env.process(bad(env))]
        with pytest.raises(ValueError, match="early failure"):
            yield AllOf(env, children)
        return env.now

    p = env.process(waiter(env))
    env.run()
    assert p.value == 1.0  # failed as soon as the bad child died


def test_any_of_failure_if_first_event_fails():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("first to finish")

    def slow(env):
        yield env.timeout(10.0)

    def waiter(env):
        with pytest.raises(RuntimeError):
            yield AnyOf(env, [env.process(bad(env)),
                              env.process(slow(env))])
        return "handled"

    p = env.process(waiter(env))
    env.run()
    assert p.value == "handled"


def test_env_factories():
    env = Environment()

    def waiter(env):
        value = yield env.all_of([env.timeout(1.0, "a"),
                                  env.timeout(2.0, "b")])
        first = yield env.any_of([env.timeout(1.0, "x"),
                                  env.timeout(9.0, "y")])
        return value, first

    p = env.process(waiter(env))
    env.run()
    assert p.value == (["a", "b"], "x")


def test_composite_across_environments_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(SimulationError):
        AllOf(env1, [env2.timeout(1.0)])


def test_all_of_with_already_triggered_members():
    env = Environment()
    done = env.event()
    done.succeed("pre")
    env.run()  # process `done`

    def waiter(env):
        values = yield AllOf(env, [done, env.timeout(1.0, "post")])
        return values

    p = env.process(waiter(env))
    env.run()
    assert p.value == ["pre", "post"]


def test_succeed_with_delay():
    env = Environment()
    gate = env.event()
    gate.succeed("later", delay=7.0)
    hits = []

    def waiter(env):
        value = yield gate
        hits.append((env.now, value))

    env.process(waiter(env))
    env.run()
    assert hits == [(7.0, "later")]


# ------------------------------------------------ event-loop ordering
def _recorder(log, name):
    return lambda event: log.append(name)


@pytest.mark.parametrize("queue", ENGINE_QUEUES)
def test_urgent_event_scheduled_now_fires_before_pending_normal_ones(queue):
    """A process started from a callback is an URGENT event at the
    current time: it starts before the NORMAL events still waiting at
    that time, not after them."""
    env = Environment(queue=queue)
    fired = []

    def child(env):
        fired.append(("child", env.now))
        yield env.timeout(0.0)

    first, second, third = env.event(), env.event(), env.event()
    first.callbacks.append(
        lambda event: (fired.append(("first", env.now)),
                       env.process(child(env))))
    second.callbacks.append(lambda event: fired.append(("second", env.now)))
    third.callbacks.append(lambda event: fired.append(("third", env.now)))
    for event in (first, second, third):
        event.succeed(delay=1.0)
    env.run()
    assert fired == [("first", 1.0), ("child", 1.0), ("second", 1.0),
                     ("third", 1.0)]


@pytest.mark.parametrize("queue", ENGINE_QUEUES)
def test_callback_exception_leaves_exactly_the_unfired_events(queue):
    env = Environment(queue=queue)
    fired = []
    events = [env.event() for _ in range(4)]
    for i, event in enumerate(events):
        event.callbacks.append(_recorder(fired, i))
        event.succeed(delay=1.0)
    later = env.timeout(2.0)
    later.callbacks.append(_recorder(fired, "later"))

    def boom(event):
        raise RuntimeError("boom")

    events[1].callbacks.append(boom)
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert fired == [0, 1]
    assert env.now == 1.0 and env.peek() == 1.0
    assert events[1].processed and not events[2].processed

    popped = []
    env.trace_hook = lambda entry: popped.append(entry[3])
    env.run()
    assert fired == [0, 1, 2, 3, "later"]
    assert popped == [events[2], events[3], later]


@pytest.mark.parametrize("queue", ENGINE_QUEUES)
def test_run_until_leaves_the_next_event_scheduled(queue):
    env = Environment(queue=queue)
    hits = []

    def ticker(env):
        for _ in range(3):
            yield env.timeout(4.0)
            hits.append(env.now)

    env.process(ticker(env))
    env.run(until=6.0)
    assert hits == [4.0] and env.now == 6.0
    assert env.peek() == 8.0
    env.run(until=8.0)  # the horizon is inclusive
    assert hits == [4.0, 8.0] and env.now == 8.0
    env.run()
    assert hits == [4.0, 8.0, 12.0] and env.now == 12.0
