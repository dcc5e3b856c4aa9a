"""Property suite for the pluggable event queues (``repro.sim.equeue``).

Pins the contracts the engine's determinism story rests on, for *both*
queue variants:

* the tie-ordering contract — same-timestamp, same-priority events fire
  in insertion order (Hypothesis over random interleavings);
* the total order — pops come out in strictly increasing
  ``(time, priority, seq)`` no matter the push order;
* cohort maximality — ``pop_cohort`` returns exactly the maximal run of
  head-equal ``(time, priority)`` entries, in ``seq`` order;
* selection plumbing — ``REPRO_ENGINE_QUEUE`` parsing, ``make_queue``
  pass-through, and :class:`Environment` queue injection.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.equeue import (
    ENGINE_QUEUE_ENV,
    ENGINE_QUEUES,
    CalendarQueue,
    EventQueue,
    HeapQueue,
    engine_queue_name,
    make_queue,
)

VARIANTS = list(ENGINE_QUEUES)


def _queue(name: str) -> EventQueue:
    return make_queue(name)


# A tag standing in for the event object; comparison never reaches it
# (seq is unique), so a plain string is enough for queue-level tests.
def _entries(times, priorities=None):
    counter = itertools.count()
    out = []
    for i, t in enumerate(times):
        pri = 1 if priorities is None else priorities[i]
        out.append((float(t), pri, next(counter), f"ev{i}"))
    return out


# Times drawn from a small pool (forces same-timestamp cohorts) plus
# free-range floats (forces bucket-year wraps and resizes).
_times = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.25, 64.0, 1e6]),
        st.floats(min_value=0.0, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=200,
)


# ------------------------------------------------------- total order
@pytest.mark.parametrize("variant", VARIANTS)
@given(times=_times)
@settings(max_examples=60, deadline=None)
def test_pops_come_out_in_sorted_entry_order(variant, times):
    q = _queue(variant)
    entries = _entries(times)
    for e in entries:
        q.push(e)
    popped = [q.pop() for _ in range(len(entries))]
    assert popped == sorted(entries)
    assert len(q) == 0 and not q


@pytest.mark.parametrize("variant", VARIANTS)
@given(times=_times, priorities=st.data())
@settings(max_examples=60, deadline=None)
def test_tie_order_is_insertion_order(variant, times, priorities):
    """Entries sharing (time, priority) surface in push (seq) order."""
    pris = priorities.draw(
        st.lists(st.sampled_from([0, 1]),
                 min_size=len(times), max_size=len(times))
    )
    q = _queue(variant)
    entries = _entries(times, pris)
    for e in entries:
        q.push(e)
    popped = [q.pop() for _ in range(len(entries))]
    for (t, p), group in itertools.groupby(popped, key=lambda e: e[:2]):
        seqs = [e[2] for e in group]
        assert seqs == sorted(seqs), (
            f"tie at ({t}, {p}) fired out of insertion order: {seqs}"
        )


# --------------------------------------------------- cohort dispatch
@pytest.mark.parametrize("variant", VARIANTS)
@given(times=_times)
@settings(max_examples=60, deadline=None)
def test_pop_cohort_is_maximal_and_ordered(variant, times):
    q = _queue(variant)
    entries = _entries(times)
    for e in entries:
        q.push(e)
    drained = []
    last_key = None
    while q:
        before = len(q)
        cohort = q.pop_cohort()
        assert len(q) == before - len(cohort)
        # One (time, priority) per cohort, seqs in insertion order.
        keys = {(e[0], e[1]) for e in cohort}
        assert len(keys) == 1
        seqs = [e[2] for e in cohort]
        assert seqs == sorted(seqs)
        # Maximality: the previous cohort left no entry of its key, so
        # the next head (the minimum) has a different one.
        assert cohort[0][:2] != last_key
        last_key = cohort[0][:2]
        drained.extend(cohort)
    assert drained == sorted(entries)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pop_cohort_on_empty_queue_raises(variant):
    with pytest.raises(IndexError):
        _queue(variant).pop_cohort()
    with pytest.raises(IndexError):
        _queue(variant).pop()


# -------------------------------------------------------------- peek
@pytest.mark.parametrize("variant", VARIANTS)
def test_peek(variant):
    q = _queue(variant)
    assert q.peek() == float("inf")
    q.push((3.0, 1, 0, "later"))
    q.push((2.0, 0, 1, "sooner"))
    assert q.peek() == 2.0
    assert q.pop()[3] == "sooner"
    assert q.peek() == 3.0


# ------------------------------------------------- calendar internals
def test_calendar_resizes_up_and_down():
    q = CalendarQueue()
    entries = _entries([float(i) for i in range(256)])
    for e in entries:
        q.push(e)
    assert q._n_buckets > CalendarQueue._MIN_BUCKETS
    drained = [q.pop() for _ in range(len(entries))]
    assert drained == entries
    assert q._n_buckets == CalendarQueue._MIN_BUCKETS


def test_calendar_survives_far_future_jump():
    """A sparse far-future entry needs the full-year-miss fallback."""
    q = CalendarQueue()
    q.push((1e12, 1, 0, "far"))
    q.push((2e12, 1, 1, "farther"))
    assert q.peek() == 1e12
    assert q.pop()[3] == "far"
    assert q.pop()[3] == "farther"


def test_calendar_rejects_bad_construction():
    with pytest.raises(ValueError):
        CalendarQueue(n_buckets=0)
    with pytest.raises(ValueError):
        CalendarQueue(width=0.0)


# --------------------------------------------------------- selection
def test_engine_queue_name_defaults_to_heap(monkeypatch):
    monkeypatch.delenv(ENGINE_QUEUE_ENV, raising=False)
    assert engine_queue_name() == "heap"
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "")
    assert engine_queue_name() == "heap"
    monkeypatch.setenv(ENGINE_QUEUE_ENV, " Calendar ")
    assert engine_queue_name() == "calendar"


def test_engine_queue_name_rejects_unknown(monkeypatch):
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "ladder")
    with pytest.raises(ValueError, match="ladder"):
        engine_queue_name()


def test_make_queue_variants_and_passthrough(monkeypatch):
    monkeypatch.delenv(ENGINE_QUEUE_ENV, raising=False)
    assert isinstance(make_queue(), HeapQueue)
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "calendar")
    assert isinstance(make_queue(), CalendarQueue)
    assert isinstance(make_queue("heap"), HeapQueue)
    injected = CalendarQueue()
    assert make_queue(injected) is injected
    with pytest.raises(ValueError):
        make_queue("splay")


@pytest.mark.parametrize("variant", VARIANTS)
def test_environment_reports_injected_queue(variant):
    env = Environment(queue=variant)
    assert env.engine_queue == variant


def test_environment_follows_env_var(monkeypatch):
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "calendar")
    assert Environment().engine_queue == "calendar"
    monkeypatch.delenv(ENGINE_QUEUE_ENV, raising=False)
    assert Environment().engine_queue == "heap"


# --------------------------------------- engine-level tie ordering
@pytest.mark.parametrize("variant", VARIANTS)
@given(delays=st.lists(st.sampled_from([1.0, 2.0, 2.0, 3.0]),
                       min_size=1, max_size=24))
@settings(max_examples=40, deadline=None)
def test_same_time_processes_fire_in_creation_order(variant, delays):
    """Random interleavings: processes sharing a wake time fire in the
    order they were created, under both variants."""
    env = Environment(queue=variant)
    fired = []

    def proc(env, i, d):
        yield env.timeout(d)
        fired.append((env.now, i))

    for i, d in enumerate(delays):
        env.process(proc(env, i, d))
    env.run()
    expected = sorted(
        ((d, i) for i, d in enumerate(delays)),
    )
    assert fired == [(d, i) for d, i in expected]
