"""The weighted scheduler's promises, pinned.

The starvation bound the queueing validator checks is only as good as
the scheduler's guaranteed minimum share, so these tests pin the share
arithmetic exactly: over any window where every class stays
backlogged, a class with weight ``w`` gets ``w`` of every
``sum(weights)`` pops — not approximately, exactly (smooth weighted RR
is deterministic).
"""

import pytest

from repro.serve.scheduler import PRIORITY_CLASSES
from repro.serve.scheduler import WeightedScheduler


def _fill(sched, per_class=50):
    for priority in PRIORITY_CLASSES:
        for i in range(per_class):
            assert sched.offer(priority, f"{priority}-{i}")


def test_fifo_within_a_class():
    sched = WeightedScheduler(max_queue=100)
    for i in range(5):
        sched.offer("batch", i)
    assert [sched.pop()[1] for _ in range(5)] == [0, 1, 2, 3, 4]


def test_exact_weighted_shares_while_backlogged():
    sched = WeightedScheduler(max_queue=1000)
    _fill(sched, per_class=50)
    total = sum(PRIORITY_CLASSES.values())  # 12
    window = [sched.pop()[0] for _ in range(total * 4)]
    for priority, weight in PRIORITY_CLASSES.items():
        assert window.count(priority) == weight * 4


def test_interleaving_not_bursty():
    # Smooth weighted RR spreads the heavy class out; it must never
    # take more than its weight in consecutive pops.
    sched = WeightedScheduler(max_queue=1000)
    _fill(sched, per_class=50)
    pops = [sched.pop()[0] for _ in range(48)]
    longest = run = 1
    for a, b in zip(pops, pops[1:]):
        run = run + 1 if a == b == "interactive" else 1
        longest = max(longest, run)
    assert longest <= PRIORITY_CLASSES["interactive"]


def test_bounded_admission():
    sched = WeightedScheduler(max_queue=3)
    assert sched.offer("batch", 1)
    assert sched.offer("bulk", 2)
    assert sched.offer("interactive", 3)
    assert sched.full
    assert not sched.offer("batch", 4)  # refused, not raised
    assert len(sched) == 3
    sched.pop()
    assert not sched.full
    assert sched.offer("batch", 4)


def test_empty_pop_and_depths():
    sched = WeightedScheduler(max_queue=4)
    assert sched.pop() is None
    sched.offer("bulk", "j")
    assert sched.depths() == {"interactive": 0, "batch": 0, "bulk": 1}
    assert sched.depth("bulk") == 1
    assert list(sched) == ["j"]


def test_credit_resets_when_class_empties():
    # A class that drains and comes back later must not have banked
    # credit from its idle period: after re-offering, the first window
    # still follows the weighted share, not a bulk burst.
    sched = WeightedScheduler(max_queue=1000)
    sched.offer("bulk", "only")
    assert sched.pop() == ("bulk", "only")  # bulk emptied -> reset
    _fill(sched, per_class=50)
    first_twelve = [sched.pop()[0] for _ in range(12)]
    assert first_twelve.count("bulk") == 1


def test_unknown_priority_rejected():
    sched = WeightedScheduler(max_queue=4)
    with pytest.raises(ValueError, match="unknown priority"):
        sched.offer("urgent", 1)
    with pytest.raises(ValueError):
        sched.depth("urgent")


def test_determinism_across_instances():
    a = WeightedScheduler(max_queue=1000)
    b = WeightedScheduler(max_queue=1000)
    for sched in (a, b):
        _fill(sched, per_class=20)
    seq_a = [a.pop() for _ in range(60)]
    seq_b = [b.pop() for _ in range(60)]
    assert seq_a == seq_b


def test_validation_of_configs():
    with pytest.raises(ValueError):
        WeightedScheduler(max_queue=0)
    with pytest.raises(ValueError):
        WeightedScheduler({"batch": 0}, max_queue=4)
