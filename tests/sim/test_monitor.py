"""Tests for the busy-interval accounting (IntervalAccumulator)."""

import pytest

from repro.sim import IntervalAccumulator


def test_interval_total_and_validation():
    acc = IntervalAccumulator()
    acc.add("compute", 0.0, 5.0)
    acc.add("compute", 10.0, 12.0)
    assert acc.total("compute") == 7.0
    assert acc.total("missing") == 0.0
    with pytest.raises(ValueError):
        acc.add("bad", 5.0, 1.0)


def test_interval_merged_overlapping():
    acc = IntervalAccumulator()
    acc.add("x", 0.0, 4.0)
    acc.add("x", 2.0, 6.0)
    acc.add("x", 10.0, 11.0)
    assert acc.merged("x") == [(0.0, 6.0), (10.0, 11.0)]


def test_interval_overlap_between_labels():
    acc = IntervalAccumulator()
    acc.add("compute", 0.0, 10.0)
    acc.add("comm", 5.0, 8.0)
    acc.add("comm", 9.0, 12.0)
    # Overlap = [5,8] + [9,10] = 4.0 of communication hidden under
    # compute — the latency-hiding metric.
    assert acc.overlap("compute", "comm") == 4.0
    assert acc.overlap("comm", "compute") == 4.0


def test_interval_overlap_disjoint():
    acc = IntervalAccumulator()
    acc.add("a", 0.0, 1.0)
    acc.add("b", 2.0, 3.0)
    assert acc.overlap("a", "b") == 0.0
