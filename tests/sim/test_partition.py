"""Unit and property tests for conservative window coordination.

The golden-digest suite (``tests/runtime/test_partitioned_golden.py``)
pins the end-to-end contract; these tests pin the coordination layer in
isolation: rank assignment, lookahead/horizon math, the coordinator's
stepping semantics (skip of provably-inert partitions, every begin
before any end), and — via Hypothesis over real
:class:`~repro.sim.Environment` instances — the safety property the
whole design rests on: **no event ever executes past its partition's
safe horizon**.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import (
    Environment,
    Event,
    Export,
    WindowCoordinator,
    WindowReport,
    lookahead_matrix,
    partition_ranks,
    safe_horizons,
)

INF = float("inf")


# ------------------------------------------------------ partition_ranks
def test_partition_ranks_contiguous_and_balanced():
    parts = partition_ranks(8, 3)
    assert parts == [[0, 1, 2], [3, 4, 5], [6, 7]]
    flat = [r for ranks in parts for r in ranks]
    assert flat == list(range(8))


def test_partition_ranks_one_partition_owns_all():
    assert partition_ranks(4, 1) == [[0, 1, 2, 3]]


def test_partition_ranks_rejects_bad_counts():
    with pytest.raises(ValueError):
        partition_ranks(4, 0)
    with pytest.raises(ValueError):
        partition_ranks(2, 3)


# ------------------------------------------- lookahead / safe_horizons
class _FakeTopology:
    """Minimum pairwise latency = |src - dst| microseconds."""

    def partition_lookahead(self, src_ranks, dst_ranks, extra_latency=0.0):
        return (
            min(abs(s - d) for s in src_ranks for d in dst_ranks)
            + extra_latency
        )


def test_lookahead_matrix_covers_ordered_pairs():
    parts = [[0, 1], [2, 3]]
    la = lookahead_matrix(_FakeTopology(), parts)
    assert set(la) == {(0, 1), (1, 0)}
    assert la[(0, 1)] == 1.0  # rank 1 -> rank 2


def test_lookahead_matrix_extra_latency_added_everywhere():
    parts = [[0], [1], [2]]
    la = lookahead_matrix(_FakeTopology(), parts, extra_latency=10.0)
    assert all(v >= 11.0 for v in la.values())


def test_safe_horizons_min_over_neighbors_and_echo():
    la = {(0, 1): 2.0, (1, 0): 3.0, (0, 2): 5.0, (2, 0): 5.0,
          (1, 2): 1.0, (2, 1): 1.0}
    horizons = safe_horizons([10.0, 20.0, 30.0], la)
    # L_min = 1, so the echo bound is F_p + 2.
    # H_0 = min(20+3, 30+5, 10+2); H_1 = min(10+2, 30+1, 20+2);
    # H_2 = min(10+5, 20+1, 30+2)
    assert horizons == [12.0, 12.0, 15.0]


def test_safe_horizons_classic_bound_when_tighter():
    # Neighbor bound below the echo bound: classic formula untouched.
    horizons = safe_horizons([10.0, 10.5], {(0, 1): 2.0, (1, 0): 2.0})
    assert horizons == [12.5, 12.0]


def test_safe_horizons_single_partition_is_unbounded():
    assert safe_horizons([5.0], {}) == [INF]


def test_safe_horizons_drained_neighbor_leaves_echo_bound():
    # A drained neighbor (frontier inf) imposes no neighbor bound, but
    # the echo bound keeps the horizon finite: this partition's own
    # sends could reawaken the neighbor, whose reply needs two hops.
    horizons = safe_horizons([1.0, INF], {(0, 1): 2.0, (1, 0): 2.0})
    assert horizons == [5.0, 3.0]


# ------------------------------------------------- scripted fake hosts
class ScriptHost:
    """A partition that retires scripted jobs and forwards hops.

    ``begin_window`` only stores the window's inputs; ``end_window``
    runs them, as the runtime's in-process replica does.

    Each job is ``(time, hops)``: executing it at ``time`` consumes one
    work token; if ``hops`` remain it exports a follow-on job to the
    other partition arriving after the link lookahead (plus a strictly
    positive serialization delta, as the real fabric guarantees).
    """

    def __init__(self, pid, rank, peer_rank, jobs, la, delta=0.25):
        self.pid = pid
        self.rank = rank
        self.peer_rank = peer_rank
        self.jobs = list(jobs)
        self.la = la
        self.delta = delta
        self.net = 0
        self.last_delta = 0.0
        self.exports = []
        self.executed = []  # (window_index, time)
        self.window = -1
        self.step_calls = 0
        self.trace = []  # ("begin" | "end", pid) protocol calls
        self.env = Environment()
        self._seq = 0

    def _schedule(self, when, hops):
        event = Event(self.env)
        event._value = None
        event._ok = True
        event.callbacks.append(
            lambda _ev, t=when, h=hops: self._execute(t, h)
        )
        self.env.schedule_at(event, when)

    def _execute(self, when, hops):
        self.executed.append((self.window, when))
        self.net -= 1
        self.last_delta = when
        if hops > 0:
            arrival = when + self.la + self.delta
            self.net += 1
            self.last_delta = when
            self.exports.append(
                Export(
                    arrival_time=arrival, send_time=when, src=self.rank,
                    dst=self.peer_rank, payload_bytes=8,
                    payload=hops - 1, link_seq=self._seq,
                )
            )
            self._seq += 1

    def start(self):
        for when, hops in self.jobs:
            self.net += 1
            self._schedule(when, hops)
        return len(self.jobs)

    def begin_window(self, horizon, imports):
        self.trace.append(("begin", self.pid))
        self._window = (horizon, list(imports))

    def end_window(self):
        self.trace.append(("end", self.pid))
        horizon, imports = self._window
        self.step_calls += 1
        self.window += 1
        before = len(self.executed)
        for exp in imports:
            self._schedule(exp.arrival_time, exp.payload)
        if horizon > self.env.now:
            self.env.run(until=horizon)
        return WindowReport(
            frontier=self.env.peek(),
            net_tokens=self.net,
            last_delta_time=self.last_delta,
            exports=self.exports_drain(),
            events=len(self.executed) - before,
        )

    def exports_drain(self):
        out, self.exports = self.exports, []
        return out

    def finalize(self, t_done):
        return t_done


def _make_pair(jobs0, jobs1, la=2.0):
    hosts = [
        ScriptHost(0, rank=0, peer_rank=1, jobs=jobs0, la=la),
        ScriptHost(1, rank=1, peer_rank=0, jobs=jobs1, la=la),
    ]
    lookahead = {(0, 1): la, (1, 0): la}
    coord = WindowCoordinator(hosts, lookahead)
    coord.set_rank_owners([[0], [1]])
    return hosts, coord


def test_coordinator_runs_local_jobs_to_quiescence():
    hosts, coord = _make_pair([(1.0, 0), (4.0, 0)], [(2.0, 0)])
    t_done = coord.run()
    assert t_done == 4.0
    assert [t for _, t in hosts[0].executed] == [1.0, 4.0]
    assert [t for _, t in hosts[1].executed] == [2.0]
    assert coord.stats.total_events == 3
    assert coord.stats.total_exports == 0


def test_coordinator_routes_cross_partition_hops():
    # One job ping-pongs 0 -> 1 -> 0; termination waits for the tail.
    hosts, coord = _make_pair([(1.0, 2)], [])
    t_done = coord.run()
    assert len(hosts[0].executed) == 2
    assert len(hosts[1].executed) == 1
    assert coord.stats.total_exports == 2
    assert t_done == pytest.approx(1.0 + 2 * 2.25)


def test_coordinator_requires_seed_work():
    hosts, coord = _make_pair([], [])
    with pytest.raises(SimulationError):
        coord.run()


def test_coordinator_rejects_duplicate_rank_owner():
    hosts, coord = _make_pair([(1.0, 0)], [])
    with pytest.raises(ValueError):
        coord.set_rank_owners([[0], [0]])


def test_coordinator_negative_global_balance_raises():
    hosts, coord = _make_pair([(1.0, 0)], [])
    hosts[0].net = -1  # simulate a double-retire

    original = hosts[0].end_window

    def corrupting():
        report = original()
        report.net_tokens = -1
        return report

    hosts[0].end_window = corrupting
    with pytest.raises(SimulationError):
        coord.run()


def test_coordinator_skips_provably_inert_partitions():
    # Partition 1's only job is far in the future; once windows are
    # rolling, the coordinator must synthesize its idle reports rather
    # than paying a host call (pooled: an IPC roundtrip) per window.
    hosts, coord = _make_pair(
        [(1.0, 0), (2.0, 0), (3.0, 0)], [(100.0, 0)], la=0.5
    )
    coord.run()
    assert hosts[1].step_calls < coord.stats.windows
    assert coord.stats.idle_partition_windows > 0
    # Correctness: the far job still ran, exactly once, at its time.
    assert [t for _, t in hosts[1].executed] == [100.0]


def test_skipped_partition_still_receives_imports():
    # A hop lands on a partition that was being skipped: the pending
    # import must force it back into the stepped set.
    hosts, coord = _make_pair([(1.0, 1)], [(50.0, 0)], la=0.5)
    coord.run()
    times1 = sorted(t for _, t in hosts[1].executed)
    assert times1 == [1.75, 50.0]


def test_window_protocol_fans_out_before_gathering():
    hosts = [
        ScriptHost(0, rank=0, peer_rank=1, jobs=[(1.0, 1)], la=2.0),
        ScriptHost(1, rank=1, peer_rank=0, jobs=[(2.0, 0)], la=2.0),
    ]
    trace = hosts[0].trace = hosts[1].trace = []
    coord = WindowCoordinator(hosts, {(0, 1): 2.0, (1, 0): 2.0})
    coord.set_rank_owners([[0], [1]])
    coord.run()
    # Within any window, every begin precedes every end: the trace is
    # a run of begins, then a run of ends for the same partitions,
    # window after window.
    assert trace, "the window protocol was never used"
    windows = []
    for kind, pid in trace:
        if kind == "begin" and (not windows or windows[-1][1]):
            windows.append(([], []))
        windows[-1][0 if kind == "begin" else 1].append(pid)
    for begins, ends in windows:
        assert begins == ends


# ------------------------------------------------- the safety property
@settings(max_examples=60, deadline=None)
@given(
    jobs0=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=40.0),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=6,
    ),
    jobs1=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=40.0),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=6,
    ),
    la=st.floats(min_value=0.125, max_value=8.0),
)
def test_no_event_executes_past_its_horizon(jobs0, jobs1, la):
    """The conservative contract, pinned over real Environments.

    Every executed event's time must be <= the executing partition's
    safe horizon for the window it ran in, executed times per
    partition never retreat, and every job (including every forwarded
    hop) retires exactly once.
    """
    if not jobs0 and not jobs1:
        jobs0 = [(1.0, 0)]
    hosts, coord = _make_pair(jobs0, jobs1, la=la)
    checks = []  # (partition, window, time, horizon)
    marks = [0, 0]

    def on_window(w, horizons, reports):
        for p, host in enumerate(hosts):
            for _, when in host.executed[marks[p]:]:
                checks.append((p, w, when, horizons[p]))
            marks[p] = len(host.executed)

    coord.on_window = on_window
    t_done = coord.run()

    expected = sum(1 + hops for _, hops in jobs0 + jobs1)
    executed = sum(len(h.executed) for h in hosts)
    assert executed == expected

    for p, window, when, horizon in checks:
        assert when <= horizon, (
            f"partition {p} executed t={when} past horizon "
            f"{horizon} in window {window}"
        )
    for p, host in enumerate(hosts):
        times = [t for _, t in host.executed]
        assert times == sorted(times)  # time sweeps forward
    all_times = [t for h in hosts for _, t in h.executed]
    assert t_done == pytest.approx(max(all_times))
