"""Differential harness: heap vs calendar must be indistinguishable.

The calendar queue is only allowed to exist because nothing observable
changes when it is switched on.  This suite pins that at three levels:

* **queue level** — identical operation sequences (pushes, pops, cohort
  pops, peeks) applied to both variants produce identical results, both
  for seeded ``random`` fuzz (the failing seed is in the assertion
  message for replay) and under Hypothesis;
* **engine level** — bit-identical golden trace digests heap-vs-calendar
  for seeded BFS and PageRank runs, and across fault plans (none, inert,
  message chaos, fail-stop crash + recovery), each equal to a recorded
  digest;
* **end to end** — identical :meth:`RunResult.digest` for an evaluation
  cell (a real dataset) run through the harness on each queue;
* **grid level** — the fault grid's inertness guarantees (zero-fault
  plans trace-identical to no plan; crash-free runs recovery-inert;
  idle window checkpoints digest-inert) hold under
  ``REPRO_ENGINE_QUEUE=calendar`` too.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import daisy
from repro.faults import CrashEvent, FaultPlan
from repro.graph import bfs_grow_partition, largest_component_vertex, rmat
from repro.apps import AtosBFS, AtosPageRank
from repro.harness import clear_memory_cache, run
from repro.harness.chaos import ChaosSpec, trace_digest_for, verify_inert
from repro.recovery import RecoveryPolicy
from repro.runtime import AtosConfig, AtosExecutor
from repro.sim.equeue import ENGINE_QUEUE_ENV, CalendarQueue, HeapQueue

from tests.sim.test_golden_traces import TraceDigest, _bfs_app, _pagerank_app


# ------------------------------------------------------ queue-level fuzz
def _drive(queue, ops):
    """Apply one op sequence; return the observable transcript."""
    out = []
    for op in ops:
        kind = op[0]
        if kind == "push":
            queue.push(op[1])
            out.append(("len", len(queue)))
        elif kind == "pop":
            out.append(("pop", queue.pop()) if queue else ("empty",))
        elif kind == "cohort":
            out.append(
                ("cohort", tuple(queue.pop_cohort()))
                if queue
                else ("empty",)
            )
        elif kind == "peek":
            out.append(("peek", queue.peek()))
    while queue:
        out.append(("drain", queue.pop()))
    return out


def _fuzz_ops(rng, n_ops):
    """A random op sequence with collisions and pushes behind the head."""
    ops = []
    pending = []  # entries believed still queued (approximate is fine)
    seq = 0
    times = [0.0, 1.0, 1.0, 2.5, 4.0, 7.25, 100.0]
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.6 or not pending:
            # Push: mostly pool times (cohorts), sometimes free-range;
            # either may land before entries already popped.
            t = (
                rng.choice(times)
                if rng.random() < 0.7
                else rng.uniform(0.0, 1000.0)
            )
            entry = (t, rng.choice((0, 1)), seq, f"e{seq}")
            seq += 1
            pending.append(entry)
            ops.append(("push", entry))
        elif roll < 0.8:
            ops.append(("pop",))
            pending.sort()
            if pending:
                pending.pop(0)
        elif roll < 0.95:
            ops.append(("cohort",))
            pending.sort()
            if pending:
                key = pending[0][:2]
                pending = [e for e in pending if e[:2] != key]
        else:
            ops.append(("peek",))
    return ops


@pytest.mark.parametrize("seed", range(25))
def test_differential_fuzz_heap_vs_calendar(seed):
    ops = _fuzz_ops(random.Random(seed), 300)
    heap = _drive(HeapQueue(), ops)
    calendar = _drive(CalendarQueue(), ops)
    assert heap == calendar, (
        f"heap/calendar diverged at seed={seed} "
        f"(replay: _fuzz_ops(random.Random({seed}), 300))"
    )


@given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(1, 400))
@settings(max_examples=50, deadline=None)
def test_differential_fuzz_hypothesis(seed, n_ops):
    ops = _fuzz_ops(random.Random(seed), n_ops)
    assert _drive(HeapQueue(), ops) == _drive(CalendarQueue(), ops), (
        f"heap/calendar diverged at seed={seed}, n_ops={n_ops}"
    )


# --------------------------------------------------- engine-level golden
def _traced(app_factory, config, queue):
    executor = AtosExecutor(daisy(2), app_factory(), config)
    assert executor.env.engine_queue == queue  # env var actually applied
    digest = TraceDigest()
    executor.env.trace_hook = digest
    makespan, counters = executor.run()
    return digest.hexdigest(), digest.n_events, makespan, dict(counters)


APPS = [
    pytest.param(_bfs_app, AtosConfig(fetch_size=1), id="bfs"),
    pytest.param(_pagerank_app, AtosConfig(), id="pagerank"),
]


@pytest.mark.parametrize("app_factory,config", APPS)
def test_golden_digest_identical_heap_vs_calendar(
    app_factory, config, monkeypatch
):
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "heap")
    heap = _traced(app_factory, config, "heap")
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "calendar")
    calendar = _traced(app_factory, config, "calendar")
    assert heap[1] > 0
    assert heap == calendar


#: Evaluation cells (framework, app, dataset, machine, GPUs) that must
#: digest identically on both queues through the full harness path.
EVALUATION_CELLS = [
    ("atos-standard-persistent", "bfs", "road-usa", "summit-ib", 4),
]


@pytest.mark.parametrize(
    "cell", EVALUATION_CELLS, ids=lambda c: "/".join(map(str, c[1:]))
)
def test_evaluation_cell_digest_identical_heap_vs_calendar(cell, monkeypatch):
    # Cache off and memo cleared: neither key includes the queue, so a
    # hit would equalize the digests being compared.
    monkeypatch.setenv("REPRO_CACHE", "0")
    digests = {}
    for queue in ("heap", "calendar"):
        monkeypatch.setenv(ENGINE_QUEUE_ENV, queue)
        clear_memory_cache()
        digests[queue] = run(*cell).digest()
    clear_memory_cache()
    assert digests["heap"] == digests["calendar"]


_NO_FAULTS_DIGEST = (
    "fed0dcca84cf90ca5b12a272b7dcbb584edffb6190f091caf113573512ede03b"
)

#: Fault plans the engine digest must survive identically: none, an
#: inert plan, live message chaos, and a fail-stop crash with recovery.
#: Each carries the event-trace digest recorded for it when the
#: reference and cohort-batched event loops still ran side by side.
FAULT_CELLS = [
    pytest.param(None, None, _NO_FAULTS_DIGEST, id="no-plan"),
    pytest.param(FaultPlan(seed=9), None, _NO_FAULTS_DIGEST,
                 id="inert-plan"),
    pytest.param(
        FaultPlan(seed=0, drop_rate=0.1, duplicate_rate=0.05,
                  delay_rate=0.1),
        None,
        "cb59fdf52191389370d76d4d6e32e337d2a709c80560649cac00b79c32583072",
        id="message-chaos",
    ),
    pytest.param(
        FaultPlan(seed=0, crashes=(CrashEvent(pe=1, at=15.0),)),
        RecoveryPolicy(),
        "01ef00ed453929a69f0d644a3d13140fd117c6cd47d744a23d88039536705eea",
        id="crash-recovery",
    ),
]


@pytest.mark.parametrize("faults,recovery,recorded", FAULT_CELLS)
def test_fault_plan_digests_identical_heap_vs_calendar(
    faults, recovery, recorded, monkeypatch
):
    spec = ChaosSpec(app="bfs", variant="standard-persistent",
                     faults=faults, seed=0)
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "heap")
    heap = trace_digest_for(spec, recovery)
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "calendar")
    calendar = trace_digest_for(spec, recovery)
    assert heap == calendar
    assert heap[0] == recorded


# ------------------------------------------------- grid-level inertness
def test_chaos_inertness_holds_under_calendar(monkeypatch):
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "calendar")
    assert verify_inert(seed=0, apps=("bfs",))


def test_recovery_inertness_holds_under_calendar(monkeypatch):
    monkeypatch.setenv(ENGINE_QUEUE_ENV, "calendar")
    spec = ChaosSpec(app="bfs", seed=0)
    assert trace_digest_for(spec) == trace_digest_for(
        spec, recovery=RecoveryPolicy()
    )
