"""The queueing self-model and its queueing-theory validators.

Each validator is tested both ways: a healthy trajectory passes, and a
deliberately broken one — doctored occupancy, linear latencies, a
strict-priority scheduler — fails.  A validator that cannot fail is
not validating anything.
"""

import json
from pathlib import Path

import pytest

from repro.serve.model import ModelRun, ServiceModel, poisson_log
from repro.serve.scheduler import PRIORITY_CLASSES
from repro.serve.validate import (
    littles_law_check,
    mm1_theory_latency,
    mm1_trend_check,
    starvation_check,
)

#: One mid-load M/M/1 trajectory shared by several tests.
LOG = poisson_log(rate=0.7, mean_service_s=1.0, duration_s=1200.0, seed=3)
RUN = ServiceModel(workers=1, max_queue=10**6).simulate(LOG)


# ------------------------------------------------------------ the model
def test_poisson_log_is_seeded_and_sized():
    again = poisson_log(rate=0.7, mean_service_s=1.0, duration_s=1200.0, seed=3)
    assert again.arrivals == LOG.arrivals
    # ~rate * duration arrivals, within 4 sigma.
    assert abs(len(LOG) - 840) < 4 * 840**0.5
    different = poisson_log(
        rate=0.7, mean_service_s=1.0, duration_s=1200.0, seed=4
    )
    assert different.arrivals != LOG.arrivals


def test_poisson_log_rejects_bad_args():
    with pytest.raises(ValueError):
        poisson_log(rate=0.0, mean_service_s=1.0, duration_s=10.0)
    with pytest.raises(ValueError, match="unknown priorities"):
        poisson_log(
            rate=1.0, mean_service_s=1.0, duration_s=10.0,
            priority_mix={"urgent": 1.0},
        )


def test_model_conserves_jobs():
    assert len(RUN.jobs) == len(LOG)
    assert RUN.rejected == 0  # effectively unbounded queue
    assert len(RUN.completed()) == RUN.admitted
    # Every completed job obeys arrive <= start <= done.
    for job in RUN.completed():
        assert job.t_arrive <= job.t_start <= job.t_done
        assert job.t_done == pytest.approx(job.t_start + job.service_s)


def test_model_utilization_tracks_offered_load():
    assert RUN.utilization == pytest.approx(0.7, abs=0.05)


def test_bounded_queue_rejects_under_overload():
    overload = poisson_log(
        rate=3.0, mean_service_s=1.0, duration_s=300.0, seed=5
    )
    run = ServiceModel(workers=1, max_queue=5).simulate(overload)
    assert run.rejected > 0
    assert run.admitted + run.rejected == len(overload)
    # The bounded queue keeps latency finite: nothing waits longer
    # than the queue could possibly hold.
    for job in run.completed():
        assert job.wait_s < 5 * 60.0


# ------------------------------------------------------- Little's law
def test_littles_law_holds_on_healthy_trajectory():
    check = littles_law_check(RUN)
    assert check.ok
    assert check.detail["rel_err"] < 0.05


def test_littles_law_catches_doctored_occupancy():
    doctored = ModelRun(
        workers=RUN.workers,
        jobs=RUN.jobs,
        occupancy_samples=[2.0 * s for s in RUN.occupancy_samples],
        sample_dt=RUN.sample_dt,
        busy_s=RUN.busy_s,
        horizon_s=RUN.horizon_s,
    )
    assert not littles_law_check(doctored).ok


# -------------------------------------------------- M/M/1 nonlinearity
def test_mm1_theory_latency():
    assert mm1_theory_latency(0.0, 2.0) == 2.0
    assert mm1_theory_latency(0.5, 2.0) == 4.0
    with pytest.raises(ValueError):
        mm1_theory_latency(1.0, 2.0)


def test_mm1_blowup_reproduced_by_model():
    points = []
    for i, rho in enumerate((0.5, 0.7, 0.9)):
        # Long horizon: near saturation the latency estimator mixes
        # slowly (variance ~ (1-rho)^-4), and this test pins the band.
        log = poisson_log(
            rate=rho, mean_service_s=1.0, duration_s=4000.0, seed=10 + i
        )
        run = ServiceModel(workers=1, max_queue=10**6).simulate(log)
        check = littles_law_check(run)
        assert check.ok, check.summary
        points.append((run.utilization, run.mean_latency_s()))
    trend = mm1_trend_check(points, 1.0)
    assert trend.ok, trend.summary


def test_mm1_trend_rejects_linear_latency():
    # A service that hides queueing (reports latency linear in load)
    # fails the convexity/theory-band check.
    linear = [(0.5, 2.0), (0.7, 2.4), (0.9, 2.8)]
    assert not mm1_trend_check(linear, 1.0).ok


def test_mm1_trend_rejects_non_monotone():
    points = [(0.5, 2.0), (0.7, 3.4), (0.9, 3.0)]
    assert not mm1_trend_check(points, 1.0).ok


def test_mm1_trend_needs_three_points():
    with pytest.raises(ValueError):
        mm1_trend_check([(0.5, 2.0), (0.9, 10.0)], 1.0)


# ------------------------------------------------- starvation bounds
#: Sustained overload (rho = 1.2 on 2 workers) where bulk asks for
#: well under its guaranteed 1/12 share.
OVERLOAD = poisson_log(
    rate=2.4,
    mean_service_s=1.0,
    duration_s=500.0,
    seed=100,
    priority_mix={"interactive": 0.35, "batch": 0.61, "bulk": 0.04},
)


def _starvation(weights):
    run = ServiceModel(
        workers=2, max_queue=10**6, weights=weights
    ).simulate(OVERLOAD)
    return starvation_check(
        run.rates_by_class(),
        run.waits_by_class(),
        run.mean_service_s,
        workers=2,
        weights=PRIORITY_CLASSES,  # judge against the nominal contract
    )


def test_weighted_rr_bounds_bulk_wait_under_overload():
    check = _starvation(PRIORITY_CLASSES)
    assert check.ok, check.summary
    assert "bulk" in check.detail["protected"]


def test_strict_priority_violates_the_bound():
    # Near-strict priority: the same traffic, but the scheduler now
    # all-but-ignores bulk while higher classes are backlogged.  The
    # protected-class bound must catch the starvation.
    strict = {"interactive": 10**6, "batch": 10**3, "bulk": 1}
    check = _starvation(strict)
    assert not check.ok
    assert "bulk" in check.detail["violations"]


def test_quick_study_passes_end_to_end():
    # The committed-SERVE_VALIDATION pipeline, quick mode: every
    # validator green, the rendering carries the verdict, and the
    # document round-trips through its own schema fields.
    from repro.serve.study import STUDY_SCHEMA, render_study, run_serve_study

    doc = run_serve_study(seed=0, quick=True)
    assert doc["ok"], render_study(doc)
    assert doc["schema"] == STUDY_SCHEMA
    assert len(doc["mm1_rows"]) == 3
    assert all(row["littles_ok"] for row in doc["mm1_rows"])
    rendered = render_study(doc)
    assert "overall: PASS" in rendered


def test_full_study_matches_committed_document():
    # SERVE_VALIDATION.json is the committed output of
    # `repro serve-validate --out`: the full study must reproduce it
    # exactly, not merely pass its checks again.
    from repro.serve.study import run_serve_study

    committed = Path(__file__).resolve().parents[2] / "SERVE_VALIDATION.json"
    doc = run_serve_study(seed=0, quick=False)
    assert json.loads(json.dumps(doc)) == json.loads(committed.read_text())


def test_starvation_needs_two_classes():
    with pytest.raises(ValueError):
        starvation_check(
            {"batch": 1.0}, {"batch": 0.5}, 1.0, 1, PRIORITY_CLASSES
        )
