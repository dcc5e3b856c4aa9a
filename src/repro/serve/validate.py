"""Queueing-theory validators for the queueing self-model.

Three invariants a correct queue (and a faithful model of it) must
exhibit:

* **Little's law** — the time-average number of jobs in the system
  equals arrival rate times mean time in system, ``L = lambda * W``.
  Checked non-circularly: ``L`` comes from sampled occupancy, ``W``
  and ``lambda`` from per-job records.
* **M/M/1 latency nonlinearity** — with one worker and Markovian
  traffic, mean time in system is ``W = s / (1 - rho)``: latency must
  blow up hyperbolically (monotone *and* convex) as utilization
  approaches 1.  A model whose measured latencies stay linear in
  load is not telling the truth about its queue.
* **Bounded priority starvation** — smooth weighted round-robin
  guarantees a class with weight ``w`` at least ``w / sum(weights)``
  of the pops, so no class's mean wait may exceed the weighted-fair
  bound by more than a slack factor.  Strict priority (what the
  scheduler deliberately is not) violates this under overload.

Each check returns a :class:`CheckResult` carrying the measured
numbers, so the study harness can print them as the EXPERIMENTS table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.serve.model import ModelRun

__all__ = [
    "CheckResult",
    "littles_law_check",
    "mm1_theory_latency",
    "mm1_trend_check",
    "starvation_check",
]


@dataclass
class CheckResult:
    """Outcome of one queueing-theory check."""

    name: str
    ok: bool
    summary: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def littles_law_check(run: ModelRun, tol: float = 0.05) -> CheckResult:
    """``L = lambda * W`` within ``tol`` relative error.

    Sample-path Little's law holds exactly for a system observed from
    empty to empty; the residual here is sampling granularity plus
    edge effects, so a healthy trajectory lands well inside 5%.
    """
    lam = run.admitted_rate
    w = run.mean_latency_s()
    l_sampled = run.time_avg_in_system
    predicted = lam * w
    rel_err = abs(l_sampled - predicted) / max(predicted, 1e-12)
    ok = rel_err <= tol and run.completed()
    return CheckResult(
        name="littles_law",
        ok=bool(ok),
        summary=(
            f"L={l_sampled:.4f} vs lambda*W={predicted:.4f} "
            f"(rel err {rel_err * 100:.2f}%, tol {tol * 100:.0f}%)"
        ),
        detail={
            "L_sampled": l_sampled,
            "lambda": lam,
            "W_s": w,
            "lambda_W": predicted,
            "rel_err": rel_err,
            "tol": tol,
        },
    )


def mm1_theory_latency(rho: float, mean_service_s: float) -> float:
    """M/M/1 mean time in system: ``W = s / (1 - rho)``."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    return mean_service_s / (1.0 - rho)


def mm1_trend_check(
    points: list[tuple[float, float]],
    mean_service_s: float,
    theory_band: float = 0.25,
) -> CheckResult:
    """Measured ``(rho, W)`` points must reproduce the M/M/1 blow-up.

    Three properties over >= 3 utilization levels:

    1. monotone — ``W`` strictly increases with ``rho``;
    2. convex — successive slopes increase (the blow-up accelerates);
    3. hyperbolic — each point within ``theory_band`` relative error
       of ``s / (1 - rho)``.

    The band is deliberately wider than the Little's-law tolerance:
    finite logs of an M/M/1 queue near saturation have slow-mixing
    latency estimates (the variance of W grows like ``(1-rho)^-4``).
    """
    if len(points) < 3:
        raise ValueError("need >= 3 (rho, W) points")
    points = sorted(points)
    rhos = [p[0] for p in points]
    waits = [p[1] for p in points]
    monotone = all(b > a for a, b in zip(waits, waits[1:]))
    slopes = [
        (w2 - w1) / (r2 - r1)
        for (r1, w1), (r2, w2) in zip(points, points[1:])
    ]
    convex = all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))
    theory = [mm1_theory_latency(rho, mean_service_s) for rho in rhos]
    errs = [
        abs(w - t) / max(t, 1e-12) for w, t in zip(waits, theory)
    ]
    in_band = all(err <= theory_band for err in errs)
    ok = monotone and convex and in_band
    return CheckResult(
        name="mm1_nonlinearity",
        ok=ok,
        summary=(
            f"{len(points)} utilization levels: "
            f"monotone={monotone}, convex={convex}, "
            f"max theory err {max(errs) * 100:.1f}% "
            f"(band {theory_band * 100:.0f}%)"
        ),
        detail={
            "rho": rhos,
            "W_measured": waits,
            "W_theory": theory,
            "rel_err": errs,
            "monotone": monotone,
            "convex": convex,
            "theory_band": theory_band,
        },
    )


def starvation_check(
    class_rates: dict[str, float],
    class_waits: dict[str, float],
    mean_service_s: float,
    workers: int,
    weights: dict[str, int],
    slack: float = 4.0,
    safe_level: float = 0.85,
) -> CheckResult:
    """Classes within their guaranteed capacity share must not starve.

    Smooth weighted RR guarantees a class with weight ``w`` at least
    ``w / total`` of the fleet's pops while it is backlogged — i.e. a
    private service rate of ``c * w / total`` jobs per mean service
    time.  A class whose own offered load fits inside that share
    (``rho_g = lambda_i * s / (c * w_i / total) <= safe_level``) is
    *protected*: its mean wait must stay within ``slack`` times the
    M/M/1 wait at its guaranteed rate, ``s / (1 - rho_g)``, no matter
    how overloaded the *other* classes make the system.

    Strict priority makes no such promise — a flood of high-priority
    work starves a low class even when that class asks for almost
    nothing — and that is exactly the violation this check exists to
    catch.  Classes offering more than their share are exempt: an
    unbounded backlog is then the correct behaviour of *any* fair
    discipline, not starvation.
    """
    present = sorted(set(class_rates) & set(class_waits) & set(weights))
    if len(present) < 2:
        raise ValueError("need rates and waits for >= 2 priority classes")
    total_weight = sum(weights[p] for p in present)
    workers = max(1, workers)
    protected = {}
    violations = {}
    for priority in present:
        share = workers * weights[priority] / total_weight
        rho_g = class_rates[priority] * mean_service_s / share
        if rho_g > safe_level:
            continue  # over its guarantee: no bound promised
        bound = slack * mean_service_s / (1.0 - rho_g)
        protected[priority] = {
            "rho_guaranteed": rho_g,
            "wait_s": class_waits[priority],
            "bound_s": bound,
        }
        if class_waits[priority] > bound:
            violations[priority] = protected[priority]
    if not protected:
        return CheckResult(
            name="priority_starvation",
            ok=True,
            summary="no class within its guaranteed share; bound vacuous",
            detail={"protected": {}, "violations": {}},
        )
    ok = not violations
    worst = max(
        protected, key=lambda p: protected[p]["wait_s"] / protected[p]["bound_s"]
    )
    frac = protected[worst]["wait_s"] / protected[worst]["bound_s"]
    return CheckResult(
        name="priority_starvation",
        ok=ok,
        summary=(
            f"{len(protected)} protected class(es); worst {worst!r} at "
            f"{frac * 100:.0f}% of its starvation bound"
            + ("" if ok else f"; VIOLATED by {sorted(violations)}")
        ),
        detail={
            "protected": protected,
            "violations": violations,
            "slack": slack,
            "safe_level": safe_level,
        },
    )
