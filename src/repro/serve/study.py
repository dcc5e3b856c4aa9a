"""The queueing self-validation study behind ``repro serve-validate``.

Generate seeded M/M/1 arrival logs at several utilization levels,
replay them through :class:`~repro.serve.model.ServiceModel`, and
check Little's law at every level, the M/M/1 latency blow-up across
levels, and the priority starvation bound under an overload mix.
This produces ``SERVE_VALIDATION.json`` and the table committed in
EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.serve.model import ServiceModel, poisson_log
from repro.serve.scheduler import PRIORITY_CLASSES
from repro.serve.validate import (
    CheckResult,
    littles_law_check,
    mm1_trend_check,
    starvation_check,
)

__all__ = [
    "run_serve_study",
    "render_study",
    "write_study",
    "STUDY_SCHEMA",
]

STUDY_SCHEMA = "repro-serve-study/1"

#: Offered utilization levels for the M/M/1 sweep.  Three spread
#: levels plus one near saturation: the blow-up must be visible, not
#: inferred.  The levels are kept well separated — with finite
#: horizons, achieved utilizations at adjacent targets can invert.
UTILIZATIONS = (0.5, 0.7, 0.85, 0.95)

#: Nominal mean service demand (model seconds) for synthetic logs.
MEAN_SERVICE_S = 1.0


def run_serve_study(
    seed: int = 0, quick: bool = False, duration_s: Optional[float] = None
) -> dict[str, Any]:
    """The full self-validation study as a JSON-safe document."""
    levels = UTILIZATIONS[:3] if quick else UTILIZATIONS
    if duration_s is None:
        duration_s = 1500.0 if quick else 6000.0
    rows = []
    points = []
    all_ok = True
    for i, rho in enumerate(levels):
        # Near saturation the latency estimator mixes on a timescale
        # ~ (1-rho)^-2, so stretch the horizon accordingly — a flat
        # horizon would bias W low at the top level and can even
        # break monotonicity between close levels.
        level_duration = duration_s * max(1.0, (0.3 / (1.0 - rho)) ** 2)
        log = poisson_log(
            rate=rho / MEAN_SERVICE_S,
            mean_service_s=MEAN_SERVICE_S,
            duration_s=level_duration,
            seed=seed + i,
        )
        run = ServiceModel(workers=1, max_queue=1_000_000).simulate(log)
        little = littles_law_check(run)
        all_ok = all_ok and little.ok
        points.append((run.utilization, run.mean_latency_s()))
        rows.append(
            {
                "rho_offered": rho,
                "rho_measured": run.utilization,
                "duration_s": level_duration,
                "jobs": len(log),
                "W_measured_s": run.mean_latency_s(),
                "L_sampled": run.time_avg_in_system,
                "lambda_W": little.detail["lambda_W"],
                "littles_rel_err": little.detail["rel_err"],
                "littles_ok": little.ok,
            }
        )
    trend = mm1_trend_check(points, MEAN_SERVICE_S)
    all_ok = all_ok and trend.ok

    # Priority starvation under sustained overload: interactive+batch
    # flood a two-worker fleet (offered rho 1.2) while bulk asks for
    # well under its guaranteed 1/12 share — weighted RR must keep
    # serving it.
    overload = poisson_log(
        rate=2.4 / MEAN_SERVICE_S,
        mean_service_s=MEAN_SERVICE_S,
        duration_s=(duration_s / 10.0),
        seed=seed + 100,
        priority_mix={"interactive": 0.35, "batch": 0.61, "bulk": 0.04},
    )
    prio_run = ServiceModel(workers=2, max_queue=1_000_000).simulate(overload)
    starvation = starvation_check(
        prio_run.rates_by_class(),
        prio_run.waits_by_class(),
        prio_run.mean_service_s,
        workers=2,
        weights=PRIORITY_CLASSES,
    )
    prio_little = littles_law_check(prio_run)
    all_ok = all_ok and starvation.ok and prio_little.ok

    return {
        "schema": STUDY_SCHEMA,
        "seed": seed,
        "quick": quick,
        "duration_s": duration_s,
        "mean_service_s": MEAN_SERVICE_S,
        "mm1_rows": rows,
        "mm1_trend": _check_json(trend),
        "priority": {
            "waits_by_class": prio_run.waits_by_class(),
            "rates_by_class": prio_run.rates_by_class(),
            "littles": _check_json(prio_little),
            "starvation": _check_json(starvation),
        },
        "ok": all_ok,
    }


def _check_json(check: CheckResult) -> dict[str, Any]:
    return {
        "name": check.name,
        "ok": check.ok,
        "summary": check.summary,
        "detail": check.detail,
    }


def render_study(doc: dict[str, Any]) -> str:
    """The human/EXPERIMENTS rendering of a study document."""
    lines = [
        "queueing self-validation: a weighted-priority job queue "
        "replayed on our own DES engine",
        f"(M/M/1, mean service {doc['mean_service_s']:.1f} s, "
        f"{doc['duration_s']:.0f} s base horizon stretched "
        f"~(1-rho)^-2 near saturation, seed {doc['seed']})",
        "",
        f"{'rho':>6}{'jobs':>7}{'W meas (s)':>12}{'W theory':>10}"
        f"{'L sampled':>11}{'lambda*W':>10}{'LL err':>8}  {'ok':<3}",
    ]
    theory = doc["mm1_trend"]["detail"]["W_theory"]
    for row, w_th in zip(doc["mm1_rows"], theory):
        lines.append(
            f"{row['rho_measured']:>6.3f}{row['jobs']:>7}"
            f"{row['W_measured_s']:>12.3f}{w_th:>10.3f}"
            f"{row['L_sampled']:>11.3f}{row['lambda_W']:>10.3f}"
            f"{row['littles_rel_err'] * 100:>7.2f}%"
            f"  {'yes' if row['littles_ok'] else 'NO'}"
        )
    lines.append("")
    lines.append(f"M/M/1 nonlinearity: {doc['mm1_trend']['summary']} -> "
                 f"{'ok' if doc['mm1_trend']['ok'] else 'FAILED'}")
    prio = doc["priority"]
    lines.append("")
    lines.append(
        "priority overload (2 workers, offered rho 1.2, weights "
        + "/".join(f"{p}={w}" for p, w in sorted(
            PRIORITY_CLASSES.items(), key=lambda kv: -kv[1]
        ))
        + "):"
    )
    for priority in sorted(
        prio["waits_by_class"], key=lambda p: -PRIORITY_CLASSES.get(p, 0)
    ):
        lines.append(
            f"  {priority:<12} rate {prio['rates_by_class'][priority]:>7.3f}/s"
            f"  mean wait {prio['waits_by_class'][priority]:>9.3f} s"
        )
    lines.append(f"  Little's law: {prio['littles']['summary']} -> "
                 f"{'ok' if prio['littles']['ok'] else 'FAILED'}")
    lines.append(f"  starvation:   {prio['starvation']['summary']} -> "
                 f"{'ok' if prio['starvation']['ok'] else 'FAILED'}")
    lines.append("")
    lines.append(f"overall: {'PASS' if doc['ok'] else 'FAIL'}")
    return "\n".join(lines)


def write_study(doc: dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
