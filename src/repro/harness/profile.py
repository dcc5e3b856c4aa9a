"""The profiling workflow behind ``python -m repro profile``.

Runs one evaluation cell with span tracing enabled and assembles the
full observability picture: the per-rank utilization report, the
load-imbalance statistics, the critical-path attribution, and (on
request) the Chrome/Perfetto trace JSON.

Profiled runs always simulate fresh — the run cache is bypassed in
both directions, because a cached result has no spans and a traced
result's spans are per-run observation that must not leak into cached
replays.  Tracing itself is observation-only, so the profiled cell's
digest matches the untraced cell's except for the ``telemetry_*``
bookkeeping counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.metrics.counters import RunResult
from repro.telemetry.critical_path import CriticalPath, critical_path
from repro.telemetry.export import write_trace
from repro.telemetry.report import ProfileReport, build_report
from repro.telemetry.spans import TELEMETRY_ENV

__all__ = ["ProfileResult", "run_profile"]


@dataclass
class ProfileResult:
    """One profiled cell: the run plus everything derived from its spans."""

    result: RunResult
    report: ProfileReport
    path: CriticalPath
    #: Where the Perfetto JSON landed (None when no export was asked).
    trace_path: Optional[str] = None
    #: Events written to ``trace_path`` (0 when no export).
    trace_events: int = 0

    @property
    def makespan_us(self) -> float:
        """The profiled run's simulated makespan in microseconds."""
        return self.result.time_ms * 1000.0

    def render(self, top_k: int = 10) -> str:
        """The full profile block ``python -m repro profile`` prints."""
        res = self.result
        meta = getattr(res.telemetry, "meta", None) or {}
        engine = meta.get("engine_queue", "")
        lines = [
            f"profile: {res.framework} / {res.app} / {res.dataset} "
            f"on {res.n_gpus} GPU(s) — {res.time_ms:.3f} ms simulated"
            + (f" (engine queue: {engine})" if engine else ""),
            "",
            self.report.render(),
            "",
            self.path.render(top_k),
        ]
        if self.trace_path is not None:
            lines.append("")
            lines.append(
                f"wrote {self.trace_events} trace events to "
                f"{self.trace_path} (load in ui.perfetto.dev or "
                "chrome://tracing)"
            )
        return "\n".join(lines)


def run_profile(
    framework: str,
    app: str,
    dataset: str,
    machine_name: str,
    n_gpus: int,
    seed: int = 0,
    export: Optional[str] = None,
    validate: bool = True,
) -> ProfileResult:
    """Simulate one cell with tracing on and build its profile.

    Only executor-based frameworks (the atos variants and groute) can
    trace; the BSP/bulk-async baselines raise a configuration error.
    """
    # Imported here, not at module top: the runner imports the full
    # driver stack, which profile-only users shouldn't pay for.
    from repro.harness.runner import _compute, get_machine, pinned_env

    machine = get_machine(machine_name, n_gpus)
    with pinned_env(TELEMETRY_ENV, "1"):
        result = _compute(
            framework, app, dataset, n_gpus, validate, machine, seed=seed
        )
    if result.telemetry is None:
        raise ConfigurationError(
            f"framework {framework!r} does not support span tracing "
            "(only the executor-based frameworks do: atos-* and groute)"
        )
    makespan = result.time_ms * 1000.0
    knobs = _knobs_for(framework, app)
    profile = ProfileResult(
        result=result,
        report=build_report(result.telemetry, makespan, knobs=knobs),
        path=critical_path(result.telemetry, makespan),
    )
    if export is not None:
        profile.trace_events = write_trace(
            result.telemetry, makespan, export
        )
        profile.trace_path = export
    return profile


def _knobs_for(framework: str, app: str) -> dict[str, float]:
    """The aggregator knob values an atos-family cell runs with."""
    from repro.config import DEFAULT_BATCH_SIZE, wait_time_for

    return {
        "batch_size": float(DEFAULT_BATCH_SIZE),
        "wait_time": float(wait_time_for(app)),
    }
