"""The serving layer as a DES workload on our own engine.

``repro serve`` is a queueing system: Poisson-ish arrivals, a bounded
admission queue, weighted priority scheduling, ``c`` worker slots.
This module mirrors that configuration as a discrete-event simulation
on :class:`repro.sim.core.Environment` — the same engine the paper
reproduction runs on — so the service can be validated by the very
simulator it serves.

Fidelity comes from sharing, not re-implementing: the model pops jobs
from the *same* :class:`repro.serve.scheduler.WeightedScheduler` class
the live service uses, with the same admission bound and worker count.
The only substitution is time itself — a job's measured (or synthetic)
service demand becomes a simulated ``timeout`` instead of a worker
process executing a cell.

Time unit note: the engine's clock is unit-agnostic; this model runs
it in **seconds** (service-layer latencies), not the microseconds the
GPU simulations use.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.serve.protocol import DEFAULT_PRIORITY, PRIORITY_CLASSES
from repro.serve.scheduler import WeightedScheduler
from repro.serve.stats import ServiceStats
from repro.sim.core import Environment

__all__ = [
    "Arrival",
    "ArrivalLog",
    "JobOutcome",
    "ModelRun",
    "ServiceModel",
    "poisson_log",
]


@dataclass(frozen=True)
class Arrival:
    """One offered job: when it shows up and how long it wants."""

    t: float
    priority: str
    service_s: float


@dataclass
class ArrivalLog:
    """A replayable arrival sequence (recorded or synthetic)."""

    arrivals: list[Arrival]
    #: Nominal recording horizon in seconds (>= last arrival time).
    duration: float

    def __post_init__(self) -> None:
        self.arrivals = sorted(self.arrivals, key=lambda a: a.t)
        if self.arrivals:
            self.duration = max(self.duration, self.arrivals[-1].t)

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def offered_rate(self) -> float:
        """Arrivals per second over the recording horizon (lambda)."""
        return len(self.arrivals) / self.duration if self.duration else 0.0

    @property
    def mean_service_s(self) -> float:
        if not self.arrivals:
            return 0.0
        return sum(a.service_s for a in self.arrivals) / len(self.arrivals)

    @classmethod
    def from_stats(cls, stats: ServiceStats) -> "ArrivalLog":
        """Reconstruct the offered traffic from a service stats file.

        Rejected arrivals carry no measured service time (they never
        ran), so they replay with their priority class's mean demand —
        the model decides for itself whether *it* would have rejected
        them.
        """
        class_mean = {
            p: (h.mean if h.n else 0.0)
            for p, h in stats.service_time.items()
        }
        overall = stats.mean_service_s()
        arrivals = []
        horizon = 0.0
        for record in stats.arrivals:
            service = record.service_s
            if service <= 0.0:
                service = class_mean.get(record.priority) or overall
            arrivals.append(Arrival(record.t_arrive, record.priority, service))
            horizon = max(
                horizon, record.t_arrive, record.t_done or 0.0
            )
        return cls(arrivals, duration=horizon)


def poisson_log(
    rate: float,
    mean_service_s: float,
    duration_s: float,
    seed: int = 0,
    priority_mix: Optional[dict[str, float]] = None,
) -> ArrivalLog:
    """A synthetic M/M arrival log: Poisson arrivals, exp services.

    ``priority_mix`` maps priority class to its traffic fraction
    (default: everything ``batch``).  Seeded, so every log is
    replayable — the validators quote their seeds.
    """
    if rate <= 0 or mean_service_s <= 0 or duration_s <= 0:
        raise ValueError("rate, mean_service_s, duration_s must be positive")
    mix = priority_mix or {DEFAULT_PRIORITY: 1.0}
    unknown = set(mix) - set(PRIORITY_CLASSES)
    if unknown:
        raise ValueError(f"unknown priorities in mix: {sorted(unknown)}")
    total = sum(mix.values())
    classes = sorted(mix)
    thresholds = []
    acc = 0.0
    for name in classes:
        acc += mix[name] / total
        thresholds.append((acc, name))
    rng = random.Random(seed)
    arrivals = []
    t = rng.expovariate(rate)
    while t < duration_s:
        u = rng.random()
        priority = next(name for bound, name in thresholds if u <= bound)
        arrivals.append(
            Arrival(t, priority, rng.expovariate(1.0 / mean_service_s))
        )
        t += rng.expovariate(rate)
    return ArrivalLog(arrivals, duration=duration_s)


@dataclass
class JobOutcome:
    """One arrival's fate in the simulated service."""

    t_arrive: float
    priority: str
    service_s: float
    rejected: bool = False
    t_start: Optional[float] = None
    t_done: Optional[float] = None

    @property
    def wait_s(self) -> float:
        return (self.t_start - self.t_arrive) if self.t_start is not None else 0.0

    @property
    def latency_s(self) -> float:
        return (self.t_done - self.t_arrive) if self.t_done is not None else 0.0


@dataclass
class ModelRun:
    """A simulated service trajectory plus its queueing metrics.

    ``occupancy_samples`` is N(t) — jobs in system (queued + in
    service) — polled every ``sample_dt`` like a live monitor would,
    *not* integrated from the records.  That keeps the Little's-law
    check non-circular: L comes from sampling, lambda·W from the
    per-job records, and the identity between them is a property of
    the trajectory, not an accounting tautology.
    """

    workers: int
    jobs: list[JobOutcome]
    occupancy_samples: list[float]
    sample_dt: float
    busy_s: float
    horizon_s: float

    # -- per-job views ----------------------------------------------------
    def completed(self, priority: Optional[str] = None) -> list[JobOutcome]:
        return [
            j
            for j in self.jobs
            if j.t_done is not None
            and (priority is None or j.priority == priority)
        ]

    @property
    def admitted(self) -> int:
        return sum(1 for j in self.jobs if not j.rejected)

    @property
    def rejected(self) -> int:
        return sum(1 for j in self.jobs if j.rejected)

    # -- queueing metrics --------------------------------------------------
    @property
    def admitted_rate(self) -> float:
        """lambda over the horizon, counting only admitted jobs."""
        return self.admitted / self.horizon_s if self.horizon_s else 0.0

    def mean_latency_s(self, priority: Optional[str] = None) -> float:
        done = self.completed(priority)
        return sum(j.latency_s for j in done) / len(done) if done else 0.0

    def mean_wait_s(self, priority: Optional[str] = None) -> float:
        done = self.completed(priority)
        return sum(j.wait_s for j in done) / len(done) if done else 0.0

    def waits_by_class(self) -> dict[str, float]:
        return {
            p: self.mean_wait_s(p)
            for p in PRIORITY_CLASSES
            if self.completed(p)
        }

    def rates_by_class(self) -> dict[str, float]:
        """Admitted arrival rate (jobs/s) per priority class."""
        if not self.horizon_s:
            return {}
        out: dict[str, float] = {}
        for job in self.jobs:
            if not job.rejected:
                out[job.priority] = out.get(job.priority, 0.0) + 1.0
        return {p: n / self.horizon_s for p, n in out.items()}

    @property
    def time_avg_in_system(self) -> float:
        """L — the sampled time-average number of jobs in the system."""
        if not self.occupancy_samples:
            return 0.0
        return sum(self.occupancy_samples) / len(self.occupancy_samples)

    @property
    def utilization(self) -> float:
        """Mean busy fraction of the worker slots (rho for c=1)."""
        if not self.horizon_s:
            return 0.0
        return self.busy_s / (self.workers * self.horizon_s)

    @property
    def mean_service_s(self) -> float:
        done = self.completed()
        if not done:
            return 0.0
        return sum(j.service_s for j in done) / len(done)


class ServiceModel:
    """Mirror of one ``repro serve`` configuration as a DES workload."""

    def __init__(
        self,
        workers: int,
        max_queue: int = 256,
        weights: Optional[dict[str, int]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.max_queue = max_queue
        self.weights = dict(weights or PRIORITY_CLASSES)

    @classmethod
    def from_stats(cls, stats: ServiceStats) -> "ServiceModel":
        """Build the mirror from a stats file's recorded configuration."""
        config = stats.config
        return cls(
            workers=int(config.get("workers", 1)),
            max_queue=int(config.get("max_queue", 256)),
            weights={
                str(k): int(v)
                for k, v in config.get("weights", PRIORITY_CLASSES).items()
            },
        )

    def simulate(
        self, log: ArrivalLog, sample_dt: Optional[float] = None
    ) -> ModelRun:
        """Replay ``log`` through the mirrored service; drain fully."""
        env = Environment()
        sched = WeightedScheduler(self.weights, self.max_queue)
        idle: deque[int] = deque(range(self.workers))
        jobs: list[JobOutcome] = []
        samples: list[float] = []
        state = _SimState()
        if sample_dt is None:
            # Aim for ~4k samples over the offered horizon: cheap, and
            # fine-grained enough that sampling error stays well under
            # the 5% Little's-law tolerance.
            sample_dt = max(log.duration / 4096.0, 1e-6)

        def dispatch() -> None:
            while idle and len(sched):
                worker = idle.popleft()
                popped = sched.pop()
                assert popped is not None
                _, job = popped
                job.t_start = env.now
                state.busy_s += job.service_s
                done = env.timeout(job.service_s)
                done.callbacks.append(
                    lambda _ev, job=job, worker=worker: complete(job, worker)
                )

        def complete(job: JobOutcome, worker: int) -> None:
            job.t_done = env.now
            state.in_system -= 1
            state.last_done = env.now
            idle.append(worker)
            dispatch()

        def source():
            last = 0.0
            for arrival in log.arrivals:
                if arrival.t > last:
                    yield env.timeout(arrival.t - last)
                    last = arrival.t
                job = JobOutcome(
                    t_arrive=env.now,
                    priority=arrival.priority,
                    service_s=arrival.service_s,
                )
                jobs.append(job)
                if sched.offer(arrival.priority, job):
                    state.in_system += 1
                    dispatch()
                else:
                    job.rejected = True
            state.source_done = True

        def sampler():
            while not (state.source_done and state.in_system == 0):
                samples.append(float(state.in_system))
                yield env.timeout(sample_dt)

        env.process(source(), name="arrivals")
        env.process(sampler(), name="monitor")
        env.run()
        horizon = max(log.duration, state.last_done)
        return ModelRun(
            workers=self.workers,
            jobs=jobs,
            occupancy_samples=samples,
            sample_dt=sample_dt,
            busy_s=state.busy_s,
            horizon_s=horizon,
        )


@dataclass
class _SimState:
    in_system: int = 0
    busy_s: float = 0.0
    last_done: float = 0.0
    source_done: bool = False
