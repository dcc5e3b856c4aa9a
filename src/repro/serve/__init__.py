"""Simulation-as-a-service: the ``repro serve`` subsystem.

A long-running asyncio HTTP service that multiplexes many concurrent
run/sweep requests over the harness's fork-per-cell
:class:`~repro.harness.pool.WorkerPool`, plus the
discrete-event model of that very service — the serving layer is a
queueing system, so the DES engine this repository reproduces can
validate its own front door (Little's law, M/M/1 latency nonlinearity,
priority starvation bounds).

Layers, bottom up:

* :mod:`repro.serve.protocol` — priority classes and the JSON codec
  for run specs and job records.
* :mod:`repro.serve.scheduler` — the bounded admission queue with
  smooth weighted round-robin priority scheduling.  **Shared verbatim**
  by the live service and the DES model, so the model cannot drift
  from the implementation it predicts.
* :mod:`repro.serve.stats` — service counters, per-priority latency
  histograms, and the recorded arrival log.
* :mod:`repro.serve.service` — the asyncio HTTP front end: admission,
  single-flight dedup, retry and quarantine, streaming; it polls the
  worker pool from one reaper thread.
* :mod:`repro.serve.client` — the stdlib HTTP client behind
  ``python -m repro submit/status/watch``.
* :mod:`repro.serve.model` / :mod:`repro.serve.validate` /
  :mod:`repro.serve.study` — the self-validation half: replay a
  recorded arrival log through the mirrored DES model and check the
  queueing-theory invariants.
"""

from repro.serve.protocol import (
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    spec_from_json,
    spec_to_json,
)
from repro.serve.scheduler import WeightedScheduler
from repro.serve.stats import Histogram, ServiceStats

__all__ = [
    "DEFAULT_PRIORITY",
    "PRIORITY_CLASSES",
    "Histogram",
    "ServiceStats",
    "WeightedScheduler",
    "spec_from_json",
    "spec_to_json",
]
