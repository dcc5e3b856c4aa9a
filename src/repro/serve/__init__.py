"""The queueing self-model: a job queue replayed on our own DES engine.

A bounded admission queue with weighted priority classes in front of
``c`` worker slots is a queueing system, so the DES engine this
repository reproduces can validate it against queueing theory
(Little's law, M/M/1 latency nonlinearity, priority starvation
bounds).  ``repro serve-validate`` runs the study and
``SERVE_VALIDATION.json`` records it.

Layers, bottom up:

* :mod:`repro.serve.scheduler` — the priority classes and the bounded
  admission queue with smooth weighted round-robin scheduling.
* :mod:`repro.serve.model` — arrival logs and the DES model that pops
  jobs from that scheduler.
* :mod:`repro.serve.validate` / :mod:`repro.serve.study` — the
  queueing-theory checks and the study that runs them.
"""
