"""Atos (SC22) reproduction: PGAS-style dynamic scheduling for
multi-GPU irregular parallelism, built on a discrete-event multi-GPU
simulator.

Public API tour:

* :mod:`repro.sim` — the discrete-event simulation engine.
* :mod:`repro.gpu` — GPU device model (occupancy, workers, atomics).
* :mod:`repro.interconnect` — NVLink / PCIe / InfiniBand models.
* :mod:`repro.queues` — the Atos counter queue and its baselines.
* :mod:`repro.runtime` — the Atos runtime (queues, aggregator, executor;
  remote updates leave through the aggregator as one-sided sends).
* :mod:`repro.apps` — BFS and PageRank applications.
* :mod:`repro.frameworks` — Atos + Gunrock/Groute/Galois-like drivers.
* :mod:`repro.graph` — CSR graphs, generators, datasets, partitioners.
* :mod:`repro.harness` — experiment grids for every table and figure.
"""

from repro._version import __version__

__all__ = ["__version__"]
