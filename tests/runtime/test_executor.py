"""Integration tests for the Atos executor with a toy application."""

import gc
import weakref

import numpy as np
import pytest

from repro.config import daisy, summit_ib
from repro.errors import ConfigurationError
from repro.gpu.kernel import KernelStrategy
from repro.runtime import (
    AtosApplication,
    AtosConfig,
    AtosExecutor,
    RoundOutcome,
)


class TokenRelay(AtosApplication):
    """Toy app: a token bounces between PEs ``hops`` times.

    Each processed task on PE p enqueues the next hop on (p+1) % n.
    Exercises remote updates, termination, and the handler path
    without graph machinery.
    """

    name = "token-relay"

    def __init__(self, hops: int):
        self.hops = hops
        self.n_pes = 0
        self.processed: list[tuple[int, int]] = []

    def setup(self, n_pes):
        self.n_pes = n_pes
        seeds = [(np.empty(0, dtype=np.int64), None) for _ in range(n_pes)]
        seeds[0] = (np.array([self.hops], dtype=np.int64), None)
        return seeds

    def process(self, pe, tasks):
        outcome = RoundOutcome(edges_processed=len(tasks))
        for remaining in tasks.tolist():
            self.processed.append((pe, remaining))
            if remaining > 0:
                if self.n_pes == 1:
                    outcome.local_pushes = np.append(
                        outcome.local_pushes, remaining - 1
                    ).astype(np.int64)
                else:
                    dst = (pe + 1) % self.n_pes
                    payload = np.array([[remaining - 1]], dtype=np.int64)
                    if dst in outcome.remote_updates:
                        payload = np.vstack(
                            [outcome.remote_updates[dst], payload]
                        )
                    outcome.remote_updates[dst] = payload
        return outcome

    def handle_remote(self, pe, payload):
        return payload[:, 0], None


def test_single_pe_relay_terminates():
    app = TokenRelay(hops=5)
    makespan, counters = AtosExecutor(daisy(1), app).run()
    assert makespan > 0
    assert [r for _, r in app.processed] == [5, 4, 3, 2, 1, 0]


def test_multi_pe_relay_visits_all_pes():
    app = TokenRelay(hops=7)
    makespan, counters = AtosExecutor(daisy(4), app).run()
    pes = [pe for pe, _ in app.processed]
    assert pes == [0, 1, 2, 3, 0, 1, 2, 3]
    assert counters["tasks_processed"] == 8


def test_finished_run_releases_queue_storage():
    # A finished executor is kept alive by its own reference cycles
    # until a full GC pass; its queues' ring buffers must not be.
    executor = AtosExecutor(daisy(4), TokenRelay(hops=7))
    queues = weakref.ref(executor.queues)
    gc.disable()
    try:
        executor.run()
        assert queues() is None
    finally:
        gc.enable()


def test_remote_hops_take_link_time():
    app_local = TokenRelay(hops=8)
    local_time, _ = AtosExecutor(daisy(1), app_local).run()
    app_remote = TokenRelay(hops=8)
    remote_time, _ = AtosExecutor(daisy(2), app_remote).run()
    # Every hop crosses NVLink: remote run must be slower.
    assert remote_time > local_time


def test_cpu_control_path_slower_than_gpu():
    gpu_time, _ = AtosExecutor(
        daisy(2), TokenRelay(hops=10), AtosConfig(control_path="gpu")
    ).run()
    cpu_time, _ = AtosExecutor(
        daisy(2), TokenRelay(hops=10), AtosConfig(control_path="cpu")
    ).run()
    assert cpu_time > gpu_time
    # 10 hops x cpu_control_path_latency should be visible.
    assert cpu_time - gpu_time >= 10 * daisy(2).cost.cpu_control_path_latency * 0.8


def test_segment_rounds_delay_messages():
    eager, _ = AtosExecutor(
        daisy(2), TokenRelay(hops=10), AtosConfig(segment_rounds=1)
    ).run()
    segmented, _ = AtosExecutor(
        daisy(2), TokenRelay(hops=10), AtosConfig(segment_rounds=4)
    ).run()
    assert segmented >= eager


def test_discrete_kernel_charges_round_overhead():
    persistent, _ = AtosExecutor(
        daisy(1),
        TokenRelay(hops=30),
        AtosConfig(kernel=KernelStrategy.PERSISTENT),
    ).run()
    discrete, _ = AtosExecutor(
        daisy(1),
        TokenRelay(hops=30),
        AtosConfig(kernel=KernelStrategy.DISCRETE),
    ).run()
    assert discrete > persistent


def test_round_host_overhead_charged():
    base, _ = AtosExecutor(daisy(1), TokenRelay(hops=20)).run()
    slow, _ = AtosExecutor(
        daisy(1), TokenRelay(hops=20), AtosConfig(round_host_overhead=5.0)
    ).run()
    assert slow >= base + 20 * 5.0 * 0.9


def test_aggregator_on_ib_machine_by_default():
    app = TokenRelay(hops=6)
    executor = AtosExecutor(summit_ib(2), app)
    assert executor.aggregators is not None
    makespan, counters = executor.run()
    assert counters["aggregated_messages"] >= 1
    assert [r for _, r in app.processed] == [6, 5, 4, 3, 2, 1, 0]


def test_aggregator_disabled_on_nvlink_by_default():
    assert AtosExecutor(daisy(2), TokenRelay(hops=2)).aggregators is None


def test_aggregator_wait_time_adds_latency():
    eager, _ = AtosExecutor(
        summit_ib(2), TokenRelay(hops=6), AtosConfig(wait_time=1)
    ).run()
    lazy, _ = AtosExecutor(
        summit_ib(2), TokenRelay(hops=6), AtosConfig(wait_time=16)
    ).run()
    assert lazy > eager


def test_no_seed_work_rejected():
    class EmptyApp(TokenRelay):
        def setup(self, n_pes):
            self.n_pes = n_pes
            return [
                (np.empty(0, dtype=np.int64), None) for _ in range(n_pes)
            ]

    with pytest.raises(ConfigurationError):
        AtosExecutor(daisy(2), EmptyApp(hops=1)).run()


def test_wrong_seed_count_rejected():
    class BadApp(TokenRelay):
        def setup(self, n_pes):
            self.n_pes = n_pes
            return [(np.array([1]), None)]

    with pytest.raises(ConfigurationError):
        AtosExecutor(daisy(2), BadApp(hops=1)).run()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AtosConfig(control_path="dma")
    with pytest.raises(ConfigurationError):
        AtosConfig(segment_rounds=0)


def test_executor_deterministic():
    times = []
    for _ in range(2):
        makespan, _ = AtosExecutor(daisy(3), TokenRelay(hops=9)).run()
        times.append(makespan)
    assert times[0] == times[1]
