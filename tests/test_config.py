"""Tests for machine configs and cost-model constants."""

import pytest

from repro.config import (
    GB_PER_S,
    CostModel,
    GPUSpec,
    LinkSpec,
    MachineConfig,
    V100_16GB,
    V100_32GB,
    daisy,
    summit_ib,
    summit_node,
)
from repro.errors import ConfigurationError


def test_gb_per_s_conversion():
    # 1 GB/s == 1000 bytes per microsecond.
    assert GB_PER_S == 1000.0
    assert V100_32GB.memory_bandwidth == 900.0 * 1000.0


def test_v100_variants():
    assert V100_32GB.memory_capacity == 32 * 1024**3
    assert V100_16GB.memory_capacity == 16 * 1024**3
    assert V100_16GB.n_sms == V100_32GB.n_sms == 80
    assert V100_32GB.resident_threads() == 80 * 2048


def test_machine_validation_rejects_bad_links():
    gpu = V100_32GB
    with pytest.raises(ConfigurationError):
        MachineConfig(
            name="bad",
            gpu=gpu,
            n_gpus=0,
            links={},
        )
    link = LinkSpec(kind="nvlink", bandwidth=1.0, latency=1.0)
    with pytest.raises(ConfigurationError):
        MachineConfig(name="bad", gpu=gpu, n_gpus=2,
                      links={(0, 5): link})
    with pytest.raises(ConfigurationError):
        MachineConfig(name="bad", gpu=gpu, n_gpus=2,
                      links={(1, 1): link})


def test_daisy_full_connectivity():
    machine = daisy(4)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert machine.link(i, j).kind == "nvlink"


def test_daisy_bandwidth_symmetry():
    machine = daisy(4)
    for (i, j), spec in machine.links.items():
        assert machine.link(j, i).bandwidth == spec.bandwidth


def test_summit_node_socket_structure():
    machine = summit_node(6)
    # Same socket: 50 GB/s.
    assert machine.link(0, 2).bandwidth == 50 * GB_PER_S
    assert machine.link(3, 5).bandwidth == 50 * GB_PER_S
    # Cross socket: slower, higher latency.
    assert machine.link(2, 3).bandwidth < 50 * GB_PER_S
    assert machine.link(2, 3).latency > machine.link(0, 1).latency


def test_summit_ib_is_inter_node():
    machine = summit_ib(8)
    assert machine.inter_node
    assert not daisy(4).inter_node
    assert not summit_node(6).inter_node


def test_subset_preserves_costs():
    machine = summit_ib(8)
    sub = machine.subset(3)
    assert sub.cost is machine.cost or sub.cost == machine.cost
    assert sub.inter_node
    assert sub.n_gpus == 3


def test_cost_model_defaults_sane():
    cost = CostModel()
    # The paper's core premise: the GPU control path is much cheaper
    # than the CPU one.
    assert cost.gpu_control_path_latency < cost.cpu_control_path_latency / 5
    # Kernel launch overhead is microseconds-scale.
    assert 1.0 <= cost.kernel_launch_overhead <= 50.0
    # IB per-message costs exceed NVLink-style latencies.
    assert cost.ib_base_latency + cost.ib_message_overhead > 5.0


def test_gpu_spec_is_frozen():
    with pytest.raises(AttributeError):
        V100_32GB.n_sms = 100  # type: ignore[misc]


def test_shared_aggregation_defaults():
    # Satellite of the telemetry PR: the BATCH_SIZE / WAIT_TIME values
    # every layer used to duplicate now live in one place.
    from repro.config import (
        BFS_WAIT_TIME,
        DEFAULT_BATCH_SIZE,
        DEFAULT_WAIT_TIME,
        PAGERANK_WAIT_TIME,
        wait_time_for,
    )

    assert DEFAULT_BATCH_SIZE == 1 << 20  # paper: 1 MiB IB batches
    assert wait_time_for("bfs") == BFS_WAIT_TIME == 4
    assert wait_time_for("pagerank") == PAGERANK_WAIT_TIME == 32
    assert wait_time_for("no-such-app") == DEFAULT_WAIT_TIME


def test_executor_defaults_track_config():
    from repro.config import DEFAULT_BATCH_SIZE, DEFAULT_WAIT_TIME
    from repro.runtime import AtosConfig

    config = AtosConfig()
    assert config.batch_size == DEFAULT_BATCH_SIZE
    assert config.wait_time == DEFAULT_WAIT_TIME


def test_validate_tuning_central_bounds():
    # Satellite of the tune PR: overlay-level knob bounds live in ONE
    # place (repro.config.validate_tuning) instead of being duplicated
    # per layer.
    from repro.config import validate_tuning
    from repro.errors import ConfigError

    validate_tuning()  # all-None is fine
    validate_tuning(batch_size=1, wait_time=0, fetch_size=1, partitions=1)
    for bad in (
        dict(batch_size=0),
        dict(batch_size=2.5),
        dict(wait_time=-1),
        dict(fetch_size=0),
        dict(partitions=0),
        dict(pdes_driver="mpi"),
    ):
        with pytest.raises(ConfigError):
            validate_tuning(**bad)


def test_config_overlay_validates_and_serializes():
    from repro.config import ConfigOverlay
    from repro.errors import ConfigError

    overlay = ConfigOverlay(batch_size=1 << 18, wait_time=8)
    assert overlay  # truthy when any knob is set
    assert not ConfigOverlay()  # empty overlay is falsy
    assert overlay.as_dict() == {"batch_size": 1 << 18, "wait_time": 8}
    assert overlay.executor_overrides() == {
        "batch_size": 1 << 18, "wait_time": 8,
    }
    assert ConfigOverlay.from_dict(overlay.as_dict()) == overlay
    # Only knobs a caller sets are fields: fetch_size and the engine
    # queue are executor/environment settings, not overlay knobs.
    with pytest.raises(ConfigError):
        ConfigOverlay.from_dict({"fetch_size": 4})
    with pytest.raises(ConfigError):
        ConfigOverlay.from_dict({"engine_queue": "calendar"})
    with pytest.raises(ConfigError):
        ConfigOverlay(batch_size=0)
    with pytest.raises(ConfigError):
        ConfigOverlay(pdes_driver="pooled")  # needs partitions >= 2


def test_engine_queue_names_are_canonical_in_config():
    # repro.sim.equeue re-exports the tuple; repro.config owns it.
    from repro.config import ENGINE_QUEUES
    from repro.sim import equeue

    assert ENGINE_QUEUES == ("heap", "calendar")
    assert equeue.ENGINE_QUEUES is ENGINE_QUEUES
