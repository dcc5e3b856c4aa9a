"""Machine and cost-model configuration.

All simulated-time quantities are **microseconds**; all sizes are
**bytes**; bandwidths are **bytes per microsecond** (1 GB/s == 1000 B/us).
The constants below come from the paper where it states them (link
speeds, topologies, batch sizes) and from public V100 / EDR-IB
characteristics otherwise.  They are deliberately centralized so the
ablation benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Literal

from repro.errors import ConfigError, ConfigurationError

__all__ = [
    "GB_PER_S",
    "DEFAULT_BATCH_SIZE",
    "BFS_WAIT_TIME",
    "PAGERANK_WAIT_TIME",
    "DEFAULT_WAIT_TIME",
    "ENGINE_QUEUES",
    "PDES_DRIVERS",
    "wait_time_for",
    "validate_tuning",
    "ConfigOverlay",
    "GPUSpec",
    "LinkSpec",
    "CostModel",
    "MachineConfig",
    "daisy",
    "summit_node",
    "summit_ib",
    "V100_32GB",
    "V100_16GB",
]

#: Conversion: 1 GB/s expressed in bytes per microsecond.
GB_PER_S = 1000.0

#: Aggregator BATCH_SIZE (bytes): 1 MiB, the knee of the paper's
#: Figure 4 IB bandwidth curve.  The one source of truth — the
#: aggregator default, ``AtosConfig``, and
#: :func:`repro.interconnect.infiniband.optimal_batch_size` all derive
#: from here.
DEFAULT_BATCH_SIZE = 1 << 20

#: Aggregator WAIT_TIME (inspection visits before a timeout flush) for
#: latency-oriented apps: BFS sends eagerly (paper Section V-C).
BFS_WAIT_TIME = 4

#: WAIT_TIME for bandwidth-oriented apps: PageRank batches harder.
PAGERANK_WAIT_TIME = 32

#: WAIT_TIME used when an app has no tuned value of its own.
DEFAULT_WAIT_TIME = BFS_WAIT_TIME

_WAIT_TIMES = {"bfs": BFS_WAIT_TIME, "pagerank": PAGERANK_WAIT_TIME}


def wait_time_for(app: str) -> int:
    """The paper's per-application aggregator WAIT_TIME tuning."""
    return _WAIT_TIMES.get(app, DEFAULT_WAIT_TIME)


#: The pluggable DES event-queue variants (:mod:`repro.sim.equeue`
#: reads its registry keys from here, keeping one source of truth for
#: overlay validation and the engine selector).
ENGINE_QUEUES = ("heap", "calendar")

#: The partitioned-engine drivers (:mod:`repro.runtime.partitioned`).
PDES_DRIVERS = ("local", "pooled")


def validate_tuning(
    *,
    batch_size: "int | None" = None,
    wait_time: "int | None" = None,
    fetch_size: "int | None" = None,
    engine_queue: "str | None" = None,
    partitions: "int | None" = None,
    pdes_driver: "str | None" = None,
) -> None:
    """Central bounds validation for every tunable knob.

    The one place the legal ranges live — executor configs, the
    aggregator, and design-space overlays all call through here, so a
    malformed tune point raises one typed :class:`ConfigError` in the
    parent process instead of a scattered assert deep inside a forked
    worker.  ``None`` means "not being set" and is always accepted.
    """
    if batch_size is not None and (
        not isinstance(batch_size, int) or batch_size < 1
    ):
        raise ConfigError(f"BATCH_SIZE must be an int >= 1, got {batch_size!r}")
    if wait_time is not None and (
        not isinstance(wait_time, int) or wait_time < 0
    ):
        raise ConfigError(f"WAIT_TIME must be an int >= 0, got {wait_time!r}")
    if fetch_size is not None and (
        not isinstance(fetch_size, int) or fetch_size < 1
    ):
        raise ConfigError(f"fetch_size must be an int >= 1, got {fetch_size!r}")
    if engine_queue is not None and engine_queue not in ENGINE_QUEUES:
        raise ConfigError(
            f"unknown engine_queue {engine_queue!r}; known: {ENGINE_QUEUES}"
        )
    if partitions is not None and (
        not isinstance(partitions, int) or partitions < 1
    ):
        raise ConfigError(f"partitions must be an int >= 1, got {partitions!r}")
    if pdes_driver is not None and pdes_driver not in PDES_DRIVERS:
        raise ConfigError(
            f"unknown pdes_driver {pdes_driver!r}; known: {PDES_DRIVERS}"
        )


@dataclass(frozen=True)
class ConfigOverlay:
    """A validated, hashable bundle of tuning-knob overrides.

    What a Fig-4 sweep cell (:mod:`repro.tune`) or a partitioned
    ``repro run`` sets on top of the evaluation defaults: every
    field is optional (``None`` = keep the default), bounds are checked
    centrally in ``__post_init__`` via :func:`validate_tuning` so a
    malformed overlay raises :class:`repro.errors.ConfigError` before
    any worker forks, and the frozen dataclass is hashable so it can
    ride inside a :class:`repro.harness.pool.RunSpec` and participate
    in run-cache keys.
    """

    #: Aggregator flush threshold in bytes (``AtosConfig.batch_size``).
    batch_size: "int | None" = None
    #: Aggregator poll visits before a timeout flush.
    wait_time: "int | None" = None
    #: Partition the simulation across N event loops (>= 2 engages the
    #: windowed PDES engine; results stay digest-identical to serial).
    partitions: "int | None" = None
    #: Partitioned-engine driver (``local`` | ``pooled``).
    pdes_driver: "str | None" = None

    def __post_init__(self) -> None:
        validate_tuning(
            batch_size=self.batch_size,
            wait_time=self.wait_time,
            partitions=self.partitions,
            pdes_driver=self.pdes_driver,
        )
        if self.pdes_driver is not None and (
            self.partitions is None or self.partitions < 2
        ):
            raise ConfigError(
                "pdes_driver requires partitions >= 2 "
                f"(got partitions={self.partitions!r})"
            )

    def __bool__(self) -> bool:
        """True when at least one knob is actually overridden."""
        return any(
            getattr(self, f.name) is not None for f in fields(self)
        )

    def as_dict(self) -> dict[str, Any]:
        """The overridden knobs only — the overlay's cache identity."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    def executor_overrides(self) -> dict[str, Any]:
        """The subset applied to :class:`repro.runtime.AtosConfig`."""
        out: dict[str, Any] = {}
        for name in ("batch_size", "wait_time"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ConfigOverlay":
        """Rebuild an overlay from :meth:`as_dict` output (validated)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown overlay knob(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)


@dataclass(frozen=True, slots=True)
class GPUSpec:
    """Static description of one GPU device."""

    name: str
    n_sms: int
    max_threads_per_sm: int
    max_ctas_per_sm: int
    registers_per_sm: int
    shared_mem_per_sm: int  # bytes
    memory_bandwidth: float  # bytes/us
    memory_capacity: int  # bytes
    #: Sustained irregular edge-update throughput (edge updates per us).
    #: ~2 GTEPS for V100 graph traversal (memory-bound, scattered atomics).
    edge_throughput: float = 2000.0
    #: Latency of one global-memory atomic (us).
    atomic_latency: float = 0.0006
    #: Additional serialization cost per conflicting atomic on the same
    #: address/cache line (us).  Zero by default: L2 same-address
    #: combining makes hub-update serialization a second-order effect,
    #: and the sustained ``edge_throughput`` is calibrated with it
    #: folded in.  The contention ablation bench raises it.
    atomic_conflict_penalty: float = 0.0

    def resident_threads(self) -> int:
        return self.n_sms * self.max_threads_per_sm


V100_32GB = GPUSpec(
    name="V100-SXM2-32GB",
    n_sms=80,
    max_threads_per_sm=2048,
    max_ctas_per_sm=32,
    registers_per_sm=65536,
    shared_mem_per_sm=96 * 1024,
    memory_bandwidth=900.0 * GB_PER_S,
    memory_capacity=32 * 1024**3,
)

V100_16GB = replace(V100_32GB, name="V100-SXM2-16GB",
                    memory_capacity=16 * 1024**3)


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """One directed interconnect link."""

    kind: Literal["nvlink", "pcie", "ib"]
    bandwidth: float  # bytes/us
    latency: float  # us, one-way, excluding serialization
    #: Max payload per packet/message unit (bytes); None = unbounded.
    max_payload: int | None = None


@dataclass(frozen=True, slots=True)
class CostModel:
    """Execution-model cost constants shared by all framework drivers."""

    #: Host-side CUDA kernel launch overhead (us per launch).
    kernel_launch_overhead: float = 6.0
    #: cudaStreamSynchronize + host logic at a BSP phase boundary (us).
    cpu_sync_overhead: float = 12.0
    #: Extra one-way latency when the *communication control path* runs
    #: on the CPU (Groute/Gunrock/Galois) instead of the GPU (Atos).
    cpu_control_path_latency: float = 10.0
    #: GPU-resident control path cost for initiating one send (us).
    gpu_control_path_latency: float = 0.8
    #: Per-message NIC processing cost for InfiniBand (us).
    ib_message_overhead: float = 2.0
    #: Base one-way latency of a GPU-initiated IB message (us).
    ib_base_latency: float = 6.0
    #: Per-task queue pop/push bookkeeping amortized per task (us).
    queue_op_cost: float = 0.002
    #: Bytes moved per processed edge update (index + depth/residual).
    bytes_per_edge_update: int = 12
    #: Bytes on the wire per remote vertex update message payload.
    bytes_per_remote_update: int = 8
    #: Polling interval of an idle persistent worker (us).
    idle_poll_interval: float = 1.0


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """A whole machine: GPUs plus the interconnect layout.

    ``links[(i, j)]`` gives the link spec used from GPU ``i`` to GPU
    ``j``.  Multi-node IB machines additionally set ``inter_node=True``
    so the runtime enables the communication aggregator by default.
    """

    name: str
    gpu: GPUSpec
    n_gpus: int
    links: dict[tuple[int, int], LinkSpec]
    cost: CostModel = field(default_factory=CostModel)
    inter_node: bool = False

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ConfigurationError("machine needs at least one GPU")
        for (i, j) in self.links:
            if not (0 <= i < self.n_gpus and 0 <= j < self.n_gpus):
                raise ConfigurationError(f"link ({i},{j}) out of range")
            if i == j:
                raise ConfigurationError("self-links are not allowed")

    def link(self, src: int, dst: int) -> LinkSpec:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise ConfigurationError(
                f"no link {src}->{dst} on {self.name}"
            ) from None

    def subset(self, n_gpus: int) -> "MachineConfig":
        """Restrict the machine to its first ``n_gpus`` GPUs."""
        if not 1 <= n_gpus <= self.n_gpus:
            raise ConfigurationError(
                f"cannot take {n_gpus} GPUs from {self.n_gpus}-GPU machine"
            )
        links = {
            (i, j): spec
            for (i, j), spec in self.links.items()
            if i < n_gpus and j < n_gpus
        }
        return replace(self, n_gpus=n_gpus, links=links)


def _nvlink(bandwidth_gbs: float, latency: float = 1.8) -> LinkSpec:
    return LinkSpec(
        kind="nvlink",
        bandwidth=bandwidth_gbs * GB_PER_S,
        latency=latency,
        max_payload=128,
    )


def daisy(n_gpus: int = 4) -> MachineConfig:
    """The paper's "Daisy" DGX Station: 4 V100s, all-to-all NVLink.

    Topology from the paper's appendix: each GPU has one dual-link
    (50 GB/s) connection to one peer and single-link (25 GB/s)
    connections to the others::

              GPU0  GPU1  GPU2  GPU3
        GPU0    X    NV1   NV1   NV2
        GPU1   NV1    X    NV2   NV1
        GPU2   NV1   NV2    X    NV1
        GPU3   NV2   NV1   NV1    X
    """
    dual_pairs = {(0, 3), (3, 0), (1, 2), (2, 1)}
    links: dict[tuple[int, int], LinkSpec] = {}
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            gbs = 50.0 if (i, j) in dual_pairs else 25.0
            links[(i, j)] = _nvlink(gbs)
    return MachineConfig(
        name="daisy", gpu=V100_32GB, n_gpus=4, links=links
    ).subset(n_gpus)


def summit_node(n_gpus: int = 6) -> MachineConfig:
    """One Summit node: 6 V100s, 3 per socket, NVLink within a socket.

    GPUs {0,1,2} share socket 0 and {3,4,5} share socket 1.  Within a
    socket, GPUs are connected by 50 GB/s NVLink.  Across sockets,
    traffic crosses the X-bus, with much higher latency and lower
    bandwidth — the topology the paper uses for the latency-hiding
    experiment (Figs 6-7).
    """
    links: dict[tuple[int, int], LinkSpec] = {}
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            same_socket = (i < 3) == (j < 3)
            if same_socket:
                links[(i, j)] = _nvlink(50.0)
            else:
                links[(i, j)] = LinkSpec(
                    kind="nvlink",
                    bandwidth=32.0 * GB_PER_S,
                    latency=7.0,  # cross-socket hop penalty
                    max_payload=128,
                )
    return MachineConfig(
        name="summit-node", gpu=V100_16GB, n_gpus=6, links=links
    ).subset(n_gpus)


def summit_ib(n_gpus: int = 8) -> MachineConfig:
    """Multi-node Summit: one GPU per node, dual-rail EDR InfiniBand.

    Each rail provides 12.5 GB/s of unidirectional injection bandwidth
    (paper Section IV); latency is the GPU-initiated IB latency.
    """
    cost = CostModel()
    ib = LinkSpec(
        kind="ib",
        bandwidth=12.5 * GB_PER_S,
        latency=cost.ib_base_latency,
        max_payload=None,
    )
    links = {
        (i, j): ib
        for i in range(n_gpus)
        for j in range(n_gpus)
        if i != j
    }
    return MachineConfig(
        name="summit-ib",
        gpu=V100_16GB,
        n_gpus=n_gpus,
        links=links,
        cost=cost,
        inter_node=True,
    )
