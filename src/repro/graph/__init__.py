"""Graph substrate: CSR storage, generators, datasets, partitioning."""

from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASETS,
    MESH_LIKE,
    SCALE_FREE,
    bfs_source,
    dataset_stats,
    load,
)
from repro.graph.generators import (
    complete_graph,
    grid_mesh,
    path_graph,
    rmat,
    star_graph,
)
from repro.graph.partition import (
    PARTITIONERS,
    Partition,
    bfs_grow_partition,
    block_partition,
    edge_cut,
    make_partition,
    random_partition,
    rehome_partition,
)
from repro.graph.weights import (
    WeightedGraph,
    geometric_weights,
    uniform_weights,
)
from repro.graph.stats import (
    UNREACHED,
    GraphStats,
    bfs_levels,
    estimate_diameter,
    graph_stats,
    largest_component_vertex,
)

__all__ = [
    "CSRGraph",
    "DATASETS",
    "SCALE_FREE",
    "MESH_LIKE",
    "load",
    "bfs_source",
    "dataset_stats",
    "rmat",
    "grid_mesh",
    "path_graph",
    "star_graph",
    "complete_graph",
    "Partition",
    "PARTITIONERS",
    "random_partition",
    "block_partition",
    "bfs_grow_partition",
    "make_partition",
    "rehome_partition",
    "edge_cut",
    "GraphStats",
    "UNREACHED",
    "bfs_levels",
    "estimate_diameter",
    "graph_stats",
    "largest_component_vertex",
    "WeightedGraph",
    "uniform_weights",
    "geometric_weights",
]
