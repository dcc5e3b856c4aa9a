"""Synthetic graph generators standing in for the paper's datasets.

The evaluation (paper Section IV, Table I) uses two graph families whose
behaviour differs qualitatively:

* **scale-free** (soc-LiveJournal1, hollywood-2009, indochina-2004,
  twitter50): power-law degrees, tiny diameter — BFS/PR on these is
  *bandwidth-bound*.  We generate them with RMAT (Kronecker) sampling.
* **mesh-like** (road_usa, osm-eur): near-constant degree ~2, enormous
  diameter — BFS on these is *latency/parallelism-bound*.  We generate
  them as 2-D grid graphs with random edge deletions and long-ish local
  detours, which preserves both properties.

All generators take an explicit seed and are deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["rmat", "grid_mesh", "path_graph", "star_graph", "complete_graph"]


def rmat(
    scale: int,
    edge_factor: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    symmetrize: bool = True,
) -> CSRGraph:
    """RMAT/Kronecker graph: ``2**scale`` vertices, ``~edge_factor * n`` edges.

    The (a, b, c, d) quadrant probabilities follow Graph500 defaults;
    skewing ``a`` up concentrates edges on low-id hubs (higher max
    degree), matching e.g. indochina-2004's extreme out-degree skew.
    Duplicate edges and self-loops are removed, so the realized edge
    count is slightly below ``edge_factor * n``.
    """
    if not 0 < a < 1 or b < 0 or c < 0 or a + b + c >= 1.0:
        raise ValueError("invalid RMAT quadrant probabilities")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    d = 1.0 - a - b - c
    # Vectorized RMAT: each of the `scale` bit levels picks a quadrant
    # independently for every edge.  One level is drawn at a time, the
    # way ``rng.choice(4, size=(scale, m), p=...)`` inverts its uniform
    # draws, so the stream (and the graph) is the same without holding
    # every level at once.
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    cdf = np.cumsum([a, b, c, d])
    cdf /= cdf[-1]
    for level in range(scale):
        bit = 1 << (scale - 1 - level)
        q = cdf.searchsorted(rng.random(m), side="right")
        src += bit * (q >= 2)
        dst += bit * (q & 1)
    graph = CSRGraph.from_edges(src, dst, n)
    if symmetrize:
        graph = graph.symmetrized()
    return graph


def grid_mesh(
    width: int,
    height: int,
    drop_fraction: float = 0.05,
    shortcut_fraction: float = 0.01,
    shortcut_radius: int = 4,
    seed: int = 0,
) -> CSRGraph:
    """Road-network-like mesh: a 2-D grid with dropped and local detour edges.

    ``drop_fraction`` of grid edges are removed (road networks are not
    perfect lattices) and ``shortcut_fraction * n`` extra edges connect
    vertices within ``shortcut_radius`` grid steps (diagonals/ramps).
    The graph is kept symmetric; its diameter is Θ(width + height),
    matching the huge diameters of road_usa / osm-eur in Table I.
    """
    if width < 2 or height < 2:
        raise ValueError("grid must be at least 2x2")
    if not 0 <= drop_fraction < 1:
        raise ValueError("drop_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    n = width * height

    def vid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y * width + x

    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    xs, ys = xs.ravel(), ys.ravel()

    # Horizontal and vertical lattice edges.
    horiz = xs < width - 1
    vert = ys < height - 1
    src = np.concatenate([vid(xs[horiz], ys[horiz]), vid(xs[vert], ys[vert])])
    dst = np.concatenate(
        [vid(xs[horiz] + 1, ys[horiz]), vid(xs[vert], ys[vert] + 1)]
    )

    if drop_fraction > 0:
        keep = rng.random(len(src)) >= drop_fraction
        src, dst = src[keep], dst[keep]

    n_short = int(shortcut_fraction * n)
    if n_short > 0:
        sx = rng.integers(0, width, n_short)
        sy = rng.integers(0, height, n_short)
        ox = rng.integers(-shortcut_radius, shortcut_radius + 1, n_short)
        oy = rng.integers(-shortcut_radius, shortcut_radius + 1, n_short)
        tx = np.clip(sx + ox, 0, width - 1)
        ty = np.clip(sy + oy, 0, height - 1)
        src = np.concatenate([src, vid(sx, sy)])
        dst = np.concatenate([dst, vid(tx, ty)])

    graph = CSRGraph.from_edges(src, dst, n)
    return graph.symmetrized()


def path_graph(n: int) -> CSRGraph:
    """A simple path 0-1-...-(n-1), symmetric.  Worst-case diameter."""
    if n < 1:
        raise ValueError("need at least one vertex")
    idx = np.arange(n - 1)
    return CSRGraph.from_edges(idx, idx + 1, n).symmetrized()


def star_graph(n: int) -> CSRGraph:
    """Vertex 0 connected to all others, symmetric.  Worst-case hub."""
    if n < 2:
        raise ValueError("need at least two vertices")
    leaves = np.arange(1, n)
    return CSRGraph.from_edges(
        np.zeros(n - 1, dtype=np.int64), leaves, n
    ).symmetrized()


def complete_graph(n: int) -> CSRGraph:
    """All-to-all directed edges (no self-loops)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    src, dst = np.meshgrid(np.arange(n), np.arange(n))
    return CSRGraph.from_edges(src.ravel(), dst.ravel(), n)
