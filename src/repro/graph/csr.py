"""Compressed Sparse Row graph storage (numpy-backed).

The CSR layout mirrors what every GPU graph framework in the paper
(Atos, Gunrock, Groute, Galois) uses on-device: an ``indptr`` array of
``n + 1`` row offsets and an ``indices`` array of destination vertices.
All hot operations are vectorized; ``expand_batch`` is the single
gather primitive the application drivers use to expand a whole frontier
batch without a Python-level loop (see the hpc-parallel guides:
vectorize the inner loop, use views not copies).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["CSRGraph"]


class CSRGraph:
    """A directed graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64[n+1]`` row offsets, monotonically non-decreasing.
    indices:
        ``int32[m]`` destination vertex of each edge.
    n_global:
        Total vertex count of the *global* graph this CSR is part of.
        Equal to ``n_local`` for a whole graph; larger for a partition
        (rows are local vertices, columns are global ids).
    """

    __slots__ = ("indptr", "indices", "n_global", "_symmetric")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        n_global: int | None = None,
    ):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if len(indptr) == 0 or indptr[0] != 0:
            raise ValueError("indptr must start with 0")
        if indptr[-1] != len(indices):
            raise ValueError("indptr[-1] must equal len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = indices
        self.n_global = int(n_global) if n_global is not None else self.n_vertices
        #: Set on a graph :meth:`symmetrized` built, which is its own
        #: symmetrization.
        self._symmetric = False
        if len(indices) and (
            indices.min() < 0 or indices.max() >= self.n_global
        ):
            raise ValueError("edge endpoint out of range")

    # ------------------------------------------------------------ basics
    @property
    def n_vertices(self) -> int:
        """Number of (local) rows."""
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def out_degree(self, v: int | np.ndarray | None = None) -> np.ndarray | int:
        """Out-degree of one vertex, an array of vertices, or all."""
        degrees = np.diff(self.indptr)
        if v is None:
            return degrees
        if np.isscalar(v):
            return int(degrees[v])
        return degrees[np.asarray(v)]

    def neighbors(self, v: int) -> np.ndarray:
        """View (not copy) of the out-neighbors of ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def expand_batch(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather all out-edges of a batch of rows, fully vectorized.

        Returns ``(targets, origin_index)`` where ``targets`` is the
        concatenation of each vertex's neighbor list and
        ``origin_index[k]`` is the position within ``vertices`` whose
        expansion produced ``targets[k]`` (use it to map per-source
        values such as depths onto edges with a take).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.indptr[vertices]
        degrees = self.indptr[vertices + 1] - starts
        total = int(degrees.sum())
        if total == 0:
            return (
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int64),
            )
        origin = np.repeat(np.arange(len(vertices)), degrees)
        # Edge positions: ranges [starts[i], starts[i]+degrees[i]) laid
        # out consecutively.  positions[k] = starts[row(k)] + k - out_start
        # of row(k), computed without a Python loop.
        row_starts = np.zeros(len(vertices), dtype=np.int64)
        np.cumsum(degrees[:-1], out=row_starts[1:])
        positions = np.arange(total, dtype=np.int64) + np.repeat(
            starts - row_starts, degrees
        )
        return self.indices[positions], origin

    # -------------------------------------------------------- conversions
    @classmethod
    def from_edges(
        cls,
        sources: np.ndarray | Sequence[int],
        targets: np.ndarray | Sequence[int],
        n_vertices: int,
        dedup: bool = True,
        drop_self_loops: bool = True,
    ) -> "CSRGraph":
        """Build a CSR from an edge list (COO)."""
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("sources and targets must have equal length")
        if len(src) and (
            src.min() < 0
            or dst.min() < 0
            or src.max() >= n_vertices
            or dst.max() >= n_vertices
        ):
            raise ValueError("edge endpoint out of range")
        if drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        # Sorting the keys ``src*n+dst`` puts the edges in (src, dst)
        # order, and equal neighbours are duplicates.  One flat sort is
        # many times faster than ``np.lexsort`` or ``np.unique``.
        keys = np.sort(src * n_vertices + dst)
        if dedup:
            fresh = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
            keys = keys[fresh]
        src, dst = np.divmod(keys, n_vertices)
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n_vertices), out=indptr[1:])
        return cls(indptr, dst.astype(np.int32), n_global=n_vertices)

    def to_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the (sources, targets) COO arrays."""
        degrees = np.diff(self.indptr)
        sources = np.repeat(np.arange(self.n_vertices, dtype=np.int64), degrees)
        return sources, self.indices.astype(np.int64)

    def reverse(self) -> "CSRGraph":
        """Transpose: a CSR of in-edges (used by pull-direction BFS)."""
        src, dst = self.to_edges()
        return CSRGraph.from_edges(
            dst, src, self.n_global, dedup=False, drop_self_loops=False
        )

    def symmetrized(self) -> "CSRGraph":
        """Union of the graph and its transpose (undirected view).

        A graph this method built is returned as is: symmetrizing it
        again would rebuild the same arrays.
        """
        if self._symmetric:
            return self
        src, dst = self.to_edges()
        graph = CSRGraph.from_edges(
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            self.n_global,
            dedup=True,
        )
        graph._symmetric = True
        return graph

    # -------------------------------------------------------- partitions
    def row_subgraph(self, rows: np.ndarray) -> "CSRGraph":
        """CSR containing only the given rows (columns stay global).

        This is how a graph is distributed across PEs: each PE owns a
        set of rows and stores their full adjacency with global column
        ids, exactly as the paper's per-GPU partitions do.
        """
        rows = np.asarray(rows, dtype=np.int64)
        targets, origin = self.expand_batch(rows)
        degrees = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        del origin  # adjacency already ordered by construction
        return CSRGraph(indptr, targets, n_global=self.n_global)

    # ------------------------------------------------------------- misc
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRGraph(n={self.n_vertices}, m={self.n_edges}, "
            f"n_global={self.n_global})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.n_global == other.n_global
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self.n_global, self.indptr.tobytes(), self.indices.tobytes())
        )
