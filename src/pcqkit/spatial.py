"""Exact nearest-neighbor queries over point clouds.

A kd-tree (scipy.spatial.cKDTree) finds candidates; distances are then
recomputed with one canonical formula and ties are broken by ascending
point index, so results are exact and fully deterministic regardless of
tree internals.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import EmptyCloud

__all__ = ["Neighbors", "SpatialIndex", "build_index"]


def _distances(positions, query):
    """Canonical Euclidean distance used everywhere in the toolkit."""
    diff = positions - query
    return np.sqrt(np.einsum("...i,...i->...", diff, diff))


@dataclass(frozen=True)
class Neighbors:
    """Neighborhoods of m queries in one flat (CSR) layout.

    Row i is indices[offsets[i]:offsets[i + 1]] with the matching
    distances; offsets has m + 1 entries, from 0 to len(indices).
    """

    indices: np.ndarray    # (total,) int64 point indices
    distances: np.ndarray  # (total,) canonical distances
    offsets: np.ndarray    # (m + 1,) int64 row boundaries

    def __len__(self):
        return len(self.offsets) - 1

    @property
    def counts(self):
        return np.diff(self.offsets)

    def __getitem__(self, i):
        """(indices, distances) of row i; past the end raises IndexError,
        which also ends iteration."""
        if not 0 <= i < len(self):
            raise IndexError(f"row {i} out of range for {len(self)} rows")
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.indices[lo:hi], self.distances[lo:hi]


class SpatialIndex:
    """kd-tree over an (n, 3) position array."""

    def __init__(self, positions):
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"expected (n, 3) positions, got {positions.shape}")
        if positions.shape[0] == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self.positions = positions
        self.n = positions.shape[0]
        self._tree = cKDTree(positions)

    # -- batch interfaces used by the metrics ------------------------------

    def knn_batch(self, queries, k):
        """k nearest neighbors for each query row.

        Returns (indices, distances) of shape (m, k_eff) with rows sorted
        by (distance, index); k_eff = min(k, n).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k_eff = min(int(k), self.n)
        d0, _ = self._tree.query(queries, k=k_eff)
        d0 = d0.reshape(len(queries), k_eff)
        # all points at distance <= d_k, so boundary ties are never dropped;
        # the tiny inflation covers ulp mismatches in the tree's own metric,
        # extra candidates fall behind the first k_eff once sorted
        nbrs = self._query(queries, d0[:, -1] * (1.0 + 1e-9), np.inf, True)
        take = nbrs.offsets[:-1, None] + np.arange(k_eff)
        return nbrs.indices[take], nbrs.distances[take]

    def radius_batch(self, queries, radius, sort_by_distance=False):
        """All neighbors within radius (inclusive) of each query row.

        Returns Neighbors, each row index-ordered by default or sorted
        by (distance, index) on request.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        radius = np.broadcast_to(
            np.asarray(radius, dtype=np.float64), (len(queries),))
        if not np.all(radius >= 0):
            raise ValueError("radius must be non-negative")
        # over-ask, then trim against the canonical distance so inclusion
        # at exactly r does not depend on the tree's internal rounding
        return self._query(queries, radius * (1.0 + 1e-9) + 1e-300, radius,
                           sort_by_distance)

    def nearest_batch(self, queries):
        """Single nearest neighbor per query, ties by ascending index."""
        idx, dst = self.knn_batch(queries, k=1)
        return idx[:, 0], dst[:, 0]

    def mean_nn_distance(self):
        """Mean distance from each point to its nearest other point."""
        if self.n < 2:
            return 0.0
        _, dst = self.knn_batch(self.positions, 2)
        return float(dst[:, 1].mean())

    def _query(self, queries, ask, keep, sort_by_distance):
        """Neighbors of the tree's candidates within ask of each query,
        kept where the canonical distance is <= keep; rows come
        index-ordered from the tree and stay so unless sorted."""
        lists = self._tree.query_ball_point(queries, ask, return_sorted=True)
        m = len(queries)
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=m)
        idx = np.fromiter(itertools.chain.from_iterable(lists),
                          dtype=np.int64, count=int(counts.sum()))
        row = np.repeat(np.arange(m), counts)
        dst = _distances(self.positions[idx], queries[row])
        inside = dst <= np.broadcast_to(keep, (m,))[row]
        idx, dst, row = idx[inside], dst[inside], row[inside]
        if sort_by_distance:
            # complex numbers sort by real part, then imaginary part: by
            # row, then distance, and the stable sort keeps ties in index
            # order. lexsort((dst, row)) gives the same order, but sorts
            # every distance globally first and is several times slower
            order = np.argsort(row + 1j * dst, kind="stable")
            idx, dst = idx[order], dst[order]
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=m), out=offsets[1:])
        return Neighbors(idx, dst, offsets)


def build_index(cloud) -> SpatialIndex:
    """Index a PointCloud (or a raw position array)."""
    positions = cloud.positions if isinstance(cloud, PointCloud) else cloud
    return SpatialIndex(positions)
