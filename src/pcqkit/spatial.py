"""Exact nearest-neighbor queries over point clouds.

A kd-tree (scipy.spatial.cKDTree) finds candidates; distances are then
recomputed with one canonical formula and ties are broken by ascending
point index, so results are exact and fully deterministic regardless of
tree internals.
"""

import operator
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import EmptyCloud

__all__ = ["Neighbors", "SpatialIndex", "build_index"]

_BLOCK_ROWS = 4096   # query rows per tree call: bounds one block's pairs
# neighbors per Neighbors.blocks block, each row counting as 4 more: a
# quadric fit's temporaries take about 220 B a neighbor and 900 B a row,
# so a block of fits stays near 60 MB and one of PCQM statistics below
_BLOCK_BUDGET = 2 ** 18


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

    def blocks(self):
        """(start, Neighbors) for consecutive runs of whole rows from row
        start, offsets rebased to 0, each within _BLOCK_BUDGET; a row
        over it is a block by itself."""
        cost = self.offsets + 4 * np.arange(len(self) + 1)
        start = 0
        while start < len(self):
            stop = max(start + 1, int(np.searchsorted(
                cost, cost[start] + _BLOCK_BUDGET, side="right")) - 1)
            lo, hi = self.offsets[start], self.offsets[stop]
            yield start, Neighbors(self.indices[lo:hi], self.distances[lo:hi],
                                   self.offsets[start:stop + 1] - lo)
            start = stop


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
        if isinstance(k, bool) or operator.index(k) < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        k_eff, ask_k = min(k, self.n), min(k + 1, self.n)
        idx = self._tree.query(queries, k=ask_k)[1].reshape(-1, ask_k)
        dst = _distances(self.positions.take(idx, 0), queries[:, None])
        order = np.lexsort((idx, dst))
        idx, dst = (np.take_along_axis(a, order, 1) for a in (idx, dst))
        if k_eff < self.n:
            # no point the tree left out is nearer than its (k+1)-th, so only
            # rows where that is within ulps of the k-th may hide a tie; they
            # take every point to the k-th, and extras sort behind the first k
            ask = dst[:, k_eff - 1] * (1.0 + 1e-9)
            tie = np.flatnonzero(~(dst[:, k_eff] > ask))
            nbrs = self._query(queries[tie], ask[tie], np.inf, True)
            take = nbrs.offsets[:-1, None] + np.arange(k_eff)
            idx[tie, :k_eff] = nbrs.indices[take]
            dst[tie, :k_eff] = nbrs.distances[take]
        return idx[:, :k_eff].copy(), dst[:, :k_eff].copy()

    def radius_batch(self, queries, radius, sort_by_distance=False):
        """All neighbors within radius (inclusive) of each query row.

        Returns Neighbors, each row index-ordered by default or sorted
        by (distance, index) on request.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        radius = np.asarray(radius, dtype=np.float64)
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
        """Rows of neighbors within ask by the tree's metric and within keep
        by the canonical distance, in index or (distance, index) order."""
        ask, keep = (np.broadcast_to(a, len(queries)) for a in (ask, keep))
        parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))]
        for lo in range(0, len(queries), _BLOCK_ROWS):
            block, reach = queries[lo:lo + _BLOCK_ROWS], ask[lo:lo + _BLOCK_ROWS]
            # rows ask the tree together only where their asks share a binary
            # exponent, so one row's large ask cannot widen the others' reach
            scale, keys = np.frexp(reach + 1e-300)[1], []
            for s in np.unique(scale):
                sub = np.flatnonzero(scale == s)
                pairs = self._tree.sparse_distance_matrix(
                    cKDTree(block[sub]), reach[sub].max(), output_type="ndarray")
                row = sub[pairs["j"]]
                keys.append((row * self.n + pairs["i"])[pairs["v"] <= reach[row]])
            row, idx = np.divmod(np.sort(np.concatenate(keys)), self.n)
            dst = _distances(self.positions.take(idx, 0), block.take(row, 0))
            inside = dst <= keep[lo + row]
            idx, dst, row = idx[inside], dst[inside], row[inside]
            if sort_by_distance:
                # complex keys sort by row, then distance, and the stable sort
                # keeps ties in index order; lexsort((dst, row)) gives the same
                # order but sorts every distance first, several times slower
                order = np.argsort(row + 1j * dst, kind="stable")
                idx, dst = idx[order], dst[order]
            parts.append((idx, dst, np.bincount(row, minlength=len(block))))
        idx, dst, counts = (np.concatenate(part) for part in zip(*parts))
        return Neighbors(idx, dst, np.concatenate(([0], np.cumsum(counts))))


def build_index(cloud) -> SpatialIndex:
    """Index a PointCloud (or a raw position array)."""
    positions = cloud.positions if isinstance(cloud, PointCloud) else cloud
    return SpatialIndex(positions)
