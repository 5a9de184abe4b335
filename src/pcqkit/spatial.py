"""Exact nearest-neighbor queries over point clouds.

A kd-tree (scipy.spatial.cKDTree) finds candidates; distances are then
recomputed with one canonical formula and ties are broken by ascending
point index, so results are exact and fully deterministic regardless of
tree internals. k-NN rows that may tie are resolved over the cloud's
distinct positions, taking at most k candidates from each, so a crowd
of coincident points costs a row no more than k points do.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import EmptyCloud

__all__ = ["Neighbors", "SpatialIndex", "build_index"]

_BLOCK_ROWS = 4096   # query rows per tree call: bounds one block's pairs
# neighbors per Neighbors.blocks block, each row counting as 4 more: a
# quadric fit's temporaries take about 210 B a neighbor and 570 B a row,
# PCQM statistics about 140 B a neighbor and 170 B a row, so a block of
# either stays under 7 MB. Larger blocks were no faster on 5e4 points
_BLOCK_BUDGET = 2 ** 15


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
        del order   # freed before any tie row gathers candidates
        if k_eff < self.n:
            # no point the tree left out is nearer than its (k+1)-th, so only
            # rows where that is within ulps of the k-th may hide a tie; the
            # k-th distance bounds where their first k can lie
            ask = dst[:, k_eff - 1] * (1.0 + 1e-9)
            tie = np.flatnonzero(~(dst[:, k_eff] > ask))
            if len(tie):
                idx[tie, :k_eff], dst[tie, :k_eff] = self._ties(
                    queries[tie], ask[tie], k_eff)
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
        ask, keep = (np.broadcast_to(a, len(queries))
                     for a in (radius * (1.0 + 1e-9) + 1e-300, radius))
        parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))]
        for lo in range(0, len(queries), _BLOCK_ROWS):
            block = queries[lo:lo + _BLOCK_ROWS]
            row, idx, dst = _within(self._tree, self.positions, block,
                                    ask[lo:lo + _BLOCK_ROWS])
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

    @cached_property
    def _distinct(self):
        """(tree, positions, order, starts) of the cloud's distinct
        positions: the points at distinct position j are
        order[starts[j]:starts[j + 1]], in ascending index."""
        order, starts = _equal_rows(self.positions)
        if len(starts) == self.n + 1:
            # no coincident points (a lattice ties often): each point is
            # its own distinct position, so the cloud's own tree serves
            starts = np.arange(self.n + 1)
            return self._tree, self.positions, starts[:-1], starts
        unique = self.positions[order[starts[:-1]]]
        return cKDTree(unique), unique, order, starts

    def _ties(self, queries, ask, k):
        """(indices, distances) of the first k points of each query row by
        (distance, index), each row's k-th distance at most its ask.

        Coincident points lie at one canonical distance, bit for bit, so a
        distinct position within ask stands for its first k points alone;
        those of distinct positions at one distance merge by index. Equal
        query rows are answered once, and each block of rows keeps only
        its first k before the next block is asked.
        """
        same, groups = _equal_rows(queries)
        first = same[groups[:-1]]
        queries, ask = queries[first], ask[first]
        idx = np.empty((len(queries), k), np.int64)
        dst = np.empty((len(queries), k))
        for lo in range(0, len(queries), _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            idx[rows], dst[rows] = self._first_k(queries[rows], ask[rows], k)
        inverse = np.empty(len(same), np.int64)
        inverse[same] = np.repeat(np.arange(len(first)), np.diff(groups))
        return idx[inverse], dst[inverse]

    def _first_k(self, block, ask, k):
        """_ties for one block of distinct query rows; what it gathers is
        freed on return, before the next block is asked."""
        tree, unique, order, starts = self._distinct
        row, pos, d = _within(tree, unique, block, ask)
        take = np.minimum(starts[pos + 1] - starts[pos], k)
        row, d = np.repeat(row, take), np.repeat(d, take)
        # the first take points of each run: its start plus the place within
        # the run
        ends = np.cumsum(take)
        members = order[np.repeat(starts[pos] - ends + take, take)
                        + np.arange(len(row))]
        # (row, index) order first, exactly as no key repeats; the stable
        # sort by (row, distance) then keeps ties in index order
        ranked = np.argsort(row * self.n + members, kind="stable")
        ranked = ranked[np.argsort(row[ranked] + 1j * d[ranked],
                                   kind="stable")]
        counts = np.bincount(row, minlength=len(block))
        keep = ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        return members[keep], d[keep]


def _equal_rows(points):
    """(order, starts) of the runs of equal rows of points: run j is
    order[starts[j]:starts[j + 1]], in ascending index. -0.0 equals 0.0,
    and the two lie at one canonical distance from any point."""
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    starts = np.flatnonzero((ranked[1:] != ranked[:-1]).any(axis=1)) + 1
    return order, np.concatenate(([0], starts, [len(points)]))


def _within(tree, positions, block, reach):
    """(row, index, distance) of each point of tree within reach[row] of a
    row of block by the tree's metric, in (row, index) order, with
    canonical distances; positions are the points of tree."""
    n = len(positions)
    # rows ask the tree together only where their asks share a binary
    # exponent, so one row's large ask cannot widen the others' reach
    scale, keys = np.frexp(reach + 1e-300)[1], []
    for s in np.unique(scale):
        sub = np.flatnonzero(scale == s)
        pairs = tree.sparse_distance_matrix(
            cKDTree(block[sub]), reach[sub].max(), output_type="ndarray")
        row = sub[pairs["j"]]
        keys.append((row * n + pairs["i"])[pairs["v"] <= reach[row]])
    row, idx = np.divmod(np.sort(np.concatenate(keys)), n)
    return row, idx, _distances(positions.take(idx, 0), block.take(row, 0))


def build_index(cloud) -> SpatialIndex:
    """Index a PointCloud (or a raw position array)."""
    positions = cloud.positions if isinstance(cloud, PointCloud) else cloud
    return SpatialIndex(positions)
