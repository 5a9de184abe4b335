"""Exact nearest-neighbor queries over point clouds.

A kd-tree (scipy.spatial.cKDTree) finds candidates; distances are then
recomputed with one canonical formula and ties are broken by ascending
point index, so results are exact and fully deterministic regardless of
tree internals or worker count.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import EmptyCloud

__all__ = ["Neighborhood", "SpatialIndex", "build_index", "knn_query",
           "radius_query"]


def _distances(positions, query):
    """Canonical Euclidean distance used everywhere in the toolkit."""
    diff = positions - query
    return np.sqrt(np.einsum("...i,...i->...", diff, diff))


@dataclass(frozen=True)
class Neighborhood:
    """Result of one query: indices with matching ascending distances."""

    indices: np.ndarray
    distances: np.ndarray
    center: Optional[int] = None

    def __len__(self):
        return self.indices.shape[0]


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
        d0, _ = self._tree.query(queries, k=k_eff, workers=-1)
        d0 = d0.reshape(len(queries), k_eff)
        # all points at distance <= d_k, so boundary ties are never dropped;
        # the tiny inflation covers ulp mismatches in the tree's own metric,
        # extra candidates are sorted out below
        lists = self._tree.query_ball_point(
            queries, d0[:, -1] * (1.0 + 1e-9), workers=-1, return_sorted=True)
        cand, dist = self._pad(lists, queries)
        order = np.argsort(dist, axis=1, kind="stable")
        rows = np.arange(len(queries))[:, None]
        idx = cand[rows, order][:, :k_eff]
        dst = dist[rows, order][:, :k_eff]
        return idx, dst

    def radius_batch(self, queries, radius, sort_by_distance=False):
        """All neighbors within radius (inclusive) of each query row.

        Returns a list of (indices, distances) pairs, index-ordered by
        default or sorted by (distance, index) on request.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        radius = np.broadcast_to(
            np.asarray(radius, dtype=np.float64), (len(queries),))
        if np.any(radius < 0):
            raise ValueError("radius must be non-negative")
        # over-ask, then trim against the canonical distance so inclusion
        # at exactly r does not depend on the tree's internal rounding
        lists = self._tree.query_ball_point(
            queries, radius * (1.0 + 1e-9) + 1e-300, workers=-1,
            return_sorted=True)
        out = []
        for q, r, members in zip(queries, radius, lists):
            idx = np.asarray(members, dtype=np.int64)
            dst = _distances(self.positions[idx], q)
            inside = dst <= r
            idx, dst = idx[inside], dst[inside]
            if sort_by_distance and len(idx) > 1:
                order = np.argsort(dst, kind="stable")
                idx, dst = idx[order], dst[order]
            out.append((idx, dst))
        return out

    def nearest_batch(self, queries):
        """Single nearest neighbor per query, ties by ascending index."""
        idx, dst = self.knn_batch(queries, k=1)
        return idx[:, 0], dst[:, 0]

    def mean_nn_distance(self, knn=None):
        """Mean distance from each point to its nearest other point.

        knn: a self query of this index with two or more columns, whose
        second column is then reused instead of a new query.
        """
        if self.n < 2:
            return 0.0
        _, dst = knn if knn is not None else self.knn_batch(self.positions, 2)
        return float(dst[:, 1].mean())

    def _pad(self, lists, queries):
        m = len(queries)
        counts = np.fromiter((len(l) for l in lists), dtype=np.int64, count=m)
        width = int(counts.max())
        cand = np.zeros((m, width), dtype=np.int64)
        mask = np.arange(width)[None, :] < counts[:, None]
        cand[mask] = np.concatenate(lists) if counts.sum() else []
        dist = np.full((m, width), np.inf)
        dist[mask] = _distances(
            self.positions[cand], queries[:, None, :])[mask]
        return cand, dist


def build_index(cloud) -> SpatialIndex:
    """Index a PointCloud (or a raw position array)."""
    positions = cloud.positions if isinstance(cloud, PointCloud) else cloud
    return SpatialIndex(positions)


def knn_query(index: SpatialIndex, query, k: int,
              center: Optional[int] = None) -> Neighborhood:
    """The k nearest points to a query position.

    Results are sorted by distance; equal distances break by ascending
    point index. k larger than the cloud returns every point.
    """
    idx, dst = index.knn_batch(np.asarray(query, dtype=np.float64), k)
    return Neighborhood(idx[0], dst[0], center)


def radius_query(index: SpatialIndex, query, radius: float,
                 center: Optional[int] = None) -> Neighborhood:
    """All points within radius of the query position, boundary inclusive."""
    (idx, dst), = index.radius_batch(
        np.asarray(query, dtype=np.float64), float(radius),
        sort_by_distance=True)
    return Neighborhood(idx, dst, center)
