import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqkit import spatial
from pcqkit.cloud import PointCloud, bounding_box
from pcqkit.config import Config
from pcqkit.spatial import Neighbors, build_index

from conftest import surface_cloud


def brute_knn(points, queries, k):
    """O(n^2) reference: ties broken by (distance, index)."""
    diff = queries[:, None, :] - points[None, :, :]
    dst = np.sqrt(np.einsum("qni,qni->qn", diff, diff))
    k = min(k, len(points))
    idx = np.empty((len(queries), k), dtype=np.intp)
    out = np.empty((len(queries), k))
    for q in range(len(queries)):
        order = np.lexsort((np.arange(len(points)), dst[q]))[:k]
        idx[q] = order
        out[q] = dst[q][order]
    return idx, out


def brute_radius(points, queries, r):
    diff = queries[:, None, :] - points[None, :, :]
    dst = np.sqrt(np.einsum("qni,qni->qn", diff, diff))
    hits = []
    for q in range(len(queries)):
        inside = np.where(dst[q] <= r)[0]
        order = np.lexsort((inside, dst[q][inside]))
        hits.append((inside[order], dst[q][inside][order]))
    return hits


def test_knn_matches_brute_force_exactly():
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(1, 400))
        points = rng.uniform(-10, 10, size=(n, 3))
        queries = rng.uniform(-12, 12, size=(int(rng.integers(1, 50)), 3))
        k = int(rng.integers(1, 12))
        index = build_index(PointCloud(points))
        idx, dst = index.knn_batch(queries, k)
        oidx, odst = brute_knn(points, queries, k)
        assert np.array_equal(idx, oidx)
        assert np.array_equal(dst, odst)


def test_radius_matches_brute_force_exactly():
    rng = np.random.default_rng(1)
    for trial in range(25):
        n = int(rng.integers(1, 400))
        points = rng.uniform(-10, 10, size=(n, 3))
        queries = rng.uniform(-12, 12, size=(20, 3))
        queries[int(rng.integers(0, 20))] = 1e3    # a far-off, empty row
        r = float(rng.uniform(0.5, 8.0))
        index = build_index(PointCloud(points))
        hoods = index.radius_batch(queries, r, sort_by_distance=True)
        oracle = brute_radius(points, queries, r)
        assert len(hoods) == len(oracle)
        assert hoods.offsets[0] == 0
        assert hoods.offsets[-1] == len(hoods.indices)
        assert (hoods.counts == 0).any()
        for hood, (oidx, odst) in zip(hoods, oracle):
            assert np.array_equal(hood[0], oidx)
            assert np.array_equal(hood[1], odst)


def test_knn_on_duplicated_points_breaks_ties_by_index():
    points = np.zeros((5, 3))
    index = build_index(PointCloud(points))
    idx, dst = index.knn_batch(np.zeros((1, 3)), 3)
    assert np.array_equal(idx, [[0, 1, 2]])
    assert np.array_equal(dst, [[0.0, 0.0, 0.0]])


def test_radius_boundary_point_is_included():
    points = np.array([[0., 0., 0.], [3., 0., 0.]])
    index = build_index(PointCloud(points))
    (idx, dst), = index.radius_batch(np.array([[0., 0., 0.]]), 3.0)
    assert np.array_equal(np.sort(idx), [0, 1])


def test_single_point_cloud():
    index = build_index(PointCloud(np.array([[1., 2., 3.]])))
    idx, dst = index.knn_batch(np.array([[1., 2., 3.]]), 4)
    assert idx.shape == (1, 1) and dst[0, 0] == 0.0


def test_radius_rejects_nan_radius():
    index = build_index(PointCloud(np.zeros((3, 3))))
    with pytest.raises(ValueError):
        index.radius_batch(np.zeros((2, 3)), np.nan)
    with pytest.raises(ValueError):
        index.radius_batch(np.zeros((2, 3)), [1.0, np.nan])


def test_contract_wrappers(small_surface):
    # the single-query contract, read through the batch API
    index = build_index(small_surface)
    idx, dst = index.knn_batch(small_surface.positions[0], k=4)
    assert idx.shape == (1, 4)
    assert idx[0, 0] == 0 and dst[0, 0] == 0.0
    hoods = index.radius_batch(small_surface.positions[0], 15.0,
                               sort_by_distance=True)
    assert len(hoods) == 1
    (hidx, hdst), = hoods
    assert hidx[0] == 0 and hdst[0] == 0.0
    assert (hdst <= 15.0).all() and (np.diff(hdst) >= 0).all()
    with pytest.raises(IndexError):
        hoods[1]


class RecordingTree:
    """Stands in for a cKDTree: records the name and arguments of every
    call, then answers it from the real tree."""

    def __init__(self, tree):
        self.tree, self.calls = tree, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return getattr(self.tree, name)(*args, **kwargs)
        return call


def test_queries_run_on_the_calling_thread(small_surface):
    # a pool worker that starts query threads of its own oversubscribes
    # the cores the pool already uses
    index = build_index(small_surface)
    index._tree = tree = RecordingTree(index._tree)
    queries = small_surface.positions[:50]
    index.knn_batch(queries, 6)
    index.radius_batch(queries, 15.0)
    index.nearest_batch(queries)
    assert {name for name, _, _ in tree.calls} == {"query",
                                                   "sparse_distance_matrix"}
    for name, _, kwargs in tree.calls:
        assert kwargs.get("workers", 1) == 1, (name, kwargs)


def test_knn_on_duplicated_lattice_matches_oracle():
    # about 9 coincident points per voxel of a unit lattice, each with six
    # distinct neighbours at distance 1; cube centres have eight corners
    # at one distance. Rows that may tie at the k-th and rows the tree's
    # k+1 neighbours settle must both equal the oracle
    rng = np.random.default_rng(12)
    voxels = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3)
    points = np.repeat(voxels, rng.integers(1, 18, len(voxels)), axis=0)
    points = points[rng.permutation(len(points))]
    queries = np.vstack([points, voxels[:27] + 0.5,
                         rng.uniform(-1, 4, size=(100, 3))])
    index = build_index(PointCloud(points))
    # tie rows ask the tree of distinct positions, once per distinct row
    tree, *distinct = index._distinct
    index._distinct = (tree := RecordingTree(tree), *distinct)
    n, n_distinct = len(points), len(np.unique(queries, axis=0))
    for k in (1, 2, 12, n, n + 3):
        tree.calls.clear()
        idx, dst = index.knn_batch(queries, k)
        oidx, odst = brute_knn(points, queries, k)
        assert np.array_equal(idx, oidx) and np.array_equal(dst, odst), k
        tie_rows = sum(args[0].n for name, args, _ in tree.calls
                       if name == "sparse_distance_matrix")
        if k < n:   # both branches taken
            assert 0 < tie_rows < n_distinct, (k, tie_rows)
        else:       # the tree returned every point
            assert tie_rows == 0, k


@pytest.mark.parametrize("signed_zero", [False, True])
def test_knn_on_a_lattice_without_coincident_points(signed_zero):
    # every lattice point has six neighbours at distance 1, so nearly every
    # row ties; with no coincident points each point is its own distinct
    # position and the tie rows ask the cloud's own tree. -0.0 equals 0.0:
    # a signed-zero copy of the origin coincides with it, as a query and
    # as a point
    voxels = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), -1).reshape(-1, 3)
    points = voxels[np.random.default_rng(4).permutation(len(voxels))]
    if signed_zero:
        points = np.vstack([points, [-0.0, 0.0, -0.0]])
    queries = np.vstack([points, points[:50] + 0.5,
                         [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]]])
    index = build_index(PointCloud(points))
    for k in (1, 2, 7, 12):
        idx, dst = index.knn_batch(queries, k)
        oidx, odst = brute_knn(points, queries, k)
        assert np.array_equal(idx, oidx) and np.array_equal(dst, odst), k
    tree, unique, _, _ = index._distinct
    assert (tree is index._tree) != signed_zero
    assert len(unique) == len(voxels)


def test_zero_query_rows_give_empty_results(small_surface):
    index = build_index(small_surface)
    none = np.empty((0, 3))
    idx, dst = index.knn_batch(none, 4)
    assert idx.shape == dst.shape == (0, 4)
    idx, dst = index.nearest_batch(none)
    assert idx.shape == dst.shape == (0,)
    for sort_by_distance in (False, True):
        hoods = index.radius_batch(none, 15.0, sort_by_distance)
        assert len(hoods) == 0 and hoods.offsets.tolist() == [0]
        assert len(hoods.indices) == len(hoods.distances) == 0


def test_knn_takes_an_integer_k(small_surface):
    index = build_index(small_surface)
    queries = small_surface.positions[:5]
    for k in (2.5, 2.0, np.float64(3.0), "3"):
        with pytest.raises(TypeError):
            index.knn_batch(queries, k)
    for k in (True, 0, -1):
        with pytest.raises(ValueError):
            index.knn_batch(queries, k)
    idx, _ = index.knn_batch(queries, np.int32(3))
    assert idx.shape == (5, 3)


def test_radius_memory_is_bounded_by_result_and_one_block():
    # PCQM's radius h over 2e4 surface points: about 50 neighbours a row.
    # Taking the tree's answer as Python lists peaked at 138 MB for a
    # 16 MB result; a block's pairs are allowed 200 B each
    cloud = surface_cloud(20000, seed=1, span=1000.0)
    radius = Config().pcqm_radius_factor * bounding_box(cloud).diagonal
    index = build_index(cloud)
    tracemalloc.start()
    try:
        hoods = index.radius_batch(cloud.positions, radius)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= hoods.indices.nbytes + hoods.distances.nbytes
    block = spatial._BLOCK_ROWS * len(hoods.indices) / len(cloud) * 200
    assert peak < 2 * held + block, f"peak {peak / 1e6:.0f} MB"


def test_blocks_cover_every_row_once_under_the_budget(monkeypatch):
    # rows of 0 to 29 neighbours and one of 90 under a budget of 60, where
    # a row costs its neighbours plus 4: the row of 90 is a block alone
    rng = np.random.default_rng(14)
    counts = rng.integers(0, 30, size=200)
    counts[77] = 90
    offsets = np.concatenate([[0], np.cumsum(counts)])
    hoods = Neighbors(rng.permutation(offsets[-1]),
                      rng.uniform(size=offsets[-1]), offsets)
    monkeypatch.setattr(spatial, "_BLOCK_BUDGET", 60)
    blocks = list(hoods.blocks())
    starts = [start for start, _ in blocks]
    sizes = [len(block) for _, block in blocks]
    assert starts == list(np.cumsum([0] + sizes[:-1]))
    assert sum(sizes) == len(hoods)
    costs = [len(block.indices) + 4 * len(block) for _, block in blocks]
    for (start, block), cost in zip(blocks, costs):
        assert block.offsets[0] == 0
        lo, hi = hoods.offsets[start], hoods.offsets[start + len(block)]
        assert np.array_equal(block.indices, hoods.indices[lo:hi])
        assert np.array_equal(block.distances, hoods.distances[lo:hi])
        assert np.array_equal(block.offsets, hoods.offsets[
            start:start + len(block) + 1] - lo)
        assert cost <= 60 or len(block) == 1
    # each block ends only where the next row would overrun the budget
    for cost, start in zip(costs, starts[1:]):
        assert cost + counts[start] + 4 > 60
    assert (77, 1) in zip(starts, sizes)
    empty = Neighbors(np.empty(0, np.int64), np.empty(0),
                      np.zeros(1, np.int64))
    assert list(empty.blocks()) == []


def test_one_large_ask_does_not_widen_a_block():
    # every voxel holds 2 to 4 coincident points, so each nearest query at
    # a voxel is a possible tie with an ask of 0; one far query asks about
    # the cloud's extent. Sharing that ask with its block gave every row
    # every point: 3e6 pairs, peaking at 51 MB against under 1 MB here. A
    # per-row radius array with one large radius is the same case
    rng = np.random.default_rng(5)
    voxels = np.stack(np.meshgrid(*[np.arange(10.0)] * 3), -1).reshape(-1, 3)
    points = np.repeat(voxels, rng.integers(2, 5, len(voxels)), axis=0)
    queries = np.vstack([voxels, [[30.0, 30.0, 30.0]]])
    radii = np.zeros(len(queries))
    radii[-1] = 60.0
    index = build_index(PointCloud(points))
    oidx, odst = brute_knn(points, queries, 1)
    tracemalloc.start()
    try:
        idx, dst = index.nearest_batch(queries)
        hoods = index.radius_batch(queries, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(idx, oidx[:, 0]) and np.array_equal(dst, odst[:, 0])
    assert hoods.counts[-1] == len(points)
    assert (hoods.counts[:-1] >= 2).all()
    assert (hoods.distances[:hoods.offsets[-2]] == 0).all()
    assert peak < 5e6, f"peak {peak / 1e6:.0f} MB"


def test_knn_memory_on_coincident_points_is_bounded():
    # 500 points on one voxel give 500 tied candidates each; padding every
    # row to the widest one made this peak at about 240 MB. Resolved over
    # distinct positions, the voxel's rows are one query of 12 candidates,
    # and the peak is about 5 MB, that of the k+1 query of every row
    rng = np.random.default_rng(8)
    points = np.vstack([rng.uniform(0, 100, size=(5000, 3)),
                        np.full((500, 3), 50.0)])
    index = build_index(PointCloud(points))
    tracemalloc.start()
    try:
        idx, _ = index.knn_batch(points, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.shape == (5500, 12)
    assert np.array_equal(idx[5000], np.arange(5000, 5012))
    assert peak < 10e6, f"peak {peak / 1e6:.0f} MB"


def test_mean_nn_distance_matches_brute_force():
    rng = np.random.default_rng(3)
    points = rng.uniform(0, 5, size=(40, 3))
    index = build_index(PointCloud(points))
    _, dst = brute_knn(points, points, 2)
    assert np.isclose(index.mean_nn_distance(), dst[:, 1].mean(), rtol=0,
                      atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 31), st.integers(1, 8))
def test_knn_property_matches_oracle(n, seed, k):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1, 1, size=(n, 3))
    queries = rng.uniform(-1, 1, size=(4, 3))
    index = build_index(PointCloud(points))
    idx, dst = index.knn_batch(queries, k)
    oidx, odst = brute_knn(points, queries, k)
    assert np.array_equal(idx, oidx) and np.array_equal(dst, odst)


@pytest.mark.parametrize("duplicates", [False, True])
def test_knn_prefix_equals_smaller_query(duplicates):
    # a k-query's first j columns equal a j-query, ties included, which
    # lets one self query serve every smaller k
    rng = np.random.default_rng(9)
    points = rng.uniform(0, 40, size=(500, 3))
    if duplicates:
        points = np.round(points / 8.0) * 8.0   # several points per voxel
        assert len(np.unique(points, axis=0)) < len(points) / 2
    index = build_index(PointCloud(points))
    k = 13
    idx, dst = index.knn_batch(points, k)
    for j in range(1, k + 1):
        jidx, jdst = index.knn_batch(points, j)
        assert np.array_equal(idx[:, :j], jidx), j
        assert np.array_equal(dst[:, :j], jdst), j
    nidx, ndst = index.nearest_batch(points)
    assert np.array_equal(idx[:, 0], nidx) and np.array_equal(dst[:, 0], ndst)
    assert float(dst[:, 1].mean()) == index.mean_nn_distance()
