import tracemalloc

import numpy as np
import pytest

from pcqkit import spatial
from pcqkit.cloud import PointCloud, bounding_box
from pcqkit.spatial import Neighbors, build_index
from pcqkit.surface import SurfaceFit, estimate_normals, fit_local_surfaces

from conftest import surface_cloud


def _grid(n, span):
    axis = np.linspace(-span, span, n)
    gx, gy = np.meshgrid(axis, axis)
    return gx.ravel(), gy.ravel()


def test_plane_normals_and_zero_curvature():
    gx, gy = _grid(15, 2.0)
    pts = np.column_stack([gx, gy, np.full(gx.size, 3.0)])
    index = build_index(PointCloud(pts))
    fit = fit_local_surfaces(pts, index.radius_batch(pts, 0.9), pts)
    assert np.allclose(np.abs(fit.normals[:, 2]), 1.0, atol=1e-12)
    assert np.allclose(fit.curvatures, 0.0, atol=1e-12)


def test_sphere_curvature_is_inverse_radius():
    rng = np.random.default_rng(4)
    radius = 5.0
    direction = rng.normal(size=(4000, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = radius * direction
    index = build_index(PointCloud(pts))
    fit = fit_local_surfaces(pts, index.radius_batch(pts, 0.8), pts)
    ok = ~fit.degenerate & ~fit.plane_fallback
    assert ok.mean() > 0.99
    # |H| of a radius-r sphere is 1/r
    err = np.abs(fit.curvatures[ok] - 1.0 / radius) * radius
    assert np.median(err) < 0.05
    # normals are radial
    cosang = np.abs(np.einsum("ij,ij->i", fit.normals[ok], direction[ok]))
    assert np.median(cosang) > 0.999


def test_estimate_normals_oriented_outward_from_centroid():
    rng = np.random.default_rng(5)
    direction = rng.normal(size=(2000, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    cloud = PointCloud(7.0 * direction)
    neighbors = build_index(cloud).radius_batch(cloud.positions, 1.5)
    normals = estimate_normals(cloud, neighbors)
    assert normals.shape == (2000, 3)
    dots = np.einsum("ij,ij->i", normals, direction)
    assert (dots > 0).mean() > 0.99


@pytest.mark.parametrize("budget", [spatial._BLOCK_BUDGET, 60])
def test_normals_at_a_subset_of_rows_equal_the_whole_cloud(budget,
                                                            monkeypatch):
    # a sheet snapped to a coarse grid (coincident points, plane fallbacks
    # and degenerate rows), asked at the points of its low-x third alone
    sheet = surface_cloud(1500, seed=12)
    cloud = PointCloud(np.round(sheet.positions / 8.0) * 8.0)
    index = build_index(cloud)
    whole = estimate_normals(cloud, index.radius_batch(cloud.positions,
                                                       12.0))
    rows = np.flatnonzero(cloud.positions[:, 0] < 70.0)
    monkeypatch.setattr(spatial, "_BLOCK_BUDGET", budget)
    part = estimate_normals(
        cloud, index.radius_batch(cloud.positions[rows], 12.0), rows)
    assert np.array_equal(part, whole[rows])
    # the sign is taken against the whole cloud's centroid: against the
    # subset's own, some of these normals would flip
    own = bounding_box(PointCloud(cloud.positions[rows])).centroid
    outward = np.einsum("ij,ij->i", part, cloud.positions[rows] - own)
    assert (outward < 0.0).any()


def test_degenerate_neighborhood_falls_back():
    # collinear points: the quadric frame is rank-1, so the fit must
    # flag the row instead of blowing up
    pts = np.column_stack([np.linspace(0, 1, 30),
                           np.zeros(30), np.zeros(30)])
    index = build_index(PointCloud(pts))
    fit = fit_local_surfaces(pts, index.radius_batch(pts, 0.2), pts)
    assert fit.degenerate.all()
    assert np.all(np.isfinite(fit.curvatures))


def test_tiny_neighborhoods_use_plane_fit():
    gx, gy = _grid(10, 1.0)
    pts = np.column_stack([gx, gy, np.zeros(gx.size)])
    index = build_index(PointCloud(pts))
    # radius covers the 5-point cross: enough for a plane, not a quadric
    fit = fit_local_surfaces(pts, index.radius_batch(pts, 0.25), pts)
    assert fit.plane_fallback.any()
    assert np.all(np.isfinite(fit.normals))


def test_chunking_does_not_change_fits(monkeypatch):
    # chunk boundaries fall between rows, and empty rows (centers far off
    # the cloud) and rows bigger than a chunk are fitted alike
    rng = np.random.default_rng(6)
    direction = rng.normal(size=(600, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = 5.0 * direction
    centers = np.vstack([pts[:300], pts[:40] + 100.0])[
        rng.permutation(340)]
    neighbors = build_index(PointCloud(pts)).radius_batch(centers, 1.2)
    assert (neighbors.counts == 0).any()
    assert neighbors.counts.max() > 7
    whole = fit_local_surfaces(pts, neighbors, centers)
    monkeypatch.setattr(spatial, "_BLOCK_BUDGET", 7)
    chunked = fit_local_surfaces(pts, neighbors, centers)
    for name in ("normals", "curvatures", "plane_fallback", "degenerate"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name))


# ---------------------------------------------------------------------------
# the feature-major kernel against the row-major one it replaced, which
# reduced the full outer products of every neighbor row

def row_major_fit(points, neighbors, centers):
    """SurfaceFit of all rows in one row-major pass."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    m = centers.shape[0]
    normals = np.tile([0.0, 0.0, 1.0], (m, 1))
    curvatures = np.zeros(m)
    plane_fallback = np.zeros(m, dtype=bool)
    degenerate = neighbors.counts == 0
    offsets = neighbors.offsets
    sel = np.flatnonzero(np.diff(offsets))
    if len(sel) == 0:
        return SurfaceFit(normals, curvatures, plane_fallback, degenerate)
    seg_counts = offsets[sel + 1] - offsets[sel]
    seg_starts = offsets[sel]
    ctr_row = np.repeat(np.arange(len(sel)), seg_counts)

    nbr = points[neighbors.indices]
    mean = np.add.reduceat(nbr, seg_starts, axis=0) / seg_counts[:, None]
    d = nbr - mean[ctr_row]
    cov = np.add.reduceat(d[:, :, None] * d[:, None, :], seg_starts, axis=0)
    cov /= seg_counts[:, None, None]
    eigval, eigvec = np.linalg.eigh(cov)
    scale = eigval[:, 2]
    bad = (scale <= 0.0) | (eigval[:, 1] <= 1e-12 * scale)
    degenerate[sel[bad]] = True

    frame = eigvec[:, :, [2, 1, 0]]
    local = np.einsum("kij,ki->kj", frame[ctr_row], d)
    c_local = np.einsum("kij,ki->kj", frame, centers[sel] - mean)
    x, y, z = local[:, 0], local[:, 1], local[:, 2]
    design = np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=1)
    ata = np.add.reduceat(design[:, :, None] * design[:, None, :],
                          seg_starts, axis=0)
    atb = np.add.reduceat(design * z[:, None], seg_starts, axis=0)

    enough = (seg_counts >= 6) & ~bad
    tr = np.trace(ata, axis1=1, axis2=2) / 6.0
    ata += (1e-10 * np.maximum(tr, 1e-30))[:, None, None] * np.eye(6)
    coef = np.linalg.solve(ata, atb[:, :, None])[:, :, 0]
    a, b, c, dd, e = (coef[:, 0], coef[:, 1], coef[:, 2],
                      coef[:, 3], coef[:, 4])
    x0, y0 = c_local[:, 0], c_local[:, 1]
    fx = 2.0 * a * x0 + b * y0 + dd
    fy = b * x0 + 2.0 * c * y0 + e
    g = 1.0 + fx * fx + fy * fy
    h_mean = ((1.0 + fy * fy) * 2.0 * a - 2.0 * fx * fy * b
              + (1.0 + fx * fx) * 2.0 * c) / (2.0 * g ** 1.5)
    n_local = np.stack([-fx, -fy, np.ones_like(fx)], axis=1) / \
        np.sqrt(g)[:, None]
    n_world = np.einsum("kij,kj->ki", frame, n_local)

    use_p = ~enough & ~bad
    normals[sel[enough]] = n_world[enough]
    curvatures[sel[enough]] = np.abs(h_mean[enough])
    normals[sel[use_p]] = eigvec[use_p][:, :, 0]
    plane_fallback[sel[use_p]] = True
    return SurfaceFit(normals, curvatures, plane_fallback, degenerate)


def _sphere(n, seed, radius=5.0):
    direction = np.random.default_rng(seed).normal(size=(n, 3))
    return radius * direction / np.linalg.norm(direction, axis=1,
                                               keepdims=True)


def _radius_case(points, centers, r):
    neighbors = build_index(PointCloud(points)).radius_batch(centers, r)
    return points, neighbors, centers


def _off_cloud():
    # centers far off the cloud have empty rows
    pts = _sphere(500, seed=7)
    centers = np.vstack([pts[:200], pts[:30] + 100.0])
    return _radius_case(pts, centers, 1.2)


def _tiny():
    # a grid whose radius covers the 5-point cross: plane fallbacks
    gx, gy = _grid(12, 1.0)
    pts = np.column_stack([gx, gy, 0.1 * gx * gy])
    return _radius_case(pts, pts, 0.25)


def _coincident_and_collinear():
    line = np.column_stack([np.linspace(20.0, 21.0, 25), np.zeros(25),
                            np.zeros(25)])
    pile = np.repeat([[-20.0, 3.0, 1.0]], 9, axis=0)
    pts = np.vstack([_sphere(300, seed=8), line, pile])
    return _radius_case(pts, pts, 0.9)


def _duplicated_voxels():
    # a bumpy sheet snapped to a coarse grid with every duplicate kept
    pts = np.round(surface_cloud(2000, seed=9).positions / 10.0) * 10.0
    return _radius_case(pts, pts, 20.0)


FIT_CASES = {
    "sphere": lambda: _radius_case(_sphere(1500, seed=6),
                                   _sphere(1500, seed=6), 1.0),
    "empty_rows": _off_cloud,
    "plane_fallback": _tiny,
    "degenerate": _coincident_and_collinear,
    "duplicated_voxels": _duplicated_voxels,
}


@pytest.mark.parametrize("chunk", [spatial._BLOCK_BUDGET, 60])
@pytest.mark.parametrize("case", list(FIT_CASES))
def test_feature_major_equals_row_major_kernel(case, chunk, monkeypatch):
    points, neighbors, centers = FIT_CASES[case]()
    want = row_major_fit(points, neighbors, centers)
    monkeypatch.setattr(spatial, "_BLOCK_BUDGET", chunk)
    got = fit_local_surfaces(points, neighbors, centers)
    for name in ("normals", "curvatures", "plane_fallback", "degenerate"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_fit_cases_reach_the_edge_cases():
    fits = {case: row_major_fit(*FIT_CASES[case]()) for case in FIT_CASES}
    assert FIT_CASES["empty_rows"]()[1].counts.min() == 0
    assert fits["plane_fallback"].plane_fallback.any()
    _, neighbors, _ = FIT_CASES["degenerate"]()
    assert (fits["degenerate"].degenerate & (neighbors.counts > 1)).sum() \
        >= 25 + 9
    points, neighbors, _ = FIT_CASES["duplicated_voxels"]()
    assert len(np.unique(points, axis=0)) < len(points) / 2
    # a chunk of 60 splits every case into many chunks, rows of more than
    # 60 neighbors into chunks of their own
    assert neighbors.counts.max() > 60


@pytest.mark.parametrize("k", [2, 24])
def test_a_chunk_holds_a_bounded_working_set(k):
    # 2^20 neighbor rows made directly, without a radius query
    rng = np.random.default_rng(10)
    m = 2 ** 20 // k
    points = rng.uniform(0.0, 100.0, size=(20_000, 3))
    centers = points[rng.integers(0, len(points), size=m)]
    neighbors = Neighbors(rng.integers(0, len(points), size=m * k),
                          np.zeros(m * k), np.arange(0, m * k + 1, k))
    tracemalloc.start()
    try:
        fit_local_surfaces(points, neighbors, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's temporaries (about 60 MB, see spatial._BLOCK_BUDGET)
    # with a third to spare, plus the (m,) outputs and cost array
    assert peak < 80e6 + 64 * m


def test_reduceat_sums_a_segment_alike_along_either_axis():
    # The kernel sums feature-major rows along axis 1, where it once
    # summed row-major arrays along axis 0; its values stay bit for bit
    # only because numpy sums each segment in the same order either way.
    rng = np.random.default_rng(11)
    lengths = rng.permutation(np.arange(1, 301))
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    a = rng.normal(size=(lengths.sum(), 6)) \
        * 10.0 ** rng.integers(-6, 7, size=(lengths.sum(), 1))
    along_rows = np.add.reduceat(a, starts, axis=0)
    along_features = np.add.reduceat(a.T.copy(), starts, axis=1).T
    assert np.array_equal(along_rows, along_features)
