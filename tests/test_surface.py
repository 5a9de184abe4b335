import numpy as np

from pcqkit import surface
from pcqkit.cloud import PointCloud
from pcqkit.spatial import build_index
from pcqkit.surface import estimate_normals, fit_local_surfaces


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
    with_normals = estimate_normals(cloud, neighbors)
    dots = np.einsum("ij,ij->i", with_normals.normals, direction)
    assert (dots > 0).mean() > 0.99


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
    monkeypatch.setattr(surface, "_ROWS_PER_CHUNK", 7)
    chunked = fit_local_surfaces(pts, neighbors, centers)
    for name in ("normals", "curvatures", "plane_fallback", "degenerate"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name))
