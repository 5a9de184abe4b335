"""A PairPlan's shortcuts against the long way round, bit for bit.

A colour-only distortion shares the reference's self k-NN, and its plan
takes the nearest matches, PCQM surface and GraphSIM keypoint
neighbourhoods from the reference's own queries; its geometry PointSSIM
field, computed from that k-NN, equals the reference's. Either side of
D2 fits a normal only at the match of a point that moved, each row once
per context, so a colour-only or reordered dist fits none.
"""

import math

import numpy as np
import pytest

from pcqkit import plan as plan_module
from pcqkit.cloud import PointCloud
from pcqkit.config import Config
from pcqkit.errors import ConfigMismatch
from pcqkit.metrics.pcqm import build_correspondence
from pcqkit.metrics.psnr import compute_d2
from pcqkit.pipeline import METRIC_FAMILIES, compute_pair_metrics
from pcqkit.plan import PairPlan, ReferenceContext
from pcqkit.spatial import build_index
from pcqkit.surface import estimate_normals

from conftest import jitter, surface_cloud


def _quantised(n=900, seed=31, step=12.0):
    """A sheet snapped to a coarse grid: coincident points, k-NN ties."""
    cloud = surface_cloud(n, seed=seed)
    return PointCloud(np.round(cloud.positions / step) * step,
                      colors=cloud.colors, bit_depth=8)


def _recoloured(cloud, seed=32, normals=None):
    """cloud's positions (a copy) with noised colours."""
    rng = np.random.default_rng(seed)
    colors = np.round(np.clip(
        cloud.colors + rng.normal(0.0, 8.0, cloud.colors.shape), 0, 255))
    return PointCloud(cloud.positions.copy(), colors=colors,
                      normals=normals, bit_depth=cloud.bit_depth)


def _unshared(plan):
    """The same pair with a dist context of its own."""
    return PairPlan(plan.reference,
                    ReferenceContext.build(plan.distorted.cloud, plan.config))


@pytest.fixture
def fitted(monkeypatch):
    """(cloud, rows) of every normal estimate a context makes."""
    calls = []

    def recorded(cloud, neighbors, rows):
        calls.append((cloud, rows.tolist()))
        return estimate_normals(cloud, neighbors, rows)
    monkeypatch.setattr(plan_module, "estimate_normals", recorded)
    return calls


def _metrics(plan):
    out = {}
    for family in METRIC_FAMILIES.values():
        out.update(family(plan))
    return {name: repr(value) for name, value in out.items()}


def test_equal_positions_share_the_reference_geometry():
    ref = _quantised()
    plan = PairPlan.build(ref, _recoloured(ref))
    reference, distorted = plan.reference, plan.distorted
    assert distorted.geometry is reference
    assert distorted.knn is reference.knn
    assert PairPlan.build(ref, _quantised(step=13.0)).distorted.geometry \
        is None


def test_only_pair_plan_build_sets_a_shared_geometry():
    ref = _quantised()
    context = ReferenceContext.build(ref)
    with pytest.raises(TypeError):
        ReferenceContext(_recoloured(ref), context.config, geometry=context)
    assert ReferenceContext.build(ref).geometry is None


def test_a_plan_refuses_contexts_of_two_configs():
    # a median PointSSIM at k = 4 on the dist side alone scored geometry
    # PointSSIM 0.784 on this pair, where the plan's own config gives 0.123
    ref = surface_cloud(400, seed=1)
    dist = jitter(ref, 2.0, seed=2, color_sigma=5)
    other = Config(pointssim_k=4, pointssim_estimator="median")
    with pytest.raises(ConfigMismatch, match="one config"):
        PairPlan(ReferenceContext.build(ref, Config()),
                 ReferenceContext.build(dist, other))
    plan = PairPlan(ReferenceContext.build(ref, other),
                    ReferenceContext.build(dist, Config(**vars(other))))
    assert plan.config == other


def test_a_shared_geometry_belongs_to_its_own_reference():
    ref = _quantised()
    plan = PairPlan.build(ref, _recoloured(ref))
    with pytest.raises(ValueError, match="another reference"):
        PairPlan(ReferenceContext.build(ref), plan.distorted)
    assert PairPlan(plan.reference, plan.distorted).distorted.geometry \
        is plan.reference


def test_shared_nearest_matches_equal_the_queries():
    ref = _quantised()
    dist = _recoloured(ref)
    plan = PairPlan.build(ref, dist)
    # coincident points: many a point's nearest is another of its voxel
    assert (plan.nearest_forward[0] != np.arange(len(ref))).mean() > 0.5
    for got, want in ((plan.nearest_forward,
                       build_index(ref).nearest_batch(dist.positions)),
                      (plan.nearest_backward,
                       build_index(dist).nearest_batch(ref.positions))):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_shared_correspondence_equals_its_own_fit():
    ref = _quantised()
    dist = _recoloured(ref)
    plan = PairPlan.build(ref, dist)
    index = build_index(dist)
    want = build_correspondence(
        ref, dist, index.radius_batch(ref.positions,
                                      plan.reference.pcqm_radius),
        index.nearest_batch(ref.positions)[0], None)
    got = plan.corr
    for name in ("curvature", "lightness", "chroma_a", "chroma_b", "chroma"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.plane_fallbacks, got.degenerates) == \
        (want.plane_fallbacks, want.degenerates)
    assert want.plane_fallbacks + want.degenerates > 0


def test_shared_d2_normals_equal_their_own_estimate():
    ref = _quantised()
    dist = _recoloured(ref)
    plan = PairPlan.build(ref, dist)
    radius = plan.config.psnr_normal_radius
    want = estimate_normals(dist, build_index(dist).radius_batch(
        dist.positions, radius))
    rows = plan.nearest_backward[0]
    assert np.array_equal(plan.distorted.normals_at(rows), want[rows])
    assert np.array_equal(plan.distorted.normals_at(np.arange(len(dist))),
                          want)


def test_shared_graphsim_neighbours_and_dispersion_equal_their_own():
    ref = _quantised()
    plan = PairPlan.build(ref, _recoloured(ref))
    own = _unshared(plan)
    got, want = plan.graphsim_neighbors, own.graphsim_neighbors
    assert got is plan.reference.graphsim.members
    for name in ("indices", "distances", "offsets"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert np.array_equal(plan.distorted.geometry_dispersion,
                          own.distorted.geometry_dispersion)
    assert np.array_equal(plan.distorted.geometry_dispersion,
                          plan.reference.geometry_dispersion)


def test_every_metric_equals_the_unshared_plan():
    ref = _quantised()
    plan = PairPlan.build(ref, _recoloured(ref))
    assert _metrics(plan) == _metrics(_unshared(plan))


@pytest.mark.parametrize("side", ["dist", "ref", "both"])
def test_own_normals_are_kept_under_shared_geometry(side):
    ref = _quantised()
    rng = np.random.default_rng(33)
    given = {s: rng.normal(size=(len(ref), 3)) for s in ("dist", "ref")}
    if side in ("ref", "both"):
        ref = PointCloud(ref.positions, colors=ref.colors,
                         normals=given["ref"], bit_depth=8)
    dist = _recoloured(ref, normals=given["dist"] if side != "ref" else None)
    plan = PairPlan.build(ref, dist)
    assert plan.distorted.geometry is plan.reference
    rows = plan.nearest_backward[0]
    want = _unshared(plan).distorted.normals_at(rows)
    assert np.array_equal(plan.distorted.normals_at(rows), want)
    if side == "ref":
        # the reference's given normals are not the dist's estimate
        assert not np.array_equal(want, plan.reference.normals_at(rows))
    else:
        assert np.array_equal(want, dist.normals[rows])
    assert repr(compute_d2(plan)) == repr(compute_d2(_unshared(plan)))


def test_d2_reads_dist_normals_fitted_at_the_matched_rows_alone():
    ref = surface_cloud(700, seed=34)
    dist = _quantised(700, seed=34, step=20.0)
    plan = PairPlan.build(ref, dist, Config(psnr_normal_radius=30.0))
    rows = plan.nearest_backward[0]
    assert len(np.unique(rows)) < len(dist) / 2
    normals = estimate_normals(dist, build_index(dist).radius_batch(
        dist.positions, 30.0))
    err = ref.positions - dist.positions[rows]
    proj = np.einsum("ij,ij->i", err, normals[rows])
    assert compute_d2(plan).mse_backward == float(np.mean(proj * proj))


def test_a_reordered_reference_fits_no_normal(fitted):
    ref = surface_cloud(500, seed=35)
    assert len(np.unique(ref.positions, axis=0)) == len(ref)
    order = np.random.default_rng(36).permutation(len(ref))
    dist = PointCloud(ref.positions[order], colors=ref.colors[order],
                      bit_depth=ref.bit_depth)
    assert PairPlan.build(ref, dist).distorted.geometry is None
    assert compute_pair_metrics(ref, dist)["psnr_d2"] == math.inf
    assert fitted == []


def test_a_downsampled_dist_fits_normals_where_a_dropped_point_matched(
        fitted):
    ref = surface_cloud(700, seed=37)
    kept = np.sort(np.random.default_rng(38).choice(700, 420, replace=False))
    dist = PointCloud(ref.positions[kept], colors=ref.colors[kept],
                      bit_depth=ref.bit_depth)
    plan = PairPlan.build(ref, dist, Config(psnr_normal_radius=30.0))
    got = compute_d2(plan)
    # the forward pass matches every dist point to itself and fits nothing
    rows = plan.nearest_backward[0]
    dropped = np.setdiff1d(np.arange(len(ref)), kept)
    [(cloud, fitted_rows)] = fitted
    assert cloud is dist
    assert fitted_rows == np.unique(rows[dropped]).tolist()
    assert 0 < len(fitted_rows) < len(dist)
    normals = estimate_normals(dist, build_index(dist).radius_batch(
        dist.positions, 30.0))
    proj = np.einsum("ij,ij->i", ref.positions - dist.positions[rows],
                     normals[rows])
    assert got.mse_forward == 0.0
    assert got.mse_backward == float(np.mean(proj * proj))


def test_normals_asked_in_two_calls_equal_one_call_over_their_union(fitted):
    cloud = _quantised()
    rng = np.random.default_rng(39)
    first, second = (rng.integers(0, len(cloud), 300) for _ in range(2))
    context = ReferenceContext.build(cloud)
    got = np.concatenate([context.normals_at(first),
                          context.normals_at(second)])
    want = ReferenceContext.build(cloud).normals_at(
        np.concatenate([first, second]))
    assert got.tobytes() == want.tobytes()
    new = np.setdiff1d(second, first)
    assert 0 < len(new) < len(np.unique(second))
    assert [rows for _, rows in fitted] == [
        np.unique(first).tolist(), new.tolist(),
        np.union1d(first, second).tolist()]
