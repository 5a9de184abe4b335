import numpy as np
import pytest

from pcqkit.cloud import PointCloud
from pcqkit.config import Config
from pcqkit.errors import AllKeypointsEmpty
from pcqkit.metrics.graphsim import (GradientFeatures, extract_keypoints,
                                     graph_pair_sims, msgraphsim_score,
                                     scale_transform)
from pcqkit.plan import PairPlan, ReferenceContext
from pcqkit.spatial import build_index

from conftest import jitter, surface_cloud


def score(ref, dist, config=None, reference=None):
    return msgraphsim_score(PairPlan.build(ref, dist, config, reference))


def keypoints(cloud, fraction):
    knn = build_index(cloud).knn_batch(cloud.positions, 11)
    return extract_keypoints(
        cloud, knn, Config(graphsim_keypoint_fraction=fraction))


def test_sim_mg_hand_value():
    # magnitudes 2 vs 4, T = 0.001: (2*2*4 + t) / (4 + 16 + t) ~= 0.800
    zeros = np.zeros(1)
    ref = GradientFeatures(np.array([2.0]), zeros, zeros, np.zeros((1, 1)))
    dist = GradientFeatures(np.array([4.0]), zeros, zeros, np.zeros((1, 1)))
    sims = graph_pair_sims(ref, dist, (0.001, 0.001, 0.001))
    assert abs(sims[0, 0] - 0.800) < 1e-3
    assert abs(sims[0, 0] - 16.001 / 20.001) < 1e-12


def test_identity_is_exactly_one():
    cloud = surface_cloud(700, seed=1)
    same = score(cloud, cloud)
    assert same.overall == 1.0
    assert np.all(same.sims == 1.0)
    assert np.all(same.per_scale == 1.0)


def test_noise_decreases_similarity():
    ref = surface_cloud(1200, seed=2)
    mild = jitter(ref, 0.5, seed=3, color_sigma=3.0)
    harsh = jitter(ref, 3.0, seed=3, color_sigma=18.0)
    assert score(ref, mild).overall > score(ref, harsh).overall


def test_keypoint_count_and_determinism():
    cloud = surface_cloud(500, seed=4)
    keys = keypoints(cloud, 0.1)
    assert len(keys.indices) == 50  # ceil(0.1 * 500)
    again = keypoints(cloud, 0.1)
    assert np.array_equal(keys.indices, again.indices)
    few = keypoints(cloud, 0.004)
    assert len(few.indices) == 2  # ceil rounds up


def test_keypoints_prefer_high_response():
    # a flat sheet with one spike: the spike must be selected first
    base = surface_cloud(400, seed=5)
    positions = base.positions.copy()
    positions[7, 2] += 60.0
    spiky = PointCloud(positions, colors=base.colors, bit_depth=8)
    keys = keypoints(spiky, 0.01)
    assert 7 in keys.indices


def test_scale_transform_membership_and_contraction():
    rng = np.random.default_rng(6)
    member_pos = rng.uniform(0, 10, size=(9, 3))
    centroid = np.array([5.0, 5.0, 5.0])
    kept, moved = scale_transform(member_pos, 2, centroid)
    assert np.array_equal(kept, [0, 4, 8])  # every 2^2-th member
    expected = centroid + (member_pos[kept] - centroid) / 4.0
    assert np.allclose(moved, expected)
    kept0, moved0 = scale_transform(member_pos, 0, centroid)
    assert np.array_equal(kept0, np.arange(9))
    assert np.array_equal(moved0, member_pos)


def test_holes_are_counted_and_punished():
    ref = surface_cloud(1500, seed=7)
    # carve out a disk: keypoints inside it see an empty dist graph
    center = ref.positions[0]
    dst = np.linalg.norm(ref.positions - center, axis=1)
    keep = dst > 25.0
    dist = PointCloud(ref.positions[keep], colors=ref.colors[keep],
                      bit_depth=8)
    holed = score(ref, dist)
    whole = score(ref, jitter(ref, 0.01, seed=8))
    assert holed.empty_dist_graphs > 0
    assert holed.overall < whole.overall


def test_all_empty_raises():
    ref = surface_cloud(300, seed=9)
    far = PointCloud(ref.positions + 1e6, colors=ref.colors, bit_depth=8)
    with pytest.raises(AllKeypointsEmpty):
        score(ref, far)


def test_nan_radius_is_rejected():
    cloud = surface_cloud(200, seed=10)
    with pytest.raises(ValueError):
        score(cloud, cloud, Config(graphsim_radius_factor=float("nan")))


def test_scales_are_scored_independently_and_reference_is_reusable():
    # a scale's similarities do not depend on which other scales run
    ref = surface_cloud(400, seed=12)
    dist = jitter(ref, 1.5, seed=13, color_sigma=6.0)
    three = score(ref, dist, Config(graphsim_n_scales=3))
    config = Config(graphsim_n_scales=4)
    reference = ReferenceContext.build(ref, config)
    for _ in range(2):
        four = score(ref, dist, config, reference)
        assert four.scales == (0, 1, 2, 3)
        assert np.array_equal(four.sims[:3], three.sims)
        assert np.array_equal(four.per_scale[:3], three.per_scale)
