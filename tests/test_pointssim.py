import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pcqkit.cloud import PointCloud
from pcqkit.config import Config
from pcqkit.errors import ConfigMismatch, MissingAttribute
from pcqkit.metrics.pointssim import (ESTIMATORS, extract_dispersion,
                                      pointssim_pool, pointssim_score)
from pcqkit.plan import PairPlan
from pcqkit.spatial import build_index

from conftest import jitter, surface_cloud


def score(ref, dist, attribute="luminance", config=None):
    return pointssim_score(PairPlan.build(ref, dist, config), attribute)


def test_variance_estimator_hand_value():
    rows = np.array([[1.0, 2.0, 3.0]])
    assert ESTIMATORS["variance"](rows)[0] == pytest.approx(2.0 / 3.0,
                                                            abs=1e-15)


def test_estimator_catalog():
    rows = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert ESTIMATORS["median"](rows)[0] == 2.5
    assert ESTIMATORS["mean_ad"](rows)[0] == 1.0
    assert ESTIMATORS["median_ad"](rows)[0] == 1.0
    # cov = std/mean, qcd = (q3-q1)/(q3+q1)
    assert ESTIMATORS["cov"](rows)[0] == pytest.approx(
        np.sqrt(1.25) / 2.5, abs=1e-15)
    q1, q3 = np.percentile(rows[0], [25, 75])
    assert ESTIMATORS["qcd"](rows)[0] == pytest.approx((q3 - q1) / (q3 + q1),
                                                       abs=1e-15)


def test_single_point_hand_value():
    # fields 2/3 vs 38/3: S = 12 / (38/3 + eps) ~= 0.947
    pooled = pointssim_pool(np.array([2.0 / 3.0]), np.array([38.0 / 3.0]),
                            np.array([0]), 1.0)
    assert abs(pooled - 0.9473684) < 1e-3


def test_identity_is_exactly_zero():
    cloud = surface_cloud(800, seed=1)
    for attribute in ("luminance", "geometry"):
        assert score(cloud, cloud, attribute) == 0.0


def test_more_noise_scores_worse():
    ref = surface_cloud(1200, seed=2)
    mild = jitter(ref, 0.5, seed=3, color_sigma=3.0)
    harsh = jitter(ref, 3.0, seed=3, color_sigma=18.0)
    for attribute in ("luminance", "geometry"):
        assert (score(ref, harsh, attribute)
                > score(ref, mild, attribute) > 0.0)


def test_score_is_bounded():
    ref = surface_cloud(500, seed=4)
    dist = jitter(ref, 10.0, seed=5, color_sigma=60.0)
    for attribute in ("luminance", "geometry"):
        assert 0.0 <= score(ref, dist, attribute) <= 1.0 + 1e-12


def test_pooling_exponent_changes_emphasis():
    ref = surface_cloud(500, seed=6)
    dist = jitter(ref, 1.0, seed=7, color_sigma=6.0)
    s1 = score(ref, dist, config=Config(pointssim_pooling_exponent=1.0))
    s2 = score(ref, dist, config=Config(pointssim_pooling_exponent=2.0))
    # values in [0,1): squaring shrinks the pooled mean
    assert s2 < s1


def test_unknown_estimator():
    # refused when the Config is made, before any metric runs
    with pytest.raises(ConfigMismatch, match="^pointssim_estimator: "):
        Config(pointssim_estimator="mystery")


def test_dist_context_shares_the_config_and_a_wider_knn():
    ref = surface_cloud(600, seed=11)
    dist = jitter(ref, 1.0, seed=12, color_sigma=6.0)
    config = Config(pointssim_k=4, graphsim_k=10, cloud_bit_depth=12)
    plan = PairPlan.build(ref, dist, config)
    assert plan.distorted.config is plan.config
    assert plan.distorted.bit_depth == 12
    # the dist context's one self k-NN has graphsim_k + 1 = 11 columns;
    # PointSSIM reads its first 4, which equal a separate 4-query
    assert plan.distorted.knn[0].shape[1] == 11
    cloud = replace(dist, bit_depth=12)
    knn4 = build_index(cloud).knn_batch(cloud.positions, 4)
    for attribute in ("luminance", "geometry"):
        expected = pointssim_pool(
            getattr(plan.reference, f"{attribute}_dispersion"),
            extract_dispersion(cloud, knn4, attribute, config),
            plan.nearest_forward[0], config.pointssim_pooling_exponent)
        assert pointssim_score(plan, attribute) == expected


def test_geometry_needs_no_colors():
    # each field is made when first read: a colourless cloud on either
    # side gives the geometry score of the same positions with colours
    ref = surface_cloud(300, seed=13)
    dist = jitter(ref, 1.0, seed=14, color_sigma=6.0)
    bare_ref, bare_dist = (PointCloud(c.positions, bit_depth=c.bit_depth)
                           for c in (ref, dist))
    expected = score(ref, dist, "geometry")
    for pair in ((bare_ref, dist), (ref, bare_dist), (bare_ref, bare_dist)):
        plan = PairPlan.build(*pair)
        assert pointssim_score(plan, "geometry") == expected
        with pytest.raises(MissingAttribute):
            pointssim_score(plan, "luminance")
    with pytest.raises(ValueError, match="unknown attribute 'bogus'"):
        pointssim_score(plan, "bogus")


def test_a_plan_is_freed_without_the_cycle_collector():
    # extract scores many distortions in one process; a context kept
    # alive by a reference cycle holds its kd-tree and queries until the
    # collector runs, which raises a worker's peak memory
    ref = surface_cloud(300, seed=15)
    plan = PairPlan.build(ref, jitter(ref, 1.0, seed=16, color_sigma=6.0))
    for attribute in ("luminance", "geometry"):
        pointssim_score(plan, attribute)
    contexts = [weakref.ref(plan.reference), weakref.ref(plan.distorted)]
    gc.disable()
    try:
        del plan
        assert [context() for context in contexts] == [None, None]
    finally:
        gc.enable()
