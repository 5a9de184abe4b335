import tracemalloc

import numpy as np
import pytest

from pcqkit import spatial
from pcqkit.config import Config
from pcqkit.metrics.pcqm import (DEFAULT_AGGREGATE_WEIGHTS, Correspondence,
                                 compute_pcqm_features, pcqm_aggregate,
                                 pcqm_compare)
from pcqkit.plan import PairPlan, ReferenceContext
from pcqkit.spatial import Neighbors

from conftest import jitter, surface_cloud


def _toy_correspondence(curvature):
    one = np.array([1.0])
    return Correspondence(
        curvature=np.array([float(curvature)]),
        lightness=50.0 * one, chroma_a=one, chroma_b=one,
        chroma=np.sqrt(2.0) * one, plane_fallbacks=0, degenerates=0)


# the toy's one point is its own only neighbour
_SELF = Neighbors(np.array([0]), np.array([0.0]), np.array([0, 1]))


def test_f1_toy_hand_value():
    # curvature means 1 vs 3 with k1 = 0: f1 = |1-3| / max(1,3) = 2/3
    ref = _toy_correspondence(1.0)
    dist = _toy_correspondence(3.0)
    feats = pcqm_compare(ref, dist, _SELF, 1.0, Config(pcqm_k1=0.0))
    assert abs(feats.as_dict()["f1"] - 2.0 / 3.0) < 1e-3


def _pair(sigma, n=900):
    ref = surface_cloud(n, seed=10)
    dist = jitter(ref, sigma, seed=11, color_sigma=sigma * 6)
    return compute_pcqm_features(PairPlan.build(ref, dist))


def test_identity_features_are_exact():
    feats = _pair(0.0).as_dict()
    for name in ("f1", "f2", "f3"):
        assert feats[name] == 0.0, name
    for name in ("f4", "f5", "f6", "f7", "f8"):
        assert feats[name] == 1.0, name


def test_identity_aggregate_is_exactly_zero():
    assert pcqm_aggregate(_pair(0.0)) == 0.0


def test_features_are_bounded():
    feats = _pair(3.0)
    assert np.all(feats.values >= 0.0) and np.all(feats.values <= 1.0)


def test_noise_moves_aggregate_up():
    assert pcqm_aggregate(_pair(2.0)) > pcqm_aggregate(_pair(0.5)) > 0.0


def test_aggregate_weights():
    feats = _pair(1.0)
    d = feats.as_dict()
    expected = (0.18 * d["f3"] + 0.44 * (1 - d["f4"]) + 0.38 * (1 - d["f6"]))
    assert pcqm_aggregate(feats) == pytest.approx(expected, abs=1e-15)
    assert sum(DEFAULT_AGGREGATE_WEIGHTS.values()) == 1.0


def test_constants_shift_similarity_features():
    ref = _toy_correspondence(1.0)
    dist = _toy_correspondence(3.0)
    small_k = pcqm_compare(ref, dist, _SELF, 1.0,
                           Config(pcqm_k1=1e-8)).as_dict()["f1"]
    big_k = pcqm_compare(ref, dist, _SELF, 1.0,
                         Config(pcqm_k1=10.0)).as_dict()["f1"]
    assert big_k < small_k  # a large stabilizer damps the contrast


def test_correspondence_samples_nearest_color():
    ref = surface_cloud(300, seed=12)
    corr = ReferenceContext.build(ref).corr
    assert corr.curvature.shape == (300,)
    assert np.all(np.isfinite(corr.curvature))
    assert np.all(corr.lightness >= 0.0) and np.all(corr.lightness <= 100.0)


def test_dist_radius_query_is_not_kept():
    ref = surface_cloud(300, seed=13)
    plan = PairPlan.build(ref, jitter(ref, 1.0, seed=14, color_sigma=3.0))
    compute_pcqm_features(plan)
    # the dist radius-h query lives only while PairPlan.corr is built
    assert "corr" in vars(plan)
    assert not any(isinstance(value, Neighbors)
                   for value in vars(plan).values())


def test_blocks_of_a_few_rows_equal_the_whole_run_bit_for_bit(monkeypatch):
    ref = surface_cloud(900, seed=10)
    plan = PairPlan.build(ref, jitter(ref, 2.0, seed=11, color_sigma=12.0))
    reference = plan.reference
    args = (reference.corr, plan.corr, reference.pcqm_neighbors,
            reference.pcqm_radius, plan.config)
    assert len(list(reference.pcqm_neighbors.blocks())) == 1
    whole = pcqm_compare(*args).values
    monkeypatch.setattr(spatial, "_BLOCK_BUDGET", 60)
    assert len(list(reference.pcqm_neighbors.blocks())) > 100
    assert np.array_equal(pcqm_compare(*args).values, whole)


@pytest.mark.parametrize("k", [16, 64])
def test_compare_holds_a_bounded_working_set(k):
    # 2^21 neighbour rows made directly, without a radius query; statistics
    # over the whole query at once peaked near 41 B a neighbour row more
    rng = np.random.default_rng(15)
    m = 2 ** 21 // k
    ref, dist = (Correspondence(*rng.uniform(0.0, 50.0, size=(5, m)), 0, 0)
                 for _ in range(2))
    neighbors = Neighbors(rng.integers(0, m, size=m * k),
                          rng.uniform(0.0, 1.0, size=m * k),
                          np.arange(0, m * k + 1, k))
    tracemalloc.start()
    try:
        pcqm_compare(ref, dist, neighbors, 1.0, Config())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's temporaries (about 140 B a neighbour row, 4.5 MB, see
    # spatial._BLOCK_BUDGET) with room to spare, plus the (m,) fields,
    # per-row features and their pooling
    assert peak < 10e6 + 300 * m, f"peak {peak / 1e6:.0f} MB"
