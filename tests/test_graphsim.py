import tracemalloc

import numpy as np
import pytest

from pcqkit.cloud import PointCloud
from pcqkit.colorspace import rgb_to_gaussian
from pcqkit.config import Config
from pcqkit.errors import AllKeypointsEmpty, ConfigMismatch
from pcqkit.metrics import graphsim
from pcqkit.metrics.graphsim import (GraphFeatures, extract_keypoints,
                                     graph_blocks, graph_filter_response,
                                     graph_pair_sims, msgraphsim_score)
from pcqkit.plan import PairPlan, ReferenceContext
from pcqkit.spatial import Neighbors, build_index

from conftest import jitter, surface_cloud


def score(ref, dist, config=None):
    return msgraphsim_score(PairPlan.build(ref, dist, config))


def keypoints(cloud, fraction):
    knn = build_index(cloud).knn_batch(cloud.positions, 11)
    return extract_keypoints(
        cloud, knn, Config(graphsim_keypoint_fraction=fraction))


def one_graph(m_g):
    """GraphFeatures of one graph with one zero gradient of one channel."""
    zeros = np.zeros((1, 1))
    return GraphFeatures(np.array([[m_g]]), zeros, np.array([0, 1]),
                         np.zeros((2, 1)))


def test_sim_mg_hand_value():
    # magnitudes 2 vs 4, T = 0.001: (2*2*4 + t) / (4 + 16 + t) ~= 0.800
    sims = graph_pair_sims(one_graph(2.0), one_graph(4.0),
                           (0.001, 0.001, 0.001))
    assert sims.shape == (1, 3, 1)
    assert abs(sims[0, 0, 0] - 0.800) < 1e-3
    assert abs(sims[0, 0, 0] - 16.001 / 20.001) < 1e-12


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
    assert len(keys) == 50  # ceil(0.1 * 500)
    again = keypoints(cloud, 0.1)
    assert np.array_equal(keys, again)
    few = keypoints(cloud, 0.004)
    assert len(few) == 2  # ceil rounds up


def _oracle_response(positions, k_graph):
    """graph_filter_response with each point's k_graph nearest others
    found by brute force in (distance, index) order, the point itself
    left out by its index."""
    n = len(positions)
    others = np.empty((n, k_graph), dtype=np.int64)
    for i in range(n):
        diff = positions - positions[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        others[i] = [j for j in np.lexsort((np.arange(n), d)) if j != i][
            :k_graph]
    return np.linalg.norm(positions - positions[others].mean(axis=1), axis=1)


def _crowded(seed):
    """A quantised sheet with coincident crowds, one of them 15 strong,
    and a -0.0 copy of each point on the plane z = 0."""
    rng = np.random.default_rng(seed)
    positions = np.round(surface_cloud(60, seed=seed).positions / 20.0)
    positions[:, 2] -= positions[0, 2]
    zeros = positions[positions[:, 2] == 0.0] * [1.0, 1.0, -1.0]
    crowd = np.repeat(positions[rng.integers(len(positions), size=1)], 15, 0)
    positions = np.concatenate([positions, zeros, crowd])
    return positions[rng.permutation(len(positions))]


@pytest.mark.parametrize("positions, k_graph", [
    (_crowded(41), 10), (_crowded(42), 4), (_crowded(43), 20),
    (_crowded(44)[:7], 6), (_crowded(45)[:7], 9), (np.zeros((3, 3)), 5),
    (np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, 1.0, 3.0]]), 1)])
def test_filter_response_equals_the_leave_own_index_out_oracle(positions,
                                                               k_graph):
    cloud = PointCloud(positions)
    knn = build_index(cloud).knn_batch(positions, k_graph + 1)
    response = graph_filter_response(cloud, knn, k_graph)
    oracle = _oracle_response(positions, min(k_graph, len(positions) - 1))
    assert np.array_equal(response, oracle)


def test_keypoints_prefer_high_response():
    # a flat sheet with one spike: the spike must be selected first
    base = surface_cloud(400, seed=5)
    positions = base.positions.copy()
    positions[7, 2] += 60.0
    spiky = PointCloud(positions, colors=base.colors, bit_depth=8)
    keys = keypoints(spiky, 0.01)
    assert 7 in keys


def test_scale_transform_membership_and_contraction():
    rng = np.random.default_rng(6)
    member_pos = rng.uniform(0, 10, size=(9, 3))
    centroid = np.array([5.0, 5.0, 5.0])
    members = Neighbors(np.arange(9), np.zeros(9), np.array([0, 9]))
    (rows, kept, moved), = graph_blocks(members, member_pos, 2, centroid)
    assert np.array_equal(rows, [0])
    assert np.array_equal(kept, [[0, 4, 8]])  # every 2^2-th member
    expected = centroid + (member_pos[[0, 4, 8]] - centroid) / 4.0
    assert np.allclose(moved[0], expected)
    (_, kept0, moved0), = graph_blocks(members, member_pos, 0, centroid)
    assert np.array_equal(kept0, [np.arange(9)])
    assert np.array_equal(moved0[0], member_pos)


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
    # refused when the Config is made, before any metric runs
    with pytest.raises(ConfigMismatch, match="^graphsim_radius_factor: "):
        Config(graphsim_radius_factor=float("nan"))


def test_scales_are_scored_independently_and_reference_is_reusable():
    # a scale's similarities do not depend on which other scales run
    ref = surface_cloud(400, seed=12)
    dist = jitter(ref, 1.5, seed=13, color_sigma=6.0)
    three = score(ref, dist, Config(graphsim_n_scales=3))
    config = Config(graphsim_n_scales=4)
    reference = ReferenceContext.build(ref, config)
    for _ in range(2):
        four = score(reference, dist)
        assert four.scales == (0, 1, 2, 3)
        assert np.array_equal(four.sims[:3], three.sims)
        assert np.array_equal(four.per_scale[:3], three.per_scale)


# ---------------------------------------------------------------------------
# the batched arithmetic against a per-keypoint oracle: one graph and one
# graph pair at a time, as the metric was first written

def _oracle_features(positions, signals, center_pos, smoothing):
    """(m_g, mu_g, gradients) of one distance-sorted graph."""
    diff = positions - center_pos
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    sigma = float(d[1:].mean()) if len(d) > 1 else 0.0
    if sigma > 0.0:
        w = np.exp(-(d * d) / (sigma * sigma))
    else:
        w = np.ones_like(d)
    f = signals
    if smoothing and len(positions) > 1:
        diff = positions[:, None, :] - positions[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        if sigma > 0.0:
            w_pair = np.exp(-d2 / (sigma * sigma))
        else:
            w_pair = np.ones_like(d2)
        f = (w_pair @ signals) / w_pair.sum(axis=1, keepdims=True)
    g = np.sqrt(w[1:, None]) * (f[1:] - f[0])
    if len(g) == 0:
        zeros = np.zeros(signals.shape[1])
        return zeros, zeros, g
    m_g = g.sum(axis=0)
    return m_g, m_g / len(g), g


def _oracle_pair_sims(feat_ref, feat_dist, t):
    (m_r, u_r, gr), (m_d, u_d, gd) = feat_ref, feat_dist
    sim_m = (2.0 * m_r * m_d + t[0]) / (m_r ** 2 + m_d ** 2 + t[0])
    sim_u = (2.0 * u_r * u_d + t[1]) / (u_r ** 2 + u_d ** 2 + t[1])
    n = max(len(gr), len(gd))
    if n == 0:
        sim_c = np.ones(len(m_r))
    else:
        gr = np.vstack([gr, np.zeros((n - len(gr), len(m_r)))])
        gd = np.vstack([gd, np.zeros((n - len(gd), len(m_r)))])
        dr = gr - gr.mean(axis=0)
        dd = gd - gd.mean(axis=0)
        sim_c = (((dr * dd).mean(axis=0) + t[2])
                 / (np.sqrt((dr * dr).mean(axis=0) * (dd * dd).mean(axis=0))
                    + t[2]))
    return np.stack([sim_m, sim_u, sim_c])


def _oracle_graph(cloud, signals, idx, scale, center, centroid, smoothing):
    kept = np.arange(0, len(idx), 2 ** scale)
    pos = cloud.positions[idx]
    if scale > 0:
        pos = centroid + (pos[kept] - centroid) / 2 ** scale
    return _oracle_features(pos, signals[idx[kept]], center, smoothing)


def oracle_score(plan):
    """(sims, per_scale, overall, empty_dist_graphs), one keypoint at a
    time."""
    config = plan.config
    ref, dist = plan.reference.cloud, plan.distorted.cloud
    reference = plan.reference.graphsim
    scales = range(config.graphsim_n_scales)
    t = (config.graphsim_t_mag, config.graphsim_t_mean, config.graphsim_t_cov)
    smoothing, centroid = config.graphsim_smoothing, reference.centroid
    sig_ref, sig_dist = rgb_to_gaussian(ref.colors), rgb_to_gaussian(dist.colors)
    ref_members = plan.reference.index.radius_batch(
        ref.positions[reference.keypoints], reference.radius,
        sort_by_distance=True)
    sims = np.zeros((len(ref_members), len(scales), 3, 3))
    empty = 0
    for i, (r_idx, _) in enumerate(ref_members):
        d_idx = plan.graphsim_neighbors[i][0]
        empty += len(d_idx) == 0
        for s in scales:
            center = reference.centers[s, i]
            feat_r = _oracle_graph(ref, sig_ref, r_idx, s, center, centroid,
                                   smoothing)
            if len(d_idx) == 0:
                zeros = np.zeros(3)
                feat_d = (zeros, zeros, np.zeros((0, 3)))
            else:
                feat_d = _oracle_graph(dist, sig_dist, d_idx, s, center,
                                       centroid, smoothing)
            sims[i, s] = _oracle_pair_sims(feat_r, feat_d, t)
    cw = np.array([6.0, 1.0, 1.0])
    kind_means = (np.einsum("ksjc,c->ksj", sims, cw) / cw.sum()).mean(axis=0)
    per_scale = (np.abs(sims.prod(axis=2)) @ cw / cw.sum()).mean(axis=0)
    weights = np.full(len(scales), 1.0 / len(scales))
    overall = float(per_scale @ weights / weights.sum())
    return kind_means, per_scale, overall, empty


def _holed(ref):
    far = np.linalg.norm(ref.positions - ref.positions[0], axis=1) > 25.0
    return PointCloud(ref.positions[far], colors=ref.colors[far],
                      bit_depth=8)


def _quantised(cloud, grid=4.0):
    return PointCloud(np.round(cloud.positions / grid) * grid,
                      colors=cloud.colors, bit_depth=8)


def _downsampled(ref, share=0.6):
    keep = np.sort(np.random.default_rng(5).choice(
        len(ref), int(share * len(ref)), replace=False))
    return PointCloud(ref.positions[keep], colors=ref.colors[keep],
                      bit_depth=8)


_REF = surface_cloud(1500, seed=7)
_NOISY = jitter(_REF, 1.5, seed=13, color_sigma=6.0)

ORACLE_CASES = {
    "hole": (_REF, _holed(_REF), Config()),
    # voxel duplicates: graphs of one member, and graphs whose members
    # all sit on their center (sigma = 0)
    "duplicates": (_quantised(_REF), _quantised(_NOISY), Config()),
    "downsample": (_REF, _downsampled(_REF), Config()),    # 60% kept
    "no_smoothing": (_REF, _NOISY, Config(graphsim_smoothing=False)),
    "four_scales": (_REF, _NOISY, Config(graphsim_n_scales=4)),
    # graphs of tens of members
    "wide_graphs": (
        _REF, _NOISY, Config(graphsim_keypoint_fraction=1.0,
                             graphsim_radius_factor=6.0)),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_batched_equals_per_keypoint_oracle(case):
    ref, dist, config = ORACLE_CASES[case]
    plan = PairPlan.build(ref, dist, config)
    got = msgraphsim_score(plan)
    sims, per_scale, overall, empty = oracle_score(plan)
    assert np.array_equal(got.sims, sims)
    assert np.array_equal(got.per_scale, per_scale)
    assert got.overall == overall
    assert got.empty_dist_graphs == empty


def test_oracle_cases_reach_the_edge_cases():
    def counts(case):
        ref, dist, config = ORACLE_CASES[case]
        plan = PairPlan.build(ref, dist, config)
        return plan.graphsim_neighbors
    assert np.any(counts("hole").counts == 0)
    members = counts("duplicates")
    assert np.any(members.counts == 1)
    on_center = [np.all(members[i][1] == 0.0)
                 for i in np.flatnonzero(members.counts > 1)]
    assert any(on_center)        # sigma = 0 at scale 0
    assert counts("wide_graphs").counts.max() >= 20


def test_blocks_split_a_group_without_changing_a_value(monkeypatch):
    ref, dist, config = ORACLE_CASES["wide_graphs"]
    whole = score(ref, dist, config)
    members = PairPlan.build(ref, dist, config).graphsim_neighbors
    groups = len(list(graph_blocks(members, dist.positions, 0,
                                   np.zeros(3))))
    for budget in (3 * 20 * 20 * 4, 1):
        monkeypatch.setattr(graphsim, "_PAIR_BUDGET", budget)
        blocks = len(list(graph_blocks(members, dist.positions, 0,
                                       np.zeros(3))))
        assert blocks > groups
        split = score(ref, dist, config)
        assert np.array_equal(split.sims, whole.sims)
        assert np.array_equal(split.per_scale, whole.per_scale)
        assert split.overall == whole.overall


def _grid(side, copies, seed):
    """A flat side x side grid of unit spacing, every node `copies`
    times, with textured colors."""
    xy = np.stack(np.meshgrid(np.arange(side), np.arange(side)),
                  axis=-1).reshape(-1, 2).astype(float)
    positions = np.column_stack([xy, np.zeros(len(xy))])
    colors = np.column_stack([128 + 100 * np.sin(xy[:, 0] / 3.0),
                              128 + 80 * np.cos(xy[:, 1] / 4.0),
                              np.full(len(xy), 90.0)])
    rng = np.random.default_rng(seed)
    colors = np.round(np.clip(colors + rng.normal(0, 8.0, colors.shape),
                              0, 255))
    return PointCloud(np.repeat(positions, copies, axis=0),
                      colors=np.repeat(colors, copies, axis=0), bit_depth=8)


def test_a_batch_holds_a_bounded_multiple_of_the_budget():
    # every dist node repeated 6 times: about 250 graphs of 78 members,
    # 37 MB of pair differences if one batch held them all
    ref, dist = _grid(20, 1, seed=20), _grid(20, 6, seed=21)
    plan = PairPlan.build(ref, dist, Config(graphsim_keypoint_fraction=1.0))
    members = plan.graphsim_neighbors      # queries and reference made here
    widest = np.bincount(members.counts).argmax()
    assert widest == 78
    unblocked = 3 * widest ** 2 * np.count_nonzero(members.counts == widest)
    assert unblocked > 4 * graphsim._PAIR_BUDGET
    tracemalloc.start()
    try:
        msgraphsim_score(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * graphsim._PAIR_BUDGET * 8
