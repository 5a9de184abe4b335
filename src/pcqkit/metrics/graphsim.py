"""Graph-gradient similarity over keypoint neighborhoods (GraphSIM and
its multi-scale extension).

Keypoints are reference points with the strongest high-pass response
(distance to the mean of their k nearest neighbors). Around every
keypoint a local graph is built in both clouds; Gaussian color model
signals on the graph give weighted gradient features whose SIM ratios
multiply into a per-keypoint score. Coarser scales keep every 2^s-th
member of the distance-sorted neighborhood and contract it toward the
bounding-box centroid. 1 means identical. The entry point,
msgraphsim_score, reads the keypoint neighborhoods and the settings from
a PairPlan.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..cloud import PointCloud, bounding_box
from ..colorspace import rgb_to_gaussian
from ..errors import AllKeypointsEmpty

SIM_KINDS = ("mg", "ug", "cg")

CHANNEL_WEIGHTS = (6.0, 1.0, 1.0)


@dataclass(frozen=True)
class KeypointSet:
    indices: np.ndarray    # sorted by descending response, ties by index
    responses: np.ndarray  # response of every cloud point


@dataclass(frozen=True)
class GradientFeatures:
    """Weighted gradient summary of one local graph, one row per channel."""

    m_g: np.ndarray        # (c,) gradient sum
    mu_g: np.ndarray       # (c,) gradient mean
    var_g: np.ndarray      # (c,) gradient variance (population)
    gradients: np.ndarray  # (n_members - 1, c) distance-ordered

    @classmethod
    def empty(cls, channels: int) -> "GradientFeatures":
        z = np.zeros(channels)
        return cls(z, z.copy(), z.copy(), np.zeros((0, channels)))


def graph_filter_response(cloud: PointCloud, knn, k_graph: int) -> np.ndarray:
    """High-pass response: distance to the mean of the k nearest others.

    knn: (indices, distances) of a self query of the cloud with
    k_graph + 1 or more columns.
    """
    n = len(cloud)
    k = min(k_graph, n - 1)
    if k < 1:
        return np.zeros(n)
    idx = knn[0][:, :k + 1]
    self_col = np.where((idx == np.arange(n)[:, None]).any(axis=1),
                        (idx == np.arange(n)[:, None]).argmax(axis=1), 0)
    keep = np.arange(k + 1)[None, :] != self_col[:, None]
    nbrs = idx[keep].reshape(n, k)
    mean = cloud.positions[nbrs].mean(axis=1)
    return np.linalg.norm(cloud.positions - mean, axis=1)


def extract_keypoints(cloud: PointCloud, knn, config) -> KeypointSet:
    """Top ceil(graphsim_keypoint_fraction * n) points by response
    (graph_filter_response with k_graph = graphsim_k), ties by ascending
    index."""
    fraction = config.graphsim_keypoint_fraction
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    responses = graph_filter_response(cloud, knn, config.graphsim_k)
    n = len(responses)
    order = np.lexsort((np.arange(n), -responses))
    count = int(math.ceil(fraction * n))
    return KeypointSet(order[:count], responses)


def scale_transform(member_positions, scale: int, centroid):
    """Systematic downsample plus contraction toward the centroid.

    member_positions must be distance-sorted; every 2^scale-th row is
    kept (offset 0) and mapped to centroid + (p - centroid) / 2^scale.
    Returns (kept_row_indices, transformed_positions).
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    step = 2 ** int(scale)
    kept = np.arange(0, len(member_positions), step)
    if step == 1:
        # scale 0 is the identity, bit for bit
        return kept, np.asarray(member_positions, dtype=np.float64)
    moved = centroid + (member_positions[kept] - centroid) / step
    return kept, moved


def _graph_features(positions, signals, center_pos,
                    smoothing: bool) -> GradientFeatures:
    """Gradient features of one graph whose members are distance-sorted.

    The first member carries the center signal; remaining members
    contribute gradients sqrt(W)*(f - f_center) with Gaussian weights of
    their distance to the center position, the bandwidth being their
    mean distance.
    """
    channels = signals.shape[1]
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
        return GradientFeatures.empty(channels)
    m_g = g.sum(axis=0)
    mu_g = m_g / len(g)
    gd = g - g.mean(axis=0)
    var_g = (gd * gd).mean(axis=0)
    return GradientFeatures(m_g, mu_g, var_g, g)


def graph_pair_sims(feat_ref: GradientFeatures, feat_dist: GradientFeatures,
                    t) -> np.ndarray:
    """SIM_mg, SIM_ug, SIM_cg per channel, shape (3, c), with stabilizers
    t = (T_mag, T_mean, T_cov).

    Gradient sequences of unequal length are zero-padded so a missing
    (hole) side is compared against a zero-gradient graph.
    """
    t0, t1, t2 = t
    sim_m = ((2.0 * feat_ref.m_g * feat_dist.m_g + t0)
             / (feat_ref.m_g ** 2 + feat_dist.m_g ** 2 + t0))
    sim_u = ((2.0 * feat_ref.mu_g * feat_dist.mu_g + t1)
             / (feat_ref.mu_g ** 2 + feat_dist.mu_g ** 2 + t1))

    gr, gd = feat_ref.gradients, feat_dist.gradients
    n = max(len(gr), len(gd))
    channels = sim_m.shape[0]
    if n == 0:
        sim_c = np.ones(channels)
    else:
        if len(gr) < n:
            gr = np.vstack([gr, np.zeros((n - len(gr), channels))])
        if len(gd) < n:
            gd = np.vstack([gd, np.zeros((n - len(gd), channels))])
        dr = gr - gr.mean(axis=0)
        dd = gd - gd.mean(axis=0)
        cov = (dr * dd).mean(axis=0)
        var_r = (dr * dr).mean(axis=0)
        var_d = (dd * dd).mean(axis=0)
        sim_c = (cov + t2) / (np.sqrt(var_r * var_d) + t2)
    return np.stack([sim_m, sim_u, sim_c])


@dataclass(frozen=True)
class GraphSimScore:
    per_scale: np.ndarray   # (n_scales,) pooled |SIM product| per scale
    overall: float          # scale-weighted mean of per_scale
    sims: np.ndarray        # (n_scales, 3) channel-pooled mean SIM by kind
    scales: tuple
    n_keypoints: int
    empty_dist_graphs: int

    def sim(self, kind: str, scale: int) -> float:
        return float(self.sims[self.scales.index(scale),
                               SIM_KINDS.index(kind)])


@dataclass(frozen=True)
class GraphSimReference:
    """Reference-side MS-GraphSIM state, reusable across distortions."""

    radius: float           # graph radius
    keypoints: KeypointSet
    centers: np.ndarray     # (n_scales, n_kp, 3) graph center per scale
    centroid: np.ndarray    # bounding-box centroid of the reference
    features: list          # features[i][s]: GradientFeatures of keypoint
                            # i at scale s


def graphsim_reference(ref: PointCloud, index, knn,
                       config) -> GraphSimReference:
    """Keypoints, graph radius and reference graph features at each of
    the graphsim_n_scales scales.

    index: the kd-tree of ref; knn: its self query with
    max(2, graphsim_k + 1) or more columns. The graph radius is
    graphsim_radius_factor times the mean distance from each reference
    point to its nearest other point (the second column of knn).
    """
    scales = range(config.graphsim_n_scales)
    mean_nn = float(knn[1][:, 1].mean()) if len(ref) > 1 else 0.0
    radius = config.graphsim_radius_factor * mean_nn
    if not radius > 0.0:
        raise ValueError(f"graph radius must be positive, got {radius}")

    signals = rgb_to_gaussian(ref.require_colors("MS-GraphSIM"))
    keypoints = extract_keypoints(ref, knn, config)
    kp_pos = ref.positions[keypoints.indices]
    centroid = bounding_box(ref).centroid
    centers = np.stack([kp_pos if s == 0
                        else centroid + (kp_pos - centroid) / 2 ** s
                        for s in scales])
    # each keypoint lies in its own graph, so no graph is empty
    members = index.radius_batch(kp_pos, radius, sort_by_distance=True)
    features = []
    for i, (idx, _) in enumerate(members):
        pos_all = ref.positions[idx]
        row = []
        for si, scale in enumerate(scales):
            kept, pos = scale_transform(pos_all, scale, centroid)
            row.append(_graph_features(pos, signals[idx[kept]],
                                       centers[si, i],
                                       config.graphsim_smoothing))
        features.append(row)
    return GraphSimReference(float(radius), keypoints, centers, centroid,
                             features)


def msgraphsim_score(plan) -> GraphSimScore:
    """Multi-scale graph similarity of a PairPlan's dist against its ref.

    Keypoints with an empty dist-side graph at some scale are scored
    against a zero-feature graph (holes must hurt the score, not vanish
    from it).
    """
    config, dist, reference = plan.config, plan.dist, plan.reference.graphsim
    scales = tuple(range(config.graphsim_n_scales))
    weights = np.full(len(scales), 1.0 / len(scales))
    cw = np.asarray(CHANNEL_WEIGHTS, dtype=np.float64)
    t = (config.graphsim_t_mag, config.graphsim_t_mean, config.graphsim_t_cov)
    sig_dist = rgb_to_gaussian(dist.require_colors("MS-GraphSIM"))

    n_kp = len(reference.keypoints.indices)
    sims = np.zeros((n_kp, len(scales), 3, 3))      # kp, scale, kind, channel
    empty_dist = 0
    for i, (d_idx, _) in enumerate(plan.graphsim_neighbors):
        d_pos_all = dist.positions[d_idx]
        for si, scale in enumerate(scales):
            if len(d_idx) == 0:
                feat_d = GradientFeatures.empty(3)
                if si == 0:
                    empty_dist += 1
            else:
                kept_d, pos_d = scale_transform(d_pos_all, scale,
                                                reference.centroid)
                feat_d = _graph_features(pos_d, sig_dist[d_idx[kept_d]],
                                         reference.centers[si, i],
                                         config.graphsim_smoothing)
            sims[i, si] = graph_pair_sims(reference.features[i][si], feat_d,
                                          t)

    if empty_dist == n_kp:
        # no keypoint found any dist-side support: the clouds are disjoint
        # at this radius and a score would only measure the constant T
        raise AllKeypointsEmpty(
            f"all {n_kp} keypoints have an empty dist-side graph at "
            f"radius {reference.radius:g}")

    # per-kind features: channel-pooled SIMs averaged over keypoints
    pooled_kind = np.einsum("ksjc,c->ksj", sims, cw) / cw.sum()
    kind_means = pooled_kind.mean(axis=0)            # (n_scales, 3)
    # overall score: channel-pooled absolute SIM product per keypoint
    product = np.abs(sims.prod(axis=2))              # (kp, scale, channel)
    per_scale = (product @ cw / cw.sum()).mean(axis=0)
    overall = float(per_scale @ weights / weights.sum())
    return GraphSimScore(per_scale, overall, kind_means, scales,
                         n_kp, empty_dist)
