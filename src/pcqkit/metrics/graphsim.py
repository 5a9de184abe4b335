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

The arithmetic is batched: graph_features computes all graphs that
keep the same member count in one vectorised pass (in blocks under a
fixed element budget), graph_pair_sims all pairs of one zero-padded
gradient length. Every reduction keeps its one-graph order, so no
score depends on the batching.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..cloud import PointCloud, bounding_box
from ..colorspace import rgb_to_gaussian
from ..errors import AllKeypointsEmpty, InvalidCloud
from ..spatial import Neighbors

SIM_KINDS = ("mg", "ug", "cg")

CHANNEL_WEIGHTS = (6.0, 1.0, 1.0)

# elements of the (K, M, M, 3) pair-difference array of one block of
# equal-size graphs; a single larger graph still runs whole
_PAIR_BUDGET = 1 << 20


@dataclass(frozen=True)
class GraphFeatures:
    """Weighted gradient summaries of n graphs, one column per channel.

    The distance-ordered gradients of graph i are
    gradients[offsets[i]:offsets[i + 1]]; the last row of gradients is
    zero and pads shorter sequences.
    """

    m_g: np.ndarray        # (n, c) gradient sum
    mu_g: np.ndarray       # (n, c) gradient mean
    offsets: np.ndarray    # (n + 1,) int64 row boundaries
    gradients: np.ndarray  # (offsets[-1] + 1, c)


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
    is_self = idx == np.arange(n)[:, None]
    self_col = np.where(is_self.any(axis=1), is_self.argmax(axis=1), 0)
    keep = np.arange(k + 1)[None, :] != self_col[:, None]
    nbrs = idx[keep].reshape(n, k)
    mean = cloud.positions[nbrs].mean(axis=1)
    return np.linalg.norm(cloud.positions - mean, axis=1)


def extract_keypoints(cloud: PointCloud, knn, config) -> np.ndarray:
    """Indices of the top ceil(graphsim_keypoint_fraction * n) points by
    response (graph_filter_response with k_graph = graphsim_k), sorted by
    descending response, ties by ascending index."""
    responses = graph_filter_response(cloud, knn, config.graphsim_k)
    n = len(responses)
    order = np.lexsort((np.arange(n), -responses))
    return order[:int(math.ceil(config.graphsim_keypoint_fraction * n))]


def graph_blocks(members, positions, scale: int, centroid):
    """The graphs of members at scale, in blocks of equal member count.

    members: Neighbors whose rows are distance-sorted. A graph keeps
    every 2^scale-th member (offset 0), mapped to
    centroid + (p - centroid) / 2^scale; scale 0 is the identity, bit
    for bit. Graphs that keep fewer than two members have no gradient
    and are left out. Yields (rows, kept, moved): the row numbers of a
    block, (K, M) kept point indices and their (K, M, 3) moved
    positions, with K * M * M * 3 within _PAIR_BUDGET unless K is 1.
    """
    step = 2 ** scale
    counts = -(-members.counts // step)
    for m in np.unique(counts[counts > 1]):
        rows = np.flatnonzero(counts == m)
        size = max(1, _PAIR_BUDGET // (3 * m * m))
        for lo in range(0, len(rows), size):
            block = rows[lo:lo + size]
            kept = members.indices[members.offsets[block, None]
                                   + step * np.arange(m)]
            moved = positions[kept]
            if step > 1:
                moved = centroid + (moved - centroid) / step
            yield block, kept, moved


def graph_features(members, positions, signals, centers, scale: int,
                   centroid, smoothing: bool) -> GraphFeatures:
    """Gradient features of the graph of every row of members at scale.

    members: Neighbors whose rows are distance-sorted; centers: (n, 3)
    graph centers. The first kept member carries the center signal; the
    others contribute gradients sqrt(W)*(f - f_center) with Gaussian
    weights W of their distance to the center, the bandwidth sigma being
    their mean distance (W = 1 where sigma is 0). With smoothing, every
    member's signal is first its pair-weighted mean over the graph.
    """
    n, channels = len(members), signals.shape[1]
    lengths = np.maximum(-(-members.counts // 2 ** scale) - 1, 0)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    m_g, mu_g = np.zeros((n, channels)), np.zeros((n, channels))
    gradients = np.zeros((offsets[-1] + 1, channels))
    for rows, kept, pos in graph_blocks(members, positions, scale, centroid):
        diff = pos - centers[rows, None]
        d = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
        sigma = d[:, 1:].mean(axis=1)[:, None]
        spread = sigma > 0.0
        s2 = np.where(spread, sigma * sigma, 1.0)
        w = np.where(spread, np.exp(-(d * d) / s2), 1.0)

        f = signals[kept]
        if smoothing:
            diff = pos[:, :, None, :] - pos[:, None, :, :]
            d2 = np.einsum("kijl,kijl->kij", diff, diff)
            del diff                  # the largest array of the block
            w_pair = np.where(spread[:, :, None],
                              np.exp(-d2 / s2[:, :, None]), 1.0)
            f = (w_pair @ f) / w_pair.sum(axis=2, keepdims=True)

        g = np.sqrt(w[:, 1:, None]) * (f[:, 1:] - f[:, :1])
        m_g[rows] = g.sum(axis=1)
        mu_g[rows] = m_g[rows] / g.shape[1]
        gradients[offsets[rows, None] + np.arange(g.shape[1])] = g
    return GraphFeatures(m_g, mu_g, offsets, gradients)


def _padded(features: GraphFeatures, rows, n: int) -> np.ndarray:
    """(K, n, c) gradients of graphs rows, padded to length n with the
    last (zero) row of the store."""
    idx = features.offsets[rows, None] + np.arange(n)
    return features.gradients[
        np.where(idx < features.offsets[rows + 1, None], idx, -1)]


def graph_pair_sims(feat_ref: GraphFeatures, feat_dist: GraphFeatures,
                    t) -> np.ndarray:
    """SIM_mg, SIM_ug, SIM_cg per graph pair and channel, shape
    (n, 3, c), with stabilizers t = (T_mag, T_mean, T_cov).

    Gradient sequences of unequal length are zero-padded so a missing
    (hole) side is compared against a zero-gradient graph; pairs are
    batched by padded length.
    """
    t0, t1, t2 = t
    sim_m = ((2.0 * feat_ref.m_g * feat_dist.m_g + t0)
             / (feat_ref.m_g ** 2 + feat_dist.m_g ** 2 + t0))
    sim_u = ((2.0 * feat_ref.mu_g * feat_dist.mu_g + t1)
             / (feat_ref.mu_g ** 2 + feat_dist.mu_g ** 2 + t1))

    sim_c = np.ones_like(sim_m)
    padded = np.maximum(np.diff(feat_ref.offsets), np.diff(feat_dist.offsets))
    for n in np.unique(padded[padded > 0]):
        rows = np.flatnonzero(padded == n)
        gr, gd = _padded(feat_ref, rows, n), _padded(feat_dist, rows, n)
        dr = gr - gr.mean(axis=1, keepdims=True)
        dd = gd - gd.mean(axis=1, keepdims=True)
        cov = (dr * dd).mean(axis=1)
        var_r = (dr * dr).mean(axis=1)
        var_d = (dd * dd).mean(axis=1)
        sim_c[rows] = (cov + t2) / (np.sqrt(var_r * var_d) + t2)
    return np.stack([sim_m, sim_u, sim_c], axis=1)


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
    keypoints: np.ndarray   # (n_kp,) reference point indices
    centers: np.ndarray     # (n_scales, n_kp, 3) graph center per scale
    centroid: np.ndarray    # bounding-box centroid of the reference
    features: list          # features[s]: GraphFeatures of every keypoint
                            # at scale s
    members: Neighbors      # the reference points within radius of each
                            # keypoint, sorted by distance


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
        raise InvalidCloud(
            f"MS-GraphSIM graph radius is {radius}: the reference's mean "
            f"nearest-neighbour distance is {mean_nn} (every point "
            "coincides with another, or it has one point)")

    signals = rgb_to_gaussian(ref.require_colors("MS-GraphSIM"))
    keypoints = extract_keypoints(ref, knn, config)
    kp_pos = ref.positions[keypoints]
    centroid = bounding_box(ref).centroid
    centers = np.stack([kp_pos if s == 0
                        else centroid + (kp_pos - centroid) / 2 ** s
                        for s in scales])
    # each keypoint lies in its own graph, so no graph is empty
    members = index.radius_batch(kp_pos, radius, sort_by_distance=True)
    features = [graph_features(members, ref.positions, signals, centers[s],
                               s, centroid, config.graphsim_smoothing)
                for s in scales]
    return GraphSimReference(float(radius), keypoints, centers, centroid,
                             features, members)


def msgraphsim_score(plan) -> GraphSimScore:
    """Multi-scale graph similarity of a PairPlan's dist against its ref.

    Keypoints with an empty dist-side graph are scored against a
    zero-feature graph (holes must hurt the score, not vanish from it).
    """
    config, dist, reference = plan.config, plan.dist, plan.reference.graphsim
    scales = tuple(range(config.graphsim_n_scales))
    weights = np.full(len(scales), 1.0 / len(scales))
    cw = np.asarray(CHANNEL_WEIGHTS, dtype=np.float64)
    t = (config.graphsim_t_mag, config.graphsim_t_mean, config.graphsim_t_cov)
    sig_dist = rgb_to_gaussian(dist.require_colors("MS-GraphSIM"))

    members = plan.graphsim_neighbors
    n_kp = len(members)
    empty_dist = int(np.count_nonzero(members.counts == 0))
    if empty_dist == n_kp:
        # no keypoint found any dist-side support: the clouds are disjoint
        # at this radius and a score would only measure the constant T
        raise AllKeypointsEmpty(
            f"all {n_kp} keypoints have an empty dist-side graph at "
            f"radius {reference.radius:g}")

    sims = np.stack([                                # kp, scale, kind, channel
        graph_pair_sims(reference.features[s],
                        graph_features(members, dist.positions, sig_dist,
                                       reference.centers[s], s,
                                       reference.centroid,
                                       config.graphsim_smoothing), t)
        for s in scales], axis=1)

    # per-kind features: channel-pooled SIMs averaged over keypoints
    pooled_kind = np.einsum("ksjc,c->ksj", sims, cw) / cw.sum()
    kind_means = pooled_kind.mean(axis=0)            # (n_scales, 3)
    # overall score: channel-pooled absolute SIM product per keypoint
    product = np.abs(sims.prod(axis=2))              # (kp, scale, channel)
    per_scale = (product @ cw / cw.sum()).mean(axis=0)
    overall = float(per_scale @ weights / weights.sum())
    return GraphSimScore(per_scale, overall, kind_means, scales,
                         n_kp, empty_dist)
