"""Curvature- and color-comparison features (PCQM family).

For every reference point the local surface of a source cloud is modeled
by a quadric (giving a mean-curvature field) and a perceptual color is
assigned from the exact nearest source point. Gaussian-weighted
statistics of both fields over radius-h reference neighborhoods feed
eight bounded comparison features:

    f1, f2, f3  curvature mean / std / structure  (0 = identical)
    f4, f5, f6  lightness mean / contrast / structure  (1 = identical)
    f7, f8      chroma and hue comparison  (1 = identical)

plus a weighted aggregate distance (0 = identical). The entry point,
compute_pcqm_features, reads the radius-h queries, the nearest matches
and the settings from a PairPlan.

The statistics walk the radius-h self query in bounded row blocks
(Neighbors.blocks), feature-major: per block, one reduceat for the seven
weighted means and one for the six deviation products.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..cloud import PointCloud
from ..colorspace import Lab2000HLTable, rgb_to_perceptual
from ..surface import fit_local_surfaces

FEATURE_NAMES = ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8")

@dataclass(frozen=True)
class Correspondence:
    """Per-reference-point fields sampled from one source cloud."""

    curvature: np.ndarray    # (m,) |mean curvature| of the source surface
    lightness: np.ndarray    # (m,) perceptual L
    chroma_a: np.ndarray     # (m,)
    chroma_b: np.ndarray     # (m,)
    chroma: np.ndarray       # (m,) sqrt(a^2 + b^2)
    plane_fallbacks: int
    degenerates: int


def build_correspondence(ref: PointCloud, source: PointCloud, neighbors,
                         nearest,
                         table: Optional[Lab2000HLTable]) -> Correspondence:
    """Sample the source surface at every ref point.

    Curvature comes from a quadric fitted to each row of neighbors, the
    source points within h of a ref point; color comes from the source
    point nearest (one source index per ref point). With source = ref
    this reproduces the reference's own fields.
    """
    colors = _colors(source, nearest, table)
    fit = fit_local_surfaces(source.positions, neighbors, ref.positions)
    return Correspondence(
        curvature=fit.curvatures,
        **colors,
        plane_fallbacks=int(fit.plane_fallback.sum()),
        degenerates=int(fit.degenerate.sum()),
    )


def recolor(corr: Correspondence, source: PointCloud, nearest,
            table: Optional[Lab2000HLTable]) -> Correspondence:
    """corr with its colours sampled from source at nearest: the
    correspondence of a source at the positions corr was fitted to."""
    return replace(corr, **_colors(source, nearest, table))


def _colors(source, nearest, table):
    """The perceptual colour fields of source at the points nearest."""
    lab = rgb_to_perceptual(
        source.require_colors("PCQM correspondence")[nearest], table)
    a, b = lab[:, 1], lab[:, 2]
    return dict(lightness=lab[:, 0], chroma_a=a, chroma_b=b,
                chroma=np.hypot(a, b))


@dataclass(frozen=True)
class PcqmFeatures:
    values: np.ndarray       # (8,) pooled features, each in [0, 1]

    def as_dict(self):
        return {name: float(v) for name, v in zip(FEATURE_NAMES, self.values)}


def compute_pcqm_features(plan) -> PcqmFeatures:
    """Pooled f1..f8 of a PairPlan: the dist surface sampled at every
    ref point, compared with the reference's own fields."""
    reference = plan.reference
    return pcqm_compare(reference.corr, plan.corr, reference.pcqm_neighbors,
                        reference.pcqm_radius, plan.config)


def pcqm_compare(corr_ref: Correspondence, corr_dist: Correspondence,
                 neighbors, h: float, config) -> PcqmFeatures:
    """Pooled f1..f8 from two correspondences over the same reference
    points, with constants config.pcqm_k1..pcqm_k8.

    neighbors: the radius-h self query of the reference points.
    """
    da = corr_ref.chroma_a - corr_dist.chroma_a
    db = corr_ref.chroma_b - corr_dist.chroma_b
    dc = corr_ref.chroma - corr_dist.chroma
    delta_h = np.sqrt(da * da + db * db + dc * dc)
    fields = np.stack([corr_ref.curvature, corr_dist.curvature,
                       corr_ref.lightness, corr_dist.lightness,
                       corr_ref.chroma, corr_dist.chroma, delta_h])
    per_row = [_block_features(block, fields, h / 3.0, config)
               for _, block in neighbors.blocks()]
    stacked = np.clip(np.concatenate(per_row, axis=1), 0.0, 1.0)
    return PcqmFeatures(stacked.mean(axis=1))


def _block_features(block, fields, sigma, config):
    """(8, m) f1..f8 of the m rows of one block of the radius-h query."""
    k1, k2, k3, k4, k5, k6, k7, k8 = (getattr(config, f"pcqm_k{i}")
                                      for i in range(1, 9))
    d = block.distances
    w = np.exp(-(d * d) / (2.0 * sigma * sigma))
    # every row holds at least its own center, as reduceat requires
    starts = block.offsets[:-1]
    w_sum = np.add.reduceat(w, starts)
    near = np.take(fields, block.indices, axis=1)
    means = np.add.reduceat(w * near, starts, axis=1) / w_sum
    dev = near[:4] - np.repeat(means[:4], block.counts, axis=1)
    del near
    # (w * dx) * dy of the curvature deviations, ref and dist, then of the
    # lightness ones: two variances and a covariance each
    prod = dev[[0, 1, 0, 2, 3, 2]] * w
    prod *= dev[[0, 1, 1, 2, 3, 3]]
    del dev
    var_rho_r, var_rho_d, cov_rho, var_l_r, var_l_d, cov_l = \
        np.add.reduceat(prod, starts, axis=1) / w_sum
    mu_rho_r, mu_rho_d, mu_l_r, mu_l_d, mu_c_r, mu_c_d, mean_dh = means

    sd_rho_r = np.sqrt(var_rho_r)
    sd_rho_d = np.sqrt(var_rho_d)
    # sqrt(var*var') rather than sd*sd' keeps identical inputs exactly equal
    prod_rho = np.sqrt(var_rho_r * var_rho_d)
    prod_l = np.sqrt(var_l_r * var_l_d)

    f1 = np.abs(mu_rho_r - mu_rho_d) / (np.maximum(mu_rho_r, mu_rho_d) + k1)
    f2 = np.abs(sd_rho_r - sd_rho_d) / (np.maximum(sd_rho_r, sd_rho_d) + k2)
    f3 = np.abs(prod_rho - cov_rho) / (prod_rho + k3)
    dl = mu_l_r - mu_l_d
    f4 = 1.0 / (k4 * dl * dl + 1.0)
    f5 = (2.0 * prod_l + k5) / (var_l_r + var_l_d + k5)
    f6 = (cov_l + k6) / (prod_l + k6)
    dcm = mu_c_r - mu_c_d
    f7 = 1.0 / (k7 * dcm * dcm + 1.0)
    f8 = 1.0 / (k8 * mean_dh * mean_dh + 1.0)

    return np.stack([f1, f2, f3, f4, f5, f6, f7, f8])


def pcqm_aggregate(features: PcqmFeatures) -> float:
    """The recommended weighted distance 0.18*f3 + 0.44*(1-f4) +
    0.38*(1-f6), 0 = identical: the similarities f4 and f6 enter as 1 - f
    so every term reads as a distortion."""
    f = features.as_dict()
    return 0.18 * f["f3"] + 0.44 * (1.0 - f["f4"]) + 0.38 * (1.0 - f["f6"])
