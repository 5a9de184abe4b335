"""Point-to-point (D1), point-to-plane (D2) and color (YUV) PSNR.

All three follow the symmetric two-pass scheme: an error is accumulated
from the distorted cloud against nearest neighbors in the reference,
then again with the roles swapped, and the worse (larger) MSE is kept.
Geometry PSNR uses 10*log10(3*peak^2 / MSE) with peak = 2^bitdepth - 1;
color channels use peak 255 and the 6:1:1 luma-weighted combination
(6*Y + Cb + Cr) / 8.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..cloud import PointCloud
from ..colorspace import rgb_to_ycbcr
from ..errors import MissingNormalsUnrecoverable
from ..spatial import SpatialIndex, build_index
from ..surface import estimate_normals

__all__ = ["PsnrResult", "YuvResult", "nearest_matches", "ensure_normals",
           "compute_d1", "compute_d2", "compute_yuv"]


@dataclass(frozen=True)
class PsnrResult:
    mse_forward: float
    mse_backward: float
    mse_symmetric: float
    psnr_db: float          # +inf when the symmetric MSE is zero
    peak: float

    def capped(self, cap_db: float) -> float:
        return min(self.psnr_db, cap_db)


@dataclass(frozen=True)
class YuvResult:
    y: PsnrResult
    u: PsnrResult
    v: PsnrResult
    psnr_combined: float
    cap_db: float


def _psnr_db(mse: float, peak: float, k: float) -> float:
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(k * peak * peak / mse)


def nearest_matches(ref: PointCloud, dist: PointCloud,
                    ref_index: SpatialIndex = None,
                    dist_index: SpatialIndex = None):
    """Nearest-neighbor matches of a pair in both directions.

    Returns ((idx_f, d_f), (idx_b, d_b)): the nearest ref point of every
    dist point, then the nearest dist point of every ref point. Every
    metric that compares a pair point by point reads these two queries.
    """
    ref_index = ref_index or build_index(ref)
    dist_index = dist_index or build_index(dist)
    return (ref_index.nearest_batch(dist.positions),
            dist_index.nearest_batch(ref.positions))


def compute_d1(ref: PointCloud, dist: PointCloud, peak=None,
               ref_index: SpatialIndex = None,
               dist_index: SpatialIndex = None,
               matches=None) -> PsnrResult:
    """Point-to-point geometry PSNR (squared Euclidean NN error).

    matches: nearest_matches(ref, dist) when already computed.
    """
    peak = float(peak if peak is not None else ref.geometry_peak())
    if matches is None:
        matches = nearest_matches(ref, dist, ref_index, dist_index)
    (_, d_fwd), (_, d_bwd) = matches
    mse_f = float(np.mean(d_fwd * d_fwd))
    mse_b = float(np.mean(d_bwd * d_bwd))
    mse = max(mse_f, mse_b)
    return PsnrResult(mse_f, mse_b, mse, _psnr_db(mse, peak, 3.0), peak)


def ensure_normals(cloud: PointCloud, radius: float,
                   index: SpatialIndex = None) -> PointCloud:
    """The cloud itself if it has normals, else with estimated ones."""
    if cloud.has_normals:
        return cloud
    if len(cloud) < 3:
        raise MissingNormalsUnrecoverable(
            f"cloud of {len(cloud)} points has no normals and is too small "
            "to estimate them")
    return estimate_normals(cloud, radius, index=index)


def _projected_mse(src_cloud, tgt_cloud, idx):
    """Mean squared NN error projected on the target-side normals."""
    err = src_cloud.positions - tgt_cloud.positions[idx]
    proj = np.einsum("ij,ij->i", err, tgt_cloud.normals[idx])
    return float(np.mean(proj * proj))


def compute_d2(ref: PointCloud, dist: PointCloud, peak=None,
               normal_radius: float = 20.0,
               ref_index: SpatialIndex = None,
               dist_index: SpatialIndex = None,
               matches=None) -> PsnrResult:
    """Point-to-plane geometry PSNR.

    Each NN error vector is projected onto the normal of the matched
    point, so tangential displacement along a surface is not penalized.
    Normals are estimated (quadric fit, radius normal_radius) on any side
    that lacks them.
    """
    peak = float(peak if peak is not None else ref.geometry_peak())
    ref = ensure_normals(ref, normal_radius, ref_index)
    dist = ensure_normals(dist, normal_radius, dist_index)
    if matches is None:
        matches = nearest_matches(ref, dist, ref_index, dist_index)
    (idx_f, _), (idx_b, _) = matches
    mse_f = _projected_mse(dist, ref, idx_f)
    mse_b = _projected_mse(ref, dist, idx_b)
    mse = max(mse_f, mse_b)
    return PsnrResult(mse_f, mse_b, mse, _psnr_db(mse, peak, 3.0), peak)


def compute_yuv(ref: PointCloud, dist: PointCloud, matrix: str = "bt709",
                cap_db: float = 100.0, symmetric: str = "mse",
                ref_index: SpatialIndex = None,
                dist_index: SpatialIndex = None,
                matches=None, ycc_ref=None) -> YuvResult:
    """Per-channel YCbCr PSNR over NN correspondences, peak 255.

    symmetric="mse" keeps the larger per-channel MSE of the two passes
    (the conservative reading); "psnr" keeps the larger PSNR instead.
    The combined value weighs channels 6:1:1 after replacing infinities
    with cap_db. ycc_ref: the reference colors already converted with
    the same matrix.
    """
    if ycc_ref is None:
        ycc_ref = rgb_to_ycbcr(ref.require_colors("YUV PSNR"), matrix)
    ycc_dist = rgb_to_ycbcr(dist.require_colors("YUV PSNR"), matrix)
    if matches is None:
        matches = nearest_matches(ref, dist, ref_index, dist_index)
    (idx_f, _), (idx_b, _) = matches
    diff_f = ycc_dist - ycc_ref[idx_f]
    diff_b = ycc_ref - ycc_dist[idx_b]
    mse_f = np.mean(diff_f * diff_f, axis=0)
    mse_b = np.mean(diff_b * diff_b, axis=0)

    results = []
    for ch in range(3):
        f, b = float(mse_f[ch]), float(mse_b[ch])
        if symmetric == "psnr":
            mse = min(f, b)   # larger PSNR = smaller MSE
        else:
            mse = max(f, b)
        results.append(PsnrResult(f, b, mse, _psnr_db(mse, 255.0, 1.0), 255.0))
    y, u, v = results

    def finite(val):
        return cap_db if math.isinf(val) else val

    combined = (6.0 * finite(y.psnr_db) + finite(u.psnr_db)
                + finite(v.psnr_db)) / 8.0
    return YuvResult(y, u, v, combined, cap_db)
