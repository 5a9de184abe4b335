"""Point-to-point (D1), point-to-plane (D2) and color (YUV) PSNR.

All three follow the symmetric two-pass scheme: an error is accumulated
from the distorted cloud against nearest neighbors in the reference,
then again with the roles swapped, and the worse (larger) MSE is kept.
Geometry PSNR uses 10*log10(3*peak^2 / MSE) with peak = 2^b - 1, b the
reference context's bit_depth; color channels use peak 255 and the 6:1:1
luma-weighted combination (6*Y + Cb + Cr) / 8. Each entry point reads
the two nearest-neighbor queries and the settings from a PairPlan.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PsnrResult", "YuvResult", "compute_d1", "compute_d2",
           "compute_yuv"]


@dataclass(frozen=True)
class PsnrResult:
    mse_forward: float
    mse_backward: float
    mse_symmetric: float
    psnr_db: float          # +inf when the symmetric MSE is zero
    peak: float


@dataclass(frozen=True)
class YuvResult:
    y: PsnrResult
    u: PsnrResult
    v: PsnrResult
    psnr_combined: float


def _psnr_db(mse: float, peak: float, k: float) -> float:
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(k * peak * peak / mse)


def compute_d1(plan) -> PsnrResult:
    """Point-to-point geometry PSNR (squared Euclidean NN error) of a
    PairPlan."""
    peak = float(2 ** plan.reference.bit_depth - 1)
    (_, d_fwd), (_, d_bwd) = plan.nearest_forward, plan.nearest_backward
    mse_f = float(np.mean(d_fwd * d_fwd))
    mse_b = float(np.mean(d_bwd * d_bwd))
    mse = max(mse_f, mse_b)
    return PsnrResult(mse_f, mse_b, mse, _psnr_db(mse, peak, 3.0), peak)


def _projected_mse(src, tgt, idx):
    """Mean squared NN error of the src context against its matches idx
    in tgt, projected on their normals, read only where a point moved."""
    err = src.cloud.positions - tgt.cloud.positions[idx]
    moved = np.flatnonzero(err.any(axis=1))
    proj = np.zeros(len(err))
    proj[moved] = np.einsum("ij,ij->i", err[moved],
                            tgt.normals_at(idx[moved]))
    return float(np.mean(proj * proj))


def compute_d2(plan) -> PsnrResult:
    """Point-to-plane geometry PSNR of a PairPlan.

    Each NN error vector is projected onto the normal of the matched
    point, so tangential displacement along a surface is not penalized.
    Normals are the cloud's own, else estimated (quadric fit, radius
    psnr_normal_radius) only at the matches of moved points.
    """
    ref, dist = plan.reference, plan.distorted
    peak = float(2 ** ref.bit_depth - 1)
    mse_f = _projected_mse(dist, ref, plan.nearest_forward[0])
    mse_b = _projected_mse(ref, dist, plan.nearest_backward[0])
    mse = max(mse_f, mse_b)
    return PsnrResult(mse_f, mse_b, mse, _psnr_db(mse, peak, 3.0), peak)


def compute_yuv(plan) -> YuvResult:
    """Per-channel YCbCr PSNR of a PairPlan over NN correspondences,
    peak 255.

    psnr_yuv_symmetric = "mse" keeps the larger per-channel MSE of the
    two passes (the conservative reading); "psnr" keeps the larger PSNR
    instead. The combined value weighs channels 6:1:1 after replacing
    infinities with psnr_cap_db.
    """
    config = plan.config
    ycc_ref, ycc_dist = plan.reference.ycc, plan.distorted.ycc
    diff_f = ycc_dist - ycc_ref[plan.nearest_forward[0]]
    diff_b = ycc_ref - ycc_dist[plan.nearest_backward[0]]
    mse_f = np.mean(diff_f * diff_f, axis=0)
    mse_b = np.mean(diff_b * diff_b, axis=0)

    results = []
    for ch in range(3):
        f, b = float(mse_f[ch]), float(mse_b[ch])
        if config.psnr_yuv_symmetric == "psnr":
            mse = min(f, b)   # larger PSNR = smaller MSE
        else:
            mse = max(f, b)
        results.append(PsnrResult(f, b, mse, _psnr_db(mse, 255.0, 1.0), 255.0))
    y, u, v = results

    def finite(val):
        return config.psnr_cap_db if math.isinf(val) else val

    combined = (6.0 * finite(y.psnr_db) + finite(u.psnr_db)
                + finite(v.psnr_db)) / 8.0
    return YuvResult(y, u, v, combined)
