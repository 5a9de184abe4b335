"""Structural similarity from local attribute dispersion (PointSSIM).

Each point gets a dispersion statistic of an attribute (neighbor
distances for geometry, luminance for color) over its k nearest
neighbors. The distorted cloud is then compared point-by-point against
the dispersion of its nearest reference point:

    S(p) = |F_ref(q) - F_dist(p)| / (max(|F_ref(q)|, |F_dist(p)|) + eps)

and pooled as the mean of S^pooling_exponent. 0 means identical. The
entry point, pointssim_score, reads both clouds' dispersion fields, the
nearest matches and the settings from a PairPlan.
"""

import numpy as np

from ..cloud import PointCloud
from ..colorspace import luminance

EPS = 1e-9

_ATTRIBUTES = ("geometry", "luminance")


def _median(rows):
    return np.median(rows, axis=1)


def _variance(rows):
    mean = rows.mean(axis=1, keepdims=True)
    d = rows - mean
    return (d * d).mean(axis=1)


def _mean_ad(rows):
    return np.abs(rows - rows.mean(axis=1, keepdims=True)).mean(axis=1)


def _median_ad(rows):
    return np.median(np.abs(rows - np.median(rows, axis=1, keepdims=True)),
                     axis=1)


def _cov(rows):
    mean = rows.mean(axis=1)
    std = np.sqrt(_variance(rows))
    return np.divide(std, mean, out=np.zeros_like(std), where=mean != 0.0)


def _qcd(rows):
    q1, q3 = np.percentile(rows, [25.0, 75.0], axis=1)
    den = q3 + q1
    return np.divide(q3 - q1, den, out=np.zeros_like(den), where=den != 0.0)


ESTIMATORS = {
    "median": _median,
    "variance": _variance,
    "mean_ad": _mean_ad,
    "median_ad": _median_ad,
    "cov": _cov,
    "qcd": _qcd,
}


def extract_dispersion(cloud: PointCloud, knn, attribute: str,
                       config) -> np.ndarray:
    """(n,) dispersion of an attribute over each point's k-NN
    neighborhood, k = config.pointssim_k.

    knn: (indices, distances) of a self query of the cloud with k or
    more columns; its first k columns equal a k-query. The neighborhood
    includes the point itself; k larger than the cloud saturates to the
    whole cloud.
    """
    if attribute not in _ATTRIBUTES:
        raise ValueError(f"unknown attribute {attribute!r}")
    k = config.pointssim_k
    idx, dst = (np.ascontiguousarray(a[:, :k]) for a in knn)
    if attribute == "geometry":
        rows = dst
    else:
        rows = luminance(cloud.require_colors("luminance PointSSIM"))[idx]
    return ESTIMATORS[config.pointssim_estimator](rows)


def pointssim_pool(ref_values, dist_values, nearest,
                   exponent: float) -> float:
    """Mean of S^exponent over the dist points, each compared against
    its nearest reference point (nearest: one ref index per dist point).
    """
    fx = ref_values[nearest]
    fy = dist_values
    s = np.abs(fx - fy) / (np.maximum(np.abs(fx), np.abs(fy)) + EPS)
    return float(np.mean(s ** exponent))


def pointssim_score(plan, attribute: str) -> float:
    """Pooled dissimilarity of a PairPlan's dist against its ref for one
    attribute ("luminance" or "geometry")."""
    if attribute not in _ATTRIBUTES:
        raise ValueError(f"unknown attribute {attribute!r}")
    field = f"{attribute}_dispersion"
    return pointssim_pool(getattr(plan.reference, field),
                          getattr(plan.distorted, field),
                          plan.nearest_forward[0],
                          plan.config.pointssim_pooling_exponent)
