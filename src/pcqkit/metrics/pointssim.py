"""Structural similarity from local attribute dispersion (PointSSIM).

Each point gets a dispersion statistic of an attribute (neighbor
distances for geometry, luminance for color) over its k nearest
neighbors. The distorted cloud is then compared point-by-point against
the dispersion of its nearest reference point:

    S(p) = |F_ref(q) - F_dist(p)| / (max(|F_ref(q)|, |F_dist(p)|) + eps)

and pooled as the mean of S^pooling_exponent. 0 means identical.
"""

from dataclasses import dataclass

import numpy as np

from ..cloud import PointCloud
from ..colorspace import luminance
from ..errors import SettingsMismatch
from ..spatial import SpatialIndex, build_index

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


@dataclass(frozen=True)
class DispersionField:
    """Per-point dispersion values plus the settings that produced them."""

    values: np.ndarray
    attribute: str
    estimator: str
    k: int


def extract_dispersion(cloud: PointCloud, attribute: str = "luminance",
                       estimator: str = "variance", k: int = 12,
                       index: SpatialIndex = None,
                       knn=None) -> DispersionField:
    """Dispersion of an attribute over each point's k-NN neighborhood.

    The neighborhood includes the point itself; k larger than the cloud
    saturates to the whole cloud. knn: (indices, distances) of a self
    query of the cloud with k or more columns, reused instead of a new
    query; its first k columns equal a k-query.
    """
    if attribute not in _ATTRIBUTES:
        raise ValueError(f"unknown attribute {attribute!r}")
    try:
        fn = ESTIMATORS[estimator]
    except KeyError:
        raise ValueError(f"unknown estimator {estimator!r}") from None
    if knn is None:
        index = index or build_index(cloud)
        knn = index.knn_batch(cloud.positions, k)
    idx, dst = (np.ascontiguousarray(a[:, :k]) for a in knn)
    if attribute == "geometry":
        rows = dst
    else:
        rows = luminance(cloud.require_colors("luminance PointSSIM"))[idx]
    return DispersionField(fn(rows), attribute, estimator, int(k))


def pointssim_score(ref: PointCloud, dist: PointCloud,
                    attribute: str = "luminance",
                    estimator: str = "variance", k: int = 12,
                    pooling_exponent: float = 1.0,
                    ref_field: DispersionField = None,
                    dist_field: DispersionField = None,
                    ref_index: SpatialIndex = None,
                    dist_index: SpatialIndex = None,
                    nearest=None) -> float:
    """Pooled dissimilarity of dist against ref for one attribute.

    Precomputed fields may be passed to reuse work across attributes;
    they must have been extracted under identical settings. nearest:
    the index of the nearest ref point of every dist point.
    """
    ref_index = ref_index or build_index(ref)
    if ref_field is None:
        ref_field = extract_dispersion(ref, attribute, estimator, k,
                                       ref_index)
    if dist_field is None:
        dist_field = extract_dispersion(dist, attribute, estimator, k,
                                        dist_index or build_index(dist))
    for name in ("attribute", "estimator", "k"):
        if getattr(ref_field, name) != getattr(dist_field, name):
            raise SettingsMismatch(
                f"dispersion fields disagree on {name}: "
                f"{getattr(ref_field, name)!r} vs {getattr(dist_field, name)!r}")
    if len(dist_field.values) != len(dist):
        raise SettingsMismatch("dist field does not match the dist cloud")

    if nearest is None:
        nearest, _ = ref_index.nearest_batch(dist.positions)
    fx = ref_field.values[nearest]
    fy = dist_field.values
    s = np.abs(fx - fy) / (np.maximum(np.abs(fx), np.abs(fy)) + EPS)
    return float(np.mean(s ** pooling_exponent))
