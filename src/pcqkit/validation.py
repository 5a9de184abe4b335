"""Input validation helpers shared across the toolkit.

Array checks convert to float64 C-contiguous ndarrays and fail early with
a clear message instead of letting shape errors surface deep inside numpy.
"""

import numpy as np

from .errors import EmptyCloud, InvalidCloud


def as_float_array(values, name="array", ndim=None):
    """Coerce to a float64 ndarray, rejecting non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise InvalidCloud(f"{name}: expected {ndim}-d array, got {arr.ndim}-d")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidCloud(f"{name}: contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_positions(positions, name="positions"):
    """Validate an (n, 3) coordinate array with n >= 1."""
    arr = as_float_array(positions, name, ndim=2)
    if arr.shape[0] < 1:
        raise EmptyCloud(f"{name}: cloud must contain at least one point")
    if arr.shape[1] != 3:
        raise InvalidCloud(f"{name}: expected shape (n, 3), got {arr.shape}")
    return arr


def check_colors(colors, n_points, name="colors"):
    """Validate an (n, 3) RGB array with values in [0, 255]."""
    arr = as_float_array(colors, name, ndim=2)
    if arr.shape != (n_points, 3):
        raise InvalidCloud(
            f"{name}: expected shape ({n_points}, 3), got {arr.shape}")
    if arr.size and (arr.min() < 0.0 or arr.max() > 255.0):
        raise InvalidCloud(f"{name}: RGB values must lie in [0, 255]")
    return arr


def check_normals(normals, n_points, name="normals"):
    """Validate and unit-normalize an (n, 3) normal array."""
    arr = as_float_array(normals, name, ndim=2)
    if arr.shape != (n_points, 3):
        raise InvalidCloud(
            f"{name}: expected shape ({n_points}, 3), got {arr.shape}")
    norms = np.linalg.norm(arr, axis=1)
    if arr.size and norms.min() <= 0.0:
        raise InvalidCloud(f"{name}: zero-length normal present")
    return arr / norms[:, None]


def check_matrix_2d(X, name="X"):
    """Validate a 2-d sample matrix (n_samples, n_features), n >= 1."""
    arr = as_float_array(X, name, ndim=2)
    if arr.shape[0] < 1:
        raise InvalidCloud(f"{name}: needs at least one row")
    return arr


def check_paired(X, y, ndim=2, names=("X", "y")):
    """Validate a sample matrix (ndim 2) or vector (ndim 1) of n >= 1
    rows and a matching 1-d target vector."""
    X = as_float_array(X, names[0], ndim=ndim)
    if X.shape[0] < 1:
        raise InvalidCloud(f"{names[0]}: needs at least one row")
    y = as_float_array(y, names[1], ndim=1)
    if y.shape[0] != X.shape[0]:
        raise InvalidCloud(f"{names[0]} has {X.shape[0]} rows but "
                           f"{names[1]} has {y.shape[0]} entries")
    return X, y
