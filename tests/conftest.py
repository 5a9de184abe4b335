import os

import numpy as np
import pytest

from pcqkit.cloud import PointCloud

# the CLI tests run `python -m pcqkit` in child processes, which find the
# package through PYTHONPATH, as this process does through pyproject.toml
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def surface_cloud(n: int, seed: int, span: float = 200.0) -> PointCloud:
    """A bumpy textured sheet; smooth enough for curvature and normals
    to mean something, unlike a uniform random blob."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, span, size=(n, 2))
    z = span / 2 + 30.0 * np.sin(xy[:, 0] / span * 6) \
        * np.cos(xy[:, 1] / span * 5)
    positions = np.column_stack([xy, z])
    colors = np.column_stack([
        128 + 100 * np.sin(xy[:, 0] / span * 9),
        128 + 80 * np.cos(xy[:, 1] / span * 7),
        128 + 60 * np.sin((xy[:, 0] + xy[:, 1]) / span * 4),
    ]).clip(0, 255)
    return PointCloud(positions, colors=np.round(colors), bit_depth=8)


def random_cloud(n: int, seed: int, span: float = 1023.0) -> PointCloud:
    # voxel collisions would give one position two colors, which no real
    # capture produces and which breaks identity-metric fixtures
    rng = np.random.default_rng(seed)
    positions = np.round(rng.uniform(0.0, span, size=(n, 3)))
    positions = np.unique(positions, axis=0)
    colors = rng.integers(0, 256, size=(len(positions), 3)).astype(np.float64)
    return PointCloud(positions, colors=colors, bit_depth=10)


def jitter(cloud: PointCloud, sigma: float, seed: int,
           color_sigma: float = None) -> PointCloud:
    rng = np.random.default_rng(seed)
    positions = cloud.positions + rng.normal(0.0, sigma,
                                             cloud.positions.shape)
    colors = cloud.colors
    if colors is not None and color_sigma:
        colors = np.round(np.clip(
            colors + rng.normal(0.0, color_sigma, colors.shape), 0, 255))
    return PointCloud(positions, colors=colors, bit_depth=cloud.bit_depth)


@pytest.fixture
def small_surface():
    return surface_cloud(600, seed=11)
