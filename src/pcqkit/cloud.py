"""Point cloud container and basic geometry helpers."""

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidCloud, MissingAttribute
from .validation import check_colors, check_normals, check_positions

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box of a cloud."""

    minimum: np.ndarray
    maximum: np.ndarray

    @property
    def centroid(self) -> np.ndarray:
        return 0.5 * (self.minimum + self.maximum)

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.maximum - self.minimum))


@dataclass(frozen=True)
class PointCloud:
    """Immutable point cloud with optional per-point attributes.

    positions : (n, 3) float64, finite
    colors    : (n, 3) float64 RGB in [0, 255], or None
    normals   : (n, 3) float64 unit vectors, or None
    bit_depth : voxelization bit depth; inferred from coordinates if None
    """

    positions: np.ndarray
    colors: Optional[np.ndarray] = None
    normals: Optional[np.ndarray] = None
    bit_depth: Optional[int] = field(default=None)

    def __post_init__(self):
        pos = check_positions(self.positions)
        object.__setattr__(self, "positions", pos)
        n = pos.shape[0]
        if self.colors is not None:
            object.__setattr__(self, "colors", check_colors(self.colors, n))
        if self.normals is not None:
            object.__setattr__(self, "normals", check_normals(self.normals, n))
        if self.bit_depth is not None:
            if not 1 <= int(self.bit_depth) <= 32:
                raise InvalidCloud(
                    f"bit_depth must lie in [1, 32], got {self.bit_depth}")
            object.__setattr__(self, "bit_depth", int(self.bit_depth))
        for arr in (self.positions, self.colors, self.normals):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def has_colors(self) -> bool:
        return self.colors is not None

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def require_colors(self, context: str = "operation") -> np.ndarray:
        if self.colors is None:
            raise MissingAttribute(f"{context} requires per-point colors")
        return self.colors

    def effective_bit_depth(self) -> int:
        """Declared bit depth, or one inferred from the coordinate range."""
        if self.bit_depth is not None:
            return self.bit_depth
        inferred = infer_bit_depth(self.positions)
        logger.info("bit depth not declared; inferred %d from coordinates",
                    inferred)
        return inferred


def infer_bit_depth(positions) -> int:
    """Smallest b with all coordinates inside [0, 2**b - 1], at least 1."""
    top = float(np.max(positions))
    if top <= 1.0:
        return 1
    return max(1, math.ceil(math.log2(top + 1.0)))


def bounding_box(cloud: PointCloud) -> BoundingBox:
    """Axis-aligned bounding box; degenerate (zero extent) boxes allowed."""
    pos = cloud.positions
    return BoundingBox(pos.min(axis=0), pos.max(axis=0))

