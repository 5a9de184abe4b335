"""Every neighbour query of a (reference, distorted) pair, made lazily.

A ReferenceContext holds what depends on one cloud alone: its bit depth,
kd-tree, self queries, normals, colours and PointSSIM fields. A PairPlan
holds one context per cloud and adds the queries that cross them. A
reference's context is the one its distortions share. Each field is a
cached property, so a query runs at most once per pair, and only when a
metric reads it. The metric entry points (compute_d1, compute_d2,
compute_yuv, pointssim_score, compute_pcqm_features, msgraphsim_score)
each take a PairPlan and read their settings from plan.config, so a
standalone call and the pipeline run the same code. A plan is built
from the reference cloud, or from a context that already holds it and
its config:

    plan = PairPlan.build(ref, dist)
    compute_d1(plan).psnr_db

    context = ReferenceContext.build(ref)
    for dist in distortions:
        compute_d1(PairPlan.build(context, dist)).psnr_db
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .cloud import PointCloud, bounding_box
from .colorspace import Lab2000HLTable, rgb_to_ycbcr
from .config import Config
from .errors import (ConfigMismatch, InvalidCloud,
                     MissingNormalsUnrecoverable)
from .metrics.graphsim import graphsim_reference
from .metrics.pcqm import build_correspondence, recolor
from .metrics.pointssim import extract_dispersion
from .spatial import build_index
from .surface import estimate_normals

__all__ = ["ReferenceContext", "PairPlan"]


@dataclass(frozen=True, eq=False)
class ReferenceContext:
    """Every result that depends on one cloud alone, each made once.

    A reference's context is the one its distortions share; a PairPlan
    builds one more for its distorted cloud under the same config.

    One self k-NN query (k = max(pointssim_k, graphsim_k + 1, 2)) feeds
    every self-neighbor lookup: rows of knn_batch are sorted by
    (distance, index), so its first j columns equal a j-query.

    geometry is a context of the same positions, whose kd-tree, self
    k-NN, estimated normals and geometry PointSSIM field this one
    reuses. Only PairPlan.build sets it, for a dist at its reference's
    exact positions.
    """

    cloud: PointCloud
    config: Config
    geometry: Optional["ReferenceContext"] = field(default=None, init=False)

    @classmethod
    def build(cls, cloud: PointCloud, config: Config = None):
        """The context of cloud under config (default Config())."""
        return cls(cloud, config or Config())

    @cached_property
    def bit_depth(self) -> int:
        """config.cloud_bit_depth, else the cloud's declared bit depth,
        else one inferred from it and logged once per context."""
        depth = self.config.cloud_bit_depth
        return self.cloud.effective_bit_depth() if depth is None else depth

    @cached_property
    def index(self):
        return self.geometry.index if self.geometry else build_index(
            self.cloud)

    @cached_property
    def knn(self):
        """(indices, distances) of the one self k-NN query."""
        if self.geometry:
            return self.geometry.knn
        c = self.config
        return self.index.knn_batch(
            self.cloud.positions, max(c.pointssim_k, c.graphsim_k + 1, 2))

    @cached_property
    def normals(self) -> np.ndarray:
        """(n, 3) unit normals of the cloud, given or estimated, for D2."""
        return self.normals_at(np.arange(len(self.cloud)))

    def normals_at(self, rows) -> np.ndarray:
        """normals[rows], estimated at the distinct rows alone unless the
        cloud has its own or shares a geometry that has none."""
        cloud = self.cloud
        if cloud.has_normals:
            return cloud.normals[rows]
        if self.geometry and not self.geometry.cloud.has_normals:
            return self.geometry.normals[rows]
        if len(cloud) < 3:
            raise MissingNormalsUnrecoverable(
                f"cloud of {len(cloud)} points has no normals and is too "
                "small to estimate them")
        distinct, inverse = np.unique(rows, return_inverse=True)
        return estimate_normals(cloud, self.index.radius_batch(
            cloud.positions[distinct], self.config.psnr_normal_radius),
            distinct)[inverse]

    @cached_property
    def ycc(self) -> np.ndarray:
        """YCbCr colors, for YUV PSNR."""
        return rgb_to_ycbcr(self.cloud.require_colors("YUV PSNR"),
                            self.config.psnr_ycbcr_matrix)

    @cached_property
    def geometry_dispersion(self) -> np.ndarray:
        """(n,) PointSSIM field of neighbour distances; needs no colours."""
        if self.geometry:
            return self.geometry.geometry_dispersion
        return extract_dispersion(self.cloud, self.knn, "geometry",
                                  self.config)

    @cached_property
    def luminance_dispersion(self) -> np.ndarray:
        """(n,) PointSSIM field of luminance."""
        return extract_dispersion(self.cloud, self.knn, "luminance",
                                  self.config)

    @cached_property
    def lab_table(self) -> Optional[Lab2000HLTable]:
        path = self.config.pcqm_lab_table
        return Lab2000HLTable.load(path) if path else None

    @cached_property
    def pcqm_radius(self) -> float:
        """PCQM neighbourhood radius h; InvalidCloud unless it is > 0."""
        radius = self.config.pcqm_radius_factor * bounding_box(
            self.cloud).diagonal
        if not radius > 0.0:
            raise InvalidCloud(f"PCQM radius is {radius}: every point of "
                               "the cloud coincides")
        return radius

    @cached_property
    def pcqm_neighbors(self):
        """The radius-h self query."""
        return self.index.radius_batch(self.cloud.positions, self.pcqm_radius)

    @cached_property
    def corr(self):
        """The cloud's own PCQM fields: its correspondence to itself."""
        return build_correspondence(self.cloud, self.cloud,
                                    self.pcqm_neighbors, self.knn[0][:, 0],
                                    self.lab_table)

    @cached_property
    def graphsim(self):
        """GraphSimReference: keypoints, graph radius, reference graphs."""
        return graphsim_reference(self.cloud, self.index, self.knn,
                                  self.config)


@dataclass(frozen=True, eq=False)
class PairPlan:
    """The contexts of both clouds of one pair, under one config, and
    every query that crosses them."""

    reference: ReferenceContext
    distorted: ReferenceContext

    def __post_init__(self):
        if self.reference.config != self.distorted.config:
            raise ConfigMismatch("the two contexts of a pair must share "
                                 "one config")
        if self.distorted.geometry not in (None, self.reference):
            raise ValueError("the distorted context shares the geometry "
                             "of another reference")

    @classmethod
    def build(cls, ref: Union[PointCloud, ReferenceContext],
              dist: PointCloud, config: Config = None):
        """The plan of (ref, dist).

        ref is the reference cloud, whose context is built here under
        config (default Config()), or a ReferenceContext, which shares
        the reference-side work across the distortions of one reference
        and whose own config is then the only one: passing config as
        well raises TypeError. A dist at the reference's exact positions
        (a colour-only distortion) shares the reference's geometry.
        """
        if not isinstance(ref, ReferenceContext):
            ref = ReferenceContext.build(ref, config)
        elif config is not None:
            raise TypeError("a ReferenceContext carries its own config; "
                            "pass no config with it")
        distorted = ReferenceContext(dist, ref.config)
        if np.array_equal(dist.positions, ref.cloud.positions):
            object.__setattr__(distorted, "geometry", ref)
        return cls(ref, distorted)

    @property
    def config(self) -> Config:
        return self.reference.config

    @cached_property
    def nearest_forward(self):
        """(index, distance) of the nearest ref point of every dist point
        (with shared geometry, column 0 of the self k-NN)."""
        if self.distorted.geometry:
            return tuple(a[:, 0].copy() for a in self.reference.knn)
        return self.reference.index.nearest_batch(
            self.distorted.cloud.positions)

    @cached_property
    def nearest_backward(self):
        """(index, distance) of the nearest dist point of every ref point."""
        if self.distorted.geometry:
            return self.nearest_forward
        return self.distorted.index.nearest_batch(
            self.reference.cloud.positions)

    @cached_property
    def corr(self):
        """The dist surface sampled at every ref point (PCQM), fitted to
        the dist points within h of each ref point; that query is made
        here and not kept. With shared geometry only the colours are
        sampled: the surface is the reference's own."""
        reference, distorted = self.reference, self.distorted
        if distorted.geometry:
            return recolor(reference.corr, distorted.cloud,
                           self.nearest_backward[0], reference.lab_table)
        return build_correspondence(
            reference.cloud, distorted.cloud,
            distorted.index.radius_batch(reference.cloud.positions,
                                         reference.pcqm_radius),
            self.nearest_backward[0], reference.lab_table)

    @cached_property
    def graphsim_neighbors(self):
        """The dist points within the graph radius of every keypoint,
        sorted by distance (with shared geometry, the reference's)."""
        graphsim = self.reference.graphsim
        if self.distorted.geometry:
            return graphsim.members
        return self.distorted.index.radius_batch(
            self.reference.cloud.positions[graphsim.keypoints],
            graphsim.radius, sort_by_distance=True)
