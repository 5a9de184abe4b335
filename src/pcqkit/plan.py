"""Every neighbour query of a (reference, distorted) pair, made lazily.

A ReferenceContext holds what depends on the reference alone and serves
each of its distortions; a PairPlan adds what depends on the distorted
cloud. Each field is a cached property, so a query runs at most once per
pair, and only when a metric reads it. The metric entry points
(compute_d1, compute_d2, compute_yuv, pointssim_score,
compute_pcqm_features, msgraphsim_score) each take a PairPlan and read
their settings from plan.config, so a standalone call and the pipeline
run the same code. A plan is built from the reference cloud, or from a
context that already holds it and its config:

    plan = PairPlan.build(ref, dist)
    compute_d1(plan).psnr_db

    context = ReferenceContext.build(ref)
    for dist in distortions:
        compute_d1(PairPlan.build(context, dist)).psnr_db
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .cloud import PointCloud, bounding_box
from .colorspace import Lab2000HLTable, rgb_to_ycbcr
from .config import Config
from .errors import MissingNormalsUnrecoverable
from .metrics.graphsim import graphsim_reference
from .metrics.pcqm import build_correspondence
from .metrics.pointssim import extract_dispersion
from .spatial import build_index
from .surface import estimate_normals

__all__ = ["ReferenceContext", "PairPlan"]


def _with_normals(cloud: PointCloud, index, radius: float) -> PointCloud:
    """The cloud itself if it has normals, else with estimated ones."""
    if cloud.has_normals:
        return cloud
    if len(cloud) < 3:
        raise MissingNormalsUnrecoverable(
            f"cloud of {len(cloud)} points has no normals and is too small "
            "to estimate them")
    return estimate_normals(cloud, index.radius_batch(cloud.positions, radius))


@dataclass(frozen=True, eq=False)
class ReferenceContext:
    """Every result that depends on the reference alone, made once and
    reused for each of its distortions.

    One self k-NN query (k = max(pointssim_k, graphsim_k + 1, 2)) feeds
    every self-neighbor lookup: rows of knn_batch are sorted by
    (distance, index), so its first j columns equal a j-query.
    """

    cloud: PointCloud        # the reference, at the configured bit depth
    config: Config

    @classmethod
    def build(cls, ref: PointCloud, config: Config = None):
        """The context of ref under config (default Config())."""
        config = config or Config()
        if config.cloud_bit_depth is not None:
            ref = replace(ref, bit_depth=config.cloud_bit_depth)
        return cls(ref, config)

    @cached_property
    def index(self):
        return build_index(self.cloud)

    @cached_property
    def knn(self):
        """(indices, distances) of the one self k-NN query."""
        c = self.config
        return self.index.knn_batch(
            self.cloud.positions, max(c.pointssim_k, c.graphsim_k + 1, 2))

    @cached_property
    def with_normals(self) -> PointCloud:
        """The reference with its given or estimated normals, for D2."""
        return _with_normals(self.cloud, self.index,
                             self.config.psnr_normal_radius)

    @cached_property
    def ycc(self) -> np.ndarray:
        """YCbCr colors, for YUV PSNR."""
        return rgb_to_ycbcr(self.cloud.require_colors("YUV PSNR"),
                            self.config.psnr_ycbcr_matrix)

    @cached_property
    def fields(self) -> dict:
        """attribute -> (n,) PointSSIM dispersion values."""
        return {attribute: extract_dispersion(self.cloud, self.knn,
                                              attribute, self.config)
                for attribute in ("luminance", "geometry")}

    @cached_property
    def lab_table(self) -> Optional[Lab2000HLTable]:
        path = self.config.pcqm_lab_table
        return Lab2000HLTable.load(path) if path else None

    @cached_property
    def pcqm_radius(self) -> float:
        """PCQM neighbourhood radius h."""
        return self.config.pcqm_radius_factor * bounding_box(self.cloud).diagonal

    @cached_property
    def pcqm_neighbors(self):
        """The radius-h self query."""
        return self.index.radius_batch(self.cloud.positions, self.pcqm_radius)

    @cached_property
    def corr(self):
        """The reference's own PCQM fields: its correspondence to itself."""
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
    """Every query of one pair that involves the distorted cloud."""

    reference: ReferenceContext
    dist: PointCloud         # the distorted cloud, at the configured depth

    @classmethod
    def build(cls, ref: Union[PointCloud, ReferenceContext],
              dist: PointCloud, config: Config = None):
        """The plan of (ref, dist).

        ref is the reference cloud, whose context is built here under
        config (default Config()), or a ReferenceContext, which shares
        the reference-side work across the distortions of one reference
        and whose own config is then the only one: passing config as
        well raises TypeError.
        """
        if not isinstance(ref, ReferenceContext):
            ref = ReferenceContext.build(ref, config)
        elif config is not None:
            raise TypeError("a ReferenceContext carries its own config; "
                            "pass no config with it")
        config = ref.config
        if config.cloud_bit_depth is not None:
            dist = replace(dist, bit_depth=config.cloud_bit_depth)
        return cls(ref, dist)

    @property
    def config(self) -> Config:
        return self.reference.config

    @property
    def ref(self) -> PointCloud:
        return self.reference.cloud

    @cached_property
    def dist_index(self):
        return build_index(self.dist)

    @cached_property
    def nearest_forward(self):
        """(index, distance) of the nearest ref point of every dist point."""
        return self.reference.index.nearest_batch(self.dist.positions)

    @cached_property
    def nearest_backward(self):
        """(index, distance) of the nearest dist point of every ref point."""
        return self.dist_index.nearest_batch(self.ref.positions)

    @cached_property
    def dist_knn(self):
        """The dist self k-NN query, k = pointssim_k."""
        return self.dist_index.knn_batch(self.dist.positions,
                                         self.config.pointssim_k)

    @cached_property
    def dist_with_normals(self) -> PointCloud:
        return _with_normals(self.dist, self.dist_index,
                             self.config.psnr_normal_radius)

    @cached_property
    def corr(self):
        """The dist surface sampled at every ref point (PCQM), fitted to
        the dist points within h of each ref point; that query is made
        here and not kept."""
        reference = self.reference
        return build_correspondence(
            self.ref, self.dist,
            self.dist_index.radius_batch(self.ref.positions,
                                         reference.pcqm_radius),
            self.nearest_backward[0], reference.lab_table)

    @cached_property
    def graphsim_neighbors(self):
        """The dist points within the graph radius of every keypoint,
        sorted by distance."""
        graphsim = self.reference.graphsim
        return self.dist_index.radius_batch(
            self.ref.positions[graphsim.keypoints], graphsim.radius,
            sort_by_distance=True)
