"""Working sets of one whole pair and of the k-NN tie path.

Quantised clouds, whose points sit many to a voxel, once set the peak
memory of a pair: each k-NN row that may tie gathered every coincident
candidate before it kept its first k. These bounds are tracemalloc
peaks over what was held before the call.
"""

import tracemalloc

import numpy as np

from pcqkit.cloud import PointCloud
from pcqkit.pipeline import compute_pair_metrics
from pcqkit.plan import ReferenceContext
from pcqkit.spatial import build_index

from conftest import surface_cloud

# a reference of the benchmark's extract_manifest kind: 5e3 points of a
# sheet 1000 units wide
N_POINTS, SPAN = 5000, 1000.0
QUANT_STEP = 46.0   # about 9 points per occupied voxel


def _quantised(cloud):
    """cloud snapped to a coarse voxel grid, every duplicate kept."""
    return PointCloud(np.round(cloud.positions / QUANT_STEP) * QUANT_STEP,
                      colors=cloud.colors, bit_depth=cloud.bit_depth)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_quantised_pair_holds_a_bounded_working_set():
    # about 6 MB; 17.5 MB when the self k-NN gathered every coincident
    # candidate and the quadric fits took 2^18-neighbour blocks
    ref = surface_cloud(N_POINTS, seed=3, span=SPAN)
    dist = _quantised(ref)
    assert len(np.unique(dist.positions, axis=0)) < N_POINTS / 8
    reference = ReferenceContext.build(ref)
    for field in ("index", "knn", "normals", "ycc", "geometry_dispersion",
                  "luminance_dispersion", "pcqm_neighbors", "corr",
                  "graphsim"):
        getattr(reference, field)
    peak = _peak(lambda: compute_pair_metrics(reference, dist))
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


def test_quantised_self_knn_costs_what_a_plain_one_does():
    # 9 of 10 rows may tie at k = 12; resolving them point by point took
    # 17 MB, where the same query on the unquantised cloud takes 4.7 MB
    cloud = _quantised(surface_cloud(N_POINTS, seed=3, span=SPAN))
    index = build_index(cloud)
    peak = _peak(lambda: index.knn_batch(cloud.positions, 12))
    assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"


def test_nearest_queries_against_a_few_crowded_voxels_stay_small():
    # every uniform query ties between the 500 points of its nearest
    # voxel; taking each candidate of each row peaked at 230 MB
    rng = np.random.default_rng(0)
    points = np.repeat(rng.uniform(0.0, 100.0, size=(10, 3)), 500, axis=0)
    queries = rng.uniform(0.0, 100.0, size=(5000, 3))
    index = build_index(PointCloud(points))
    peak = _peak(lambda: index.nearest_batch(queries))
    idx, dst = index.nearest_batch(queries)
    # the first point of the nearest voxel, by brute force
    voxels = points[::500]
    gaps = np.linalg.norm(queries[:, None] - voxels[None], axis=2)
    assert np.array_equal(idx, 500 * gaps.argmin(axis=1))
    assert np.allclose(dst, gaps.min(axis=1), rtol=1e-12, atol=0)
    assert peak < 3e6, f"peak {peak / 1e6:.1f} MB"
