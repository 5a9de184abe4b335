"""Local surface fitting: PCA frames, quadric patches, normals, curvature.

Every neighborhood gets a PCA frame from its covariance; a quadric
z = ax^2 + bxy + cy^2 + dx + ey + f is then least-squares fitted in that
frame. Normals come from the quadric gradient, mean curvature from its
second fundamental form. Neighborhoods with fewer than 6 points fall back
to the PCA plane normal (curvature 0); collinear or coincident ones are
degenerate and get the +z normal. Everything is batched: neighborhoods
arrive in the flat layout of spatial.Neighbors and are reduced
segment-wise, a bounded number of neighbor rows per chunk, so clouds of
1e5+ points stay fast without leaving numpy.
"""

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, bounding_box

_MIN_QUADRIC_POINTS = 6
_ROWS_PER_CHUNK = 1_500_000


@dataclass(frozen=True)
class SurfaceFit:
    """Per-center results of local quadric fitting."""

    normals: np.ndarray      # (m, 3) unit normals, unoriented
    curvatures: np.ndarray   # (m,) absolute mean curvature
    plane_fallback: np.ndarray  # (m,) bool, < 6 neighbors
    degenerate: np.ndarray      # (m,) bool, collinear/coincident


def fit_local_surfaces(points, neighbors, centers) -> SurfaceFit:
    """Fit a quadric around each center from its neighborhood.

    points    : (n, 3) geometry the neighborhoods index into
    neighbors : Neighbors, one row per center
    centers   : (m, 3) evaluation positions for normal/curvature
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    m = centers.shape[0]
    normals = np.tile([0.0, 0.0, 1.0], (m, 1))
    curvatures = np.zeros(m)
    plane_fallback = np.zeros(m, dtype=bool)
    degenerate = neighbors.counts == 0

    # chunks of whole rows holding at most _ROWS_PER_CHUNK neighbors; a
    # bigger row gets a chunk of its own
    offsets = neighbors.offsets
    start = 0
    while start < m:
        stop = int(np.searchsorted(offsets, offsets[start] + _ROWS_PER_CHUNK,
                                   side="right")) - 1
        stop = max(stop, start + 1)
        _fit_chunk(points, neighbors, centers, start, stop,
                   normals, curvatures, plane_fallback, degenerate)
        start = stop
    return SurfaceFit(normals, curvatures, plane_fallback, degenerate)


def _fit_chunk(points, neighbors, centers, start, stop,
               normals, curvatures, plane_fallback, degenerate):
    offsets = neighbors.offsets
    sel = start + np.flatnonzero(np.diff(offsets[start:stop + 1]))
    if len(sel) == 0:
        return
    seg_counts = offsets[sel + 1] - offsets[sel]
    # reduceat needs non-empty segments: they start at the non-empty rows
    seg_starts = offsets[sel] - offsets[start]
    flat = neighbors.indices[offsets[start]:offsets[stop]]
    ctr_row = np.repeat(np.arange(len(sel)), seg_counts)

    nbr = points[flat]
    mean = np.add.reduceat(nbr, seg_starts, axis=0) / seg_counts[:, None]
    d = nbr - mean[ctr_row]

    # neighborhood covariance and PCA frame
    cov = np.add.reduceat(d[:, :, None] * d[:, None, :], seg_starts, axis=0)
    cov /= seg_counts[:, None, None]
    eigval, eigvec = np.linalg.eigh(cov)
    scale = eigval[:, 2]
    bad = (scale <= 0.0) | (eigval[:, 1] <= 1e-12 * scale)
    degenerate[sel[bad]] = True

    # local frame: x, y span the plane, z along the smallest eigenvector;
    # "kij,ki->kj" contracts over rows, i.e. multiplies by frame transpose
    frame = eigvec[:, :, [2, 1, 0]]
    local = np.einsum("kij,ki->kj", frame[ctr_row], d)
    c_local = np.einsum("kij,ki->kj", frame, centers[sel] - mean)

    x, y, z = local[:, 0], local[:, 1], local[:, 2]
    design = np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=1)
    ata = np.add.reduceat(design[:, :, None] * design[:, None, :],
                          seg_starts, axis=0)
    atb = np.add.reduceat(design * z[:, None], seg_starts, axis=0)

    enough = (seg_counts >= _MIN_QUADRIC_POINTS) & ~bad
    # tiny relative ridge keeps near-singular systems solvable
    tr = np.trace(ata, axis1=1, axis2=2) / 6.0
    ata += (1e-10 * np.maximum(tr, 1e-30))[:, None, None] * np.eye(6)
    coef = np.linalg.solve(ata, atb[:, :, None])[:, :, 0]

    a, b, c, dd, e = (coef[:, 0], coef[:, 1], coef[:, 2],
                      coef[:, 3], coef[:, 4])
    x0, y0 = c_local[:, 0], c_local[:, 1]
    fx = 2.0 * a * x0 + b * y0 + dd
    fy = b * x0 + 2.0 * c * y0 + e
    g = 1.0 + fx * fx + fy * fy
    h_mean = ((1.0 + fy * fy) * 2.0 * a - 2.0 * fx * fy * b
              + (1.0 + fx * fx) * 2.0 * c) / (2.0 * g ** 1.5)

    n_local = np.stack([-fx, -fy, np.ones_like(fx)], axis=1) / \
        np.sqrt(g)[:, None]
    n_world = np.einsum("kij,kj->ki", frame, n_local)

    use_q = enough
    use_p = ~enough & ~bad
    out = sel[use_q]
    normals[out] = n_world[use_q]
    curvatures[out] = np.abs(h_mean[use_q])
    out = sel[use_p]
    normals[out] = eigvec[use_p][:, :, 0]
    plane_fallback[sel[use_p]] = True


def estimate_normals(cloud: PointCloud, neighbors) -> PointCloud:
    """Estimate unit normals by quadric fitting over each point's
    neighborhood, one Neighbors row per point (a radius query of the
    cloud's own points).

    Signs are chosen so each normal points away from the bounding-box
    centroid (non-negative dot with centroid-to-point vector). Returns a
    new cloud.
    """
    fit = fit_local_surfaces(cloud.positions, neighbors, cloud.positions)

    centroid = bounding_box(cloud).centroid
    outward = cloud.positions - centroid
    flip = np.einsum("ij,ij->i", fit.normals, outward) < 0.0
    normals = np.where(flip[:, None], -fit.normals, fit.normals)
    return cloud.with_normals(normals)
