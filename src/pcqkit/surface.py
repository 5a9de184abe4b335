"""Local surface fitting: PCA frames, quadric patches, normals, curvature.

Every neighborhood gets a PCA frame from its covariance; a quadric
z = ax^2 + bxy + cy^2 + dx + ey + f is then least-squares fitted in that
frame. Normals come from the quadric gradient, mean curvature from its
second fundamental form. Neighborhoods with fewer than 6 points fall back
to the PCA plane normal (curvature 0); collinear or coincident ones are
degenerate and get the +z normal. Everything is batched: neighborhoods
arrive in the flat layout of spatial.Neighbors and are reduced
segment-wise over its bounded row blocks (Neighbors.blocks), so clouds of
1e5+ points stay fast without leaving numpy.

The covariance and normal equations come from feature-major rows of only
the distinct products, one reduceat along the rows: bit for bit the full
outer products, as products commute exactly, x*1 is x, and numpy sums a
segment in the same order along either axis.
"""

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, bounding_box

_MIN_QUADRIC_POINTS = 6
# rows of the sums of d_i * d_j, i <= j, that make the 3 x 3 covariance
_COV = [[0, 1, 2], [1, 3, 4], [2, 4, 5]]
# Quadric term rows: 0-2 the local x, y, z, then products of two earlier
# rows: xx, xy, yy; xx*xx, xx*xy, xx*yy, xx*x, xx*y, xy*xy, xy*yy, xy*x,
# xy*y, yy*yy, yy*x, yy*y; xx*z, xy*z, yy*z, x*z, y*z.
_PRODUCTS = ((0, 0), (0, 1), (1, 1), (3, 3), (3, 4), (3, 5), (3, 0), (3, 1),
             (4, 4), (4, 5), (4, 0), (4, 1), (5, 5), (5, 0), (5, 1),
             (3, 2), (4, 2), (5, 2), (0, 2), (1, 2))
# rows of the term sums, and of the count as row 23, that make A^T A and
# A^T z for the design terms (xx, xy, yy, x, y, 1): x*x is row xx itself
_ATA = [[6, 7, 8, 9, 10, 3], [7, 11, 12, 13, 14, 4], [8, 12, 15, 16, 17, 5],
        [9, 13, 16, 3, 4, 0], [10, 14, 17, 4, 5, 1], [3, 4, 5, 0, 1, 23]]
_ATB = [18, 19, 20, 21, 22, 2]


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
    for start, block in neighbors.blocks():
        rows = slice(start, start + len(block))
        _fit_chunk(points, block, centers[rows], normals[rows],
                   curvatures[rows], plane_fallback[rows], degenerate[rows])
    return SurfaceFit(normals, curvatures, plane_fallback, degenerate)


def _fit_chunk(points, block, centers, normals, curvatures, plane_fallback,
               degenerate):
    counts = block.counts
    sel = np.flatnonzero(counts)
    if len(sel) == 0:
        return
    seg_counts = counts[sel]
    # reduceat needs non-empty segments: they start at the non-empty rows
    seg_starts = block.offsets[sel]
    flat = block.indices

    d = np.take(points, flat, axis=0)
    mean = np.add.reduceat(d, seg_starts, axis=0) / seg_counts[:, None]
    d -= np.repeat(mean, seg_counts, axis=0)

    # neighborhood covariance and PCA frame; each stage frees its per-row
    # arrays before the next allocates, which the block budget counts on
    prod = np.empty((6, len(flat)))
    for row, (i, j) in enumerate(zip(*np.triu_indices(3))):
        np.multiply(d[:, i], d[:, j], out=prod[row])
    cov = np.add.reduceat(prod, seg_starts, axis=1) / seg_counts
    del prod
    eigval, eigvec = np.linalg.eigh(cov.T[:, _COV])
    scale = eigval[:, 2]
    bad = (scale <= 0.0) | (eigval[:, 1] <= 1e-12 * scale)
    degenerate[sel[bad]] = True
    enough = (seg_counts >= _MIN_QUADRIC_POINTS) & ~bad
    plane = ~enough & ~bad
    normals[sel[plane]] = eigvec[plane][:, :, 0]
    plane_fallback[sel[plane]] = True

    # quadrics only for the rows that read one: 6+ points, not degenerate
    quad = np.flatnonzero(enough)
    if len(quad) == 0:
        return
    if len(quad) < len(sel):
        d = d[np.repeat(enough, seg_counts)]
        seg_counts = seg_counts[quad]
        seg_starts = np.cumsum(seg_counts) - seg_counts

    # local frame: x, y span the plane, z along the smallest eigenvector;
    # "kij,ki->kj" contracts over rows, i.e. multiplies by frame transpose.
    # The layout of both operands decides einsum's order of summation: d
    # stays row-major, and each neighbor's frame is repeated from the
    # C-contiguous transpose of frame, whose own strides it then keeps
    frame = eigvec[quad][:, :, [2, 1, 0]]
    local = np.einsum("kij,ki->kj", np.repeat(np.ascontiguousarray(
        frame.transpose(0, 2, 1)), seg_counts, axis=0).transpose(0, 2, 1), d)
    c_local = np.einsum("kij,ki->kj", frame, centers[sel[quad]] - mean[quad])
    del d

    terms = np.empty((3 + len(_PRODUCTS), len(local)))
    terms[:3] = local.T
    del local
    for row, (p, q) in enumerate(_PRODUCTS, start=3):
        np.multiply(terms[p], terms[q], out=terms[row])
    sums = np.vstack([np.add.reduceat(terms, seg_starts, axis=1), seg_counts])
    del terms
    ata = np.ascontiguousarray(sums.T[:, _ATA])
    atb = sums[_ATB].T

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
    normals[sel[quad]] = np.einsum("kij,kj->ki", frame, n_local)
    curvatures[sel[quad]] = np.abs(h_mean)


def estimate_normals(cloud: PointCloud, neighbors,
                     rows=slice(None)) -> np.ndarray:
    """(m, 3) unit normals of a cloud at its points rows (default all)
    by quadric fitting, one Neighbors row per point (a radius query).

    Signs are chosen so each normal points away from the whole cloud's
    bounding-box centroid (non-negative dot with centroid-to-point
    vector). The fitted normals are unit only to within rounding, so each
    is divided by its norm once more, as PointCloud does with given ones.
    """
    positions = cloud.positions[rows]
    fit = fit_local_surfaces(cloud.positions, neighbors, positions)

    outward = positions - bounding_box(cloud).centroid
    flip = np.einsum("ij,ij->i", fit.normals, outward) < 0.0
    normals = np.where(flip[:, None], -fit.normals, fit.normals)
    return normals / np.linalg.norm(normals, axis=1)[:, None]
