"""Color transforms used by the metrics.

Three families:
  * integer-range YCbCr (BT.709 or BT.601, full range, chroma offset 128)
  * perceptual CIELAB, optionally hue-linearized through a LAB2000HL
    lookup table when one is supplied
  * the Gaussian color model decomposition (E, Elambda, Elambda-lambda)

All transforms accept (..., 3) arrays in RGB [0, 255] and are vectorized.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TableMissing

# BT.709 / BT.601 luma coefficients (kr, kg, kb)
YCBCR_MATRICES = {
    "bt709": (0.2126, 0.7152, 0.0722),
    "bt601": (0.299, 0.587, 0.114),
}

# linear sRGB -> XYZ, D65 (IEC 61966-2-1); whitepoint taken from the row
# sums so equal-RGB inputs land exactly on the neutral axis
_SRGB_TO_XYZ = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
_WHITEPOINT = _SRGB_TO_XYZ.sum(axis=1)

# Gaussian color model: rows give E, Elambda, Elambda-lambda from RGB
GAUSSIAN_MATRIX = np.array([
    [0.06, 0.63, 0.27],
    [0.30, 0.04, -0.35],
    [0.34, -0.60, 0.17],
])


def rgb_to_ycbcr(rgb, matrix: str = "bt709"):
    """Full-range YCbCr with 128-centered chroma, clamped to [0, 255].

    Chroma is formed from channel differences, so gray inputs give
    cb = cr = 128 exactly regardless of coefficient rounding.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    try:
        kr, kg, kb = YCBCR_MATRICES[matrix]
    except KeyError:
        raise ValueError(f"unknown YCbCr matrix {matrix!r}") from None
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = kr * r + kg * g + kb * b
    cb = (kr * (b - r) + kg * (b - g)) / (2.0 * (1.0 - kb)) + 128.0
    cr = (kg * (r - g) + kb * (r - b)) / (2.0 * (1.0 - kr)) + 128.0
    out = np.stack([y, cb, cr], axis=-1)
    return np.clip(out, 0.0, 255.0)


def luminance(rgb):
    """Just the BT.709 Y channel of rgb_to_ycbcr."""
    return rgb_to_ycbcr(rgb)[..., 0]


def _srgb_linear(c):
    c = c / 255.0
    return np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)


def _lab_f(t):
    delta = 6.0 / 29.0
    return np.where(t > delta ** 3,
                    np.cbrt(t),
                    t / (3.0 * delta * delta) + 4.0 / 29.0)


def rgb_to_lab(rgb):
    """sRGB (0..255) to CIELAB under D65."""
    rgb = np.asarray(rgb, dtype=np.float64)
    xyz = _srgb_linear(rgb) @ _SRGB_TO_XYZ.T
    fxyz = _lab_f(xyz / _WHITEPOINT)
    lum = 116.0 * fxyz[..., 1] - 16.0
    a = 500.0 * (fxyz[..., 0] - fxyz[..., 1])
    b = 200.0 * (fxyz[..., 1] - fxyz[..., 2])
    return np.stack([lum, a, b], axis=-1)


@dataclass(frozen=True)
class Lab2000HLTable:
    """Sampled (a, b) -> (aHL, bHL) hue-linearization grid.

    File layout (text): two header lines "min max count" for the a and b
    axes, then count_a * count_b rows of "aHL bHL", a-major.
    """

    a_axis: np.ndarray
    b_axis: np.ndarray
    a_grid: np.ndarray
    b_grid: np.ndarray

    @classmethod
    def load(cls, path) -> "Lab2000HLTable":
        if path is None:
            raise TableMissing("no LAB2000HL table path configured")
        try:
            with open(path) as stream:
                tokens = stream.read().split()
            a_min, a_max, n_a = float(tokens[0]), float(tokens[1]), int(tokens[2])
            b_min, b_max, n_b = float(tokens[3]), float(tokens[4]), int(tokens[5])
            values = np.array(tokens[6:6 + 2 * n_a * n_b], dtype=np.float64)
            if values.size != 2 * n_a * n_b or n_a < 2 or n_b < 2:
                raise ValueError("truncated table body")
        except (OSError, ValueError, IndexError) as exc:
            raise TableMissing(f"cannot read LAB2000HL table: {exc}") from exc
        grid = values.reshape(n_a, n_b, 2)
        return cls(np.linspace(a_min, a_max, n_a),
                   np.linspace(b_min, b_max, n_b),
                   grid[:, :, 0], grid[:, :, 1])

    def remap(self, lab):
        """Bilinear (a, b) remap; L passes through, queries clamp to grid."""
        lab = np.asarray(lab, dtype=np.float64)
        a = np.clip(lab[..., 1], self.a_axis[0], self.a_axis[-1])
        b = np.clip(lab[..., 2], self.b_axis[0], self.b_axis[-1])
        ia = np.clip(np.searchsorted(self.a_axis, a) - 1, 0,
                     len(self.a_axis) - 2)
        ib = np.clip(np.searchsorted(self.b_axis, b) - 1, 0,
                     len(self.b_axis) - 2)
        wa = (a - self.a_axis[ia]) / (self.a_axis[ia + 1] - self.a_axis[ia])
        wb = (b - self.b_axis[ib]) / (self.b_axis[ib + 1] - self.b_axis[ib])
        out = np.array(lab)
        for k, grid in ((1, self.a_grid), (2, self.b_grid)):
            v00 = grid[ia, ib]
            v01 = grid[ia, ib + 1]
            v10 = grid[ia + 1, ib]
            v11 = grid[ia + 1, ib + 1]
            top = v00 * (1.0 - wb) + v01 * wb
            bot = v10 * (1.0 - wb) + v11 * wb
            out[..., k] = top * (1.0 - wa) + bot * wa
        return out


def rgb_to_perceptual(rgb, table: "Lab2000HLTable | None" = None):
    """CIELAB, hue-linearized through the table when one is given."""
    lab = rgb_to_lab(rgb)
    if table is not None:
        lab = table.remap(lab)
    return lab


def rgb_to_gaussian(rgb):
    """Gaussian color model components (E, Elambda, Elambda-lambda)."""
    return np.asarray(rgb, dtype=np.float64) @ GAUSSIAN_MATRIX.T
