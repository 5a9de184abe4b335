import numpy as np
import pytest

from pcqkit.colorspace import (GAUSSIAN_MATRIX, Lab2000HLTable, luminance,
                               rgb_to_gaussian, rgb_to_lab, rgb_to_perceptual,
                               rgb_to_ycbcr)
from pcqkit.errors import TableMissing


def test_ycbcr_gray_is_exactly_neutral():
    grays = np.array([[0., 0., 0.], [100., 100., 100.], [255., 255., 255.]])
    ycc = rgb_to_ycbcr(grays)
    assert np.allclose(ycc[:, 0], [0.0, 100.0, 255.0], atol=1e-9)
    # chroma of any gray must be the exact midpoint, not merely close
    assert np.all(ycc[:, 1] == 128.0)
    assert np.all(ycc[:, 2] == 128.0)


def test_ycbcr_primaries_bt709():
    red = rgb_to_ycbcr(np.array([[255.0, 0.0, 0.0]]))[0]
    assert np.isclose(red[0], 0.2126 * 255, atol=1e-9)
    blue = rgb_to_ycbcr(np.array([[0.0, 0.0, 255.0]]))[0]
    assert np.isclose(blue[0], 0.0722 * 255, atol=1e-9)
    assert blue[1] > 128.0 > red[1]


def test_ycbcr_bt601_differs():
    c = np.array([[200.0, 30.0, 90.0]])
    assert not np.allclose(rgb_to_ycbcr(c, "bt709"), rgb_to_ycbcr(c, "bt601"))
    with pytest.raises(ValueError):
        rgb_to_ycbcr(c, "bt2020")


def test_luminance_is_y_channel():
    rng = np.random.default_rng(0)
    rgb = rng.uniform(0, 255, size=(50, 3))
    assert np.array_equal(luminance(rgb), rgb_to_ycbcr(rgb)[:, 0])


def test_lab_white_and_green():
    white = rgb_to_lab(np.array([[255.0, 255.0, 255.0]]))[0]
    assert np.allclose(white, [100.0, 0.0, 0.0], atol=1e-12)
    green = rgb_to_lab(np.array([[0.0, 255.0, 0.0]]))[0]
    # frozen from the sRGB D65 arithmetic
    assert np.allclose(green, [87.735, -86.183, 83.179], atol=0.01)
    black = rgb_to_lab(np.array([[0.0, 0.0, 0.0]]))[0]
    assert np.allclose(black, [0.0, 0.0, 0.0], atol=1e-12)


def test_gaussian_color_model():
    gray = rgb_to_gaussian(np.array([[255.0, 255.0, 255.0]]))[0]
    expected = 255.0 * GAUSSIAN_MATRIX.sum(axis=1)
    assert np.allclose(gray, expected, atol=1e-12)
    # luminance row is all-positive, chromatic rows mix signs
    assert (GAUSSIAN_MATRIX[0] > 0).all()
    assert (GAUSSIAN_MATRIX[1:] < 0).any(axis=1).all()


def _toy_table(tmp_path):
    # identity grid over a in [-10, 10], b in [-10, 10], 3x3 knots,
    # except aHL doubles a
    lines = ["-10 10 3", "-10 10 3"]
    for ai, a in enumerate((-10.0, 0.0, 10.0)):
        for b in (-10.0, 0.0, 10.0):
            lines.append(f"{2 * a} {b}")
    path = tmp_path / "table.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_lab_table_bilinear_remap(tmp_path):
    table = Lab2000HLTable.load(_toy_table(tmp_path))
    lab = np.array([[50.0, 5.0, -2.5], [50.0, -10.0, 10.0]])
    out = table.remap(lab)
    assert np.allclose(out[:, 0], 50.0)          # L passes through
    assert np.allclose(out[:, 1], [10.0, -20.0])  # a doubled by the grid
    assert np.allclose(out[:, 2], [-2.5, 10.0])   # b is identity
    # outside the grid: clamped to the border value
    far = table.remap(np.array([[50.0, 99.0, 0.0]]))
    assert np.allclose(far[0, 1], 20.0)


def test_lab_table_missing(tmp_path):
    with pytest.raises(TableMissing):
        Lab2000HLTable.load("/nonexistent/table.txt")
    body = _toy_table(tmp_path).read_text().split("\n")
    truncated = tmp_path / "truncated.txt"
    truncated.write_text("\n".join(body[:-3]) + "\n")
    with pytest.raises(TableMissing, match="truncated table body"):
        Lab2000HLTable.load(truncated)


def test_rgb_to_perceptual_fallback_and_table(tmp_path):
    rgb = np.array([[12.0, 200.0, 56.0]])
    assert np.array_equal(rgb_to_perceptual(rgb), rgb_to_lab(rgb))
    # low-chroma color: its (a, b) falls inside the toy grid
    soft = np.array([[131.0, 128.0, 126.0]])
    lab = rgb_to_lab(soft)
    assert np.abs(lab[0, 1:]).max() < 10.0
    table = Lab2000HLTable.load(_toy_table(tmp_path))
    remapped = rgb_to_perceptual(soft, table)
    assert np.allclose(remapped[:, 1], 2.0 * lab[:, 1])
    assert np.allclose(remapped[:, 2], lab[:, 2])
