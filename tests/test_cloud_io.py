import struct
from ast import literal_eval

import numpy as np
import pytest

from pcqkit.cloud import PointCloud, bounding_box, infer_bit_depth
from pcqkit.errors import (CountMismatch, EmptyCloud, InvalidCloud,
                           MalformedHeader, MissingAttribute,
                           UnsupportedFormat)
from pcqkit.io_ply import load_ply, save_ply
from pcqkit.plan import ReferenceContext

from conftest import random_cloud


def test_bit_depth_inference():
    assert infer_bit_depth(np.array([[0., 0., 0.], [1023., 5., 7.]])) == 10
    assert infer_bit_depth(np.array([[0., 0., 0.], [1024., 5., 7.]])) == 11
    assert infer_bit_depth(np.zeros((2, 3))) == 1
    cloud = PointCloud(np.array([[0., 0., 0.], [255., 255., 255.]]))
    assert cloud.effective_bit_depth() == 8
    assert ReferenceContext.build(cloud).bit_depth == 8


def test_positions_validation():
    with pytest.raises(EmptyCloud):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(InvalidCloud):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(InvalidCloud):
        PointCloud(np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(InvalidCloud):
        PointCloud(np.zeros((2, 3)), colors=np.full((2, 3), 300.0))
    with pytest.raises(InvalidCloud):
        PointCloud(np.zeros((2, 3)), colors=np.zeros((3, 3)))


def test_cloud_is_immutable():
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cloud.positions[0, 0] = 1.0


def test_require_colors():
    cloud = PointCloud(np.zeros((2, 3)))
    with pytest.raises(MissingAttribute):
        cloud.require_colors("test metric")


@pytest.mark.parametrize("depth", [8.7, np.float64(9.9), True, 0, 33])
def test_bit_depth_must_be_an_integer_from_1_to_32(depth):
    with pytest.raises(InvalidCloud, match="bit_depth"):
        PointCloud(np.zeros((2, 3)), bit_depth=depth)


@pytest.mark.parametrize("depth", [10, np.int64(10), np.uint8(10)])
def test_bit_depth_accepts_python_and_numpy_integers(depth):
    cloud = PointCloud(np.zeros((2, 3)), bit_depth=depth)
    assert type(cloud.bit_depth) is int and cloud.bit_depth == 10
    assert ReferenceContext.build(cloud).bit_depth == 10


def test_normals_are_unit_length():
    cloud = PointCloud(np.zeros((2, 3)),
                       normals=np.array([[0., 0., 2.], [3., 0., 0.]]))
    assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)


@pytest.mark.parametrize("binary", [False, True])
def test_ply_round_trip(tmp_path, binary):
    cloud = random_cloud(64, seed=5)
    cloud = PointCloud(cloud.positions, cloud.colors,
                       np.tile(np.array([[0.0, 0.0, 1.0]]), (64, 1)))
    path = tmp_path / "cloud.ply"
    save_ply(cloud, path, binary=binary)
    back = load_ply(path)
    assert np.array_equal(back.positions, cloud.positions)
    assert np.array_equal(back.colors, cloud.colors)
    assert np.array_equal(back.normals, cloud.normals)


def test_ply_round_trip_fractional_coordinates(tmp_path):
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.uniform(-5, 5, (30, 3)))
    for binary in (False, True):
        path = tmp_path / f"frac{binary}.ply"
        save_ply(cloud, path, binary=binary)
        back = load_ply(path)
        # doubles survive both encodings bit-exactly
        assert np.array_equal(back.positions, cloud.positions)


def _header(fmt, *lines):
    return ("ply\nformat %s 1.0\n" % fmt + "".join(
        line + "\n" for line in lines) + "end_header\n").encode("ascii")


_XYZ = ("property float x", "property float y", "property float z")


def test_ply_reads_float_and_uchar_properties(tmp_path):
    lines = ("comment made by hand", "element vertex 2", *_XYZ,
             "property uchar red", "property uchar green",
             "property uchar blue")
    ascii_path = tmp_path / "mixed.ply"
    ascii_path.write_bytes(_header("ascii", *lines)
                           + b"1 2 3 255 0 10\n4 5 6 1 2 3\n")
    binary_path = tmp_path / "mixed_binary.ply"
    binary_path.write_bytes(_header("binary_little_endian", *lines)
                            + struct.pack("<3f3B", 1, 2, 3, 255, 0, 10)
                            + struct.pack("<3f3B", 4, 5, 6, 1, 2, 3))
    for path in (ascii_path, binary_path):
        cloud = load_ply(path)
        assert cloud.positions.dtype == np.float64
        assert cloud.colors.dtype == np.float64
        assert np.array_equal(cloud.positions, [[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(cloud.colors, [[255, 0, 10], [1, 2, 3]])


def test_ply_header_errors(tmp_path):
    bad_magic = tmp_path / "a.ply"
    bad_magic.write_text("ugh\nformat ascii 1.0\nend_header\n")
    with pytest.raises(MalformedHeader):
        load_ply(bad_magic)

    big_endian = tmp_path / "b.ply"
    big_endian.write_text(
        "ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n")
    with pytest.raises(UnsupportedFormat):
        load_ply(big_endian)

    missing_z = tmp_path / "c.ply"
    missing_z.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nend_header\n1 2\n")
    with pytest.raises(MalformedHeader):
        load_ply(missing_z)


def test_ply_count_mismatch(tmp_path):
    path = tmp_path / "short.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n1 2 3\n4 5 6\n")
    with pytest.raises(CountMismatch):
        load_ply(path)


def test_ply_list_property_rejected(tmp_path):
    path = tmp_path / "faces.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property list uchar int vertex_indices\nend_header\n1 2 3 0\n")
    with pytest.raises(UnsupportedFormat):
        load_ply(path)


_VERTEX = ("element vertex 1", *_XYZ)
_MALFORMED = [
    ("no-end-header", b"ply\nformat ascii 1.0\nelement vertex 1\n",
     MalformedHeader, "ended before end_header"),
    ("short-format", b"ply\nformat ascii\nend_header\n",
     MalformedHeader, "malformed format line"),
    ("unknown-format", _header("binary_middle_endian", *_VERTEX),
     UnsupportedFormat, "unknown PLY format"),
    ("short-element", _header("ascii", "element vertex", *_XYZ),
     MalformedHeader, "malformed element line"),
    ("text-count", _header("ascii", "element vertex many", *_XYZ),
     MalformedHeader, "bad element count"),
    ("negative-count", _header("ascii", "element vertex -1", *_XYZ),
     MalformedHeader, "negative element count"),
    ("orphan-property", _header("ascii", *_XYZ, *_VERTEX),
     MalformedHeader, "property before any element"),
    ("short-property", _header("ascii", "element vertex 1",
                               "property float"),
     MalformedHeader, "malformed property line"),
    ("unknown-type", _header("ascii", "element vertex 1",
                             "property half x"),
     UnsupportedFormat, "unknown property type"),
    ("unknown-keyword", _header("ascii", "vertices 1", *_XYZ),
     MalformedHeader, "unexpected header keyword"),
    ("no-format", b"ply\nelement vertex 1\nend_header\n",
     MalformedHeader, "no format line"),
    ("list-before-vertex", _header("ascii", "element face 1",
                                   "property list uchar int idx", *_VERTEX)
     + b"1 0\n1 2 3\n", UnsupportedFormat, "list property before vertex"),
    ("ascii-ends-in-element", _header("ascii", "element camera 2",
                                      "property float view", *_VERTEX)
     + b"0.5\n", CountMismatch, "file ended inside element"),
    ("no-vertex", _header("ascii", "element face 0",
                          "property float area"),
     MalformedHeader, "no vertex element"),
    ("vertex-without-properties", _header("ascii", "element vertex 1"),
     MalformedHeader, "has no properties"),
    ("text-value", _header("ascii", *_VERTEX) + b"1 two 3\n",
     MalformedHeader, "non-numeric vertex value"),
    ("short-binary", _header("binary_little_endian", *_VERTEX)
     + struct.pack("<2f", 1, 2), CountMismatch, "expected 12 vertex bytes"),
    ("no-position", _header("ascii", "element vertex 1", "property float w")
     + b"1\n", MalformedHeader, "lacks x/y/z"),
]


@pytest.mark.parametrize("content, error, fragment",
                         [case[1:] for case in _MALFORMED],
                         ids=[case[0] for case in _MALFORMED])
def test_ply_refuses_a_malformed_file(tmp_path, content, error, fragment):
    path = tmp_path / "bad.ply"
    path.write_bytes(content)
    with pytest.raises(error, match=fragment):
        load_ply(path)


def test_bounding_box():
    cloud = PointCloud(np.array([[0., 0., 0.], [3., 4., 0.]]))
    box = bounding_box(cloud)
    assert box.diagonal == 5.0
    assert np.array_equal(box.centroid, [1.5, 2.0, 0.0])


def test_ply_skips_an_element_before_the_vertex_element(tmp_path):
    # ascii skips the element line by line, binary by its stride
    ascii_path = tmp_path / "ascii.ply"
    ascii_path.write_bytes(
        _header("ascii", "element camera 2", "property float view",
                "property uchar id", "element vertex 2", *_XYZ)
        + b"0.5 1\n0.25 2\n1 2 3\n4 5 6\n")
    binary_path = tmp_path / "binary.ply"
    binary_path.write_bytes(
        _header("binary_little_endian", "element camera 2",
                "property float view", "property uchar id",
                "element vertex 2", *_XYZ)
        + struct.pack("<fBfB", 0.5, 1, 0.25, 2)
        + struct.pack("<6f", 1, 2, 3, 4, 5, 6))
    for path in (ascii_path, binary_path):
        cloud = load_ply(path)
        assert np.array_equal(cloud.positions, [[1, 2, 3], [4, 5, 6]])
        assert cloud.colors is None and cloud.normals is None


@pytest.mark.parametrize("partial", [
    ("property uchar red", "property uchar blue"),
    ("property float nx", "property float ny")])
def test_ply_incomplete_attribute_triplet(tmp_path, partial):
    path = tmp_path / "partial.ply"
    path.write_bytes(_header("ascii", "element vertex 1", *_XYZ, *partial)
                     + b"1 2 3 4 5\n")
    with pytest.raises(MalformedHeader, match="incomplete"):
        load_ply(path)


def test_ply_first_property_of_a_name_wins(tmp_path):
    lines = ("element vertex 2", "property float x", "property float y",
             "property float x", "property float z")
    ascii_path = tmp_path / "ascii.ply"
    ascii_path.write_bytes(_header("ascii", *lines)
                           + b"1 2 9 3\n4 5 9 6\n")
    binary_path = tmp_path / "binary.ply"
    binary_path.write_bytes(_header("binary_little_endian", *lines)
                            + struct.pack("<8f", 1, 2, 9, 3, 4, 5, 9, 6))
    for path in (ascii_path, binary_path):
        assert np.array_equal(load_ply(path).positions,
                              [[1, 2, 3], [4, 5, 6]])


# save_ply output, frozen: a cloud with byte-valued colors and normals,
# and one with non-byte colors and no normals
_FROZEN = [
    (PointCloud(np.array([[0.0, 0.1, -2.5], [1e16, 3.0, 1.0 / 3.0],
                          [-0.0, 7.0, 1023.0]]),
                np.array([[255.0, 0.0, 17.0], [1.0, 2.0, 3.0],
                          [128.0, 64.0, 32.0]]),
                np.array([[0.0, 0.0, 1.0], [-2.0, 0.0, 0.0],
                          [0.0, 0.5, 0.0]])),
     ["double x", "double y", "double z", "uchar red", "uchar green",
      "uchar blue", "double nx", "double ny", "double nz"], "<3d3B3d",
     ["0.0 0.1 -2.5 255 0 17 0.0 0.0 1.0",
      "1e+16 3.0 0.3333333333333333 1 2 3 -1.0 0.0 0.0",
      "-0.0 7.0 1023.0 128 64 32 0.0 1.0 0.0"]),
    (PointCloud(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                          [7.0, 8.0, 9.0]]),
                np.array([[0.5, 10.0, 255.0], [1.0, 2.0, 3.0],
                          [0.0, 254.25, 99.0]])),
     ["double x", "double y", "double z", "double red", "double green",
      "double blue"], "<6d",
     ["1.0 2.0 3.0 0.5 10.0 255.0",
      "4.0 5.0 6.0 1.0 2.0 3.0",
      "7.0 8.0 9.0 0.0 254.25 99.0"]),
]


@pytest.mark.parametrize("cloud, properties, row_format, rows", _FROZEN)
def test_save_ply_bytes_are_frozen(tmp_path, cloud, properties, row_format,
                                   rows):
    lines = ["element vertex 3"] + ["property " + p for p in properties]
    path = tmp_path / "cloud.ply"
    save_ply(cloud, path)
    assert path.read_bytes() == _header("ascii", *lines) + "".join(
        row + "\n" for row in rows).encode("ascii")
    save_ply(cloud, path, binary=True)
    assert path.read_bytes() == _header("binary_little_endian", *lines) \
        + b"".join(struct.pack(row_format, *map(literal_eval, row.split()))
                   for row in rows)
