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


def test_normals_are_unit_length():
    cloud = PointCloud(np.zeros((2, 3)),
                       normals=np.array([[0., 0., 2.], [3., 0., 0.]]))
    assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)


@pytest.mark.parametrize("binary", [False, True])
def test_ply_round_trip(tmp_path, binary):
    cloud = random_cloud(64, seed=5)
    cloud = cloud.with_normals(
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


def test_ply_reads_float_and_uchar_properties(tmp_path):
    text = """ply
format ascii 1.0
comment made by hand
element vertex 2
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
1 2 3 255 0 10
4 5 6 1 2 3
"""
    path = tmp_path / "mixed.ply"
    path.write_text(text)
    cloud = load_ply(path)
    assert cloud.positions.dtype == np.float64
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


def test_bounding_box():
    cloud = PointCloud(np.array([[0., 0., 0.], [3., 4., 0.]]))
    box = bounding_box(cloud)
    assert box.diagonal == 5.0
    assert np.array_equal(box.centroid, [1.5, 2.0, 0.0])
