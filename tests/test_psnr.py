import math

import numpy as np
import pytest

from pcqkit.cloud import PointCloud
from pcqkit.config import Config
from pcqkit.errors import MissingNormalsUnrecoverable
from pcqkit.metrics import psnr
from pcqkit.plan import PairPlan

from conftest import jitter, surface_cloud


def compute_d1(ref, dist, config=None):
    return psnr.compute_d1(PairPlan.build(ref, dist, config))


def compute_d2(ref, dist, config=None):
    return psnr.compute_d2(PairPlan.build(ref, dist, config))


def compute_yuv(ref, dist, config=None):
    return psnr.compute_yuv(PairPlan.build(ref, dist, config))


def test_d1_single_point_hand_value():
    ref = PointCloud(np.array([[0.0, 0.0, 0.0]]), bit_depth=10)
    dist = PointCloud(np.array([[3.0, 4.0, 2.0]]), bit_depth=10)
    res = compute_d1(ref, dist)
    assert res.mse_symmetric == pytest.approx(29.0, abs=1e-9)
    assert res.peak == 1023.0
    # 10 log10(3 * 1023^2 / 29)
    assert abs(res.psnr_db - 50.344745) < 1e-2


def test_d2_single_point_hand_value():
    normal = np.array([[0.0, 0.0, 1.0]])
    ref = PointCloud(np.array([[0.0, 0.0, 0.0]]), normals=normal,
                     bit_depth=10)
    dist = PointCloud(np.array([[3.0, 4.0, 2.0]]), normals=normal,
                      bit_depth=10)
    res = compute_d2(ref, dist)
    assert res.mse_symmetric == 4.0
    assert abs(res.psnr_db - 58.948125) < 1e-2


def test_yuv_hand_value():
    pos = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    gray = lambda v: np.array([[v, v, v]])
    ref = PointCloud(pos, colors=np.vstack([gray(100), gray(100)]))
    dist = PointCloud(pos, colors=np.vstack([gray(110), gray(90)]))
    res = compute_yuv(ref, dist)
    assert abs(res.y.mse_symmetric - 100.0) < 1e-9
    assert abs(res.y.psnr_db - 28.130804) < 1e-2
    # grays are chroma-neutral by construction, so U and V are lossless
    assert math.isinf(res.u.psnr_db) and math.isinf(res.v.psnr_db)
    expected = (6 * res.y.psnr_db + 100.0 + 100.0) / 8.0
    assert res.psnr_combined == expected


def test_identity_is_infinite_then_capped():
    cloud = surface_cloud(300, seed=0)
    d1 = compute_d1(cloud, cloud)
    assert math.isinf(d1.psnr_db)
    yuv = compute_yuv(cloud, cloud)
    assert yuv.psnr_combined == 100.0


def test_symmetric_takes_worst_direction():
    # dense ref vs its decimation: dropping points hurts the ref->dist
    # pass more than dist->ref, and the symmetric MSE must track the max
    ref = surface_cloud(1000, seed=2)
    dist = PointCloud(ref.positions[::4], colors=ref.colors[::4],
                      bit_depth=8)
    res = compute_d1(ref, dist)
    assert res.mse_forward != res.mse_backward
    assert res.mse_symmetric == max(res.mse_forward, res.mse_backward)


def test_peak_follows_bit_depth():
    ref = PointCloud(np.array([[0.0, 0.0, 0.0]]), bit_depth=8)
    dist = PointCloud(np.array([[1.0, 0.0, 0.0]]), bit_depth=8)
    res8 = compute_d1(ref, dist)
    res12 = compute_d1(ref, dist, Config(cloud_bit_depth=12))
    assert res8.peak == 255.0 and res12.peak == 4095.0
    assert res12.psnr_db > res8.psnr_db


def test_d2_estimates_missing_normals():
    ref = surface_cloud(500, seed=3)
    dist = jitter(ref, 0.5, seed=4)
    assert not ref.has_normals
    res = compute_d2(ref, dist, Config(psnr_normal_radius=25.0))
    assert np.isfinite(res.psnr_db)
    # projecting onto normals discards tangential error: D2 >= D1
    assert res.psnr_db >= compute_d1(ref, dist).psnr_db


def test_d2_two_points_without_normals_is_unrecoverable():
    ref = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    dist = PointCloud(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]))
    with pytest.raises(MissingNormalsUnrecoverable):
        compute_d2(ref, dist)


def test_d2_of_two_points_that_did_not_move_needs_no_normals():
    # a moved 2-point pair raises (above); an unmoved one reads no normal
    ref = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                     colors=np.array([[0.0, 0.0, 0.0], [255.0, 9.0, 3.0]]))
    for dist in (PointCloud(ref.positions.copy(), colors=ref.colors[::-1]),
                 PointCloud(ref.positions[::-1], colors=ref.colors)):
        res = compute_d2(ref, dist)
        assert res.mse_symmetric == 0.0 and res.psnr_db == math.inf


def test_yuv_symmetric_mode_psnr_keeps_better_channel_mse():
    ref = surface_cloud(400, seed=5)
    dist = jitter(ref, 1.0, seed=6, color_sigma=8.0)
    worst = compute_yuv(ref, dist, Config(psnr_yuv_symmetric="mse"))
    best = compute_yuv(ref, dist, Config(psnr_yuv_symmetric="psnr"))
    assert best.y.psnr_db >= worst.y.psnr_db


def test_d1_and_d2_need_no_colors():
    ref = surface_cloud(300, seed=7)
    ref = PointCloud(ref.positions, bit_depth=8)
    dist = jitter(ref, 0.5, seed=8)
    assert np.isfinite(compute_d1(ref, dist).psnr_db)
    assert np.isfinite(compute_d2(ref, dist).psnr_db)
