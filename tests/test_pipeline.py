import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from pcqkit import spatial
from pcqkit.cloud import PointCloud
from pcqkit.config import Config
from pcqkit.errors import (BadMosValue, ConfigMismatch, JoinMismatch,
                           MissingColumn, PcqkitError, SchemaMismatch)
from pcqkit.io_ply import load_ply, save_ply
from pcqkit.metrics.psnr import compute_d1
from pcqkit.pipeline import (FEATURE_COLUMNS, FeatureTable, ManifestRow,
                             PairPlan, ReferenceContext, _pair_cache_key,
                             _runs, compute_pair_metrics, extract_features,
                             feature_vector, join_scores, load_manifest,
                             read_features_csv, read_scores_csv,
                             write_features_csv, write_scores_csv)

from conftest import jitter, surface_cloud


def _write_corpus(root, n_groups=2, points=400):
    lines = ["group_id,ref_path,dist_path,mos,mos_std,codec,rate"]
    for g in range(n_groups):
        ref = surface_cloud(points, seed=g)
        save_ply(ref, os.path.join(root, f"ref{g}.ply"))
        for lvl, (sigma, mos) in enumerate(((0.5, 4.1), (2.0, 2.2))):
            dist = jitter(ref, sigma, seed=50 + g * 10 + lvl,
                          color_sigma=sigma * 5)
            save_ply(dist, os.path.join(root, f"dist{g}_{lvl}.ply"))
            lines.append(f"g{g},ref{g}.ply,dist{g}_{lvl}.ply,"
                         f"{mos - 0.1 * g},0.25,noise,r{lvl}")
    path = os.path.join(root, "manifest.csv")
    with open(path, "w") as stream:
        stream.write("\n".join(lines) + "\n")
    return path


def test_manifest_parsing(tmp_path):
    path = _write_corpus(tmp_path)
    rows = load_manifest(path)
    assert len(rows) == 4
    assert rows[0].group_id == "g0"
    assert rows[0].mos == 4.1 and rows[0].mos_std == 0.25
    assert rows[0].ref_file == str(tmp_path / "ref0.ply")


def test_manifest_missing_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("group_id,ref_path,mos\na,b.ply,3\n")
    with pytest.raises(MissingColumn):
        load_manifest(path)
    path.write_text("group_id,ref_path,dist_path,mos\n")
    with pytest.raises(MissingColumn, match="has no data rows"):
        load_manifest(path)


def test_manifest_bad_mos_reports_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("group_id,ref_path,dist_path,mos\n"
                    "a,r.ply,d.ply,4.0\n"
                    "a,r.ply,d.ply,high\n")
    with pytest.raises(BadMosValue, match="row 3"):
        load_manifest(path)
    path.write_text("group_id,ref_path,dist_path,mos,mos_std\n"
                    "a,r.ply,d.ply,4.0,nan\n")
    with pytest.raises(BadMosValue, match="row 2"):
        load_manifest(path)


def test_manifest_optional_columns_default(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("group_id,ref_path,dist_path,mos\na,r.ply,d.ply,4.0\n")
    rows = load_manifest(path)
    assert rows[0].mos_std is None and rows[0].codec == ""


def test_identity_feature_row(tmp_path):
    cloud = surface_cloud(500, seed=3)
    metrics = compute_pair_metrics(cloud, cloud)
    row = feature_vector(metrics)
    named = dict(zip(FEATURE_COLUMNS, row))
    for name in ("psnr_d2", "psnr_y", "psnr_u", "psnr_v"):
        assert named[name] == 100.0, name
    assert named["pointssim_lum"] == 0.0 and named["pointssim_geo"] == 0.0
    for i in (1, 2, 3):
        assert named[f"pcqm_f{i}"] == 0.0
    for i in (4, 5, 6, 7, 8):
        assert named[f"pcqm_f{i}"] == 1.0
    for name in FEATURE_COLUMNS:
        if name.startswith("msgsim"):
            assert named[name] == 1.0, name
    assert math.isinf(metrics["psnr_d1"])


def test_extract_serial_parallel_and_cache_agree(tmp_path):
    rows = load_manifest(_write_corpus(tmp_path))
    serial = Config(pipeline_jobs=1,
                    pipeline_cache_dir=str(tmp_path / "cache"))
    table, stats = extract_features(rows, serial)
    assert stats == {"n_rows": 4, "n_cached": 0, "n_computed": 4}
    assert table.values.shape == (4, 23)
    assert np.isfinite(table.values).all()

    cached, stats2 = extract_features(rows, serial)
    assert stats2["n_cached"] == 4
    assert np.array_equal(cached.values, table.values)

    parallel, _ = extract_features(rows, Config(pipeline_jobs=3))
    assert np.array_equal(parallel.values, table.values)


def test_cache_invalidates_on_config_change(tmp_path):
    rows = load_manifest(_write_corpus(tmp_path, n_groups=1))
    cache = str(tmp_path / "cache")
    _, stats = extract_features(
        rows, Config(pipeline_jobs=1, pipeline_cache_dir=cache))
    assert stats["n_computed"] == 2
    other = Config(pointssim_k=10, pipeline_jobs=1, pipeline_cache_dir=cache)
    _, stats2 = extract_features(rows, other)
    assert stats2["n_computed"] == 2  # different settings, no reuse


def test_cache_invalidates_on_file_change(tmp_path):
    rows = load_manifest(_write_corpus(tmp_path, n_groups=1))
    serial = Config(pipeline_jobs=1,
                    pipeline_cache_dir=str(tmp_path / "cache"))
    extract_features(rows, serial)
    save_ply(surface_cloud(400, seed=77), rows[0].dist_file)
    _, stats = extract_features(rows, serial)
    assert stats["n_computed"] == 1 and stats["n_cached"] == 1


def test_a_cache_entry_that_is_no_feature_record_is_recomputed(tmp_path):
    rows = load_manifest(_write_corpus(tmp_path, n_groups=1))
    cache = tmp_path / "cache"
    serial = Config(pipeline_jobs=1, pipeline_cache_dir=str(cache))
    table, _ = extract_features(rows, serial)
    entry = sorted(cache.iterdir())[0]
    record = json.loads(entry.read_text())
    foreign = [b"[1.0, 2.0]", b'"features"', b"\xff\xfe not text"]
    for bad in ("x", True, 10 ** 400):
        foreign.append(json.dumps({**record, "features": [bad] * 23}).encode())
    for content in foreign:
        entry.write_bytes(content)
        again, stats = extract_features(rows, serial)
        assert stats["n_computed"] == 1 and stats["n_cached"] == 1, content
        assert np.array_equal(again.values, table.values)
        assert json.loads(entry.read_text()) == record


def test_features_csv_round_trip_is_bit_exact(tmp_path):
    rows = load_manifest(_write_corpus(tmp_path, n_groups=1))
    table, _ = extract_features(rows, Config(pipeline_jobs=1))
    path = tmp_path / "features.csv"
    write_features_csv(table, path)
    back = read_features_csv(path)
    assert back.feature_names == FEATURE_COLUMNS
    assert np.array_equal(back.values, table.values)
    assert back.config_hash == table.config_hash
    assert back.mos_std() is not None
    # writing the re-read table reproduces the file byte for byte
    again = tmp_path / "again.csv"
    write_features_csv(back, again)
    assert path.read_bytes() == again.read_bytes()


def test_features_csv_schema_guard(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("group_id,ref_path\n")
    with pytest.raises(SchemaMismatch):
        read_features_csv(path)
    path.write_text("# schema_version=99 config_hash=x\ngroup_id\n")
    with pytest.raises(SchemaMismatch):
        read_features_csv(path)
    path.write_text("# schema_version=1 config_hash=x\ngroup_id\n")
    with pytest.raises(SchemaMismatch, match="unexpected column set"):
        read_features_csv(path)


def test_a_table_skips_blank_records_and_refuses_a_short_one(tmp_path):
    rows = [ManifestRow("g", "r.ply", f"d{i}.ply", 3.0) for i in range(2)]
    path = tmp_path / "s.csv"
    write_scores_csv(rows, [1.5, 2.5], path, "m", "x")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
    keys, scores, _ = read_scores_csv(path)
    assert keys[1] == ("g", "r.ply", "d1.ply") and list(scores) == [1.5, 2.5]
    path.write_text("\n".join(lines + ["g,r.ply,d2.ply"]) + "\n")
    with pytest.raises(SchemaMismatch, match="row 5: expected 4 fields"):
        read_scores_csv(path)
    path.write_text(f"{lines[0]}\n{lines[1]},extra\n")
    with pytest.raises(SchemaMismatch, match="unexpected column set"):
        read_scores_csv(path)


def test_manifest_short_row_is_a_data_error(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("group_id,ref_path,dist_path,mos\n"
                    "a,r.ply,d.ply,4.0\na,r.ply\n")
    with pytest.raises(MissingColumn, match="row 3: empty cloud path"):
        load_manifest(path)


def test_feature_cells_take_nan_and_inf_and_refuse_text(tmp_path):
    rows = [ManifestRow("g", "r.ply", f"d{i}.ply", 3.0, line=i + 3)
            for i in range(2)]
    values = np.array([[math.nan, math.inf], [-math.inf, 0.5]])
    path = tmp_path / "f.csv"
    write_features_csv(FeatureTable(rows, ("a", "b"), values, "x"), path)
    back = read_features_csv(path)
    assert np.array_equal(back.values, values, equal_nan=True)
    assert [r.line for r in back.rows] == [3, 4]
    path.write_text(path.read_text().replace("0.5", "abc"))
    with pytest.raises(SchemaMismatch, match="row 4: .*'abc'"):
        read_features_csv(path)


def test_scores_round_trip_and_join(tmp_path):
    rows = load_manifest(_write_corpus(tmp_path))
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    path = tmp_path / "scores.csv"
    write_scores_csv(rows, scores, path, "model5", "abc")
    keys, back, meta = read_scores_csv(path)
    assert np.array_equal(back, scores)
    assert meta["model"] == "model5" and meta["config_hash"] == "abc"
    order = join_scores(keys, rows)
    assert np.array_equal(order, np.arange(4))
    # reversed scores still join correctly
    order = join_scores(list(reversed(keys)), rows)
    assert np.array_equal(order, [3, 2, 1, 0])
    with pytest.raises(JoinMismatch):
        join_scores([("g", "nope.ply", "d.ply")], rows)
    with pytest.raises(JoinMismatch):
        join_scores([keys[0], keys[0]], rows)


def test_low_scale_count_is_rejected():
    cloud = surface_cloud(100, seed=1)
    with pytest.raises(ConfigMismatch):
        compute_pair_metrics(cloud, cloud, Config(graphsim_n_scales=2))


def _interleaved_corpus(root, points=400):
    """2 references x 3 distortions, rows of one reference not adjacent."""
    lines = ["group_id,ref_path,dist_path,mos"]
    for g in range(2):
        save_ply(surface_cloud(points, seed=30 + g),
                 os.path.join(root, f"ref{g}.ply"))
    for lvl in range(3):
        for g in range(2):
            ref = surface_cloud(points, seed=30 + g)
            dist = jitter(ref, 0.5 + lvl, seed=60 + 10 * g + lvl,
                          color_sigma=3.0 * lvl)
            save_ply(dist, os.path.join(root, f"d{g}_{lvl}.ply"))
            lines.append(f"g{g},ref{g}.ply,d{g}_{lvl}.ply,{4.0 - lvl}")
    path = os.path.join(root, "manifest.csv")
    with open(path, "w") as stream:
        stream.write("\n".join(lines) + "\n")
    return path


def test_grouped_extract_matches_per_pair_features(tmp_path):
    rows = load_manifest(_interleaved_corpus(tmp_path))
    expected = np.array([
        feature_vector(compute_pair_metrics(load_ply(r.ref_file),
                                            load_ply(r.dist_file)))
        for r in rows])
    for jobs in (1, 2):
        table, stats = extract_features(rows, Config(pipeline_jobs=jobs))
        assert stats["n_computed"] == 6
        assert np.array_equal(table.values, expected), jobs


def test_reference_context_reuse_matches_fresh_context():
    ref = surface_cloud(450, seed=5)
    config = Config()
    reference = ReferenceContext.build(ref, config)
    for lvl, sigma in enumerate((0.5, 2.0, 4.0)):
        dist = jitter(ref, sigma, seed=70 + lvl, color_sigma=2.0 * sigma)
        shared = compute_pair_metrics(reference, dist)
        fresh = compute_pair_metrics(ref, dist, config)
        assert shared.keys() == fresh.keys()
        for name in fresh:
            assert repr(shared[name]) == repr(fresh[name]), name


def test_reference_context_carries_its_own_config():
    ref = surface_cloud(300, seed=6)
    config = Config(pointssim_k=8, graphsim_n_scales=4, cloud_bit_depth=12)
    reference = ReferenceContext.build(ref, config)
    dist = jitter(ref, 1.0, seed=7, color_sigma=3.0)
    for other in (Config(), config):
        with pytest.raises(TypeError):
            compute_pair_metrics(reference, dist, other)
        with pytest.raises(TypeError):
            PairPlan.build(reference, dist, other)
    shared = compute_pair_metrics(reference, dist)
    fresh = compute_pair_metrics(ref, dist, config)
    assert shared.keys() == fresh.keys()
    assert "msgsim_mg_s3" in fresh
    for name in fresh:
        assert repr(shared[name]) == repr(fresh[name]), name


def test_each_query_runs_once_per_pair(monkeypatch):
    calls = {}

    def counted(name):
        original = getattr(spatial.SpatialIndex, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(spatial.SpatialIndex, name, wrapper)

    for name in ("__init__", "knn_batch", "radius_batch"):
        counted(name)

    def count(fn):
        calls.clear()
        fn()
        return (calls.get("__init__", 0), calls.get("knn_batch", 0),
                calls.get("radius_batch", 0))

    ref = surface_cloud(400, seed=9)
    dist = jitter(ref, 1.0, seed=10, color_sigma=4.0)   # without normals
    reference = ReferenceContext.build(ref)
    # the reference side: its kd-tree, one self k-NN and three radius
    # queries (normals, PCQM h, GraphSIM keypoints), each made once
    fields = ("index", "knn", "normals", "ycc", "geometry_dispersion",
              "luminance_dispersion", "pcqm_neighbors", "corr", "graphsim")
    assert count(lambda: [getattr(reference, f) for f in fields]) == (1, 1, 3)
    assert count(lambda: [getattr(reference, f) for f in fields]) == (0, 0, 0)
    # the dist side: its kd-tree, two nearest queries, one self k-NN and
    # three radius queries (normals, PCQM h, GraphSIM keypoints)
    assert count(lambda: compute_pair_metrics(reference, dist)) == (1, 3, 3)
    assert count(lambda: compute_pair_metrics(ref, dist)) == (2, 4, 6)
    assert count(lambda: compute_d1(PairPlan.build(ref, dist))) == (2, 2, 0)
    # a colour-only dist shares the reference's kd-tree, self k-NN,
    # nearest matches, normals, PCQM surface and GraphSIM keypoint
    # neighbourhoods: it makes no query of its own
    recoloured = jitter(ref, 0.0, seed=11, color_sigma=4.0)
    assert count(lambda: compute_pair_metrics(reference, recoloured)) \
        == (0, 0, 0)


def test_runs_group_by_reference_and_fill_every_worker():
    rows = [ManifestRow("g", "r", f"d{i}", 1.0, ref_file=f"r{i % 2}")
            for i in range(6)]
    assert _runs(rows, list(range(6)), 1) == [[0, 2, 4], [1, 3, 5]]
    assert _runs(rows, [0, 1, 2, 4], 2) == [[0, 2], [4], [1]]
    one_ref = [replace(r, ref_file="r") for r in rows]
    assert _runs(one_ref, list(range(6)), 4) == [[0, 1], [2, 3], [4, 5]]


def test_cache_key_is_stable():
    # keys must not change, or every existing cache misses
    config = Config()
    ref_digest, dist_digest = b"\x01" * 32, b"\x02" * 32
    expected = hashlib.sha256(
        b"pcqkit-features-1\n" + config.hash.encode()
        + ref_digest + dist_digest).hexdigest()
    assert _pair_cache_key(ref_digest, dist_digest, config) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_bad_rows_are_reported_and_good_rows_kept(tmp_path, jobs):
    path = _interleaved_corpus(tmp_path)
    bad_dist = tmp_path / "d1_1.ply"
    bad_dist.write_bytes(bad_dist.read_bytes()[:300])      # truncated
    rows = load_manifest(path)
    cache = str(tmp_path / "cache")
    with pytest.raises(PcqkitError) as info:
        extract_features(
            rows, Config(pipeline_jobs=jobs, pipeline_cache_dir=cache))
    message = str(info.value)
    assert message.startswith("1 of 6 rows failed")
    assert "manifest line 5 (d1_1.ply)" in message
    assert len(os.listdir(cache)) == 5

    # a reference that fails fails every row of its group
    (tmp_path / "ref0.ply").write_text("not a ply\n")
    with pytest.raises(PcqkitError) as info:
        extract_features(rows, Config(pipeline_jobs=jobs))
    message = str(info.value)
    assert message.startswith("4 of 6 rows failed")
    for line in (2, 4, 5, 6):
        assert f"manifest line {line} " in message


def test_a_missing_file_and_a_coincident_reference_fail_their_rows_alone(
        tmp_path):
    path = _interleaved_corpus(tmp_path)
    os.remove(tmp_path / "d1_1.ply")        # manifest line 5
    # a reference whose points all coincide has no PCQM radius or graph
    # radius; its row is manifest line 8
    ref = PointCloud(np.full((400, 3), 100.0),
                     colors=surface_cloud(400, seed=2).colors, bit_depth=8)
    save_ply(ref, tmp_path / "ref2.ply")
    save_ply(jitter(ref, 1.0, seed=3), tmp_path / "d2_0.ply")
    with open(path, "a") as stream:
        stream.write("g2,ref2.ply,d2_0.ply,3.0\n")
    rows = load_manifest(path)
    cache = tmp_path / "cache"
    with pytest.raises(PcqkitError) as info:
        extract_features(rows, Config(pipeline_jobs=1,
                                      pipeline_cache_dir=str(cache)))
    message = str(info.value)
    assert message.startswith("2 of 7 rows failed")
    assert "manifest line 5 (d1_1.ply): IoFailure: cannot read" in message
    assert "manifest line 8 (d2_0.ply): InvalidCloud: " in message
    assert len(os.listdir(cache)) == 5
    good = [row for row in rows if row.line not in (5, 8)]
    table, stats = extract_features(
        good, Config(pipeline_jobs=1, pipeline_cache_dir=str(cache)))
    assert stats["n_cached"] == 5 and not np.isnan(table.values).any()
