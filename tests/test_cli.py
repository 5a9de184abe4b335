import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pcqkit.cloud import PointCloud
from pcqkit.io_ply import save_ply
from pcqkit.pipeline import (FEATURE_COLUMNS, FeatureTable, ManifestRow,
                             write_features_csv)

from conftest import jitter, surface_cloud

_LEVELS = ((0.3, 4.6), (0.8, 3.9), (1.6, 3.0), (3.2, 1.9))


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "pcqkit", *args],
                          capture_output=True, text=True, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    lines = ["group_id,ref_path,dist_path,mos,mos_std,codec,rate"]
    for g in range(3):
        ref = surface_cloud(400, seed=g)
        save_ply(ref, os.path.join(root, f"ref{g}.ply"))
        for lvl, (sigma, mos) in enumerate(_LEVELS):
            dist = jitter(ref, sigma, seed=100 + g * 10 + lvl,
                          color_sigma=4 * sigma)
            save_ply(dist, os.path.join(root, f"d{g}_{lvl}.ply"))
            lines.append(f"g{g},ref{g}.ply,d{g}_{lvl}.ply,"
                         f"{mos - 0.05 * g},0.3,noise,r{lvl}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return root


def test_info_reports_cloud_summary(corpus):
    code, out, _ = run_cli("info", "--ref", str(corpus / "ref0.ply"))
    assert code == 0
    payload = json.loads(out)
    assert payload["n_points"] == 400
    assert payload["has_colors"] is True


def test_metric_identity_serializes_infinity(corpus):
    ref = str(corpus / "ref0.ply")
    code, out, _ = run_cli("metric", "--ref", ref, "--dist", ref)
    assert code == 0
    payload = json.loads(out)
    # raw metric values are uncapped; the cap applies to feature vectors
    assert payload["psnr_d1"] == "inf"
    assert payload["psnr_d2"] == "inf"
    assert payload["pointssim_geo"] == 0.0
    assert payload["msgsim_mg_s0"] == 1.0


def test_metric_single_choice(corpus):
    ref = str(corpus / "ref0.ply")
    dist = str(corpus / "d0_0.ply")
    code, out, _ = run_cli("metric", "--ref", ref, "--dist", dist,
                           "--metric", "yuv")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"psnr_y", "psnr_u", "psnr_v", "psnr_yuv"}


def test_geometry_psnr_of_colorless_clouds(tmp_path):
    # d1 and d2 read only geometry queries, so colors are not required
    ref = surface_cloud(300, seed=5)
    ref = PointCloud(ref.positions, bit_depth=8)
    save_ply(ref, str(tmp_path / "ref.ply"))
    save_ply(jitter(ref, 0.5, seed=6), str(tmp_path / "dist.ply"))
    for metric, key in (("d1", "psnr_d1"), ("d2", "psnr_d2")):
        code, out, err = run_cli("metric", "--ref", str(tmp_path / "ref.ply"),
                                 "--dist", str(tmp_path / "dist.ply"),
                                 "--metric", metric)
        assert code == 0, err
        payload = json.loads(out)
        assert set(payload) == {key}
        assert payload[key] > 0.0


@pytest.mark.parametrize("entry", [
    "[psnr]\nyuv_symmetric = max\n",
    "[psnr]\nycbcr_matrix = bt2020\n",
    "[pointssim]\nestimator = mystery\n"],
    ids=["yuv_symmetric", "ycbcr_matrix", "estimator"])
def test_metric_refuses_unknown_choice(corpus, tmp_path, entry):
    config = tmp_path / "bad.ini"
    config.write_text(entry)
    ref = str(corpus / "ref0.ply")
    code, out, err = run_cli("metric", "--ref", ref, "--dist", ref,
                             "--config", str(config))
    assert code == 2
    assert out == ""
    assert "expected one of" in err and "Traceback" not in err


def test_full_pipeline_round_trip(corpus, tmp_path):
    features = tmp_path / "features.csv"
    model = tmp_path / "model.json"
    scores = tmp_path / "scores.csv"
    report = tmp_path / "report.json"

    code, _, err = run_cli("extract", "--manifest",
                           str(corpus / "manifest.csv"),
                           "--out", str(features), "--jobs", "2")
    assert code == 0, err
    header = features.read_text().splitlines()[0]
    assert header.startswith("# schema_version=1 config_hash=")

    code, _, err = run_cli("train", "--features", str(features),
                           "--model", "fsm", "--out", str(model))
    assert code == 0, err
    state = json.loads(model.read_text())
    assert state["name"] == "model5"

    code, _, err = run_cli("predict", "--model", str(model),
                           "--features", str(features),
                           "--out", str(scores))
    assert code == 0, err

    code, out, err = run_cli("evaluate", "--scores", str(scores),
                             "--manifest", str(corpus / "manifest.csv"),
                             "--out", str(report))
    assert code == 0, err
    assert "model5" in out  # human-readable table on stdout
    payload = json.loads(report.read_text())
    fsm = payload["metrics"][0]
    assert fsm["name"] == "model5"
    assert fsm["pcc"] > 0.9 and fsm["srocc"] > 0.9


def test_rfe_and_crossval(corpus, tmp_path):
    features = tmp_path / "features.csv"
    run_cli("extract", "--manifest", str(corpus / "manifest.csv"),
            "--out", str(features))
    code, out, _ = run_cli("rfe", "--features", str(features),
                           "--estimator", "ridge")
    assert code == 0
    ranking = json.loads(out)
    assert len(ranking["order"]) == 23

    code, out, _ = run_cli("crossval", "--features", str(features),
                           "--model", "fsm", "--folds", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["folds"] == 3
    assert -1.0 <= payload["metrics"][0]["pcc"] <= 1.0


def test_predict_refuses_mismatched_config_hash(corpus, tmp_path):
    features = tmp_path / "features.csv"
    run_cli("extract", "--manifest", str(corpus / "manifest.csv"),
            "--out", str(features))
    model = tmp_path / "model.json"
    run_cli("train", "--features", str(features), "--model", "fsm",
            "--out", str(model))

    config = tmp_path / "alt.ini"
    config.write_text("[pointssim]\nk = 8\n")
    other = tmp_path / "other.csv"
    run_cli("extract", "--manifest", str(corpus / "manifest.csv"),
            "--config", str(config), "--out", str(other))

    scores = tmp_path / "scores.csv"
    code, _, err = run_cli("predict", "--model", str(model),
                           "--features", str(other), "--out", str(scores))
    assert code == 2
    assert "config" in err.lower()
    code, _, err = run_cli("predict", "--model", str(model),
                           "--features", str(other), "--out", str(scores),
                           "--force")
    assert code == 0, err


def test_usage_errors_exit_1(corpus, tmp_path):
    code, _, err = run_cli("train", "--features", "x.csv",
                           "--model", "model99", "--out",
                           str(tmp_path / "m.json"))
    assert code == 1
    code, _, _ = run_cli("extract", "--manifest",
                         str(corpus / "manifest.csv"))  # --out required
    assert code == 1
    code, _, _ = run_cli("nonsense")
    assert code == 1


def test_data_errors_exit_2(corpus, tmp_path):
    code, _, err = run_cli("info", "--ref", "missing.ply")
    assert code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("group_id,ref_path,dist_path,mos\na,r.ply,d.ply,low\n")
    code, _, err = run_cli("extract", "--manifest", str(bad),
                           "--out", str(tmp_path / "f.csv"))
    assert code == 2
    assert "row" in err.lower()


def _random_features(path):
    """An 18-row feature table of 6 groups with uniform random values."""
    rng = np.random.default_rng(4)
    rows = [ManifestRow(f"g{i % 6}", f"r{i % 6}.ply", f"d{i}.ply",
                        float(rng.uniform(1, 5))) for i in range(18)]
    write_features_csv(FeatureTable(rows, FEATURE_COLUMNS,
                                    rng.uniform(size=(18, 23)), "abc"),
                       path)
    return path


def test_config_seed_is_the_default_seed(tmp_path):
    features = _random_features(tmp_path / "features.csv")
    ini = tmp_path / "seed.ini"
    ini.write_text("[pipeline]\nseed = 5\n")

    def crossval(*extra):
        code, out, err = run_cli("crossval", "--features", str(features),
                                 "--model", "model1", "--folds", "3", *extra)
        assert code == 0, err
        return json.loads(out)

    from_ini = crossval("--config", str(ini))
    assert from_ini["seed"] == 5
    assert from_ini == crossval("--seed", "5")
    assert crossval("--config", str(ini), "--seed", "2")["seed"] == 2
    assert crossval()["seed"] == 0

    code, out, err = run_cli("rfe", "--features", str(features),
                             "--config", str(ini))
    assert code == 0, err
    assert json.loads(out)["seed"] == 5
    model = tmp_path / "model.json"
    code, _, err = run_cli("train", "--features", str(features), "--model",
                           "model1", "--config", str(ini), "--out", str(model))
    assert code == 0, err
    assert json.loads(model.read_text())["metadata"]["seed"] == 5


def test_extract_reports_bad_rows_and_writes_no_table(corpus, tmp_path):
    lines = ["group_id,ref_path,dist_path,mos"]
    for g in range(2):
        for name in (f"ref{g}.ply", f"d{g}_0.ply", f"d{g}_1.ply"):
            (tmp_path / name).write_bytes((corpus / name).read_bytes())
        lines += [f"g{g},ref{g}.ply,d{g}_0.ply,4.0",
                  f"g{g},ref{g}.ply,d{g}_1.ply,3.0"]
    (tmp_path / "cut.ply").write_bytes((corpus / "d0_2.ply").read_bytes()[:200])
    lines.insert(2, "g0,ref0.ply,cut.ply,2.0")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "features.csv"
    cache = tmp_path / "cache"
    code, _, err = run_cli("extract", "--manifest", str(manifest),
                           "--out", str(out), "--cache", str(cache),
                           "--jobs", "2")
    assert code == 2
    assert "1 of 5 rows failed" in err
    assert "manifest line 3 (cut.ply)" in err
    assert not out.exists()
    assert len(os.listdir(cache)) == 4


def test_all_duplicated_reference_is_a_data_error(corpus, tmp_path):
    # every point stored twice: the mean nearest-neighbour distance, and
    # with it the MS-GraphSIM graph radius, is 0
    ref = surface_cloud(300, seed=21)
    dup = PointCloud(np.repeat(ref.positions, 2, axis=0),
                     colors=np.repeat(ref.colors, 2, axis=0),
                     bit_depth=ref.bit_depth)
    save_ply(dup, tmp_path / "dup.ply")
    save_ply(jitter(dup, 1.0, seed=22, color_sigma=3.0),
             tmp_path / "dup_d.ply")
    code, out, err = run_cli("metric", "--ref", str(tmp_path / "dup.ply"),
                             "--dist", str(tmp_path / "dup_d.ply"))
    assert code == 2, err
    assert "graph radius" in err and "Traceback" not in err
    for name in ("ref0.ply", "d0_0.ply"):
        (tmp_path / name).write_bytes((corpus / name).read_bytes())
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("group_id,ref_path,dist_path,mos\n"
                        "g0,ref0.ply,d0_0.ply,4.0\n"
                        "g1,dup.ply,dup_d.ply,3.0\n")
    cache = tmp_path / "cache"
    code, _, err = run_cli("extract", "--manifest", str(manifest),
                           "--jobs", "1", "--cache", str(cache),
                           "--out", str(tmp_path / "features.csv"))
    assert code == 2, err
    assert "1 of 2 rows failed" in err and "Traceback" not in err
    assert "manifest line 3 (dup_d.ply): InvalidCloud" in err
    assert len(os.listdir(cache)) == 1
    assert not (tmp_path / "features.csv").exists()


_INI = {"jobs.ini": "[pipeline]\njobs = -1\n",
        "none.ini": "[pipeline]\njobs = none\n",
        "k.ini": "[pointssim]\nk = 0\n",
        "fraction.ini": "[graphsim]\nkeypoint_fraction = 0\n",
        "pcqm-radius.ini": "[pcqm]\nradius_factor = -1\n",
        "normal-radius.ini": "[psnr]\nnormal_radius = -5\n",
        "graph-radius.ini": "[graphsim]\nradius_factor = 0\n"}


@pytest.mark.parametrize("argv, code, named", [
    (("extract", "--jobs", "-1"), 1, "--jobs"),
    (("extract", "--config", "jobs.ini"), 2, "pipeline_jobs"),
    (("extract", "--config", "none.ini"), 2, "pipeline_jobs"),
    (("rfe", "--step", "0"), 1, "--step"),
    (("crossval", "--model", "fsm", "--folds", "0"), 1, "--folds"),
    (("crossval", "--model", "fsm", "--folds", "-2"), 1, "--folds"),
    (("crossval", "--model", "fsm", "--folds", "1"), 1, "--folds"),
    (("metric", "--config", "k.ini"), 2, "pointssim_k"),
    (("metric", "--config", "fraction.ini"), 2,
     "graphsim_keypoint_fraction"),
    (("metric", "--config", "pcqm-radius.ini"), 2, "pcqm_radius_factor"),
    (("metric", "--config", "normal-radius.ini"), 2, "psnr_normal_radius"),
    (("metric", "--config", "graph-radius.ini"), 2,
     "graphsim_radius_factor"),
    (("extract", "--config", "k.ini", "--jobs", "2", "--cache", "cache"), 2,
     "pointssim_k")],
    ids=["jobs", "ini-jobs", "ini-jobs-none", "step", "folds-0", "folds-neg",
         "folds-1", "ini-k", "ini-keypoint-fraction", "ini-pcqm-radius",
         "ini-normal-radius", "ini-graph-radius", "ini-k-pool-cache"])
def test_out_of_range_counts_are_refused(corpus, tmp_path, argv, code,
                                         named):
    for name, text in _INI.items():
        (tmp_path / name).write_text(text)
    argv = tuple(str(tmp_path / a) if a.endswith(".ini") or a == "cache"
                 else a for a in argv)
    if argv[0] == "extract":
        argv += ("--manifest", str(corpus / "manifest.csv"))
    elif argv[0] == "metric":
        argv += ("--ref", str(corpus / "ref0.ply"),
                 "--dist", str(corpus / "d0_1.ply"))
    else:
        argv += ("--features", str(_random_features(tmp_path / "f.csv")))
    got, out, err = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert got == code, err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("key, value, message", [
    ("regressor", "forest", "unknown regressor kind 'forest'"),
    ("schema_version", 2, "unsupported model schema 2")],
    ids=["regressor", "schema"])
def test_predict_refuses_unknown_model_file(tmp_path, key, value, message):
    features = _random_features(tmp_path / "features.csv")
    model = tmp_path / "model.json"
    code, _, err = run_cli("train", "--features", str(features), "--model",
                           "fsm", "--out", str(model))
    assert code == 0, err
    state = json.loads(model.read_text())
    state[key] = value
    model.write_text(json.dumps(state))
    code, _, err = run_cli("predict", "--model", str(model), "--features",
                           str(features), "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert message in err and "Traceback" not in err
