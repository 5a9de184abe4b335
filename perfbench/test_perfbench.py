"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as stream:
            out[name] = stream.read()
    return out


@pytest.mark.parametrize("workload", run.ALL_WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    made = []
    for variant in (3, 3, 4):
        out = tmp_path / f"{len(made)}"
        out.mkdir()
        inputs.MAKERS[workload](str(out), variant)
        made.append(_files(out))
    assert made[0] == made[1]
    data = lambda files: {k: v for k, v in files.items() if k != "meta.json"}
    assert data(made[0]).keys() == data(made[2]).keys()
    assert data(made[0]) != data(made[2])


def test_quantised_distortion_keeps_duplicates(tmp_path):
    meta = inputs.make_manifest(str(tmp_path), 0)
    for stats in meta["duplicate_multiplicity"].values():
        assert 7.0 < stats["mean_points_per_voxel"] < 11.0


def _golden():
    with open(os.path.join(HERE, "golden.json")) as stream:
        return json.load(stream)


@pytest.mark.parametrize("workload", run.ALL_WORKLOADS)
def test_perturbed_value_trips_the_golden_check(workload):
    golden = _golden()[workload]["0"]
    outputs = copy.deepcopy(golden)
    assert run.check_outputs(outputs, golden) == (len(golden), 0, [])

    op, key, value = next((op, k, v) for op in sorted(outputs)
                          for k, v in outputs[op].items()
                          if isinstance(v, float))
    outputs[op][key] = value * (1.0 + 10 * run.REL_TOL) + 10 * run.ABS_TOL
    attempted, failed, mismatches = run.check_outputs(outputs, golden)
    assert (attempted, failed) == (len(golden), 1)
    assert mismatches == [{"op": op, "keys": [key]}]

    # a value inside the stated tolerance still matches
    outputs[op][key] = value * (1.0 + run.REL_TOL / 10)
    assert run.check_outputs(outputs, golden)[1] == 0


def test_reordered_ranking_trips_the_golden_check():
    golden = _golden()["fit_eval"]["0"]
    outputs = copy.deepcopy(golden)
    order = outputs["rfe_svr"]["order"]
    order[0], order[1] = order[1], order[0]
    assert run.check_outputs(outputs, golden)[1] == 1


def test_missing_outputs_fail_every_operation():
    golden = _golden()["extract_manifest"]["0"]
    assert run.check_outputs(None, golden)[:2] == (len(golden), len(golden))


def _snapshot():
    """Every attribute the tracer may touch, by identity."""
    import pcqkit.cli  # noqa: F401
    names = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("pcqkit"):
            for key, value in vars(mod).items():
                names[(mod_name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        names[(mod_name, key, attr)] = member
    return names


def _surface(n, seed):
    from pcqkit.cloud import PointCloud
    positions, colors = inputs.surface_cloud(n, seed, span=200.0)
    return PointCloud(positions, colors=colors, bit_depth=8)


def test_traced_run_restores_every_wrapped_name(tmp_path):
    from pcqkit import pipeline, spatial
    before = _snapshot()
    ref = _surface(500, 1)
    dist = _surface(500, 2)
    with Tracer(str(tmp_path)) as tracer:
        assert pipeline.compute_d1 is not before[("pcqkit.pipeline",
                                                  "compute_d1")]
        assert spatial.SpatialIndex.knn_batch is not before[
            ("pcqkit.spatial", "SpatialIndex", "knn_batch")]
        pipeline.compute_pair_metrics(ref, dist)
    assert tracer.missing == []
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []

    names = {s["name"] for s in tracer.spans}
    for _, _, span, _ in TARGETS:
        if span and span.split(".")[0] in ("spatial", "surface", "psnr",
                                           "pcqm", "graphsim", "pointssim"):
            assert span in names
    # self time never exceeds the span and children are excluded
    for s in tracer.spans:
        assert 0.0 <= s["self"] <= s["end"] - s["start"] + 1e-9
    assert tracer.counts["spatial.knn_calls"] == 16


def test_pool_workers_hand_back_their_spans(tmp_path):
    from pcqkit import cli
    data = tmp_path / "data"
    data.mkdir()
    rows = []
    for r in range(2):
        positions, colors = inputs.surface_cloud(400, 10 + r, span=200.0)
        inputs.write_ply(str(data / f"ref{r}.ply"), positions, colors)
        inputs.write_ply(str(data / f"ref{r}_geom.ply"),
                         positions + 0.5, colors)
        rows.append((f"g{r}", f"ref{r}.ply", f"ref{r}_geom.ply", 3.0, 0.5))
    inputs.write_manifest(str(data / "manifest.csv"), rows)
    spool = tmp_path / "spans"
    spool.mkdir()
    with Tracer(str(spool)) as tracer:
        code = cli.main(["extract", "--manifest", str(data / "manifest.csv"),
                         "--out", str(tmp_path / "f.csv"), "--jobs", "2"])
    assert code == 0
    spans, counts = tracer.collect()
    worker_pids = {s["pid"] for s in spans if s["pid"] != os.getpid()}
    assert worker_pids
    assert sum(s["name"] == "pipeline.pair" for s in spans) == 2
    assert counts["io_ply.loads"] == 4
    assert os.listdir(spool)


def test_setup_failure_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "fit_eval", "--seed", "0",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_result_lists_every_declared_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    for m in bench["end_to_end"] + bench["per_layer"]:
        units = run.END_TO_END if m in bench["end_to_end"] else run.PER_LAYER
        assert m["unit"] == units[m["name"]]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
