"""One round of a workload, run in a fresh interpreter.

    python3 perfbench/workloads.py <spec.json>

The spec names the workload, its input directory, a scratch directory
for this round and whether to trace. The round times its set-up
(setup_s: `import pcqkit, pcqkit.cli`, then loading the inputs the
operation is handed), runs the workload's operation once (wall_s,
cpu_s of this process and its pool workers, peak RSS of the larger of
the two) and writes the outputs the golden check needs to the spec's
result path. A spec with "setup_only" stops after the set-up.

Only the standard library is imported before the setup timing, so that
numpy and scipy count as part of pcqkit's import.
"""

import csv
import json
import os
import resource
import shutil
import sys
import time

STAT_KEYS = ("pcc", "srocc", "rmse", "outlier_ratio")


def _read_feature_rows(path):
    """dist_path -> {column: value} of a pcqkit feature CSV."""
    with open(path, newline="") as stream:
        stream.readline()                       # "# schema_version=..."
        reader = csv.DictReader(stream)
        fixed = {"group_id", "ref_path", "dist_path", "mos", "mos_std",
                 "codec", "rate"}
        return {row["dist_path"]: {k: float(v) for k, v in row.items()
                                   if k not in fixed}
                for row in reader}


def _stats(report):
    return {m["name"]: {k: m[k] for k in STAT_KEYS} for m in report["metrics"]}


def _run_cli(cli, argv, tracer, span):
    if tracer is None:
        code = cli.main(argv)
    else:
        with tracer.span(span):
            code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"pcqkit {' '.join(argv)} exited with {code}")


# ---------------------------------------------------------------------------
# operations: each returns (op, finish); finish(op()) gives the outputs
# for the golden check and any extra per-round figures

def pair_single(spec, tracer):
    import numpy as np
    from pcqkit import pipeline
    from pcqkit.cloud import PointCloud

    def cloud(side):
        load = lambda name: np.load(os.path.join(spec["inputs"], name))
        return PointCloud(load(f"{side}_pos.npy"),
                          colors=load(f"{side}_rgb.npy"), bit_depth=8)

    ref, dist = cloud("ref"), cloud("dist")

    def op():
        return pipeline.compute_pair_metrics(ref, dist)

    def finish(metrics):
        columns = pipeline.FEATURE_COLUMNS
        return {"pair": {c: float(metrics[c]) for c in columns}}, \
            {"pairs_computed": 1}

    return op, finish


def extract_manifest(spec, tracer):
    from pcqkit import cli

    cache = os.path.join(spec["work"], "cache")
    shutil.copytree(os.path.join(spec["inputs"], "cache"), cache)
    cached_before = len(os.listdir(cache))
    out = os.path.join(spec["work"], "features.csv")
    argv = ["extract", "--manifest",
            os.path.join(spec["inputs"], "manifest.csv"), "--out", out,
            "--jobs", str(spec["jobs"]), "--cache", cache]

    def op():
        _run_cli(cli, argv, tracer, "cli.extract")

    def finish(_):
        writes = len(os.listdir(cache)) - cached_before
        return _read_feature_rows(out), {"pairs_computed": writes,
                                         "cache_writes": writes}

    return op, finish


def fit_eval(spec, tracer):
    from pcqkit import cli

    inputs, work = spec["inputs"], spec["work"]
    features = ["--features", os.path.join(inputs, "features.csv")]
    path = lambda name: os.path.join(work, name + ".json")
    scores = os.path.join(work, "scores_fsm.csv")
    singles = sorted(n for n in os.listdir(inputs) if n.startswith("scores_"))
    commands = (
        ("crossval_fsm", ["crossval", "--model", "fsm"] + features),
        ("crossval_model1", ["crossval", "--model", "model1"] + features),
        ("rfe_svr", ["rfe", "--estimator", "svr"] + features),
        ("train", ["train", "--model", "fsm"] + features),
        ("predict", ["predict", "--model", path("train")] + features),
        ("evaluate", ["evaluate", "--scores", scores]
         + sum((["--scores", os.path.join(inputs, n)] for n in singles), [])
         + ["--manifest", os.path.join(inputs, "manifest.csv")]),
    )

    def op():
        steps = {}
        for name, argv in commands:
            argv = argv + ["--out", scores if name == "predict"
                           else path(name)]
            start = time.perf_counter()
            _run_cli(cli, argv, tracer, "cli." + argv[0])
            steps[name] = time.perf_counter() - start
        return steps

    def finish(steps):
        outputs = {}
        for name in ("crossval_fsm", "crossval_model1"):
            with open(path(name)) as stream:
                (outputs[name],) = _stats(json.load(stream)).values()
        with open(path("rfe_svr")) as stream:
            outputs["rfe_svr"] = {"order": json.load(stream)["order"]}
        with open(path("evaluate")) as stream:
            for column, stats in _stats(json.load(stream)).items():
                outputs["evaluate:" + column] = stats
        return outputs, {"steps": steps}

    return op, finish


OPERATIONS = {"pair_single": pair_single,
              "extract_manifest": extract_manifest,
              "fit_eval": fit_eval}


# ---------------------------------------------------------------------------

def _usage():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (self_.ru_utime + self_.ru_stime
           + children.ru_utime + children.ru_stime)
    # ru_maxrss is in KiB on Linux; children = the largest reaped worker
    return cpu, max(self_.ru_maxrss, children.ru_maxrss) / 1024.0


def run_round(spec, tracer, op, finish):
    cpu0, _ = _usage()
    start = time.perf_counter()
    if tracer is None:
        value = op()
    else:
        with tracer:
            value = op()
    wall = time.perf_counter() - start
    cpu1, peak_mb = _usage()

    outputs, extra = finish(value)
    result = {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_mb,
              "outputs": outputs}
    result.update(extra)
    if tracer is not None:
        from spans import summarize
        spans, counts = tracer.collect()
        result["layers"] = summarize(spans, counts, spec)
        result["missing_targets"] = tracer.missing
    return result


def main(spec_path):
    with open(spec_path) as stream:
        spec = json.load(stream)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import pcqkit
    import pcqkit.cli  # noqa: F401
    setup_s = time.perf_counter() - start
    if not os.path.abspath(pcqkit.__file__).startswith(spec["src"] + os.sep):
        raise RuntimeError(f"imported pcqkit from {pcqkit.__file__}, "
                           f"not from {spec['src']}")
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer(os.path.join(spec["work"], "spans"))
        os.makedirs(tracer.spool_dir)
    # set-up also covers handing the operation its inputs
    start = time.perf_counter()
    op, finish = OPERATIONS[spec["workload"]](spec, tracer)
    setup_s += time.perf_counter() - start
    result = {"setup_s": setup_s}
    if not spec.get("setup_only"):
        result.update(run_round(spec, tracer, op, finish))
    with open(spec["result"], "w") as stream:
        json.dump(result, stream)


if __name__ == "__main__":
    main(sys.argv[1])
