"""pcqkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload extract_manifest --seed 3 \
        --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
its src/ directory. Inputs are generated from the seed (seed modulo
VARIANTS picks one of the input sets whose outputs golden.json holds)
and kept under .perfbench/ for later runs. Each round runs in a fresh
interpreter (perfbench/workloads.py). Rounds repeat until --seconds
have been spent, with at least MIN_ROUNDS of them.

--trace 0 reports setup_s and cpu_s as medians over the rounds, and
peak_rss_mb as the largest peak of the run.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
The last line of stdout is the result; the line before it holds the
inputs, the environment and every round.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# the workloads BENCHMARK.json declares; pair_single runs only by hand
WORKLOADS = ("extract_manifest", "fit_eval")
ALL_WORKLOADS = ("pair_single",) + WORKLOADS
VARIANTS = 8
MIN_ROUNDS = 2            # per run; a --trace 1 run needs one of each
SETUP_SAMPLES = 5         # fresh-interpreter set-ups per run, at least
RUN_LIMIT_S = 170         # every child is stopped by then
SETUP_RESERVE_S = 12      # kept for the set-up-only samples
NPROC = len(os.sched_getaffinity(0))
# Every round runs BLAS on one thread. OpenBLAS threads spin while they
# wait, so a second BLAS thread on a 2-vCPU host (or one per pool worker)
# makes a round's wall time follow whatever else holds the other vCPU.
ROUND_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
JOBS = min(2, NPROC)
# a value matches its golden value when math.isclose with these holds
REL_TOL = 1e-6
ABS_TOL = 1e-9

# Wall time is not bounded: on a shared host it carries the time the
# hypervisor gives the vCPUs to others (steal), which no program change
# can move. CPU time excludes it. Wall time is in the detail line and,
# per command, among the per-layer metrics (cli.*_s).
END_TO_END = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "spatial.build_s": "s", "spatial.builds": "count",
    "spatial.knn_s": "s", "spatial.knn_calls": "count",
    "spatial.radius_s": "s", "spatial.radius_calls": "count",
    "spatial.radius_neighbors": "count", "spatial.repeat_calls": "count",
    "surface.fit_s": "s", "surface.fit_rows": "count",
    "surface.normals_s": "s", "surface.plane_fallbacks": "count",
    "surface.degenerates": "count",
    "psnr.d1_s": "s", "psnr.d2_s": "s", "psnr.yuv_s": "s",
    "pointssim.score_s": "s",
    "pcqm.correspondence_s": "s", "pcqm.correspondence_calls": "count",
    "pcqm.features_s": "s",
    "graphsim.score_s": "s", "graphsim.keypoints": "count",
    "graphsim.empty_dist_graphs": "count",
    "colorspace.convert_s": "s", "colorspace.calls": "count",
    "io_ply.load_s": "s", "io_ply.loads": "count",
    "pipeline.ref_loads_per_ref": "ratio",
    "pipeline.pair_s": "s", "pipeline.pair_s_max": "s",
    "pipeline.cache_hits": "count", "pipeline.cache_writes": "count",
    "pipeline.parallel_efficiency": "ratio", "pipeline.pairs_per_s": "1/s",
    "regression.svr_fit_s": "s", "regression.svr_fits": "count",
    "regression.ridge_fit_s": "s", "regression.rfe_s": "s",
    "evaluation.fit_logistic_s": "s",
    "evaluation.fit_logistic_calls": "count",
    "evaluation.sse_evals": "count",
    "cli.crossval_s": "s", "cli.rfe_s": "s", "cli.evaluate_s": "s",
    "cli.extract_s": "s",
    "trace_overhead_pct": "%",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


# ---------------------------------------------------------------------------
# inputs

def _tree_digest(path):
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as stream:
                digest.update(hashlib.sha256(stream.read()).digest())
    return digest.hexdigest()


def jobs_for(workload):
    """pcqkit's pool size: only extract_manifest runs the pool."""
    return JOBS if workload == "extract_manifest" else 1


def use_checkout():
    """Import pcqkit from the checkout; keep temporary files inside it."""
    sys.path[:0] = [SRC, HERE]
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")


def prepare_inputs(workload, variant):
    """Generate the variant's inputs once per checkout; returns its meta.

    The inputs are built in a staging directory and renamed into place,
    so an interrupted generation is redone by the next run.
    """
    with open(inputs.__file__, "rb") as stream:
        generator = hashlib.sha256(stream.read()).hexdigest()[:12]
    final = os.path.join(WORK, "inputs",
                         f"{workload}-v{variant}-{generator}")
    if not os.path.isdir(final):
        staging = f"{final}.{os.getpid()}.tmp"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        inputs.MAKERS[workload](staging, variant)
        if workload == "extract_manifest":
            _prefill_cache(staging)
        try:
            os.rename(staging, final)
        except OSError:                 # another run finished first
            shutil.rmtree(staging, ignore_errors=True)
    with open(os.path.join(final, "meta.json")) as stream:
        meta = json.load(stream)
    meta["dir"] = final
    return meta


def _prefill_cache(staging):
    """Leave the cache as an interrupted run would: first group done."""
    from pcqkit import cli
    code = cli.main(["extract", "--manifest",
                     os.path.join(staging, "first_group.csv"),
                     "--out", os.path.join(staging, "first_group_out.csv"),
                     "--jobs", str(JOBS),
                     "--cache", os.path.join(staging, "cache")])
    if code != 0:
        raise SetupError(f"cache prefill exited with {code}")


# ---------------------------------------------------------------------------
# rounds

def run_child(spec, timeout):
    """Run one round in a fresh interpreter; returns (result, error)."""
    os.makedirs(spec["work"])
    spec_path = os.path.join(spec["work"], "spec.json")
    spec["result"] = os.path.join(spec["work"], "result.json")
    with open(spec_path, "w") as stream:
        json.dump(spec, stream)
    # its own session, so a timeout also stops the round's pool workers
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py"), spec_path],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT,
        env=dict(os.environ, **ROUND_ENV), start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            tail = stderr.decode(errors="replace").strip()[-2000:]
            return None, f"exit {proc.returncode}: {tail}"
        with open(spec["result"]) as stream:
            return json.load(stream), None
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(spec["work"], ignore_errors=True)


def check_outputs(outputs, golden):
    """(attempted, failed, mismatches) of one round against golden."""
    mismatches = []
    for op, expected in golden.items():
        got = (outputs or {}).get(op)
        bad = [k for k, v in expected.items()
               if got is None or not _same(got.get(k), v)]
        if bad:
            mismatches.append({"op": op, "keys": bad[:5]})
    return len(golden), len(mismatches), mismatches


def _same(got, want):
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isnan(want):
            return math.isnan(got)
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return got == want


# ---------------------------------------------------------------------------
# environment record

def environment():
    import numpy
    import scipy
    return {
        "nproc": NPROC,
        "jobs": JOBS,
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(os.path.join(SRC, "pcqkit")),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "round_thread_env": ROUND_ENV,
        "kdtree_workers": "cKDTree queries use workers=-1: up to nproc "
                          "threads in each process, pool workers included",
    }


def _git_sha():
    """HEAD from .git in the checkout, without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as stream:
            ref = stream.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as stream:
                return stream.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "pcqkit", "cli.py")):
        raise SetupError(f"no pcqkit sources under {SRC}")
    with open(os.path.join(HERE, "golden.json")) as stream:
        golden = json.load(stream)[workload].get(str(seed % VARIANTS))
    if golden is None:
        raise SetupError(f"golden.json has no {workload} variant "
                         f"{seed % VARIANTS}")
    use_checkout()
    meta = prepare_inputs(workload, seed % VARIANTS)

    def spec(index, traced, setup_only=False):
        return {"workload": workload, "trace": traced, "src": SRC,
                "inputs": meta["dir"], "jobs": jobs_for(workload),
                "references": meta.get("references", []),
                "setup_only": setup_only,
                "work": os.path.join(WORK, "rounds",
                                     f"{os.getpid()}-{index}")}

    started = time.perf_counter()
    rounds, errors = [], []
    attempted = failed = 0
    last = 0.0
    while True:
        now = time.perf_counter()
        elapsed = now - started
        if len(rounds) >= MIN_ROUNDS and elapsed + last > seconds + last / 2:
            break
        left = RUN_LIMIT_S - SETUP_RESERVE_S - (now - STARTED)
        if rounds and 1.5 * last > left:
            break
        traced = bool(trace) and len(rounds) % 2 == 1
        result, error = run_child(spec(len(rounds), traced),
                                  timeout=max(1.0, left))
        last = time.perf_counter() - now
        n, bad, mismatches = check_outputs(
            result and result.get("outputs"), golden)
        attempted += n
        failed += bad
        if error or mismatches:
            errors.append({"round": len(rounds), "error": error,
                           "mismatches": mismatches})
        rounds.append(dict(result or {}, traced=traced, ok=error is None))

    setups = [r["setup_s"] for r in rounds if r["ok"]]
    while len(setups) < SETUP_SAMPLES:
        left = RUN_LIMIT_S - (time.perf_counter() - STARTED)
        result, error = run_child(spec(f"s{len(setups)}", False, True),
                                  timeout=max(1.0, left))
        if error:
            raise SetupError(f"set-up-only round failed: {error}")
        setups.append(result["setup_s"])

    plain = [r for r in rounds if r["ok"] and not r["traced"]]
    if not plain:
        raise SetupError(f"every round failed: {errors[:1]}")
    unrepeated = []
    if trace:
        metrics, unrepeated = layer_metrics(rounds, plain)
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in plain)}
    units = PER_LAYER if trace else END_TO_END
    detail = {
        "workload": workload, "seed": seed, "variant": seed % VARIANTS,
        "trace": trace, "inputs": {k: v for k, v in meta.items()
                                   if k != "dir"},
        "env": environment(), "tolerance": {"rel": REL_TOL, "abs": ABS_TOL},
        "error_rate": failed / attempted, "errors": errors,
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_samples": setups, "unrepeated_counts": unrepeated,
        "rounds": [{k: v for k, v in r.items() if k != "outputs"}
                   for r in rounds],
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return detail, result


def layer_metrics(rounds, plain):
    """Per-layer metrics: medians over the traced rounds.

    Returns the metrics and the names of counts that differed between
    traced rounds, which should be none.
    """
    traced = [r for r in rounds if r["ok"] and r["traced"]]
    if not traced:
        raise SetupError("no traced round succeeded")
    metrics = {name: 0.0 if unit == "s" else 0 for name, unit in
               PER_LAYER.items()}
    names = set().union(*(r["layers"] for r in traced))
    for name in names:
        values = [r["layers"].get(name, 0) for r in traced]
        metrics[name] = statistics.median(values)
    metrics["pipeline.cache_writes"] = traced[0].get("cache_writes", 0)
    wall = statistics.median(r["wall_s"] for r in plain)
    pairs = plain[0].get("pairs_computed", 0)
    metrics["pipeline.pairs_per_s"] = pairs / wall
    steps = [r["steps"] for r in plain if "steps" in r]
    if steps:
        med = lambda *keys: statistics.median(sum(s[k] for k in keys)
                                              for s in steps)
        metrics["cli.crossval_s"] = med("crossval_fsm", "crossval_model1")
        metrics["cli.rfe_s"] = med("rfe_svr")
        metrics["cli.evaluate_s"] = med("evaluate")
    if "cache_writes" in plain[0]:
        metrics["cli.extract_s"] = wall
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace_overhead_pct"] = 100.0 * (traced_wall - wall) / wall
    unrepeated = sorted(
        name for name, unit in PER_LAYER.items() if unit == "count"
        and len({r["layers"].get(name, 0) for r in traced}) > 1)
    return metrics, unrepeated


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
