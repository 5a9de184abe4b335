"""Command-line entry point.

    pcqkit info      --ref cloud.ply
    pcqkit metric    --ref a.ply --dist b.ply [--metric all]
    pcqkit extract   --manifest m.csv --out features.csv
    pcqkit train     --features f.csv --model fsm --out model.json
    pcqkit rfe       --features f.csv --estimator ridge --out ranking.json
    pcqkit predict   --model model.json --features f.csv --out scores.csv
    pcqkit evaluate  --scores s.csv --manifest m.csv --out report.json
    pcqkit crossval  --features f.csv --model fsm --folds 10

Exit codes: 0 success, 1 usage error, 2 data or format error.
"""

import argparse
import json
import math
import sys

import numpy as np

from .cloud import bounding_box
from .config import load_config
from .errors import ConfigMismatch, PcqkitError
from .evaluation import evaluate
from .io_ply import load_ply
from .pipeline import (METRIC_FAMILIES, FeatureTable, PairPlan,
                       ReferenceContext, compute_pair_metrics,
                       extract_features, join_scores, load_manifest,
                       read_features_csv, read_scores_csv,
                       write_features_csv, write_scores_csv)
from .regression import (MODEL_ALIASES, MODEL_REGISTRY, FusionModel,
                         group_kfold, make_model, rfe_rank)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own
    # codes instead (1 = usage, 2 = data)
    def error(self, message):
        raise _UsageError(message)


def _int_from(low):
    """argparse type: an integer no smaller than low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"     # argparse names it in "invalid int value"
    return parse


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _emit(payload, out_path):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)


def _config_from(args):
    flags = {"bitdepth": "cloud_bit_depth", "jobs": "pipeline_jobs",
             "cache": "pipeline_cache_dir", "seed": "pipeline_seed"}
    return load_config(args.config, {
        field: getattr(args, flag) for flag, field in flags.items()
        if getattr(args, flag, None) is not None})


def _cmd_info(args):
    config = _config_from(args)
    cloud = load_ply(args.ref)
    box = bounding_box(cloud)
    payload = {
        "path": args.ref,
        "n_points": len(cloud),
        "has_colors": cloud.has_colors,
        "has_normals": cloud.has_normals,
        "bit_depth": ReferenceContext.build(cloud, config).bit_depth,
        "bbox_min": box.minimum.tolist(),
        "bbox_max": box.maximum.tolist(),
        "bbox_diagonal": box.diagonal,
    }
    _emit(payload, args.out)
    return 0


def _cmd_metric(args):
    config = _config_from(args)
    ref = load_ply(args.ref)
    dist = load_ply(args.dist)
    if args.metric == "all":
        payload = compute_pair_metrics(ref, dist, config)
    else:
        # only the requested family runs, so only the queries it reads
        family = "msgraphsim" if args.metric == "graphsim" else args.metric
        payload = METRIC_FAMILIES[family](PairPlan.build(ref, dist, config))
        if args.metric == "graphsim":
            payload = {"graphsim": payload["graphsim"]}
        elif args.metric == "msgraphsim":
            del payload["graphsim"]
    _emit(payload, args.out)
    return 0


def _cmd_extract(args):
    config = _config_from(args)
    rows = load_manifest(args.manifest)

    def progress(i, n, row, cached):
        tag = "cached" if cached else "done"
        print(f"[{i + 1}/{n}] {row.dist_path} {tag}", file=sys.stderr)

    table, stats = extract_features(
        rows, config, progress=progress if args.verbose else None)
    write_features_csv(table, args.out)
    print(f"wrote {stats['n_rows']} rows to {args.out} "
          f"({stats['n_computed']} computed, {stats['n_cached']} cached)",
          file=sys.stderr)
    return 0


def _require_hash_match(table_hash, other_hash, what, force):
    if table_hash and other_hash and table_hash != other_hash:
        message = (f"{what}: feature table config_hash {table_hash!r} does "
                   f"not match {other_hash!r}; pass --force to override")
        if not force:
            raise ConfigMismatch(message)
        print(f"warning: {message}", file=sys.stderr)


def _cmd_train(args):
    seed = _config_from(args).pipeline_seed
    table = read_features_csv(args.features)
    model = make_model(args.model)
    model.fit_table(table, metadata={"seed": seed})
    model.save(args.out)
    print(f"trained {model.name} on {len(table)} rows -> {args.out}",
          file=sys.stderr)
    return 0


def _cmd_rfe(args):
    seed = _config_from(args).pipeline_seed
    table = read_features_csv(args.features)
    ranking = rfe_rank(table.values, table.mos(), estimator=args.estimator,
                       step=args.step, seed=seed,
                       names=list(table.feature_names))
    payload = {
        "estimator": args.estimator,
        "step": args.step,
        "seed": seed,
        "order": ranking.names,
        "config_hash": table.config_hash,
    }
    _emit(payload, args.out)
    return 0


def _cmd_predict(args):
    table = read_features_csv(args.features)
    model = FusionModel.load(args.model)
    _require_hash_match(table.config_hash,
                        model.metadata.get("config_hash", ""),
                        "predict", args.force)
    scores = model.predict_table(table)
    write_scores_csv(table.rows, scores, args.out, model.name,
                     table.config_hash)
    print(f"wrote {len(scores)} scores to {args.out}", file=sys.stderr)
    return 0


def _cmd_evaluate(args):
    rows = load_manifest(args.manifest)
    named = []
    for path in args.scores:
        keys, scores, meta = read_scores_csv(path)
        order = join_scores(keys, rows)
        aligned = np.full(len(rows), np.nan)
        aligned[order] = scores
        if np.isnan(aligned).any():
            missing = int(np.isnan(aligned).sum())
            raise PcqkitError(
                f"{path!r} covers {len(rows) - missing} of {len(rows)} "
                "manifest rows")
        named.append((meta.get("model") or path, aligned))
    manifest = FeatureTable(rows, (), np.empty((len(rows), 0)), "")
    report = evaluate(named, manifest.mos(), manifest.mos_std())
    if args.out:
        _emit(report.as_dict(), args.out)
    sys.stdout.write(report.table())
    return 0


def _cmd_crossval(args):
    seed = _config_from(args).pipeline_seed
    table = read_features_csv(args.features)
    model = make_model(args.model)
    folds = group_kfold(table.groups(), args.folds, seed=seed)
    X, mos = model.select(table), table.mos()
    predicted = np.full(len(table), np.nan)
    for train_idx, test_idx in folds:
        model.fit(X[train_idx], mos[train_idx])
        predicted[test_idx] = model.predict(X[test_idx])
    report = evaluate([(model.name, predicted)], mos, table.mos_std())
    payload = report.as_dict()
    payload["folds"] = args.folds
    payload["seed"] = seed
    _emit(payload, args.out)
    sys.stderr.write(report.table())   # keep stdout valid JSON
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="pcqkit",
                     description="Point cloud quality metrics and fusion")
    sub = parser.add_subparsers(dest="command", metavar="command")
    models = (*sorted(MODEL_REGISTRY), *sorted(MODEL_ALIASES))

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="INI settings file")
        if name in ("extract", "train", "predict"):
            p.add_argument("--out", required=True, help="output path")
        else:
            p.add_argument("--out", help="output path (default: stdout)")
        return p

    p = add("info", _cmd_info, "summarize one cloud")
    p.add_argument("--ref", required=True)
    p.add_argument("--bitdepth", type=int)

    p = add("metric", _cmd_metric, "compute metrics for one pair")
    p.add_argument("--ref", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--metric", default="all",
                   choices=("all", *METRIC_FAMILIES, "graphsim"))
    p.add_argument("--bitdepth", type=int)

    p = add("extract", _cmd_extract, "compute the feature table")
    p.add_argument("--manifest", required=True)
    p.add_argument("--jobs", type=_int_from(0))
    p.add_argument("--cache", help="feature cache directory")
    p.add_argument("--bitdepth", type=int)
    p.add_argument("--verbose", action="store_true")

    p = add("train", _cmd_train, "fit a fusion model on a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--seed", type=_int_from(0))

    p = add("rfe", _cmd_rfe, "rank features by recursive elimination")
    p.add_argument("--features", required=True)
    p.add_argument("--estimator", choices=("ridge", "svr"), default="ridge")
    p.add_argument("--step", type=_int_from(1), default=1)
    p.add_argument("--seed", type=_int_from(0))

    p = add("predict", _cmd_predict, "apply a fusion model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--force", action="store_true",
                   help="ignore config hash mismatches")

    p = add("evaluate", _cmd_evaluate, "benchmark scores against MOS")
    p.add_argument("--scores", required=True, action="append",
                   help="scores CSV (repeatable)")
    p.add_argument("--manifest", required=True)

    p = add("crossval", _cmd_crossval, "group-aware cross-validation")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--folds", type=_int_from(2), default=10)
    p.add_argument("--seed", type=_int_from(0))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required")
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PcqkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
