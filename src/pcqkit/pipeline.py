"""Dataset manifest handling and batch feature extraction.

A manifest CSV lists reference/distorted pairs with subjective scores:

    group_id,ref_path,dist_path,mos[,mos_std][,codec][,rate]

Extraction computes the 23-column fusion feature vector for every pair,
optionally in parallel and backed by a content-addressed cache keyed on
the raw bytes of both files plus the semantic configuration, so edits to
either invalidate stale entries. Feature and score tables round-trip
through CSV with shortest-repr floats, which keeps reruns bit-identical.
"""

import contextlib
import csv
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cloud import PointCloud
from .config import Config
from .errors import (BadMosValue, IoFailure, JoinMismatch, MissingColumn,
                     PcqkitError, SchemaMismatch)
from .io_ply import load_ply
from .metrics.graphsim import SIM_KINDS, msgraphsim_score
from .metrics.pcqm import compute_pcqm_features, pcqm_aggregate
from .metrics.pointssim import pointssim_score
from .metrics.psnr import compute_d1, compute_d2, compute_yuv
from .plan import PairPlan, ReferenceContext

__all__ = ["FEATURE_COLUMNS", "ManifestRow", "load_manifest",
           "ReferenceContext", "PairPlan", "METRIC_FAMILIES",
           "compute_pair_metrics", "feature_vector",
           "FeatureTable", "extract_features", "write_features_csv",
           "read_features_csv", "write_scores_csv", "read_scores_csv",
           "join_scores"]

_SCHEMA = 1

FEATURE_COLUMNS = (
    "psnr_d2", "psnr_y", "psnr_u", "psnr_v",
    "pointssim_lum", "pointssim_geo",
    "pcqm_f1", "pcqm_f2", "pcqm_f3", "pcqm_f4",
    "pcqm_f5", "pcqm_f6", "pcqm_f7", "pcqm_f8",
    "msgsim_mg_s0", "msgsim_ug_s0", "msgsim_cg_s0",
    "msgsim_mg_s1", "msgsim_ug_s1", "msgsim_cg_s1",
    "msgsim_mg_s2", "msgsim_ug_s2", "msgsim_cg_s2",
)

_MANIFEST_REQUIRED = ("group_id", "ref_path", "dist_path", "mos")
_ROW_FIELDS = _MANIFEST_REQUIRED + ("mos_std", "codec", "rate")


@dataclass(frozen=True)
class ManifestRow:
    group_id: str
    ref_path: str            # as written in the manifest
    dist_path: str
    mos: float
    mos_std: Optional[float] = None
    codec: str = ""
    rate: str = ""
    ref_file: str = ""       # resolved relative to the manifest location
    dist_file: str = ""
    line: int = 0            # line in the file read, 0 if unknown


def _parse_float(raw: str, what: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise BadMosValue(f"row {line}: {what} {raw!r} is not a number") \
            from None
    if not np.isfinite(value):
        raise BadMosValue(f"row {line}: {what} {raw!r} is not finite")
    return value


def _manifest_row(fields: dict, base: str, line: int) -> ManifestRow:
    """A ManifestRow from the text fields of a manifest or feature-table
    row (a dict over _ROW_FIELDS; absent ones read as empty), its cloud
    paths resolved against the directory base."""
    row = {name: (fields.get(name) or "").strip() for name in _ROW_FIELDS}
    if not row["ref_path"] or not row["dist_path"]:
        raise MissingColumn(f"row {line}: empty cloud path")
    row["mos"] = _parse_float(row["mos"], "mos", line)
    row["mos_std"] = (_parse_float(row["mos_std"], "mos_std", line)
                      if row["mos_std"] else None)
    return ManifestRow(**row, ref_file=os.path.join(base, row["ref_path"]),
                       dist_file=os.path.join(base, row["dist_path"]),
                       line=line)


def load_manifest(path: str):
    """Parse a manifest CSV into ManifestRow records.

    Relative cloud paths are resolved against the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    with open(path, newline="") as stream:
        reader = csv.DictReader(stream)
        header = reader.fieldnames or []
        missing = [c for c in _MANIFEST_REQUIRED if c not in header]
        if missing:
            raise MissingColumn(f"manifest lacks columns {missing}")
        rows = [_manifest_row(record, base, reader.line_num)
                for record in reader]
    if not rows:
        raise MissingColumn(f"manifest {path!r} has no data rows")
    return rows


# ---------------------------------------------------------------------------
# per-pair computation

def _yuv(plan):
    yuv = compute_yuv(plan)
    return {"psnr_y": yuv.y.psnr_db, "psnr_u": yuv.u.psnr_db,
            "psnr_v": yuv.v.psnr_db, "psnr_yuv": yuv.psnr_combined}


def _pcqm(plan):
    pcqm = compute_pcqm_features(plan)
    out = {f"pcqm_{name}": value for name, value in pcqm.as_dict().items()}
    out["pcqm"] = pcqm_aggregate(pcqm)
    return out


def _msgraphsim(plan):
    gsim = msgraphsim_score(plan)
    out = {f"msgsim_{kind}_s{s}": gsim.sim(kind, s)
           for s in gsim.scales for kind in SIM_KINDS}
    out["msgraphsim"] = gsim.overall
    out["graphsim"] = float(gsim.per_scale[0])
    return out


# family -> function of a PairPlan giving that family's raw values
METRIC_FAMILIES = {
    "d1": lambda plan: {"psnr_d1": compute_d1(plan).psnr_db},
    "d2": lambda plan: {"psnr_d2": compute_d2(plan).psnr_db},
    "yuv": _yuv,
    "pointssim": lambda plan: {
        "pointssim_lum": pointssim_score(plan, "luminance"),
        "pointssim_geo": pointssim_score(plan, "geometry")},
    "pcqm": _pcqm,
    "msgraphsim": _msgraphsim,
}


def compute_pair_metrics(ref: Union[PointCloud, ReferenceContext],
                         dist: PointCloud, config: Config = None) -> dict:
    """Every metric for one pair, as a flat name -> float dict.

    ref is the reference cloud or its ReferenceContext, as for
    PairPlan.build: pass a context to share the reference-side work
    across the distortions of one reference, and then no config.
    PSNR entries are raw dB and may be +inf; feature_vector() applies
    the configured cap.
    """
    plan = PairPlan.build(ref, dist, config)
    out = {}
    for family in METRIC_FAMILIES.values():
        out.update(family(plan))
    return out


def feature_vector(metrics: dict, config: Config = None) -> np.ndarray:
    """The canonical fusion feature row, with PSNR columns capped."""
    config = config or Config()
    row = np.empty(len(FEATURE_COLUMNS))
    for i, name in enumerate(FEATURE_COLUMNS):
        value = metrics[name]
        if name.startswith("psnr_"):
            value = min(value, config.psnr_cap_db)
        row[i] = value
    return row


# ---------------------------------------------------------------------------
# batch extraction with a content-addressed cache

def _file_digest(path: str) -> bytes:
    try:
        with open(path, "rb") as stream:
            return hashlib.sha256(stream.read()).digest()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _pair_cache_key(ref_digest: bytes, dist_digest: bytes,
                    config: Config) -> str:
    """Cache key of a pair from the sha256 digests of its two files."""
    digest = hashlib.sha256()
    digest.update(f"pcqkit-features-{_SCHEMA}\n".encode())
    digest.update(config.hash.encode())
    digest.update(ref_digest)
    digest.update(dist_digest)
    return digest.hexdigest()


def _cache_read(cache_dir: str, key: str):
    path = os.path.join(cache_dir, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except (OSError, ValueError):
        return None
    # anything but a feature record as _cache_write makes one is a miss
    values = payload.get("features") if isinstance(payload, dict) else None
    if not isinstance(values, list) or len(values) != len(FEATURE_COLUMNS) \
            or payload.get("schema_version") != _SCHEMA \
            or not all(type(v) is float for v in values):
        return None
    return np.asarray(values, dtype=np.float64)


def _cache_write(cache_dir: str, key: str, config_hash: str, row):
    os.makedirs(cache_dir, exist_ok=True)
    payload = {"schema_version": _SCHEMA, "config_hash": config_hash,
               "features": [float(v) for v in row]}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as stream:
            json.dump(payload, stream)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _extract_run(task):
    """Feature rows of several distortions of one reference.

    The reference is loaded and its context built once. Returns, per
    distortion, its feature vector or the PcqkitError it raised; a
    reference that cannot be loaded fails every row. The run's arrays
    are freed when it returns, and the next run of a pool worker reuses
    their memory.
    """
    ref_file, dist_files, config = task
    try:
        reference = ReferenceContext.build(load_ply(ref_file), config)
    except PcqkitError as exc:
        return [exc] * len(dist_files)
    out = []
    for dist_file in dist_files:
        try:
            metrics = compute_pair_metrics(reference, load_ply(dist_file))
            out.append(feature_vector(metrics, config))
        except PcqkitError as exc:
            out.append(exc)
    return out


def _runs(rows, pending, jobs):
    """Split pending row indices into runs that share one reference.

    Rows are grouped by reference file in order of first appearance; a
    run holds at most ceil(len(pending) / jobs) rows, so a manifest with
    one reference still gives every worker a run.
    """
    size = -(-len(pending) // jobs)
    groups = {}
    for i in pending:
        groups.setdefault(rows[i].ref_file, []).append(i)
    return [members[start:start + size] for members in groups.values()
            for start in range(0, len(members), size)]


@dataclass
class FeatureTable:
    """Manifest rows plus their feature matrix, tied to a config hash."""

    rows: list
    feature_names: tuple
    values: np.ndarray
    config_hash: str

    def __len__(self):
        return len(self.rows)

    def mos(self) -> np.ndarray:
        return np.array([r.mos for r in self.rows], dtype=np.float64)

    def mos_std(self):
        stds = [r.mos_std for r in self.rows]
        if any(s is None for s in stds):
            return None
        return np.array(stds, dtype=np.float64)

    def groups(self):
        return [r.group_id for r in self.rows]


def extract_features(rows, config: Config = None, progress=None):
    """Compute the feature table for manifest rows.

    Returns (FeatureTable, stats) where stats counts cache hits and
    fresh computations. config.pipeline_jobs = 1 stays in-process and 0
    means one worker per CPU; config.pipeline_cache_dir, when set, holds
    the per-pair cache. Pending rows are grouped by reference so each
    task builds one ReferenceContext for several distortions; rows keep
    manifest order regardless of completion order. A row that fails
    does not stop the others: every row is attempted, good rows are
    cached, and then one PcqkitError names each failed manifest line and
    its error.
    """
    config = config or Config()
    jobs = config.pipeline_jobs or os.cpu_count() or 1
    cache_dir = config.pipeline_cache_dir

    values = np.full((len(rows), len(FEATURE_COLUMNS)), np.nan)
    failures = {}
    pending = []
    keys = {}
    digests = {}
    n_cached = 0
    for i, row in enumerate(rows):
        if cache_dir:
            try:
                for path in (row.ref_file, row.dist_file):
                    if path not in digests:
                        digests[path] = _file_digest(path)
            except IoFailure as exc:
                failures[i] = exc
                continue
            keys[i] = _pair_cache_key(digests[row.ref_file],
                                      digests[row.dist_file], config)
            hit = _cache_read(cache_dir, keys[i])
            if hit is not None:
                values[i] = hit
                n_cached += 1
                if progress:
                    progress(i, len(rows), row, True)
                continue
        pending.append(i)

    if pending:
        runs = _runs(rows, pending, jobs)
        tasks = [(rows[run[0]].ref_file, [rows[i].dist_file for i in run],
                  config) for run in runs]
        with contextlib.ExitStack() as stack:
            if jobs == 1 or len(runs) == 1:
                results = map(_extract_run, tasks)
            else:
                pool = stack.enter_context(
                    ProcessPoolExecutor(max_workers=min(jobs, len(runs))))
                results = pool.map(_extract_run, tasks)
            for run, outcome in zip(runs, results):
                for i, vec in zip(run, outcome):
                    if isinstance(vec, PcqkitError):
                        failures[i] = vec
                        continue
                    values[i] = vec
                    if cache_dir:
                        _cache_write(cache_dir, keys[i], config.hash, vec)
                    if progress:
                        progress(i, len(rows), rows[i], False)

    if failures:
        lines = []
        for i, exc in sorted(failures.items()):
            row = rows[i]
            where = f"manifest line {row.line}" if row.line else f"row {i + 1}"
            lines.append(f"{where} ({row.dist_path}): "
                         f"{type(exc).__name__}: {exc}")
        raise PcqkitError(f"{len(failures)} of {len(rows)} rows failed:\n  "
                          + "\n  ".join(lines))
    table = FeatureTable(list(rows), FEATURE_COLUMNS, values, config.hash)
    return table, {"n_rows": len(rows), "n_cached": n_cached,
                   "n_computed": len(pending)}


# ---------------------------------------------------------------------------
# CSV round-trips (shortest-repr floats, schema + config hash up front)

def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_table(path: str, header, records, **meta):
    """Write a table file: the schema line (schema_version, then meta in
    order), the header and the records."""
    with open(path, "w", newline="") as stream:
        stream.write(" ".join(["#", f"schema_version={_SCHEMA}", *(
            f"{k}={v}" for k, v in meta.items())]) + "\n")
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(records)


def _read_table(path: str, fixed, convert):
    """(meta, value names, [convert(line, fixed cells, value cells)]) of a
    table whose header starts with the columns fixed; each record but an
    empty one has the header's width and is converted as it is read."""
    with open(path, newline="") as stream:
        schema = stream.readline()
        if not schema.startswith("#"):
            raise SchemaMismatch(f"{path!r} lacks the schema header line")
        meta = dict(token.split("=", 1) for token in schema[1:].split()
                    if "=" in token)
        if meta.get("schema_version") != str(_SCHEMA):
            raise SchemaMismatch(
                f"{path!r} has schema_version="
                f"{meta.get('schema_version')!r}, expected {_SCHEMA}")
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or header[:len(fixed)] != list(fixed):
            raise SchemaMismatch(f"{path!r} has an unexpected column set")
        records = []
        for record in reader:
            if not record:
                continue
            line = reader.line_num + 1    # the schema line precedes the reader
            if len(record) != len(header):
                raise SchemaMismatch(f"{path!r} row {line}: expected "
                                     f"{len(header)} fields, got "
                                     f"{len(record)}")
            records.append(convert(line, record[:len(fixed)],
                                   record[len(fixed):]))
    return meta, tuple(header[len(fixed):]), records


def write_features_csv(table: FeatureTable, path: str):
    _write_table(path, _ROW_FIELDS + tuple(table.feature_names), (
        [row.group_id, row.ref_path, row.dist_path, _fmt(row.mos),
         _fmt(row.mos_std), row.codec, row.rate] + [_fmt(v) for v in vec]
        for row, vec in zip(table.rows, table.values)),
        config_hash=table.config_hash)


def read_features_csv(path: str) -> FeatureTable:
    base = os.path.dirname(os.path.abspath(path))

    def parse(line, fixed, feats):
        row = _manifest_row(dict(zip(_ROW_FIELDS, fixed)), base, line)
        try:
            return row, [float(v) for v in feats]
        except ValueError as exc:
            raise SchemaMismatch(f"{path!r} row {line}: {exc}") from None

    meta, names, records = _read_table(path, _ROW_FIELDS, parse)
    rows = [row for row, _ in records]
    values = np.asarray([vec for _, vec in records], np.float64)
    return FeatureTable(rows, names, values.reshape(len(rows), len(names)),
                        meta.get("config_hash", ""))


_SCORE_COLUMNS = ("group_id", "ref_path", "dist_path", "score")


def write_scores_csv(rows, scores, path: str, model_name: str,
                     config_hash: str):
    _write_table(path, _SCORE_COLUMNS, (
        [row.group_id, row.ref_path, row.dist_path, _fmt(score)]
        for row, score in zip(rows, scores)),
        model=model_name, config_hash=config_hash)


def read_scores_csv(path: str):
    """Returns (list of (group_id, ref_path, dist_path), scores, meta)."""
    meta, names, records = _read_table(
        path, _SCORE_COLUMNS, lambda line, cells, _: (
            tuple(cells[:3]), _parse_float(cells[3], "score", line)))
    if names:
        raise SchemaMismatch(f"{path!r} has an unexpected column set")
    scores = np.asarray([score for _, score in records], dtype=np.float64)
    return [key for key, _ in records], scores, meta


def join_scores(score_keys, manifest_rows):
    """Match score rows to manifest rows by (ref_path, dist_path).

    Returns the manifest row index for each score row; every score row
    must match exactly one manifest row.
    """
    lookup = {}
    for i, row in enumerate(manifest_rows):
        lookup.setdefault((row.ref_path, row.dist_path), []).append(i)
    order = []
    for group, ref_path, dist_path in score_keys:
        hits = lookup.get((ref_path, dist_path), [])
        if len(hits) != 1:
            raise JoinMismatch(
                f"score row ({ref_path!r}, {dist_path!r}) matches "
                f"{len(hits)} manifest rows, expected exactly 1")
        order.append(hits[0])
    if len(set(order)) != len(order):
        raise JoinMismatch("several score rows map to one manifest row")
    return np.asarray(order, dtype=np.intp)
