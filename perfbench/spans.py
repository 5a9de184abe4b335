"""Layer spans recorded from outside the program.

A Tracer replaces pcqkit's public functions with timing wrappers under
every name a caller looks them up by (a function imported into another
module is replaced there too; methods are replaced on their class), and
puts every original back on exit. Each wrapped call records a span with
its parent, so a layer's self time excludes the calls it makes into
other wrapped functions.

Pool workers forked while the tracer is active inherit the wrappers.
A worker keeps its own spans and appends them to spans-<pid>.jsonl in
the spool directory whenever one of its top-level spans closes, since a
pool worker exits without running exit handlers.
"""

import contextlib
import functools
import hashlib
import importlib
import json
import os
import sys
import time
import weakref
from collections import Counter

import numpy as np

# (module, attribute, span name, call-count metric or None)
# A span name "layer.x" feeds the self-time metric "layer.x_s".
TARGETS = (
    ("pcqkit.spatial", "SpatialIndex.__init__", "spatial.build",
     "spatial.builds"),
    ("pcqkit.spatial", "SpatialIndex.knn_batch", "spatial.knn",
     "spatial.knn_calls"),
    ("pcqkit.spatial", "SpatialIndex.nearest_batch", "spatial.knn", None),
    ("pcqkit.spatial", "SpatialIndex.mean_nn_distance", "spatial.knn", None),
    ("pcqkit.spatial", "SpatialIndex.radius_batch", "spatial.radius",
     "spatial.radius_calls"),
    ("pcqkit.surface", "fit_local_surfaces", "surface.fit", None),
    ("pcqkit.surface", "estimate_normals", "surface.normals", None),
    ("pcqkit.colorspace", "rgb_to_ycbcr", "colorspace.convert",
     "colorspace.calls"),
    ("pcqkit.colorspace", "luminance", "colorspace.convert",
     "colorspace.calls"),
    ("pcqkit.colorspace", "rgb_to_lab", "colorspace.convert",
     "colorspace.calls"),
    ("pcqkit.colorspace", "rgb_to_perceptual", "colorspace.convert",
     "colorspace.calls"),
    ("pcqkit.colorspace", "rgb_to_gaussian", "colorspace.convert",
     "colorspace.calls"),
    ("pcqkit.metrics.psnr", "compute_d1", "psnr.d1", None),
    ("pcqkit.metrics.psnr", "compute_d2", "psnr.d2", None),
    ("pcqkit.metrics.psnr", "compute_yuv", "psnr.yuv", None),
    ("pcqkit.metrics.pointssim", "pointssim_score", "pointssim.score", None),
    ("pcqkit.metrics.pcqm", "build_correspondence", "pcqm.correspondence",
     "pcqm.correspondence_calls"),
    ("pcqkit.metrics.pcqm", "compute_pcqm_features", "pcqm.features", None),
    ("pcqkit.metrics.graphsim", "msgraphsim_score", "graphsim.score", None),
    ("pcqkit.io_ply", "load_ply", "io_ply.load", "io_ply.loads"),
    ("pcqkit.pipeline", "compute_pair_metrics", "pipeline.pair", None),
    ("pcqkit.pipeline", "extract_features", "pipeline.extract", None),
    ("pcqkit.regression", "RbfSvr.fit", "regression.svr_fit",
     "regression.svr_fits"),
    ("pcqkit.regression", "RidgeRegression.fit", "regression.ridge_fit",
     None),
    ("pcqkit.regression", "rfe_rank", "regression.rfe", None),
    ("pcqkit.evaluation", "fit_logistic", "evaluation.fit_logistic",
     "evaluation.fit_logistic_calls"),
    # counted, not timed: about 1e5 calls per fit_eval round
    ("pcqkit.evaluation", "logistic", None, "evaluation.sse_evals"),
)

_ACTIVE = None          # the installed tracer, seen by the fork hook


def _after_fork_in_child():
    if _ACTIVE is not None:
        _ACTIVE._forked()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _digest(array):
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return (arr.shape, hashlib.blake2b(arr.tobytes(), digest_size=16)
            .hexdigest())


def _returned_rows(result):
    """Neighbour rows in a radius_batch result (list of (idx, dist))."""
    try:
        return sum(len(pair[0]) for pair in result)
    except TypeError:
        return 0


class Tracer:
    """Installs the wrappers in TARGETS; use as a context manager."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.pid = self._root_pid = os.getpid()
        self.spans = []          # finished spans of this process
        self.counts = Counter()  # call counts of this process
        self._stack = []
        self._next_id = 0
        self._tree_ids = weakref.WeakKeyDictionary()   # index -> serial
        self._seen_queries = set()
        self._patched = []       # (owner, attribute, original)
        self.missing = []        # TARGETS entries absent at this commit

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        for module_name, attr, span, count in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__.get(name) if owner_name else \
                getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, attr, span, count)
            if owner_name:
                self._patch(owner, name, original, wrapper)
                continue
            # every module that imported the function by name
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("pcqkit"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        _ACTIVE = None
        return False

    def _patch(self, owner, name, original, wrapper):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, attr, span_name, count_name):
        tracer = self
        before = getattr(self, "_before_" + attr.replace(".", "_"), None)
        after = getattr(self, "_after_" + attr.replace(".", "_"), None)

        if span_name is None:
            def counted(*args, **kwargs):
                tracer.counts[count_name] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        # hooks run outside the span, so their cost is not the layer's
        def wrapper(*args, **kwargs):
            if count_name:
                tracer.counts[count_name] += 1
            info = {}
            if before:
                before(info, args, kwargs)
            frame = tracer._open(span_name, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after:
                after(info, args, kwargs, result)
            tracer._spool_if_worker()
            return result

        return functools.wraps(fn)(wrapper)

    def _open(self, name, info):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        # [id, name, parent, info, start, time spent in child spans]
        frame = [self._next_id, name, parent, info, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[4]
        if self._stack:
            self._stack[-1][5] += duration
        self.spans.append({
            "id": frame[0], "name": frame[1], "parent": frame[2],
            "pid": self.pid, "start": frame[4], "end": end,
            "self": duration - frame[5], "info": frame[3]})

    @contextlib.contextmanager
    def span(self, name):
        """A span around a call made by the benchmark itself."""
        frame = self._open(name, {})
        try:
            yield
        finally:
            self._close(frame)

    def _forked(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _spool_if_worker(self):
        if self._stack or self.pid == self._root_pid:
            return
        path = os.path.join(self.spool_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as stream:
            for record in self.spans:
                stream.write(json.dumps(record) + "\n")
            stream.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect(self):
        """(spans, counts) of this process and of every spooled worker."""
        spans, counts = list(self.spans), Counter(self.counts)
        if os.path.isdir(self.spool_dir):
            for name in sorted(os.listdir(self.spool_dir)):
                if not name.startswith("spans-"):
                    continue
                with open(os.path.join(self.spool_dir, name)) as stream:
                    for line in stream:
                        record = json.loads(line)
                        if "counts" in record:
                            counts.update(record["counts"])
                        else:
                            spans.append(record)
        return spans, counts

    # -- per-target hooks (named _before_/_after_ + attribute) ----------------

    def _after_SpatialIndex___init__(self, info, args, kwargs, result):
        # the id of the span that built the index: unique in this process,
        # unlike id(), which a later index may reuse
        self._tree_ids[args[0]] = self._next_id

    def _repeat(self, info, kind, index, queries, size):
        size_key = _digest(size) if kind == "radius" else int(size)
        key = (kind, self._tree_ids.get(index), _digest(queries), size_key)
        info["repeat"] = int(key in self._seen_queries)
        self._seen_queries.add(key)

    def _before_SpatialIndex_knn_batch(self, info, args, kwargs):
        k = kwargs["k"] if "k" in kwargs else args[2]
        self._repeat(info, "knn", args[0], args[1], k)

    def _before_SpatialIndex_radius_batch(self, info, args, kwargs):
        radius = kwargs["radius"] if "radius" in kwargs else args[2]
        self._repeat(info, "radius", args[0], args[1], radius)

    def _after_SpatialIndex_radius_batch(self, info, args, kwargs, result):
        info["rows"] = _returned_rows(result)

    def _before_fit_local_surfaces(self, info, args, kwargs):
        lists = kwargs.get("neighbor_lists", args[1] if len(args) > 1
                           else ())
        info["rows"] = sum(len(members) for members in lists)

    def _after_fit_local_surfaces(self, info, args, kwargs, result):
        info["plane_fallbacks"] = int(result.plane_fallback.sum())
        info["degenerates"] = int(result.degenerate.sum())

    def _after_msgraphsim_score(self, info, args, kwargs, result):
        info["keypoints"] = int(result.n_keypoints)
        info["empty_dist_graphs"] = int(result.empty_dist_graphs)

    def _before_load_ply(self, info, args, kwargs):
        info["path"] = os.path.basename(str(kwargs.get("path", args[0])))

    def _before_compute_pair_metrics(self, info, args, kwargs):
        self._seen_queries.clear()       # repeats are counted per pair

    def _after_extract_features(self, info, args, kwargs, result):
        info["cache_hits"] = int(result[1]["n_cached"])


_SELF_TIMED = {t[2] for t in TARGETS if t[2]} - {"pipeline.pair",
                                                  "pipeline.extract"}


def summarize(spans, counts, spec):
    """Per-layer metrics of one traced round.

    Times are self time summed over spans of one name, except
    pipeline.pair_s, which is the median whole duration of a pair.
    """
    out = {}
    for span in spans:
        if span["name"] in _SELF_TIMED:
            key = span["name"] + "_s"
            out[key] = out.get(key, 0.0) + span["self"]
    out.update(counts)

    def total(name, field):
        return sum(s["info"].get(field, 0) for s in spans
                   if s["name"] == name)

    out["spatial.radius_neighbors"] = total("spatial.radius", "rows")
    out["spatial.repeat_calls"] = (total("spatial.knn", "repeat")
                                   + total("spatial.radius", "repeat"))
    out["surface.fit_rows"] = total("surface.fit", "rows")
    out["surface.plane_fallbacks"] = total("surface.fit", "plane_fallbacks")
    out["surface.degenerates"] = total("surface.fit", "degenerates")
    out["graphsim.keypoints"] = total("graphsim.score", "keypoints")
    out["graphsim.empty_dist_graphs"] = total("graphsim.score",
                                              "empty_dist_graphs")
    out["pipeline.cache_hits"] = total("pipeline.extract", "cache_hits")

    pairs = sorted(s["end"] - s["start"] for s in spans
                   if s["name"] == "pipeline.pair")
    if pairs:
        out["pipeline.pair_s"] = float(np.median(pairs))
        out["pipeline.pair_s_max"] = pairs[-1]

    ref_loads = [s["info"]["path"] for s in spans
                 if s["name"] == "io_ply.load"
                 and s["info"]["path"] in spec.get("references", ())]
    if ref_loads:
        out["pipeline.ref_loads_per_ref"] = len(ref_loads) / len(
            set(ref_loads))

    # busy time of whatever runs the pairs (the round itself, or pool
    # workers) over the time the jobs had
    top = [s for s in spans if s["parent"] is None]
    busy = sum(s["end"] - s["start"] for s in top
               if s["name"] in ("pipeline.pair", "io_ply.load"))
    if busy:
        first = min(s["start"] for s in top)
        last = max(s["end"] for s in top)
        out["pipeline.parallel_efficiency"] = busy / (
            spec["jobs"] * (last - first))
    return out
