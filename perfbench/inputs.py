"""Seeded input generation for the benchmark workloads.

Every input is a pure function of (workload, variant): the same variant
always gives byte-identical files. The files are written with the
benchmark's own writers, so a change to pcqkit's writers cannot change
what the program is asked to read. Only numpy is used here; pcqkit is
imported by callers that need the program (the cache prefill).
"""

import csv
import json
import os

import numpy as np

# Sizes of each workload. PAIR_POINTS is the ROADMAP baseline fixture at
# 2e4 points; the manifest uses 4 references x 4 distortions at 5e3.
PAIR_POINTS = 20_000
MANIFEST_REFS = 4
MANIFEST_POINTS = 5_000
QUANT_STEP = 46.0          # about 9 points per occupied voxel at 5e3 points
DOWNSAMPLE_KEEP = 0.6
TABLE_CONTENTS = 20
TABLE_DISTORTIONS = 10
DISTORTIONS = ("geom", "color", "down", "quant")

# Column order of a pcqkit feature table (pipeline.FEATURE_COLUMNS).
FEATURE_COLUMNS = (
    "psnr_d2", "psnr_y", "psnr_u", "psnr_v",
    "pointssim_lum", "pointssim_geo",
    "pcqm_f1", "pcqm_f2", "pcqm_f3", "pcqm_f4",
    "pcqm_f5", "pcqm_f6", "pcqm_f7", "pcqm_f8",
    "msgsim_mg_s0", "msgsim_ug_s0", "msgsim_cg_s0",
    "msgsim_mg_s1", "msgsim_ug_s1", "msgsim_cg_s1",
    "msgsim_mg_s2", "msgsim_ug_s2", "msgsim_cg_s2",
)
SINGLE_SCORE_COLUMNS = ("psnr_d2", "pcqm_f4")


def surface_cloud(n, seed, span=1000.0):
    """The bumpy textured sheet of tests/conftest.py, as raw arrays."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, span, size=(n, 2))
    z = span / 2 + 30.0 * np.sin(xy[:, 0] / span * 6) \
        * np.cos(xy[:, 1] / span * 5)
    positions = np.column_stack([xy, z])
    colors = np.column_stack([
        128 + 100 * np.sin(xy[:, 0] / span * 9),
        128 + 80 * np.cos(xy[:, 1] / span * 7),
        128 + 60 * np.sin((xy[:, 0] + xy[:, 1]) / span * 4),
    ]).clip(0, 255)
    return positions, np.round(colors)


def jitter(positions, colors, sigma, seed, color_sigma=None):
    """tests/conftest.py jitter: Gaussian position and color noise."""
    rng = np.random.default_rng(seed)
    positions = positions + rng.normal(0.0, sigma, positions.shape)
    if color_sigma:
        colors = np.round(np.clip(
            colors + rng.normal(0.0, color_sigma, colors.shape), 0, 255))
    return positions, colors


def write_ply(path, positions, colors):
    """Binary little-endian PLY: double x/y/z, uchar red/green/blue."""
    header = "\n".join([
        "ply", "format binary_little_endian 1.0",
        f"element vertex {len(positions)}",
        "property double x", "property double y", "property double z",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header"]) + "\n"
    record = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                       ("r", "u1"), ("g", "u1"), ("b", "u1")])
    body = np.empty(len(positions), dtype=record)
    for i, name in enumerate("xyz"):
        body[name] = positions[:, i]
    for i, name in enumerate("rgb"):
        body[name] = colors[:, i]
    with open(path, "wb") as stream:
        stream.write(header.encode("ascii"))
        stream.write(body.tobytes())


def _write_json(path, payload):
    with open(path, "w") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True)
        stream.write("\n")


def _voxel_multiplicity(positions):
    _, counts = np.unique(positions, axis=0, return_counts=True)
    return {"occupied_voxels": int(len(counts)),
            "mean_points_per_voxel": float(counts.mean()),
            "max_points_per_voxel": int(counts.max())}


# ---------------------------------------------------------------------------
# pair_single: one (reference, jittered) pair as .npy arrays

def make_pair(out_dir, variant):
    """Variant 0 is the ROADMAP baseline: surface_cloud(n, 1) vs jitter(2)."""
    ref_pos, ref_rgb = surface_cloud(PAIR_POINTS, seed=2 * variant + 1)
    dist_pos, dist_rgb = jitter(ref_pos, ref_rgb, 1.0, seed=2 * variant + 2,
                                color_sigma=5)
    for name, arr in (("ref_pos", ref_pos), ("ref_rgb", ref_rgb),
                      ("dist_pos", dist_pos), ("dist_rgb", dist_rgb)):
        np.save(os.path.join(out_dir, name + ".npy"), arr)
    meta = {"workload": "pair_single", "variant": variant,
            "points": {"ref": len(ref_pos), "dist": len(dist_pos)},
            "bit_depth": 8}
    _write_json(os.path.join(out_dir, "meta.json"), meta)
    return meta


# ---------------------------------------------------------------------------
# extract_manifest: references x distortions as binary PLY plus a manifest

def _distort(kind, positions, colors, rng):
    if kind == "geom":
        return positions + rng.normal(0.0, 2.0, positions.shape), colors
    if kind == "color":
        noisy = np.round(np.clip(colors + rng.normal(0.0, 12.0, colors.shape),
                                 0, 255))
        return positions, noisy
    if kind == "down":
        keep = np.sort(rng.choice(len(positions),
                                  int(DOWNSAMPLE_KEEP * len(positions)),
                                  replace=False))
        return positions[keep], colors[keep]
    if kind == "quant":
        # coarse voxel grid with every duplicate kept (kNN tie path)
        return np.round(positions / QUANT_STEP) * QUANT_STEP, colors
    raise ValueError(kind)


def manifest_rows(variant):
    """(group, ref_name, dist_name, mos, mos_std) rows, manifest order."""
    rng = np.random.default_rng([variant, 2])
    rows = []
    for r in range(MANIFEST_REFS):
        for d, kind in enumerate(DISTORTIONS):
            mos = round(float(rng.uniform(1.5, 4.5)), 3)
            std = round(float(rng.uniform(0.3, 0.9)), 3)
            rows.append((f"content{r}", f"ref{r}.ply", f"ref{r}_{kind}.ply",
                         mos, std))
    return rows


def write_manifest(path, rows):
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["group_id", "ref_path", "dist_path", "mos",
                         "mos_std", "codec", "rate"])
        for group, ref, dist, mos, std in rows:
            writer.writerow([group, ref, dist, repr(mos), repr(std),
                             dist.rsplit("_", 1)[1][:-4], ""])


def make_manifest(out_dir, variant):
    """Writes the PLY files, manifest.csv and first_group.csv (the rows of
    the first reference, which the cache prefill computes)."""
    points, multiplicity = {}, {}
    for r in range(MANIFEST_REFS):
        ref_pos, ref_rgb = surface_cloud(MANIFEST_POINTS,
                                         seed=1000 * (variant + 1) + r)
        write_ply(os.path.join(out_dir, f"ref{r}.ply"), ref_pos, ref_rgb)
        points[f"ref{r}.ply"] = len(ref_pos)
        for d, kind in enumerate(DISTORTIONS):
            rng = np.random.default_rng([variant, r, d])
            pos, rgb = _distort(kind, ref_pos, ref_rgb, rng)
            name = f"ref{r}_{kind}.ply"
            write_ply(os.path.join(out_dir, name), pos, rgb)
            points[name] = len(pos)
            if kind == "quant":
                multiplicity[name] = _voxel_multiplicity(pos)
    rows = manifest_rows(variant)
    write_manifest(os.path.join(out_dir, "manifest.csv"), rows)
    write_manifest(os.path.join(out_dir, "first_group.csv"),
                   [row for row in rows if row[0] == "content0"])
    meta = {"workload": "extract_manifest", "variant": variant,
            "points": points, "duplicate_multiplicity": multiplicity,
            "references": sorted({row[1] for row in rows}),
            "rows": len(rows),
            "prefilled_rows": sum(row[0] == "content0" for row in rows)}
    _write_json(os.path.join(out_dir, "meta.json"), meta)
    return meta


# ---------------------------------------------------------------------------
# fit_eval: a synthetic feature table with a planted feature -> MOS relation
#
# The values are the same for every variant; the variant only renames the
# contents and their files. With other values per variant, one round took
# between 10 s and 20 s on a 2-core machine: some logistic fits run every
# Nelder-Mead restart to its evaluation cap and others converge early, and
# which ones do changes from table to table. No run length averages that
# out, so the fits see the same numbers on every seed.

def _table():
    rng = np.random.default_rng([0, 3])
    n = TABLE_CONTENTS * TABLE_DISTORTIONS
    content = np.repeat(np.arange(TABLE_CONTENTS), TABLE_DISTORTIONS)
    level = np.tile(np.arange(TABLE_DISTORTIONS), TABLE_CONTENTS)
    quality = (rng.normal(0.0, 0.4, TABLE_CONTENTS)[content]
               - 0.45 * level + rng.normal(0.0, 0.35, n))
    mos = np.clip(1.0 + 4.0 / (1.0 + np.exp(-(quality + 2.0)))
                  + rng.normal(0.0, 0.12, n), 1.0, 5.0)
    mos_std = rng.uniform(0.35, 0.9, n)
    # each feature is a monotone view of the latent quality plus its own
    # noise; the noise level sets how informative the column is
    feats = {}
    for j, name in enumerate(FEATURE_COLUMNS):
        noise = rng.normal(0.0, 1.0, n) * (0.2 + 0.15 * (j % 5))
        signal = quality + noise
        if name.startswith("psnr"):
            feats[name] = 45.0 + 4.0 * signal
        elif name.startswith("pointssim") or name in (
                "pcqm_f1", "pcqm_f2", "pcqm_f3"):
            feats[name] = 0.5 / (1.0 + np.exp(signal + 1.0))
        else:
            feats[name] = 1.0 / (1.0 + np.exp(-(signal + 3.0)))
    return content, level, mos, mos_std, feats


def make_table(out_dir, variant):
    """features.csv, manifest.csv and one score CSV per single column."""
    content, level, mos, mos_std, feats = _table()
    rng = np.random.default_rng([variant, 4])
    letters = list("abcdefghjkmnpqrstuvwxyz")
    names = [f"c{c:02d}" + "".join(rng.choice(letters, 5))
             for c in range(TABLE_CONTENTS)]
    keys = [(names[c], f"{names[c]}.ply", f"{names[c]}_d{d}.ply")
            for c, d in zip(content, level)]
    with open(os.path.join(out_dir, "features.csv"), "w",
              newline="") as stream:
        stream.write("# schema_version=1 config_hash=perfbench\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["group_id", "ref_path", "dist_path", "mos",
                         "mos_std", "codec", "rate"] + list(FEATURE_COLUMNS))
        for i, (group, ref, dist) in enumerate(keys):
            writer.writerow([group, ref, dist, repr(float(mos[i])),
                             repr(float(mos_std[i])), "synthetic", ""]
                            + [repr(float(feats[c][i]))
                               for c in FEATURE_COLUMNS])
    with open(os.path.join(out_dir, "manifest.csv"), "w",
              newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["group_id", "ref_path", "dist_path", "mos",
                         "mos_std"])
        for i, (group, ref, dist) in enumerate(keys):
            writer.writerow([group, ref, dist, repr(float(mos[i])),
                             repr(float(mos_std[i]))])
    for column in SINGLE_SCORE_COLUMNS:
        with open(os.path.join(out_dir, f"scores_{column}.csv"), "w",
                  newline="") as stream:
            stream.write(f"# schema_version=1 model={column} "
                         "config_hash=perfbench\n")
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(["group_id", "ref_path", "dist_path", "score"])
            for i, (group, ref, dist) in enumerate(keys):
                writer.writerow([group, ref, dist,
                                 repr(float(feats[column][i]))])
    meta = {"workload": "fit_eval", "variant": variant, "rows": len(keys),
            "contents": TABLE_CONTENTS, "distortions": TABLE_DISTORTIONS,
            "score_columns": list(SINGLE_SCORE_COLUMNS)}
    _write_json(os.path.join(out_dir, "meta.json"), meta)
    return meta


MAKERS = {"pair_single": make_pair, "extract_manifest": make_manifest,
          "fit_eval": make_table}
