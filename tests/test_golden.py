"""Frozen feature values for a fixed set of synthetic pairs.

tests/data/golden_features.csv holds the 23 fusion features of every
pair below, written as repr floats. A refactor that is meant to keep
feature values must reproduce each of them exactly. To refreeze after a
deliberate value change (and say why in CHANGES.md):

    PYTHONPATH=src:tests python tests/test_golden.py --freeze
"""

import csv
import os
import sys

import numpy as np
import pytest

from pcqkit.cloud import PointCloud
from pcqkit.pipeline import (FEATURE_COLUMNS, ReferenceContext,
                             compute_pair_metrics, feature_vector)

from conftest import jitter, random_cloud, surface_cloud

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_features.csv")


def downsample(cloud: PointCloud, keep: float, seed: int) -> PointCloud:
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(len(cloud), int(keep * len(cloud)),
                              replace=False))
    return PointCloud(cloud.positions[rows], colors=cloud.colors[rows],
                      bit_depth=cloud.bit_depth)


def quantize(cloud: PointCloud, step: float) -> PointCloud:
    """Snap to a coarse grid, keeping every point: several per voxel."""
    return PointCloud(np.round(cloud.positions / step) * step,
                      colors=cloud.colors, bit_depth=cloud.bit_depth)


def golden_references():
    """name -> reference cloud (400-600 points each)."""
    return {
        "sheet_a": surface_cloud(500, seed=21),
        "sheet_b": surface_cloud(420, seed=22),
        "sheet_c": surface_cloud(580, seed=23, span=300.0),
        "blob": random_cloud(450, seed=24, span=255.0),
    }


def golden_distortions(ref: PointCloud, seed: int):
    """(name, distorted cloud) pairs for one reference."""
    return [
        ("jitter", jitter(ref, 1.0, seed=seed)),
        ("color", jitter(ref, 0.0, seed=seed + 1, color_sigma=8.0)),
        ("both", jitter(ref, 2.5, seed=seed + 2, color_sigma=4.0)),
        ("down60", downsample(ref, 0.6, seed=seed + 3)),
        ("quant", quantize(ref, 24.0)),
    ]


def golden_pairs():
    """(pair id, ref, dist) for every golden pair, in file order."""
    for r, (name, ref) in enumerate(golden_references().items()):
        for kind, dist in golden_distortions(ref, seed=100 + 10 * r):
            yield f"{name}/{kind}", ref, dist


def _read_golden():
    with open(GOLDEN_PATH, newline="") as stream:
        reader = csv.reader(stream)
        header = next(reader)
        assert tuple(header[1:]) == FEATURE_COLUMNS
        return {row[0]: row[1:] for row in reader}


@pytest.mark.parametrize("shared", [False, True],
                         ids=["own_context", "shared_context"])
def test_features_match_golden_table(shared):
    golden = _read_golden()
    pairs = list(golden_pairs())
    assert sorted(golden) == sorted(pid for pid, _, _ in pairs)
    contexts = {}
    mismatches = []
    for pid, ref, dist in pairs:
        reference = None
        if shared:
            if id(ref) not in contexts:
                contexts[id(ref)] = ReferenceContext.build(ref)
            reference = contexts[id(ref)]
        metrics = compute_pair_metrics(ref, dist, None, reference)
        got = [repr(float(v)) for v in feature_vector(metrics, None)]
        for name, want, have in zip(FEATURE_COLUMNS, golden[pid], got):
            if want != have:
                mismatches.append(f"{pid} {name}: {want} != {have}")
    assert not mismatches, "\n".join(mismatches)


def _freeze():
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(("pair",) + FEATURE_COLUMNS)
        for pid, ref, dist in golden_pairs():
            row = feature_vector(compute_pair_metrics(ref, dist))
            writer.writerow([pid] + [repr(float(v)) for v in row])


if __name__ == "__main__" and sys.argv[1:] == ["--freeze"]:
    _freeze()
