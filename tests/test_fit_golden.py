"""Frozen outputs of the fitting commands on a seeded feature table.

tests/data/fit_golden/ holds what `train`, `predict`, `crossval`, `rfe`
and `evaluate` write for the ridge model (fsm) and an SVR model
(model1) on the table made by `fit_inputs`. A refactor of the fitting
side must reproduce every file byte for byte. To refreeze after a
deliberate change (and say why in CHANGES.md):

    PYTHONPATH=src:tests python tests/test_fit_golden.py --freeze
"""

import os
import sys
import tempfile

import numpy as np
import pytest

from pcqkit import cli
from pcqkit.pipeline import (FEATURE_COLUMNS, FeatureTable, ManifestRow,
                             write_features_csv)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "fit_golden")

# output file -> cli argv, run in this order inside one directory
COMMANDS = (
    ("model_fsm.json", ["train", "--model", "fsm", "--seed", "4"]),
    ("model_model1.json", ["train", "--model", "model1"]),
    ("scores_fsm.csv", ["predict", "--model", "model_fsm.json"]),
    ("scores_model1.csv", ["predict", "--model", "model_model1.json"]),
    ("crossval_fsm.json", ["crossval", "--model", "fsm", "--folds", "4"]),
    ("crossval_model1.json", ["crossval", "--model", "model1", "--seed",
                              "2"]),
    ("rfe_ridge.json", ["rfe", "--estimator", "ridge"]),
    ("rfe_svr.json", ["rfe", "--estimator", "svr", "--step", "3",
                      "--seed", "1"]),
    ("evaluate.json", ["evaluate", "--scores", "scores_fsm.csv",
                       "--scores", "scores_model1.csv",
                       "--manifest", "manifest.csv"]),
)


def fit_inputs(directory):
    """Write features.csv and manifest.csv: 12 contents x 5 distortions.

    Every feature is a noisy monotone function of a latent quality, and
    MOS a logistic of it, with a per-row MOS deviation.
    """
    rng = np.random.default_rng(2024)
    n_groups, n_levels = 12, 5
    n = n_groups * n_levels
    latent = rng.uniform(-2.0, 2.0, size=n)
    slopes = rng.uniform(-3.0, 3.0, size=len(FEATURE_COLUMNS))
    noise = rng.uniform(0.05, 1.5, size=len(FEATURE_COLUMNS))
    values = (np.tanh(latent[:, None]) * slopes
              + noise * rng.normal(size=(n, len(FEATURE_COLUMNS))))
    mos = 1.0 + 4.0 / (1.0 + np.exp(-1.5 * latent)) + 0.2 * rng.normal(size=n)
    mos_std = rng.uniform(0.2, 0.6, size=n)
    rows = [ManifestRow(f"g{i // n_levels}", f"ref{i // n_levels}.ply",
                        f"d{i}.ply", float(mos[i]), float(mos_std[i]))
            for i in range(n)]
    write_features_csv(FeatureTable(rows, FEATURE_COLUMNS, values,
                                    "f17e5ca1ab1e"),
                       os.path.join(directory, "features.csv"))
    with open(os.path.join(directory, "manifest.csv"), "w") as stream:
        stream.write("group_id,ref_path,dist_path,mos,mos_std\n")
        for row in rows:
            stream.write(f"{row.group_id},{row.ref_path},{row.dist_path},"
                         f"{row.mos!r},{row.mos_std!r}\n")


def run_commands(directory):
    """Run COMMANDS in directory; returns {output file: bytes}."""
    fit_inputs(directory)
    outputs = {}
    for name, argv in COMMANDS:
        argv = [os.path.join(directory, a) if a.endswith((".json", ".csv"))
                else a for a in argv]
        if argv[0] != "evaluate":
            argv += ["--features", os.path.join(directory, "features.csv")]
        code = cli.main(argv + ["--out", os.path.join(directory, name)])
        assert code == 0, (name, code)
        with open(os.path.join(directory, name), "rb") as stream:
            outputs[name] = stream.read()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_commands(str(tmp_path_factory.mktemp("fit")))


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_fit_output_matches_golden(outputs, name):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as stream:
        assert outputs[name] == stream.read()


def _freeze():
    with tempfile.TemporaryDirectory() as work:
        frozen = run_commands(work)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, data in frozen.items():
        with open(os.path.join(GOLDEN_DIR, name), "wb") as stream:
            stream.write(data)


if __name__ == "__main__" and sys.argv[1:] == ["--freeze"]:
    _freeze()
