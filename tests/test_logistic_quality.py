"""Frozen fit quality of the MOS logistic on seeded synthetic inputs.

tests/data/logistic_rmse.csv holds, for every case below, the RMSE that
the earlier search (22 Nelder-Mead restarts plus a final polish) reached.
Each fit must be at least as good, so a new search cannot trade accuracy
for speed unnoticed. The cases cover the three shapes that decide where
a search must look: noisy MOS-like monotone relations, near-linear data
whose optimum puts b4 far outside the score range, and pure-noise
columns whose best fit is a steep step. To refreeze after a deliberate
change (and say why in CHANGES.md):

    PYTHONPATH=src python tests/test_logistic_quality.py --freeze
"""

import csv
import os
import sys

import numpy as np
import pytest

from pcqkit.evaluation import fit_logistic

TABLE_PATH = os.path.join(os.path.dirname(__file__), "data",
                          "logistic_rmse.csv")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def logistic_cases():
    """(case id, scores, mos) for every frozen case, in file order."""
    cases = []
    # MOS-like: a saturating relation with rating noise, increasing or
    # decreasing, on PSNR-like, unit and tiny score scales
    scales = ((40.0, 60.0), (0.0, 1.0), (0.0, 0.01), (-3.0, 3.0))
    for i in range(8):
        rng = np.random.default_rng([7, i])
        n = int(rng.integers(30, 121))
        lo, hi = scales[i % 4]
        x = rng.uniform(lo, hi, n)
        slope = rng.uniform(3.0, 12.0) / (hi - lo) * (-1.0 if i % 3 == 2
                                                      else 1.0)
        center = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        mos = 1.0 + 4.0 * _sigmoid(slope * (x - center))
        mos += rng.normal(0.0, 0.1 + 0.05 * i, n)
        cases.append((f"mos/{i}", x, (mos - mos.min()) / np.ptp(mos)))
    # near-linear: gentle curvature, so the best logistic is a long way
    # from its midpoint and b4 falls far outside [min x, max x]
    for i in range(6):
        rng = np.random.default_rng([8, i])
        n = int(rng.integers(20, 81))
        x = rng.uniform(40.0, 60.0, n)
        u = (x - 40.0) / 20.0
        bend = (0.01 + 0.005 * i) * (1.0 if i % 2 else -1.0)
        mos = 0.2 + 0.6 * u + bend * u * u
        mos += rng.normal(0.0, 0.001 + 0.001 * i, n)
        cases.append((f"linear/{i}", x, mos))
    # pure noise: the scores carry no information about MOS
    for i in range(6):
        rng = np.random.default_rng([9, i])
        n = int(rng.integers(10, 81))
        x = rng.normal(0.0, 10.0 ** (i % 3 - 1), n)
        cases.append((f"noise/{i}", x, rng.uniform(0.0, 1.0, n)))
    return cases


def _read_table():
    with open(TABLE_PATH, newline="") as stream:
        reader = csv.reader(stream)
        assert next(reader) == ["case", "n", "rmse"]
        return {row[0]: (int(row[1]), float(row[2])) for row in reader}


_CASES = logistic_cases()


@pytest.mark.parametrize("case", _CASES, ids=[c[0] for c in _CASES])
def test_fit_is_no_worse_than_frozen(case):
    name, x, y = case
    n, frozen = _read_table()[name]
    assert n == len(x)
    fit = fit_logistic(x, y)
    assert fit.rmse <= frozen * (1.0 + 1e-6), (fit.rmse, frozen)


def _freeze():
    with open(TABLE_PATH, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["case", "n", "rmse"])
        for name, x, y in _CASES:
            writer.writerow([name, len(x), repr(fit_logistic(x, y).rmse)])


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python tests/test_logistic_quality.py --freeze")
    _freeze()
