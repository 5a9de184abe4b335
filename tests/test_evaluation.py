import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from pcqkit.errors import DegenerateInput, InvalidCloud
from pcqkit.evaluation import (_rank_average, error_stats, evaluate,
                               fit_logistic, logistic, pearson, pearson_rows,
                               spearman)


# ---------------------------------------------------------------------------
# correlation statistics

def test_pearson_hand_value():
    # x = 1,2,3  y = 1,3,2: cov = 1/3, sx = sqrt(2/3), sy = sqrt(2/3)
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_hand_value_and_ties():
    assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)
    # tied inputs share the average rank: x ranks 1.5, 1.5, 3
    assert spearman([5, 5, 9], [1, 2, 3]) == pytest.approx(
        np.sqrt(3.0) / 2.0, abs=1e-12)
    # heavy ties, -0.0 among them: the average ranks are exact
    x = np.random.default_rng(2).integers(-4, 5, 500) * 0.25
    x[::7] = -0.0
    assert np.array_equal(_rank_average(x), rankdata(x, method="average"))


def test_correlation_degenerate_input():
    with pytest.raises(DegenerateInput):
        pearson([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        spearman([1, 2, 3], [4.0, 4.0, 4.0])


def test_pearson_refuses_what_is_not_one_vector_per_side():
    # a (5, 2) x was flattened to the 10 values of y and read 1.0
    with pytest.raises(InvalidCloud, match="X: expected 1-d"):
        pearson(np.arange(10.0).reshape(5, 2), np.arange(10.0))
    with pytest.raises(InvalidCloud, match="X has 3 rows but y has 2"):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_spearman_refuses_what_is_not_one_vector_per_side():
    with pytest.raises(InvalidCloud, match="X: expected 1-d"):
        spearman(np.arange(10.0).reshape(5, 2), np.arange(10.0))
    with pytest.raises(InvalidCloud, match="y: expected 1-d"):
        spearman(np.arange(10.0), np.arange(10.0).reshape(5, 2))


def test_pearson_rows_equal_pearson_bit_for_bit():
    rng = np.random.default_rng(6)
    rows, y = rng.normal(3.0, 2.0, size=(40, 25)), rng.normal(size=25)
    rows[7] = 1.5     # std 0 scores 0.0, where pearson raises
    want = [0.0 if i == 7 else pearson(row, y) for i, row in enumerate(rows)]
    assert pearson_rows(rows, y).tobytes() == np.array(want).tobytes()


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    base = spearman(x, y)
    for transform in (np.exp, np.tanh, lambda v: v ** 3, lambda v: 5 * v + 2):
        assert spearman(transform(x), y) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# logistic fitting

def test_logistic_fit_refuses_a_score_matrix():
    with pytest.raises(InvalidCloud, match="X: expected 1-d"):
        fit_logistic(np.arange(20.0).reshape(10, 2), np.arange(20.0))


def test_logistic_self_recovery():
    beta = np.array([0.1, 0.9, 1.7, 0.4])
    x = np.linspace(-1.5, 2.5, 60)
    y = logistic(x, beta)
    fit = fit_logistic(x, y)
    assert fit.rmse < 1e-6
    assert np.allclose(fit.beta, beta, atol=1e-3)
    assert np.allclose(fit(x), y, atol=1e-6)
    assert np.array_equal(fit_logistic(x, y).beta, fit.beta)


def test_logistic_matches_best_line_on_linear_data():
    # the near-linear surrogate start guarantees the fit never loses to
    # ordinary least squares on straight-line data
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 10, size=40)
    y = 0.31 * x + 1.2
    fit = fit_logistic(x, y)
    assert fit.rmse <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(5, 80),
       slope=st.floats(-10.0, 10.0), noise=st.sampled_from(
           [0.0, 1e-9, 1e-4, 0.05, 1.0, 100.0]))
def test_logistic_never_worse_than_best_line(data, n, slope, noise):
    # A logistic draws a line only in the limit b3 -> 0, where b2 - b1
    # grows as 1 / b3: evaluating the curve, and projecting onto it, then
    # lose digits, so that near the line the fit is known to about 1e-9
    # of the MOS range per point. The bound allows 1e-8 of it per point
    # on top. Scores are multiples of 1/64, so np.polyfit stays exact.
    x = data.draw(arrays(np.int64, n, elements=st.integers(-6400, 6400)))
    x = x / 64.0
    e = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    if np.ptp(x) == 0.0:
        return  # constant scores are rejected, as tested below
    y = 0.5 + slope * x + noise * e
    fit = fit_logistic(x, y)
    line = np.polyval(np.polyfit(x, y, 1), x) - y
    line_sse = float(line @ line)
    floor = n * (1e-8 * np.ptp(y)) ** 2
    assert fit.rmse ** 2 * n <= line_sse * (1.0 + 1e-9) + 1e-24 + floor


def test_logistic_beats_line_on_noisy_data():
    rng = np.random.default_rng(3)
    x = np.linspace(0, 1, 80)
    y = logistic(x, np.array([0.0, 1.0, 12.0, 0.5])) + \
        0.02 * rng.normal(size=80)
    fit = fit_logistic(x, y)
    slope, icept = np.polyfit(x, y, 1)
    line_rmse = float(np.sqrt(np.mean((slope * x + icept - y) ** 2)))
    assert fit.rmse < line_rmse


def test_logistic_handles_decreasing_metric():
    x = np.linspace(0, 1, 30)
    y = logistic(x, np.array([0.9, 0.1, 6.0, 0.5]))  # high score = low MOS
    fit = fit_logistic(x, y)
    assert fit.rmse < 1e-6
    # one canonical form: b3 >= 0, and a decreasing curve has b1 > b2
    assert np.allclose(fit.beta, [0.9, 0.1, 6.0, 0.5], atol=1e-3)


def test_logistic_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        fit_logistic([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])  # < 5 rows
    with pytest.raises(DegenerateInput):
        fit_logistic(np.ones(8), np.linspace(0, 1, 8))  # constant scores


def test_logistic_fit_memory_is_bounded():
    # the (b3, b4) grid is walked in blocks; a dense grid by 200 scores
    # alone would take over 5 MB
    rng = np.random.default_rng(6)
    x = rng.uniform(size=200)
    y = x + 0.1 * rng.normal(size=200)
    fit_logistic(x, y)
    tracemalloc.start()
    try:
        fit_logistic(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_logistic_extreme_arguments_do_not_overflow():
    beta = np.array([0.0, 1.0, 50.0, 0.0])
    values = logistic(np.array([-1e6, 1e6]), beta)
    assert np.all(np.isfinite(values))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# error statistics

def test_error_stats_hand_values():
    rmse, ratio, fallback = error_stats(
        [1.0, 2.0, 4.0], [1.0, 2.0, 3.0], mos_std=[0.3, 0.3, 0.3])
    assert rmse == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-12)
    assert ratio == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert fallback is False


def test_error_stats_refuses_unpaired_inputs():
    # a one-entry mos_std was broadcast over every row; three entries
    # against five rows failed inside numpy
    pred, mos = np.arange(5.0), np.arange(5.0) + 0.5
    for std in ([0.3], [0.3, 0.3, 0.3]):
        with pytest.raises(InvalidCloud, match="mos_std has"):
            error_stats(pred, mos, mos_std=std)
    with pytest.raises(InvalidCloud, match="X: expected 1-d"):
        error_stats(np.arange(10.0).reshape(5, 2), np.arange(10.0))


def test_error_stats_fallback_threshold():
    rng = np.random.default_rng(4)
    y = rng.normal(size=200)
    pred = y + rng.normal(size=200)
    rmse, ratio, fallback = error_stats(pred, y)
    assert fallback is True
    resid = np.abs(pred - y)
    assert ratio == pytest.approx(np.mean(resid > 2.0 * rmse), abs=1e-12)


# ---------------------------------------------------------------------------
# full report

def test_evaluate_normalizes_and_reports():
    rng = np.random.default_rng(5)
    x = np.linspace(0, 1, 40)
    mos = 1.0 + 4.0 * logistic(x, np.array([0.0, 1.0, 8.0, 0.5]))
    noisy = x + 0.01 * rng.normal(size=40)
    report = evaluate([("good", x), ("noisy", noisy)], mos,
                      mos_std=np.full(40, 0.2))
    assert report.mos_min == pytest.approx(float(mos.min()))
    assert report.mos_max == pytest.approx(float(mos.max()))
    good, noisy_report = report.metrics
    assert good.name == "good"
    assert good.pcc > 0.9999 and good.srocc == pytest.approx(1.0)
    assert good.rmse < 1e-6
    assert noisy_report.pcc < good.pcc + 1e-12
    assert not good.or_fallback

    payload = json.loads(json.dumps(report.as_dict()))
    assert [m["name"] for m in payload["metrics"]] == ["good", "noisy"]
    table = report.table()
    assert "PCC" in table and "good" in table


def test_evaluate_fallback_note_in_table():
    x = np.linspace(0, 1, 20)
    mos = 1.0 + 3.0 * x
    report = evaluate([("m", x)], mos)
    assert report.metrics[0].or_fallback
    assert "2 RMSE" in report.table()


def test_evaluate_constant_mos_rejected():
    with pytest.raises(DegenerateInput):
        evaluate([("m", np.linspace(0, 1, 10))], np.full(10, 3.0))
