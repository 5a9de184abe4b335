"""Benchmarking objective scores against subjective ones.

Raw metric outputs live on arbitrary scales, so each metric is passed
through a fitted four-parameter logistic before computing accuracy
statistics:

    f(x) = b1 + (b2 - b1) / (1 + exp(-b3 (x - b4)))

The fit minimizes squared error by variable projection (Golub & Pereyra,
1973): for fixed (b3, b4) the curve is linear in (b1, b2), which then
come from a two-column least squares. The starts are the best local
minima of a fixed grid over (b3, b4), the best single step (the
b3 -> inf limit, found exactly) and a near-linear surrogate (tiny slope
around the score mean); each is polished by least squares over (b3, b4).
The surrogate guarantees the fitted curve is never worse than the best
straight line (to within about 1e-9 of the MOS range per point, the
precision at which a logistic can draw a line); monotone metrics cannot
be punished by the nonlinearity.
Reported statistics: Pearson correlation of the fitted scores, Spearman
rank correlation of the raw scores, RMSE, and the outlier ratio against
twice the per-stimulus MOS deviation (falling back to twice the RMSE
when deviations are not available).
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateInput
from .validation import check_paired

__all__ = ["logistic", "fit_logistic", "LogisticFit", "pearson", "spearman",
           "error_stats", "MetricReport", "evaluate", "EvaluationReport"]


def logistic(x, beta):
    b1, b2, b3, b4 = beta
    z = np.clip(b3 * (np.asarray(x, dtype=np.float64) - b4), -500.0, 500.0)
    return b1 + (b2 - b1) / (1.0 + np.exp(-z))


def pearson_rows(rows, y) -> np.ndarray:
    """(m,) Pearson correlation of each row of the (m, n) rows with the
    (n,) y; a row or a y of std 0 scores 0.0."""
    std, y_std = rows.std(axis=1), y.std()
    centered = rows - rows.mean(axis=1, keepdims=True)
    return np.divide((centered * (y - y.mean())).mean(axis=1), std * y_std,
                     out=np.zeros(len(rows)),
                     where=(std != 0.0) & (y_std != 0.0))


def pearson(x, y) -> float:
    x, y = check_paired(x, y, ndim=1)
    if x.std() == 0.0 or y.std() == 0.0:
        raise DegenerateInput("correlation of a constant sequence")
    return float(pearson_rows(x[None], y)[0])


def _rank_average(x) -> np.ndarray:
    """Ranks starting at 1, ties sharing their average rank."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=np.float64),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def spearman(x, y) -> float:
    return pearson(_rank_average(x), _rank_average(y))


@dataclass(frozen=True)
class LogisticFit:
    beta: np.ndarray
    rmse: float

    def __call__(self, x):
        return logistic(x, self.beta)


# the (b3, b4) grid, in units of the score span: slopes b3 * span, and
# centres (b4 - min score) / span reaching two spans past either end,
# since near-linear optima put b4 far outside the scores
_SLOPES = np.geomspace(0.01, 1000.0, 41)
_CENTERS = np.linspace(-2.0, 3.0, 81)
# the best local minima of the grid that are polished
_GRID_STARTS = 3
# The polish keeps b3 * span in [1e-4, e^50]. Near-linear data can have
# its infimum at b3 -> 0, where b2 - b1 grows as 1 / b3 and the curve
# can no longer be evaluated, or projected onto, to full precision; and
# exp(50) / span stays finite. 1e-4 is also the near-linear start's slope.
_LINEAR_SLOPE = 1e-4
_MAX_LOG_SLOPE = 50.0
# a start on the best single step saturates the scores on either side of
# it to within 1.6e-8 of the step: z = +-18 there
_STEP_Z = 18.0


def _project(x, y, b3, b4):
    """(b1, b2, b3, b4) with the least-squares (b1, b2), and its residual."""
    s = logistic(x, (0.0, 1.0, b3, b4))
    s_mean, y_mean = float(s.mean()), float(y.mean())
    sc, yc = s - s_mean, y - y_mean
    den = float(sc @ sc)
    rise = float(sc @ yc) / den if den > 0.0 else 0.0
    b1 = y_mean - rise * s_mean
    return np.array([b1, b1 + rise, b3, b4]), yc - rise * sc


def _grid_starts(x, y, lo, span):
    """(b3, b4) of the best local minima of the projected SSE on the grid.

    The grid is walked one slope at a time, so memory stays at one row of
    centres by the number of scores.
    """
    yc = y - y.mean()
    centers = lo + span * _CENTERS
    rows = []
    for slope in _SLOPES:
        # tanh(z / 2) = 2 logistic(z) - 1 spans the same columns with 1
        t = np.tanh((0.5 * slope / span) * (x - centers[:, None]))
        t -= t.mean(axis=1, keepdims=True)
        den = np.einsum("ij,ij->i", t, t)
        num = t @ yc
        # SSE = yc @ yc - num^2 / den, so the largest gain is the least SSE
        rows.append(np.divide(num * num, den, out=np.zeros_like(den),
                              where=den > 0.0))
    gain = np.array(rows)
    # a local minimum has no larger gain among its eight neighbours
    around = np.pad(gain, 1, constant_values=-np.inf)
    peak = np.ones(gain.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            peak &= gain >= around[di:di + gain.shape[0],
                                   dj:dj + gain.shape[1]]
    flat = np.flatnonzero(peak)
    flat = flat[np.argsort(-gain.ravel()[flat], kind="stable")]
    i, j = np.unravel_index(flat[:_GRID_STARTS], gain.shape)
    return [(float(_SLOPES[a]) / span, float(centers[b]))
            for a, b in zip(i, j)]


def _step_start(x, y):
    """(b3, b4) near the best single step between two distinct scores.

    As b3 grows the logistic tends to a step at b4, and the best step
    follows from cumulative sums over the sorted scores; on scores that
    carry no information this limit is where the optimum lies.
    """
    order = np.argsort(x, kind="stable")
    xs, yc = x[order], y[order] - y.mean()
    n = len(xs)
    left = np.arange(1, n)
    head = np.cumsum(yc)[:-1]
    # SSE of the two-level fit = yc @ yc - gain
    gain = head * head / left + head * head / (n - left)
    gain[xs[1:] == xs[:-1]] = -1.0
    j = int(np.argmax(gain))
    gap = float(xs[j + 1] - xs[j])
    return 2.0 * _STEP_Z / gap, 0.5 * float(xs[j] + xs[j + 1])


def _polish(x, y, b3, b4, lo, span):
    """Least squares over (log(b3 * span), (b4 - lo) / span), with b1 and
    b2 projected out at every step."""
    from scipy.optimize import least_squares    # only a fit pays its import
    low, high = np.log(_LINEAR_SLOPE), _MAX_LOG_SLOPE

    def unpack(p):
        return np.exp(np.clip(p[0], low, high)) / span, lo + span * p[1]

    def residual(p):
        return _project(x, y, *unpack(p))[1]

    p0 = [np.clip(np.log(b3 * span), low, high), (b4 - lo) / span]
    res = least_squares(residual, p0, method="lm", xtol=1e-15, ftol=1e-15,
                        gtol=1e-15, max_nfev=100)
    return _project(x, y, *unpack(res.x))[0]


def fit_logistic(scores, mos) -> LogisticFit:
    """Least-squares four-parameter logistic by variable projection.

    Deterministic: the same input gives the same beta bit for bit. The
    returned beta has b3 > 0; a decreasing relation has b1 > b2.
    """
    x, y = check_paired(scores, mos, ndim=1)
    if len(x) < 5:
        raise DegenerateInput(
            f"{len(x)} points cannot constrain a 4-parameter fit")
    lo = float(x.min())
    span = float(x.max()) - lo
    if span == 0.0:
        raise DegenerateInput("scores are constant")

    # near-linear surrogate: a logistic is locally linear around b4 with
    # slope b3 (b2 - b1) / 4, so a tiny b3 with projected (b1, b2)
    # reproduces the best straight line to within O(b3^2 span^2)
    starts = _grid_starts(x, y, lo, span) + [
        _step_start(x, y), (_LINEAR_SLOPE / span, float(x.mean()))]
    best_beta, best_sse = None, np.inf
    for b3, b4 in starts:
        for beta in (_project(x, y, b3, b4)[0],
                     _polish(x, y, b3, b4, lo, span)):
            r = logistic(x, beta) - y
            sse = float(r @ r)
            if sse < best_sse:
                best_beta, best_sse = beta, sse
    return LogisticFit(best_beta, float(np.sqrt(best_sse / len(x))))


def error_stats(predicted, mos, mos_std=None):
    """(rmse, outlier_ratio, used_fallback_threshold).

    A row is an outlier when |error| exceeds twice its MOS standard
    deviation; without per-row deviations the threshold falls back to
    twice the RMSE and the flag is set.
    """
    predicted, mos = check_paired(predicted, mos, ndim=1)
    resid = predicted - mos
    rmse = float(np.sqrt(np.mean(resid * resid)))
    if mos_std is not None:
        threshold = 2.0 * check_paired(
            mos, mos_std, ndim=1, names=("mos", "mos_std"))[1]
        fallback = False
    else:
        threshold = 2.0 * rmse
        fallback = True
    ratio = float(np.mean(np.abs(resid) > threshold))
    return rmse, ratio, fallback


@dataclass(frozen=True)
class MetricReport:
    name: str
    pcc: float
    srocc: float
    rmse: float
    outlier_ratio: float
    or_fallback: bool
    beta: tuple
    n: int


@dataclass(frozen=True)
class EvaluationReport:
    metrics: list                      # MetricReport, input order
    mos_min: float
    mos_max: float

    def as_dict(self):
        return asdict(self)

    def table(self) -> str:
        width = max([len(m.name) for m in self.metrics] + [6])
        lines = [f"{'metric':<{width}}  {'PCC':>7}  {'SROCC':>7}  "
                 f"{'RMSE':>7}  {'OR':>6}"]
        for m in self.metrics:
            flag = "*" if m.or_fallback else " "
            lines.append(f"{m.name:<{width}}  {m.pcc:>7.4f}  "
                         f"{m.srocc:>7.4f}  {m.rmse:>7.4f}  "
                         f"{m.outlier_ratio:>5.3f}{flag}")
        if any(m.or_fallback for m in self.metrics):
            lines.append("* outlier threshold fell back to 2 RMSE "
                         "(no per-row MOS deviation)")
        return "\n".join(lines) + "\n"


def evaluate(named_scores, mos, mos_std=None) -> EvaluationReport:
    """Benchmark metrics against MOS.

    named_scores is a sequence of (name, scores) pairs. MOS (and its
    deviations) are scaled to [0, 1] before fitting so that RMSE and
    outlier figures are comparable across datasets.
    """
    mos = np.asarray(mos, dtype=np.float64)
    mos_lo, mos_hi = float(mos.min()), float(mos.max())
    if mos_hi == mos_lo:
        raise DegenerateInput("MOS values are constant")
    y = (mos - mos_lo) / (mos_hi - mos_lo)
    std = (None if mos_std is None
           else np.asarray(mos_std, dtype=np.float64) / (mos_hi - mos_lo))
    reports = []
    for name, scores in named_scores:
        fit = fit_logistic(scores, y)
        fitted = fit(np.asarray(scores, dtype=np.float64))
        pcc = pearson(fitted, y)
        srocc = spearman(scores, y)
        rmse, ratio, fallback = error_stats(fitted, y, std)
        reports.append(MetricReport(
            name=name, pcc=pcc, srocc=srocc, rmse=rmse,
            outlier_ratio=ratio, or_fallback=fallback,
            beta=tuple(float(b) for b in fit.beta), n=len(fitted)))
    return EvaluationReport(reports, mos_lo, mos_hi)
