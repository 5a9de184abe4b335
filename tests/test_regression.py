import json

import numpy as np
import pytest

from pcqkit import regression
from pcqkit.errors import (DegenerateInput, InvalidCloud,
                           MissingFeatureColumn, NonConvergence,
                           SingularSystem, TooFewGroups, UnknownModel)
from pcqkit.evaluation import pearson
from pcqkit.pipeline import FEATURE_COLUMNS, FeatureTable, ManifestRow
from pcqkit.regression import (MODEL_REGISTRY, FusionModel, MinMaxScaler,
                               RbfSvr, RidgeRegression, group_kfold,
                               make_model, rbf_kernel, rfe_rank,
                               svr_dual_objective)
from pcqkit.validation import check_matrix_2d


# ---------------------------------------------------------------------------
# scaling

def test_scaler_maps_to_unit_box_and_clamps():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 5)) * 7 + 3
    scaler = MinMaxScaler()
    scaled = scaler.fit_transform(X)
    assert scaled.min() == 0.0 and scaled.max() == 1.0
    out = scaler.transform(X + 100.0)
    assert np.all(out <= 1.0) and np.all(out >= 0.0)
    with pytest.raises(ValueError):
        scaler.transform(X[:, :3])


def test_scaler_flags_constant_columns():
    X = np.column_stack([np.arange(6.0), np.full(6, 4.2)])
    scaler = MinMaxScaler()
    scaled = scaler.fit_transform(X)
    assert np.all(scaled[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# ridge

def test_ridge_hand_value():
    # x = 1,2,3  y = 2x  alpha = 1: centered normal equation gives
    # slope = 2*Var/(Var + alpha/n) with Var = 2/3 -> 4/3
    model = RidgeRegression(alpha=1.0).fit([[1.0], [2.0], [3.0]],
                                           [2.0, 4.0, 6.0])
    assert model.coef_[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert model.intercept_ == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert model.predict([[3.0]])[0] == pytest.approx(16.0 / 3.0, abs=1e-12)


def _cg_solve(A, b, iters=8000, tol=1e-14):
    # conjugate gradient on an SPD system, independent of np.linalg.solve
    x = np.zeros_like(b)
    r = b - A @ x
    p = r.copy()
    rs = r @ r
    for _ in range(iters):
        Ap = A @ p
        alpha = rs / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = r @ r
        if np.sqrt(rs_new) < tol * (1.0 + np.linalg.norm(b)):
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def test_ridge_matches_iterative_solver():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(1, 24))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        alpha = float(rng.uniform(0.05, 10.0))
        model = RidgeRegression(alpha=alpha).fit(X, y)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
        w = _cg_solve(Xc.T @ Xc + alpha * np.eye(p), Xc.T @ yc)
        worst = max(worst,
                    float(np.max(np.abs(model.coef_ - w))),
                    abs(model.intercept_ - (y.mean() - X.mean(0) @ w)))
    assert worst < 1e-6


@pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf"), True,
                                   "2"])
def test_ridge_refuses_out_of_range_alpha(alpha):
    with pytest.raises(ValueError, match="^alpha must be finite and >= 0"):
        RidgeRegression(alpha=alpha).fit([[1.0], [2.0], [3.0]],
                                         [2.0, 4.0, 6.0])


def test_ridge_singular_without_regularization():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # duplicate direction
    with pytest.raises(SingularSystem):
        RidgeRegression(alpha=0.0).fit(X, [1.0, 2.0, 3.0])
    RidgeRegression(alpha=1e-6).fit(X, [1.0, 2.0, 3.0])  # regularized is fine


# ---------------------------------------------------------------------------
# support vector regression

def _svr_problem(rng, n=30, p=3):
    X = rng.normal(size=(n, p))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.normal(size=n)
    return X, y


def _kkt_violation(model, X, y):
    """Largest primal optimality violation over the training set."""
    beta = model._beta_full
    C, eps = model.C, model.epsilon
    f = model.predict(X)
    worst = 0.0
    for i in range(len(y)):
        r = y[i] - f[i]
        b = beta[i]
        if b == 0.0:
            worst = max(worst, abs(r) - eps)
        elif b >= C:
            worst = max(worst, eps - r)
        elif b <= -C:
            worst = max(worst, eps + r)
        elif b > 0.0:
            worst = max(worst, abs(r - eps))
        else:
            worst = max(worst, abs(r + eps))
    return worst


def test_svr_satisfies_kkt_conditions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X, y = _svr_problem(rng)
        model = RbfSvr(C=2.0, epsilon=0.05).fit(X, y)
        assert _kkt_violation(model, X, y) <= 1e-3
        assert model.gap_ <= model.tol


def test_svr_dual_dominates_random_feasible_points():
    rng = np.random.default_rng(4)
    X, y = _svr_problem(rng, n=25)
    model = RbfSvr(C=1.5, epsilon=0.05).fit(X, y)
    K = rbf_kernel(X, X, model.gamma_)
    best = svr_dual_objective(K, y, model.epsilon, model._beta_full)
    n = len(y)
    for _ in range(400):
        # random walk of feasible pair updates keeps sum(beta) exactly 0
        beta = np.zeros(n)
        for _ in range(60):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            lo = max(-model.C - beta[i], beta[j] - model.C)
            hi = min(model.C - beta[i], beta[j] + model.C)
            t = rng.uniform(lo, hi)
            beta[i] += t
            beta[j] -= t
        assert svr_dual_objective(K, y, model.epsilon, beta) <= best + 1e-9


def test_svr_gamma_scale():
    rng = np.random.default_rng(5)
    X, y = _svr_problem(rng)
    model = RbfSvr().fit(X, y)
    assert model.gamma_ == pytest.approx(1.0 / (X.shape[1] * X.var()))


def test_svr_no_support_vectors_predicts_intercept():
    X = np.arange(12.0).reshape(-1, 1)
    y = np.full(12, 3.0)
    model = RbfSvr(epsilon=10.0).fit(X, y)
    assert len(model.support_vectors_) == 0
    assert np.allclose(model.predict([[0.0], [99.0]]), model.intercept_)


# what RbfSvr.fit requires of each hyperparameter, as its error says it
_SVR_RANGES = {"C": "> 0", "epsilon": "finite and >= 0",
               "tol": "finite and > 0", "max_iter": "an integer >= 1"}


@pytest.mark.parametrize("param, value", [
    ("C", 0.0), ("C", -1.0), ("C", float("nan")),
    ("epsilon", -0.1), ("epsilon", float("nan")), ("epsilon", float("inf")),
    ("tol", 0.0), ("tol", -1e-3), ("tol", float("nan")),
    ("tol", float("inf")),
    ("max_iter", 2.7), ("max_iter", 5.0), ("max_iter", 0), ("max_iter", -3),
    ("max_iter", True),
    ("C", True), ("C", "10"), ("epsilon", False), ("tol", "0.01"),
])
def test_svr_refuses_out_of_range_hyperparameters(param, value):
    # refused before any step, so a bad tol does not run max_iter steps
    rng = np.random.default_rng(5)
    X, y = _svr_problem(rng, n=30)
    params = {"C": 1.0, "epsilon": 0.05} | {param: value}
    with pytest.raises(ValueError,
                       match=f"^{param} must be {_SVR_RANGES[param]}"):
        RbfSvr(**params).fit(X, y)


def test_svr_takes_a_numpy_integer_max_iter():
    rng = np.random.default_rng(5)
    X, y = _svr_problem(rng, n=30)
    a = RbfSvr(max_iter=np.int64(5000)).fit(X, y)
    b = RbfSvr(max_iter=5000).fit(X, y)
    assert np.array_equal(a._beta_full, b._beta_full)


def test_svr_nonconvergence():
    rng = np.random.default_rng(6)
    X, y = _svr_problem(rng, n=40)
    with pytest.raises(NonConvergence):
        RbfSvr(C=10.0, epsilon=0.001, max_iter=3).fit(X, y)


def _noisy_sine(n=40, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 1))
    return X, np.sin(3.0 * X[:, 0]) + rng.normal(0.0, 0.2, n)


def test_svr_with_infinite_c_says_why_it_did_not_converge():
    # noise of 0.2 against a tube of 0.01: no fit keeps every target in
    # the tube, so SMO only stops at max_iter
    X, y = _noisy_sine()
    with pytest.raises(NonConvergence, match="iterations") as caught:
        RbfSvr(C=float("inf"), epsilon=0.01, max_iter=50).fit(X, y)
    assert "with C = inf the epsilon-tube is hard" in str(caught.value)
    assert str(caught.value).endswith("try a finite C")


def test_svr_with_finite_c_keeps_the_plain_message():
    X, y = _noisy_sine()
    with pytest.raises(NonConvergence,
                       match=r"^SMO did not reach tol=0\.001 within 50 "
                             r"iterations \(gap [0-9.e+-]+\)$"):
        RbfSvr(C=10.0, epsilon=0.01, max_iter=50).fit(X, y)


def _smo_oracle(X, y, C=1.0, epsilon=0.1, tol=1e-3):
    """The SMO loop as first written, with fresh scores and masks each step.

    RbfSvr.fit keeps its buffers across steps and must reach the same bits.
    Returns beta, the intercept, the final gap and the number of steps.
    """
    n = X.shape[0]
    var = X.var()
    gamma = 1.0 / (X.shape[1] * var) if var > 0 else 1.0
    K = rbf_kernel(X, X, gamma)
    C, eps = float(C), float(epsilon)
    z = np.zeros(2 * n)
    alpha, alpha_s = z[:n], z[n:]
    beta = np.zeros(n)
    f_raw = np.zeros(n)
    steps = 0
    while True:
        score = np.concatenate([-(f_raw + eps - y), -f_raw + eps + y])
        up = np.concatenate([alpha < C, alpha_s > 0])
        low = np.concatenate([alpha > 0, alpha_s < C])
        up_score = np.where(up, score, -np.inf)
        low_score = np.where(low, score, np.inf)
        i, j = int(np.argmax(up_score)), int(np.argmin(low_score))
        m, big = up_score[i], low_score[j]
        gap = m - big
        if gap <= tol:
            return beta, float((m + big) / 2.0), float(gap), steps
        steps += 1
        ii, jj = i % n, j % n
        a = max(K[ii, ii] + K[jj, jj] - 2.0 * K[ii, jj], 1e-12)
        t = min(gap / a, C - z[i] if i < n else z[i],
                z[j] if j < n else C - z[j])
        z[i] += t if i < n else -t
        z[j] -= t if j < n else -t
        beta[ii] += t
        beta[jj] -= t
        f_raw += K[:, ii] * t - K[:, jj] * t


def _smo_problems():
    """(id, X, y, params) of seeded problems for the oracle comparison."""
    rng = np.random.default_rng(2025)

    def target(X, noise=0.1):
        return (np.sin(3.0 * X[:, 0]) + 0.5 * X[:, -1]
                + noise * rng.normal(size=len(X)))

    problems = []
    inf = float("inf")
    for n, p, C, eps in [(1, 1, 1.0, 0.1), (2, 1, 0.5, 0.0),
                         (3, 2, 10.0, 0.01), (7, 12, 1.0, 0.05),
                         (30, 3, 0.5, 0.1), (60, 5, 10.0, 0.01),
                         (120, 8, 1.0, 0.1), (200, 1, 0.5, 0.0),
                         (200, 8, 1.0, 0.1), (200, 12, 10.0, 0.05),
                         (5, 2, inf, 0.0), (12, 2, inf, 0.0),
                         (40, 2, inf, 0.05), (90, 3, inf, 0.2)]:
        X = rng.uniform(size=(n, p))
        noise = 0.0 if C == inf else 0.1
        problems.append((f"n{n}-p{p}-C{C}-eps{eps}", X, target(X, noise),
                         {"C": C, "epsilon": eps}))

    # duplicated rows: with their own targets, with equal targets, and a
    # single position repeated (zero variance, so gamma = 1)
    half = rng.uniform(size=(50, 4))
    X = np.vstack([half, half])
    problems.append(("duplicated-rows", X, target(X), {"C": 1.0}))
    y = target(half)
    problems.append(("duplicated-rows-and-targets", X,
                     np.concatenate([y, y]), {"C": 10.0, "epsilon": 0.01}))
    X = np.ones((9, 3))
    problems.append(("one-position", X, target(rng.uniform(size=(9, 2))),
                     {"C": 0.5}))

    # y = (eps, -eps) at f = 0: the alpha score of row 0 is -0.0 and the
    # alpha* score of row 1 is +0.0, so the fit stops before its first
    # step with a gap of -0.0
    X = np.array([[0.0], [1.0]])
    problems.append(("zero-gap", X, np.array([0.1, -0.1]), {}))

    # an epsilon wider than the spread of y: no step, no support vector
    X = rng.uniform(size=(40, 3))
    problems.append(("no-support-vector", X, target(X), {"epsilon": 10.0}))

    # column prefixes of a min-max-scaled table, as RFE fits them
    latent = rng.normal(size=200)
    table = (latent[:, None]
             + rng.normal(size=(200, 12)) * np.linspace(0.2, 0.8, 12))
    table = MinMaxScaler().fit_transform(1.0 / (1.0 + np.exp(-table)))
    mos = 1.0 + 4.0 / (1.0 + np.exp(-latent)) + 0.1 * rng.normal(size=200)
    for p in range(1, 13):
        problems.append((f"table-prefix-{p}", table[:, :p], mos, {}))
    return problems


_SMO_PROBLEMS = _smo_problems()


def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


@pytest.mark.parametrize("X, y, params", [p[1:] for p in _SMO_PROBLEMS],
                         ids=[p[0] for p in _SMO_PROBLEMS])
def test_smo_equals_the_allocating_loop_bit_for_bit(X, y, params):
    beta, intercept, gap, steps = _smo_oracle(X, y, **params)
    model = RbfSvr(**params).fit(X, y)
    sv = beta != 0.0
    expected = {"_beta_full": beta, "dual_coef_": beta[sv],
                "support_vectors_": X[sv], "intercept_": intercept,
                "gap_": gap}
    for name, value in expected.items():
        assert type(getattr(model, name)) is type(value), name
        assert _bits(getattr(model, name)) == _bits(value), name
    # the same number of steps: one fewer iteration is not enough
    if steps:
        with pytest.raises(NonConvergence):
            RbfSvr(**params, max_iter=steps).fit(X, y)
    RbfSvr(**params, max_iter=steps + 1).fit(X, y)


def test_smo_problems_reach_every_case():
    # a guard on the table above: a fit holds support vectors at the box
    # and free ones, only the single row, the zero gap and the wide
    # epsilon take no step, and the largest problem has 200 rows
    steps = {}
    for name, X, y, params in _SMO_PROBLEMS:
        beta, _, gap, steps[name] = _smo_oracle(X, y, **params)
        if name == "zero-gap":
            assert str(gap) == "-0.0"
        C = params.get("C", 1.0)
        if name == "n200-p8-C1.0-eps0.1":
            assert np.any(np.abs(beta) == C)
            assert np.any((beta != 0.0) & (np.abs(beta) < C))
    assert {name for name in steps if steps[name] == 0} == {
        "n1-p1-C1.0-eps0.1", "zero-gap", "no-support-vector"}
    assert max(X.shape[0] for _, X, _, _ in _SMO_PROBLEMS) == 200


# ---------------------------------------------------------------------------
# the kernel and the layout of X

def _rbf_kernel_oracle(A, B, gamma):
    """rbf_kernel as first written, with a temporary for each operation."""
    a2 = np.einsum("ij,ij->i", A, A)
    b2 = np.einsum("ij,ij->i", B, B)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


@pytest.mark.parametrize("n, m, p", [(1, 1, 1), (7, 3, 2), (53, 53, 23),
                                     (200, 160, 23), (37, 12, 5)])
def test_rbf_kernel_equals_the_allocating_expression_bit_for_bit(n, m, p):
    rng = np.random.default_rng([n, m, p])
    A, B = rng.uniform(size=(n, p)), rng.uniform(size=(m, p))
    gamma = 1.0 / (p * A.var()) if n > 1 else 1.0
    for left, right in ((A, B), (A, A), (B, A)):
        assert _bits(rbf_kernel(left, right, gamma)) == _bits(
            _rbf_kernel_oracle(left, right, gamma))


def test_svr_predict_is_the_same_bits_for_every_layout_of_x():
    # the kernel's einsum and matmul sum in an order that the layout of X
    # sets, so predict makes X C-ordered first; the permutation
    # importances predict from a C-ordered buffer and rely on that
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(53, 7))
    y = np.sin(3.0 * X[:, 0]) + X[:, -1] + 0.1 * rng.normal(size=53)
    model = RbfSvr().fit(X, y)
    expected = model.predict(X)
    wide = np.zeros((106, 14))
    wide[::2, ::2] = X
    for other in (np.asfortranarray(X), wide[::2, ::2], X[:, list(range(7))]):
        assert not other.flags.c_contiguous
        assert _bits(model.predict(other)) == _bits(expected)


# ---------------------------------------------------------------------------
# recursive feature elimination

def _planted_problem(rng, n=60, p=6):
    X = rng.uniform(size=(n, p))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.01 * rng.normal(size=n)
    return X, y


def test_rfe_recovers_planted_features_ridge():
    rng = np.random.default_rng(11)
    X, y = _planted_problem(rng)
    ranking = rfe_rank(X, y, estimator="ridge", names=list("abcdef"))
    assert set(ranking.order[:2]) == {0, 1}
    assert ranking.names[0] in ("a", "b")
    assert len(ranking.order) == 6
    assert len(ranking.rounds) == 6  # one elimination per round at step=1


def test_rfe_recovers_planted_features_svr():
    rng = np.random.default_rng(12)
    X, y = _planted_problem(rng, n=80)
    ranking = rfe_rank(X, y, estimator="svr", seed=1,
                       estimator_params={"C": 10.0, "epsilon": 0.01})
    assert set(ranking.order[:2]) == {0, 1}


def test_rfe_with_a_constant_svr_prediction_drops_columns_in_index_order():
    # epsilon of half the spread of y: SMO stops before its first step,
    # the SVR predicts its intercept everywhere, and a constant
    # prediction correlates 0, so every importance is 0 and ties break
    # toward the lower column index
    rng = np.random.default_rng(14)
    X, y = _planted_problem(rng, n=30, p=5)
    ranking = rfe_rank(X, y, estimator="svr", seed=2, estimator_params={
        "epsilon": (y.max() - y.min()) / 2.0})
    assert ranking.order == [4, 3, 2, 1, 0]
    assert [survivors for survivors, _ in ranking.rounds] == [
        (0, 1, 2, 3, 4), (1, 2, 3, 4), (2, 3, 4), (3, 4), (4,)]
    for _, importances in ranking.rounds:
        assert np.array_equal(importances, np.zeros(len(importances)))


def test_rfe_step_and_determinism():
    rng = np.random.default_rng(13)
    X, y = _planted_problem(rng)
    a = rfe_rank(X, y, estimator="svr", step=2, seed=5)
    b = rfe_rank(X, y, estimator="svr", step=2, seed=5)
    assert a.order == b.order
    assert len(a.rounds) == 3  # six features, two dropped per round
    with pytest.raises(ValueError):
        rfe_rank(X, y, estimator="boost")
    with pytest.raises(ValueError):
        rfe_rank(X, y, names=["too", "few"])
    with pytest.raises(ValueError, match="step"):
        rfe_rank(X, y, step=0)


def _predict_oracle(model, X):
    """RbfSvr.predict as first written: the check, then the kernel."""
    X = check_matrix_2d(X)
    if len(model.support_vectors_) == 0:
        return np.full(X.shape[0], model.intercept_)
    K = _rbf_kernel_oracle(X, model.support_vectors_, model.gamma_)
    return K @ model.dual_coef_ + model.intercept_


def _importances_oracle(estimator, X, y, seed, round_idx):
    """Permutation importance as first written: a fresh copy of X, a
    checked predict and a pearson for each of the 10 repeats.

    regression._importances shuffles one buffer and scores the repeats of
    a column together, and must reach the same bits.
    """
    if isinstance(estimator, RidgeRegression):
        return np.abs(estimator.coef_)

    def correlation(rows):
        pred = _predict_oracle(estimator, rows)
        try:
            return pearson(pred, y)
        except DegenerateInput:   # a constant prediction
            return 0.0

    base = correlation(X)
    scores = np.zeros(X.shape[1])
    for col in range(X.shape[1]):
        drop = 0.0
        for rep in range(10):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, round_idx, col, rep]))
            shuffled = X.copy()
            shuffled[:, col] = shuffled[rng.permutation(X.shape[0]), col]
            drop += base - correlation(shuffled)
        scores[col] = drop / 10.0
    return scores


def _rfe_cases():
    """(id, X, y, rfe_rank keyword arguments) for the oracle comparison."""
    rng = np.random.default_rng(2026)
    cases = []
    X, y = _planted_problem(rng, n=37, p=5)
    cases.append(("n37-p5", X, y, {"seed": 3}))
    cases.append(("n37-p5-step2", X, y, {"seed": 3, "step": 2}))
    X, y = _planted_problem(rng, n=41, p=2)
    cases.append(("n41-p1", X[:, :1], y, {"seed": 4}))
    # 23 monotone views of one latent quality, as a feature table holds
    latent = rng.normal(size=53)
    noise = rng.normal(size=(53, 23)) * np.linspace(0.2, 0.8, 23)
    X = 1.0 / (1.0 + np.exp(-(latent[:, None] + noise)))
    y = 1.0 + 4.0 / (1.0 + np.exp(-latent)) + 0.1 * rng.normal(size=53)
    cases.append(("n53-p23", X, y, {"seed": 5}))
    cases.append(("n53-p23-step2", X, y, {"seed": 6, "step": 2,
                                           "estimator_params": {
                                               "C": 10.0, "epsilon": 0.01}}))
    X, y = _planted_problem(rng, n=30, p=4)
    X[:, 2] = 0.7
    cases.append(("constant-column", X, y, {"seed": 7}))
    # a constant y has no support vector, and its prediction is the
    # intercept (1.938 - 0.1 + 1.938 + 0.1) / 2, 1 ulp below 1.938: the
    # mean of y is exact and that of the prediction is not, so only y has
    # a std of 0
    cases.append(("constant-y", rng.uniform(size=(10, 3)),
                  np.full(10, 1.938), {"seed": 8}))
    # an epsilon wider than the spread of y: no support vector, and on a
    # grid of eighths the intercept's mean is exact, so the prediction has
    # a std of 0
    X, y = _planted_problem(rng, n=30, p=4)
    cases.append(("constant-prediction", X, np.round(8.0 * y) / 8.0,
                  {"seed": 9, "estimator_params": {"epsilon": 10.0}}))
    return cases


_RFE_CASES = _rfe_cases()


@pytest.mark.parametrize("X, y, kwargs", [c[1:] for c in _RFE_CASES],
                         ids=[c[0] for c in _RFE_CASES])
def test_rfe_importances_equal_the_per_prediction_loop_bit_for_bit(
        X, y, kwargs, monkeypatch):
    ranking = rfe_rank(X, y, estimator="svr", **kwargs)
    monkeypatch.setattr(regression, "_importances", _importances_oracle)
    expected = rfe_rank(X, y, estimator="svr", **kwargs)
    assert ranking.order == expected.order
    assert [s for s, _ in ranking.rounds] == [s for s, _ in expected.rounds]
    for (_, importances), (_, oracle) in zip(ranking.rounds, expected.rounds):
        assert _bits(importances) == _bits(oracle)


def test_rfe_cases_reach_every_branch(monkeypatch):
    # a guard on the cases above: what each round's importances are asked
    # of, by case
    reached = {}

    def recording(estimator, X, y, seed, round_idx):
        seen = reached.setdefault(case, set())
        seen.add("C-ordered" if X.flags.c_contiguous else "not C-ordered")
        if X.shape[0] % 4:
            seen.add("n not a multiple of 4")
        if np.any(np.ptp(X, axis=0) == 0.0):
            seen.add("constant column")
        # a std of 0 on one side, where pearson raises DegenerateInput
        prediction_std = estimator.predict(X).std()
        if y.std() == 0.0 and prediction_std != 0.0:
            seen.add("constant y")
        if prediction_std == 0.0 and y.std() != 0.0:
            seen.add("constant prediction")
        return _importances_oracle(estimator, X, y, seed, round_idx)

    monkeypatch.setattr(regression, "_importances", recording)
    widths = {}
    for case, X, y, kwargs in _RFE_CASES:
        widths[case] = X.shape[1]
        rfe_rank(X, y, estimator="svr", **kwargs)
    assert set().union(*reached.values()) == {
        "C-ordered", "not C-ordered", "n not a multiple of 4",
        "constant column", "constant y", "constant prediction"}
    assert "not C-ordered" in reached["n53-p23"]
    assert "constant column" in reached["constant-column"]
    assert "constant y" in reached["constant-y"]
    assert "constant prediction" in reached["constant-prediction"]
    assert {1, 23} <= set(widths.values())
    assert {kwargs.get("step", 1) for _, _, _, kwargs in _RFE_CASES} == {1, 2}


# ---------------------------------------------------------------------------
# grouped folds

def test_group_kfold_never_splits_a_group():
    groups = [f"g{i % 7}" for i in range(35)]
    folds = group_kfold(groups, 3, seed=2)
    assert len(folds) == 3
    seen = []
    for train, test in folds:
        train_groups = {groups[i] for i in train}
        test_groups = {groups[i] for i in test}
        assert not train_groups & test_groups
        seen.extend(test)
    assert sorted(seen) == list(range(35))


def _equals(folds_a, folds_b):
    return all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
               for a, b in zip(folds_a, folds_b))


def test_group_kfold_determinism_and_guard():
    groups = list("aabbccdd")
    assert _equals(group_kfold(groups, 4, seed=9),
                   group_kfold(groups, 4, seed=9))
    with pytest.raises(TooFewGroups):
        group_kfold(groups, 5)


def test_group_kfold_seed_changes_assignment():
    groups = [f"g{i}" for i in range(12)]
    assert not _equals(group_kfold(groups, 3, seed=0),
                       group_kfold(groups, 3, seed=1))


# ---------------------------------------------------------------------------
# fusion models

def _toy_table(rng, n=30):
    values = rng.uniform(size=(n, len(FEATURE_COLUMNS)))
    rows = [ManifestRow(group_id=f"g{i % 5}", ref_path="r.ply",
                        dist_path=f"d{i}.ply", mos=float(rng.uniform(1, 5)))
            for i in range(n)]
    return FeatureTable(rows, tuple(FEATURE_COLUMNS), values, "cafe01234567")


def test_registry_contents():
    assert set(MODEL_REGISTRY) == {f"model{i}" for i in range(1, 9)}
    expected = {"model1": ("svr", 8), "model2": ("svr", 10),
                "model3": ("svr", 14), "model4": ("svr", 4),
                "model5": ("ridge", 6), "model6": ("ridge", 11),
                "model7": ("ridge", 15), "model8": ("ridge", 4)}
    for name, (kind, count) in expected.items():
        regressor, features = MODEL_REGISTRY[name]
        assert regressor == kind, name
        assert len(features) == count, name
        assert all(f in FEATURE_COLUMNS for f in features), name
        assert len(set(features)) == len(features), name


def test_fsm_alias_and_unknown_model():
    model = make_model("fsm")
    assert model.name == "model5"
    assert model.regressor == "ridge"
    assert model.feature_names == ["pcqm_f2", "pcqm_f4", "pcqm_f5",
                                   "pcqm_f7", "msgsim_mg_s0", "psnr_d2"]
    with pytest.raises(UnknownModel):
        make_model("model99")


def test_fusion_model_fit_predict_and_save_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    table = _toy_table(rng)
    model = make_model("fsm")
    model.fit_table(table)
    pred = model.predict_table(table)
    assert pred.shape == (30,)

    path = tmp_path / "model.json"
    model.save(path)
    loaded = FusionModel.load(path)
    assert loaded.name == model.name
    assert loaded.feature_names == model.feature_names
    assert loaded.metadata["config_hash"] == "cafe01234567"
    assert np.array_equal(loaded.predict_table(table), pred)


def test_fusion_model_svr_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    table = _toy_table(rng, n=40)
    model = make_model("model4", params={"C": 3.0, "epsilon": 0.02})
    model.fit_table(table)
    pred = model.predict_table(table)
    path = tmp_path / "model.json"
    model.save(path)
    assert np.array_equal(FusionModel.load(path).predict_table(table), pred)


def test_fusion_model_missing_column():
    rng = np.random.default_rng(23)
    table = _toy_table(rng)
    trimmed = FeatureTable(table.rows, tuple(FEATURE_COLUMNS[2:]),
                           table.values[:, 2:], table.config_hash)
    with pytest.raises(MissingFeatureColumn):
        make_model("fsm").select(trimmed)


def test_fusion_model_refuses_what_it_cannot_fit_or_load(tmp_path):
    with pytest.raises(UnknownModel, match="regressor kind 'boost'"):
        FusionModel("m", ["a"], regressor="boost")
    model = make_model("fsm")
    with pytest.raises(MissingFeatureColumn, match="expected 6 feature"):
        model.fit(np.zeros((5, 3)), np.zeros(5))
    with pytest.raises(InvalidCloud, match="5 rows but y has 4"):
        model.fit(np.zeros((5, 6)), np.zeros(4))
    with pytest.raises(InvalidCloud, match="at least one row"):
        MinMaxScaler().fit(np.zeros((0, 6)))
    model.fit_table(_toy_table(np.random.default_rng(24)))
    path = tmp_path / "model.json"
    state = model.to_dict()
    state["schema_version"] = 99
    path.write_text(json.dumps(state))
    with pytest.raises(UnknownModel, match="unsupported model schema 99"):
        FusionModel.load(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(UnknownModel, match="is not a model file"):
        FusionModel.load(path)
