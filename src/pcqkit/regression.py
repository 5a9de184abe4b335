"""Feature scaling, regressors, feature selection and the fusion models.

The learnable pieces follow the familiar estimator protocol: construct
with hyperparameters, fit(X, y), predict(X).
Ridge regression is solved in closed form on centered data; the RBF
support vector regressor solves its dual by sequential pairwise (SMO)
updates with a maximal-violating-pair working set. Recursive feature
elimination ranks features with |coef| (ridge) or permutation importance
(SVR). Fusion models bundle a named feature subset, a min-max scaler and
a regressor, and serialize to JSON.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateInput, MissingFeatureColumn, NonConvergence,
                     SingularSystem, TooFewGroups, UnknownModel)
from .evaluation import pearson
from .validation import check_matrix_2d, check_paired

__all__ = ["MinMaxScaler", "RidgeRegression", "RbfSvr", "rbf_kernel",
           "svr_dual_objective", "FeatureRanking", "rfe_rank", "group_kfold",
           "MODEL_REGISTRY", "FusionModel", "make_model"]


class MinMaxScaler:
    """Per-feature min-max scaling to [0, 1] with clamping.

    Columns that are constant on the training data map to 0.
    """

    def fit(self, X):
        X = check_matrix_2d(X)
        self.min_ = X.min(axis=0)
        self.max_ = X.max(axis=0)
        return self

    def transform(self, X):
        X = check_matrix_2d(X)
        if X.shape[1] != self.min_.shape[0]:
            raise ValueError(
                f"expected {self.min_.shape[0]} features, got {X.shape[1]}")
        span = self.max_ - self.min_
        constant = span == 0.0
        scaled = (X - self.min_) / np.where(constant, 1.0, span)
        scaled[:, constant] = 0.0
        return np.clip(scaled, 0.0, 1.0)

    def fit_transform(self, X):
        return self.fit(X).transform(X)


class RidgeRegression:
    """L2-regularized least squares, solved in closed form.

    Data is centered first, so the intercept is not penalized:
    coef = (Xc'Xc + alpha*I)^-1 Xc'yc, intercept = mean(y) - mean(X).coef
    """

    def __init__(self, alpha=1.0):
        self.alpha = alpha

    def fit(self, X, y):
        X, y = check_paired(X, y)
        alpha = float(self.alpha)
        if not 0 <= alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        xc = X - x_mean
        yc = y - y_mean
        gram = xc.T @ xc
        if alpha == 0.0:
            if np.linalg.matrix_rank(gram) < gram.shape[0]:
                raise SingularSystem(
                    "alpha = 0 with rank-deficient features")
        else:
            gram = gram + alpha * np.eye(X.shape[1])
        self.coef_ = np.linalg.solve(gram, xc.T @ yc)
        self.intercept_ = float(y_mean - x_mean @ self.coef_)
        return self

    def predict(self, X):
        X = check_matrix_2d(X)
        return X @ self.coef_ + self.intercept_


def rbf_kernel(A, B, gamma: float):
    """exp(-gamma * ||a - b||^2) for every row pair."""
    a2 = np.einsum("ij,ij->i", A, A)
    b2 = np.einsum("ij,ij->i", B, B)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


def svr_dual_objective(K, y, epsilon: float, beta):
    """Dual objective -1/2 b'Kb - eps*sum|b| + y'b (to be maximized)."""
    beta = np.asarray(beta, dtype=np.float64)
    return float(-0.5 * beta @ K @ beta - epsilon * np.abs(beta).sum()
                 + y @ beta)


class RbfSvr:
    """Epsilon-insensitive support vector regression, RBF kernel.

    The dual QP over (alpha, alpha*) is solved by repeated analytic
    updates of the maximal violating pair until the KKT gap drops below
    tol. The kernel width follows the common "scale" heuristic,
    gamma = 1 / (n_features * var(X)).
    """

    def __init__(self, C=1.0, epsilon=0.1, tol=1e-3, max_iter=200_000):
        self.C = C
        self.epsilon = epsilon
        self.tol = tol
        self.max_iter = max_iter

    def fit(self, X, y):
        X, y = check_paired(X, y)
        C, eps, tol = float(self.C), float(self.epsilon), float(self.tol)
        max_iter = self.max_iter
        if not C > 0:
            raise ValueError(f"C must be > 0, got {C}")
        if not 0 <= eps < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {eps}")
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {tol}")
        if (not isinstance(max_iter, numbers.Integral)
                or isinstance(max_iter, bool) or max_iter < 1):
            raise ValueError(
                f"max_iter must be an integer >= 1, got {max_iter!r}")
        n = X.shape[0]
        var = X.var()
        gamma = 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        K = rbf_kernel(X, X, gamma)
        # row k is column k of K, read contiguously
        K_cols = np.ascontiguousarray(K.T)
        diag = K.diagonal().tolist()

        # z = (alpha, alpha*) and beta = alpha - alpha*. A step of t raises
        # beta at i % n and lowers it at j % n; i is an alpha below C or an
        # alpha* above 0, j an alpha above 0 or an alpha* below C. The step
        # scalars are Python floats, and each mask changes only where z did
        z = [0.0] * (2 * n)
        beta = [0.0] * n
        up = np.arange(2 * n) < n    # at z = 0 only the alphas, as C > 0
        low = ~up
        f_raw = np.zeros(n)          # K @ beta, maintained incrementally
        # minus the dual gradient along beta, per block: -(f_raw + eps - y)
        # and y - (f_raw - eps). One subtraction lhs - rhs, with lhs =
        # (f_raw + eps, y) and rhs = (y, f_raw - eps), gives both; the alpha
        # block is then negated, so that an exact zero there is -0.0
        lhs = np.concatenate([y, y])
        rhs = lhs.copy()
        score = np.empty(2 * n)
        f_plus, f_minus, score_alpha = lhs[:n], rhs[n:], score[:n]
        gap = math.inf

        for _ in range(max_iter):
            np.add(f_raw, eps, out=f_plus)
            np.subtract(f_raw, eps, out=f_minus)
            np.subtract(lhs, rhs, out=score)
            np.negative(score_alpha, out=score_alpha)
            # masked, so an index outside a side never wins
            up_score = np.where(up, score, -np.inf)
            low_score = np.where(low, score, np.inf)
            i, j = int(up_score.argmax()), int(low_score.argmin())
            m, big = up_score.item(i), low_score.item(j)
            gap = m - big
            if gap <= tol:
                break

            ii, jj = i % n, j % n
            # the Newton step gap / curvature, clipped to the box
            a = max(diag[ii] + diag[jj] - 2.0 * K.item(ii, jj), 1e-12)
            t = min(gap / a, C - z[i] if i < n else z[i],
                    z[j] if j < n else C - z[j])
            z[i] += t if i < n else -t
            z[j] -= t if j < n else -t
            for k in (i, j):
                below_C, above_0 = z[k] < C, z[k] > 0
                up[k], low[k] = ((below_C, above_0) if k < n
                                 else (above_0, below_C))
            beta[ii] += t
            beta[jj] -= t
            f_raw += K_cols[ii] * t - K_cols[jj] * t
        else:
            hint = ("; with C = inf the epsilon-tube is hard, and it has no "
                    "solution when the targets lie farther than epsilon "
                    "from every fit: try a finite C"
                    if C == math.inf else "")
            raise NonConvergence(
                f"SMO did not reach tol={self.tol} within "
                f"{max_iter} iterations (gap {gap:.3e}){hint}")

        beta = np.array(beta)
        self.intercept_ = float((m + big) / 2.0)
        self.gap_ = float(gap)
        self.gamma_ = gamma
        sv = beta != 0.0
        self.support_vectors_ = X[sv]
        self.dual_coef_ = beta[sv]
        self._beta_full = beta
        return self

    def predict(self, X):
        X = check_matrix_2d(X)
        if len(self.support_vectors_) == 0:
            return np.full(X.shape[0], self.intercept_)
        K = rbf_kernel(X, self.support_vectors_, self.gamma_)
        return K @ self.dual_coef_ + self.intercept_


# regressor kind -> estimator class, for RFE and the fusion models
_ESTIMATORS = {"ridge": RidgeRegression, "svr": RbfSvr}
# regressor kind -> fitted attributes a model file holds, each under its
# name without the trailing underscore
_STATE = {"ridge": ("coef_", "intercept_"),
          "svr": ("support_vectors_", "dual_coef_", "intercept_", "gamma_")}


# ---------------------------------------------------------------------------
# recursive feature elimination

@dataclass(frozen=True)
class FeatureRanking:
    """Columns ordered most important first, with per-round importances."""

    order: list
    names: list
    rounds: list   # (surviving column tuple, importance array) per round


def _importances(estimator, X, y, seed, round_idx):
    if isinstance(estimator, RidgeRegression):
        return np.abs(estimator.coef_)

    def correlation(rows):
        pred = estimator.predict(rows)
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


def rfe_rank(X, y, estimator: str = "ridge", step: int = 1, seed: int = 0,
             names=None, estimator_params: dict = None) -> FeatureRanking:
    """Rank features by recursive elimination of the least important.

    Each round fits on the survivors (min-max scaled) and removes the
    `step` weakest features; importance ties break toward the lower
    column index. The ranking is the reverse elimination order.
    """
    X, y = check_paired(X, y)
    if step < 1:
        raise ValueError("step must be >= 1")
    if estimator not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    make = _ESTIMATORS[estimator]
    params = estimator_params or {}
    p = X.shape[1]
    names = list(names) if names is not None else [f"x{i}" for i in range(p)]
    if len(names) != p:
        raise ValueError("names length does not match feature count")

    scaled = MinMaxScaler().fit_transform(X)
    survivors = list(range(p))
    eliminated = []
    rounds = []
    while survivors:
        sub = scaled[:, survivors]
        model = make(**params).fit(sub, y)
        imp = _importances(model, sub, y, seed, len(rounds))
        rounds.append((tuple(survivors), imp))
        for pos in np.argsort(imp, kind="stable")[:step]:
            eliminated.append(survivors[pos])
        survivors = [c for c in survivors if c not in eliminated]
    ranking = list(reversed(eliminated))
    return FeatureRanking(ranking, [names[c] for c in ranking], rounds)


# ---------------------------------------------------------------------------
# group-aware cross-validation split

def group_kfold(groups, n_folds: int, seed: int = 0):
    """Split row indices into folds that never divide a group.

    Groups are shuffled deterministically and dealt into n_folds chunks
    whose group counts differ by at most one. Returns a list of
    (train_indices, test_indices) pairs.
    """
    groups = np.asarray(groups)
    unique = list(dict.fromkeys(groups.tolist()))
    if len(unique) < n_folds:
        raise TooFewGroups(
            f"{len(unique)} groups cannot fill {n_folds} folds")
    rng = np.random.default_rng(seed)
    shuffled = [unique[i] for i in rng.permutation(len(unique))]
    folds = []
    for chunk in np.array_split(np.arange(len(shuffled)), n_folds):
        test_groups = {shuffled[i] for i in chunk}
        mask = np.array([g in test_groups for g in groups.tolist()])
        folds.append((np.where(~mask)[0], np.where(mask)[0]))
    return folds


# ---------------------------------------------------------------------------
# fusion model registry (feature subsets found by RFE on the corpus)

MODEL_REGISTRY = {
    "model1": ("svr", ["pcqm_f2", "pcqm_f4", "pcqm_f5", "pcqm_f6",
                       "msgsim_mg_s0", "msgsim_ug_s0", "msgsim_cg_s0",
                       "psnr_d2"]),
    "model2": ("svr", ["pcqm_f2", "pcqm_f4", "pcqm_f5", "pcqm_f6", "pcqm_f7",
                       "msgsim_mg_s0", "msgsim_cg_s0", "psnr_d2",
                       "pointssim_geo", "pointssim_lum"]),
    "model3": ("svr", ["pcqm_f2", "pcqm_f4", "pcqm_f5", "pcqm_f7", "pcqm_f8",
                       "msgsim_mg_s0", "msgsim_ug_s0", "msgsim_cg_s0",
                       "msgsim_ug_s2", "msgsim_cg_s2", "psnr_d2", "psnr_v",
                       "pointssim_geo", "pointssim_lum"]),
    "model4": ("svr", ["pcqm_f2", "pcqm_f4", "pcqm_f5", "msgsim_mg_s0"]),
    "model5": ("ridge", ["pcqm_f2", "pcqm_f4", "pcqm_f5", "pcqm_f7",
                         "msgsim_mg_s0", "psnr_d2"]),
    "model6": ("ridge", ["pcqm_f2", "pcqm_f4", "pcqm_f5", "pcqm_f7",
                         "pcqm_f8", "msgsim_mg_s0", "msgsim_cg_s0",
                         "msgsim_mg_s2", "msgsim_cg_s2", "psnr_d2",
                         "pointssim_geo"]),
    "model7": ("ridge", ["pcqm_f1", "pcqm_f2", "pcqm_f4", "pcqm_f5",
                         "pcqm_f7", "pcqm_f8", "msgsim_mg_s0", "msgsim_cg_s0",
                         "msgsim_cg_s1", "msgsim_cg_s2", "psnr_d2", "psnr_y",
                         "psnr_u", "psnr_v", "pointssim_geo"]),
    "model8": ("ridge", ["pcqm_f2", "pcqm_f4", "pcqm_f5", "msgsim_mg_s0"]),
}
MODEL_ALIASES = {"fsm": "model5"}

_MODEL_SCHEMA = 1


class FusionModel:
    """A named feature subset + scaler + regressor, JSON-serializable."""

    def __init__(self, name, feature_names, regressor="ridge", params=None):
        if regressor not in _ESTIMATORS:
            raise UnknownModel(f"unknown regressor kind {regressor!r}")
        self.name = name
        self.feature_names = list(feature_names)
        self.regressor = regressor
        self.params = dict(params or {})
        self.scaler = None
        self.estimator = None
        self.metadata = {}

    def select(self, table):
        """Pull this model's feature columns out of a feature table."""
        missing = [f for f in self.feature_names
                   if f not in table.feature_names]
        if missing:
            raise MissingFeatureColumn(
                f"feature table lacks columns {missing}")
        cols = [table.feature_names.index(f) for f in self.feature_names]
        return table.values[:, cols]

    def fit(self, X, y, metadata=None):
        X, y = check_paired(X, y)
        if X.shape[1] != len(self.feature_names):
            raise MissingFeatureColumn(
                f"expected {len(self.feature_names)} feature columns, "
                f"got {X.shape[1]}")
        self.scaler = MinMaxScaler()
        self.estimator = _ESTIMATORS[self.regressor](**self.params)
        self.estimator.fit(self.scaler.fit_transform(X), y)
        self.metadata = dict(metadata or {})
        self.metadata["n_rows"] = int(X.shape[0])
        return self

    def fit_table(self, table, metadata=None):
        meta = {"config_hash": table.config_hash} | dict(metadata or {})
        return self.fit(self.select(table), table.mos(), meta)

    def predict(self, X):
        return self.estimator.predict(self.scaler.transform(X))

    def predict_table(self, table):
        return self.predict(self.select(table))

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        state = {
            "schema_version": _MODEL_SCHEMA,
            "name": self.name,
            "features": self.feature_names,
            "regressor": self.regressor,
            "params": self.params,
            "metadata": self.metadata,
            "scaler": {"min": self.scaler.min_.tolist(),
                       "max": self.scaler.max_.tolist()},
        }
        for attr in _STATE[self.regressor]:
            value = getattr(self.estimator, attr)
            state[attr[:-1]] = (value.tolist() if isinstance(value, np.ndarray)
                                else value)
        return state

    @classmethod
    def from_dict(cls, state):
        if state.get("schema_version") != _MODEL_SCHEMA:
            raise UnknownModel(
                f"unsupported model schema {state.get('schema_version')!r}")
        model = cls(state["name"], state["features"], state["regressor"],
                    state.get("params"))
        model.metadata = dict(state.get("metadata", {}))
        bounds = state["scaler"]
        model.scaler = MinMaxScaler()
        model.scaler.min_ = np.asarray(bounds["min"], dtype=np.float64)
        model.scaler.max_ = np.asarray(bounds["max"], dtype=np.float64)
        model.estimator = _ESTIMATORS[model.regressor](**model.params)
        for attr in _STATE[model.regressor]:
            value = state[attr[:-1]]
            setattr(model.estimator, attr,
                    np.asarray(value, dtype=np.float64)
                    if isinstance(value, list) else float(value))
        return model

    def save(self, path):
        with open(path, "w") as stream:
            json.dump(self.to_dict(), stream, indent=2, sort_keys=True)
            stream.write("\n")

    @classmethod
    def load(cls, path):
        """The model saved at path; UnknownModel if it holds none."""
        with open(path) as stream:
            try:
                return cls.from_dict(json.load(stream))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise UnknownModel(
                    f"{path!r} is not a model file: {exc!r}") from None


def make_model(name: str, params: dict = None) -> FusionModel:
    """Instantiate a registry model (unfitted); "fsm" aliases model5."""
    key = MODEL_ALIASES.get(name, name)
    if key not in MODEL_REGISTRY:
        known = sorted(MODEL_REGISTRY) + sorted(MODEL_ALIASES)
        raise UnknownModel(f"unknown model {name!r}; known: {known}")
    kind, features = MODEL_REGISTRY[key]
    return FusionModel(key, features, kind, params)
