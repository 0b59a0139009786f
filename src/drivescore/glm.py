"""Logistic regression: IRLS fitting, Wald inference, backward elimination
and scoring.

Estimation is plain Newton/IRLS on the Bernoulli log-likelihood with
step-halving, no regularization: coefficients stay in raw feature units so
they read directly as log-odds effects.  Convergence is declared on the score
vector scaled per column by max(1, max|x_j|), which keeps the criterion
meaningful for raw-unit columns whose magnitudes differ by orders of
magnitude.

Backward elimination starts its first round from zero and each later round
from the last fit projected onto the kept columns: beta - cov[:, j] * beta_j /
cov_jj less entry j, the optimum of the last fit's quadratic approximation
with beta_j held at zero (cov is the inverse information behind the standard
errors).  On ``synth --n 5000 --weeks 26`` seeds 0-2 the four targets'
eliminations take 227/231/237 Newton steps, against 682/667/701 from zero,
and keep the same columns.  Every other fit starts from zero.

``probabilities`` is the one path from coefficients to probabilities:
``predict_proba`` matches a model's columns to a feature matrix for ``score``
and synth's planted risk, and ``evaluate`` scores its designs in place.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .labeling import EstimationError

DEFAULT_TOL = 1e-8
MAX_ITER = 50
SEPARATION_BETA_BOUND = 30.0  # on raw |beta_j| of feature columns

INTERCEPT_NAME = "const"


class SeparationError(EstimationError):
    def __init__(self, columns: Sequence[str]):
        super().__init__("complete or quasi-complete separation; diverging "
                         f"coefficients on columns: {', '.join(columns)}")


class CollinearityError(EstimationError):
    def __init__(self, columns: Sequence[str]):
        super().__init__("singular information matrix; linearly dependent "
                         f"columns: {', '.join(columns)}")


class SingleClassError(EstimationError):
    def __init__(self, target: str = ""):
        name = f" {target!r}" if target else ""
        super().__init__(f"target{name} needs at least one positive and one "
                         "negative observation")


class MissingFeatureError(KeyError):
    def __init__(self, names: Sequence[str]):
        super().__init__(f"missing features: {', '.join(names)}")


@dataclass(frozen=True)
class DesignMatrix:
    """Observations with a leading intercept column of ones and a 0/1 target."""

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X, y = self.X, self.y
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("design shapes inconsistent")
        if X.shape[1] != len(self.feature_names) + 1:
            raise ValueError("column count must equal feature names + intercept")
        if not np.all(X[:, 0] == 1.0):
            raise ValueError("first column must be the intercept (all ones)")
        if not np.all(np.isfinite(X)):
            raise ValueError("design matrix contains non-finite values")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("target must be 0/1")

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, float]], y: Sequence[int],
                  feature_names: Sequence[str]) -> "DesignMatrix":
        names = tuple(feature_names)
        missing = sorted({n for row in rows for n in names if n not in row})
        if missing:
            raise MissingFeatureError(missing)
        X = np.array([[1.0, *(float(row[n]) for n in names)] for row in rows], dtype=float)
        return cls(names, X.reshape(len(rows), len(names) + 1), np.asarray(y, dtype=float))

    @property
    def columns(self) -> tuple[str, ...]:
        return (INTERCEPT_NAME,) + self.feature_names

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    def drop(self, names: Sequence[str]) -> "DesignMatrix":
        gone = set(names)
        unknown = gone - set(self.feature_names)
        if unknown:
            raise KeyError(f"cannot drop unknown columns: {sorted(unknown)}")
        keep = [0] + [j for j, n in enumerate(self.feature_names, start=1)
                      if n not in gone]
        kept_names = tuple(n for n in self.feature_names if n not in gone)
        return DesignMatrix(kept_names, self.X[:, keep], self.y)

    def intercept_only(self) -> "DesignMatrix":
        return DesignMatrix((), self.X[:, :1], self.y)

    def subset(self, idx: np.ndarray) -> "DesignMatrix":
        return DesignMatrix(self.feature_names, self.X[idx], self.y[idx])


class EliminationStep(NamedTuple):
    """One backward-elimination round: the column it dropped, that column's
    p-value and the Newton steps of the round's fit."""

    column: str
    p_value: float
    n_iter: int


@dataclass(frozen=True)
class FittedModel:
    """Maximum-likelihood logistic fit with Wald inference.

    ``n_iter`` counts this fit's Newton steps; after backward elimination,
    ``elimination`` holds the rounds before it, in drop order.
    """

    target: str
    columns: tuple[str, ...]  # intercept first
    coef: tuple[float, ...]
    se: tuple[float, ...]
    p_values: tuple[float, ...]
    log_likelihood: float
    aic: float
    n_obs: int
    converged: bool
    n_iter: int
    flagged: tuple[str, ...] = ()
    elimination: tuple[EliminationStep, ...] = ()
    cov: np.ndarray | None = field(default=None, compare=False, repr=False)  # inverse information


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # sum_i [ y_i * eta_i - log(1 + exp(eta_i)) ], numerically stable
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _dependent_columns(X: np.ndarray, columns: Sequence[str]) -> list[str]:
    """Greedy scan for columns that add no rank, in column order."""
    bad = []
    kept: list[int] = []
    for j in range(X.shape[1]):
        cand = X[:, kept + [j]]
        if np.linalg.matrix_rank(cand) <= len(kept):
            bad.append(columns[j])
        else:
            kept.append(j)
    return bad


def _diverging(columns: Sequence[str], beta: np.ndarray, bound: float) -> list[str]:
    """Feature columns (never the intercept) whose |beta_j| exceeds bound."""
    return [c for c, b in zip(columns, beta) if c != INTERCEPT_NAME and abs(b) > bound]


def fit_logistic(design: DesignMatrix, target: str = "",
                 tol: float = DEFAULT_TOL, start: np.ndarray | None = None) -> FittedModel:
    """Fit by Newton/IRLS with step-halving from ``start`` (default zeros), at
    most ``MAX_ITER`` steps.

    Converges when every score component |g_j| falls below tol times the
    column scale max(1, max|x_j|); the check runs before each step, so a
    design whose score vanishes at beta = 0 returns the zero vector exactly.
    Raises SeparationError when a feature coefficient diverges (|beta_j|
    beyond 30; the intercept is exempt since it cannot separate classes)
    and CollinearityError when the information matrix is singular because
    of linearly dependent columns.
    """
    X, y = design.X, design.y
    n, k = X.shape
    npos = int(y.sum())
    if npos == 0 or npos == n:
        raise SingleClassError(target)

    scale = np.maximum(1.0, np.maximum(X.max(axis=0), -X.min(axis=0)))  # max|x_j|, no |X| copy
    # X * w[:, None] is written into one buffer per fit.  The buffer takes X's layout
    # (F-order for a column subset), as the product would, so X.T @ wx takes the same
    # matmul path and the fitted coefficients keep their last bits.
    wx = np.empty_like(X)
    beta = np.zeros(k) if start is None else np.asarray(start, dtype=float)
    eta = X @ beta
    ll = _log_likelihood(eta, y)
    ll_path = [ll]

    # each pass tests the score once, after n_iter steps
    for n_iter in range(MAX_ITER + 1):
        p = _sigmoid(eta)
        g = X.T @ (y - p)
        converged = bool(np.max(np.abs(g) / scale) <= tol)
        if converged or n_iter == MAX_ITER:
            break
        over = _diverging(design.columns, beta, SEPARATION_BETA_BOUND)
        if over:
            raise SeparationError(over)
        w = p * (1.0 - p)
        info = X.T @ np.multiply(X, w[:, None], out=wx)
        try:
            np.linalg.cholesky(info)
            delta = np.linalg.solve(info, g)
        except np.linalg.LinAlgError:
            if np.linalg.matrix_rank(X) < k:
                raise CollinearityError(_dependent_columns(X, design.columns)) from None
            # full-rank X with vanishing weights: fit saturated, treat as separation
            raise SeparationError(_diverging(design.columns, beta, SEPARATION_BETA_BOUND / 2)
                                  or design.columns) from None
        step = 1.0
        while True:
            cand = beta + step * delta
            cand_eta = X @ cand
            cand_ll = _log_likelihood(cand_eta, y)
            if cand_ll >= ll - 1e-12 or step < 1e-10:
                break
            step /= 2.0
        beta, eta, ll = cand, cand_eta, cand_ll
        ll_path.append(ll)

    if not converged:
        grew = len(ll_path) >= 4 and all(b > a for a, b in zip(ll_path[-4:], ll_path[-3:]))
        big = _diverging(design.columns, beta, SEPARATION_BETA_BOUND / 2)
        if grew and big:
            raise SeparationError(big)

    w = p * (1.0 - p)  # the loop's last pass took p from the final eta
    info = X.T @ np.multiply(X, w[:, None], out=wx)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise CollinearityError(_dependent_columns(X, design.columns)) from None
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    usable = [math.isfinite(s) and s != 0.0 for s in se]

    return FittedModel(
        target=target,
        columns=design.columns,
        coef=tuple(float(b) for b in beta),
        se=tuple(float(s) for s in se),
        p_values=tuple(wald_pvalue(b, s) if ok else float("nan")
                       for b, s, ok in zip(beta, se, usable)),
        log_likelihood=ll,
        aic=2.0 * k - 2.0 * ll,
        n_obs=n,
        converged=converged,
        n_iter=n_iter,
        flagged=tuple(c for c, ok in zip(design.columns, usable) if not ok),
        cov=cov,
    )


def wald_pvalue(coef: float, se: float) -> float:
    """Two-sided p-value of coef/se against the standard normal."""
    if se <= 0 or not math.isfinite(se):
        raise ValueError("standard error must be positive and finite")
    z = abs(coef / se)
    return math.erfc(z / math.sqrt(2.0))


def probabilities(X: np.ndarray, coef: Sequence[float]) -> np.ndarray:
    """The logistic of ``X @ coef``, one probability per row of a design whose
    first column is the intercept's ones, clamped into the open interval (0, 1)."""
    return np.clip(_sigmoid(X @ np.asarray(coef, dtype=float)), math.ulp(0.0), 1.0 - 2.0 ** -53)


def predict_proba(model, values: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """One accident probability per row of ``values``, whose columns ``names`` names.

    Works for any model whose ``columns`` (intercept first) and ``coef``
    give the linear predictor.  Every model feature must be a column of
    ``values`` and finite in every row; nothing is imputed.  An
    intercept-only model gives every row the same probability.
    """
    index = {name: j for j, name in enumerate(names)}
    features = model.columns[1:]
    missing = [n for n in features if n not in index]
    if missing:
        raise MissingFeatureError(missing)
    X = np.empty((len(values), len(features) + 1))
    X[:, 0] = 1.0
    for j, name in enumerate(features, start=1):
        X[:, j] = values[:, index[name]]
        if not np.all(np.isfinite(X[:, j])):
            raise ValueError(f"feature {name!r} is not finite")
    return probabilities(X, model.coef)


def check_alpha(alpha: float) -> float:
    """``alpha`` if it is a significance level in (0, 1], else ValueError."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    return alpha


def _projected_start(beta: np.ndarray, cov: np.ndarray, j: int) -> np.ndarray:
    """The start for a refit without column ``j`` (see the module docstring), or
    plain deletion if cov_jj is not positive and finite or the start is not."""
    s = cov[j, j]
    if math.isfinite(s) and s > 0:
        with np.errstate(all="ignore"):
            projected = beta - cov[:, j] * (beta[j] / s)
        if np.all(np.isfinite(projected)):
            beta = projected
    return np.delete(beta, j)


def backward_eliminate(design: DesignMatrix, alpha: float = 0.05,
                       target: str = "") -> FittedModel:
    """Drop the worst non-intercept coefficient until all p-values pass alpha.

    One column per round: the highest p-value above alpha, ties and NaN
    p-values resolved toward the earliest column.  The intercept is never a
    candidate.  Eliminating everything leaves the intercept-only model.  Each
    round after the first starts from ``_projected_start``; the result's
    ``elimination`` lists the rounds in drop order.
    """
    check_alpha(alpha)
    current, start, path = design, None, []
    while True:
        model = fit_logistic(current, target=target, start=start)
        worst, worst_p = None, alpha
        for j, p in enumerate(model.p_values[1:], start=1):
            p_eff = 1.0 if math.isnan(p) else p
            if p_eff > worst_p:
                worst, worst_p = j, p_eff
        if worst is None:
            return replace(model, elimination=tuple(path))
        name = model.columns[worst]
        path.append(EliminationStep(name, model.p_values[worst], model.n_iter))
        start = _projected_start(np.array(model.coef), model.cov, worst)
        current = current.drop([name])


def mcfadden_r2(model_loglik: float, null_loglik: float) -> float:
    """1 - logL(model)/logL(null); undefined when the null likelihood is 1."""
    if null_loglik == 0.0:
        raise ValueError("McFadden R^2 undefined: null log-likelihood is zero")
    return 1.0 - model_loglik / null_loglik


def model_to_dict(model: FittedModel) -> dict:
    return {
        "target": model.target,
        "columns": list(model.columns),
        "coef": {c: v for c, v in zip(model.columns, model.coef)},
        "se": {c: v for c, v in zip(model.columns, model.se)},
        "p_value": {c: v for c, v in zip(model.columns, model.p_values)},
        "log_likelihood": model.log_likelihood,
        "aic": model.aic,
        "n_obs": model.n_obs,
        "converged": model.converged,
        "n_iter": model.n_iter,
        "elimination": [step._asdict() for step in model.elimination],
        "flagged": list(model.flagged),
        "tool_version": __version__,
    }


class ScoringModel(NamedTuple):
    """What scoring reads of a model: a fitted model's file or a bundle entry.

    The published bundle stores coefficients exactly as printed (three
    decimals), so columns listed in ``non_scorable`` have effects that
    rounded to zero in print and contribute nothing to scores.
    """

    target: str
    columns: tuple[str, ...]  # intercept first
    coef: tuple[float, ...]
    non_scorable: tuple[str, ...] = ()


def scoring_model(target: str, d: Mapping) -> ScoringModel:
    """The scoring model of a ``model_to_dict`` payload or a bundle entry:
    its ``columns``, ``const`` first and none twice, a finite number in
    ``coef`` for each, and ``non_scorable``."""
    cols = tuple(d["columns"])
    coef = tuple(float(d["coef"][c]) for c in cols)
    for c, b in zip(cols, coef):
        if not math.isfinite(b):
            raise ValueError(f"coefficient of {c} is not a finite number: {b}")
    if cols[:1] != (INTERCEPT_NAME,):
        raise ValueError(f"columns must start with {INTERCEPT_NAME!r}: {list(cols)}")
    if len(set(cols)) < len(cols):
        raise ValueError(f"columns name a column more than once: {list(cols)}")
    return ScoringModel(target, cols, coef, tuple(d.get("non_scorable", ())))


def load_reference_models() -> dict[str, ScoringModel]:
    """The published four-target coefficient bundle shipped with the package."""
    raw = resources.files("drivescore.data").joinpath("reference_models.json").read_text("utf-8")
    return {target: scoring_model(target, m) for target, m in json.loads(raw)["models"].items()}
