"""Model evaluation and dataset reporting.

ROC AUC via the rank-sum (Mann-Whitney) formulation with half credit for
ties, seeded train/test splits, the in/out-of-sample evaluation protocol, the
with/without-feature-group ablation comparison, and the descriptive tables
(group means/stds and the Pearson correlation matrix).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .glm import DesignMatrix, FittedModel, fit_logistic, mcfadden_r2, probabilities
from .labeling import EstimationError


class DegenerateLabelsError(EstimationError):
    """AUC is undefined when only one class is present."""


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.10
    seed: int = 0
    stratify: bool = False

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")


class EvalReport(NamedTuple):
    """One row of ``eval_report.csv``; an undefined out-of-sample AUC is None."""

    target: str
    auc_in_sample: float
    auc_out_of_sample: float | None
    mcfadden_r2: float
    n_train: int
    n_test: int
    seed: int
    note: str = ""


class AblationResult(NamedTuple):
    """One row of ``ablation.csv``; ``group`` holds the names joined by spaces."""

    target: str
    group: str
    r2_with: float
    r2_without: float
    difference: float


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability that a random positive outscores a random negative.

    Rank-sum computation, O(n log n); ties between a positive and a negative
    score earn half credit, which makes the value identical to exhaustive
    pair counting.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = int(np.count_nonzero(y == 0))
    if n_pos + n_neg != len(y):
        raise ValueError("labels must be 0/1")
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("need at least one positive and one negative label")

    sorted_s = np.sort(s)
    # each score's tie run in sorted order is [left, right); its average rank, 1-based
    left, right = np.searchsorted(sorted_s, s, "left"), np.searchsorted(sorted_s, s, "right")
    ranks = 0.5 * (left + right - 1) + 1.0
    rank_sum_pos = float(ranks[y == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def split_indices(n: int, spec: SplitSpec,
                  labels: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive (train, test) index arrays, reproducible from seed."""
    if n < 10:
        raise ValueError("need at least 10 rows to split")
    if spec.stratify and labels is None:
        raise ValueError("stratified split needs labels")
    rng = np.random.default_rng(spec.seed)
    groups = ([np.flatnonzero(np.asarray(labels) == cls) for cls in np.unique(labels)]
              if spec.stratify else [np.arange(n)])
    least = 0 if spec.stratify else 1  # a class may give no test row, all rows give one
    test_parts = []
    for idx in groups:
        k = min(max(int(round(spec.test_fraction * len(idx))), least), len(idx) - 1)
        test_parts.append(idx[rng.permutation(len(idx))[:k]])
    test = np.sort(np.concatenate(test_parts))
    if len(test) == 0:
        raise ValueError("test partition empty; raise test_fraction")
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    return np.flatnonzero(mask), test


def evaluate_model(design: DesignMatrix, target: str, spec: SplitSpec,
                   ) -> tuple[EvalReport, FittedModel]:
    """Fit on the train partition, report AUC in and out of sample.

    McFadden R^2 is computed on the train partition against its own
    intercept-only fit.  If the test partition ends up single-class the
    out-of-sample AUC is reported as undefined with a note instead of
    failing the whole evaluation.
    """
    train_idx, test_idx = split_indices(design.n_obs, spec,
                                        design.y if spec.stratify else None)
    train, test = design.subset(train_idx), design.subset(test_idx)
    model = fit_logistic(train, target=target)
    null = fit_logistic(train.intercept_only(), target=target)
    r2 = mcfadden_r2(model.log_likelihood, null.log_likelihood)
    auc_in = roc_auc(probabilities(train.X, model.coef), train.y.astype(int))
    note = ""
    try:
        auc_out = roc_auc(probabilities(test.X, model.coef), test.y.astype(int))
    except DegenerateLabelsError:
        auc_out = None
        note = "test partition single-class; out-of-sample AUC undefined"
    report = EvalReport(target=target, auc_in_sample=auc_in,
                        auc_out_of_sample=auc_out, mcfadden_r2=r2,
                        n_train=train.n_obs, n_test=test.n_obs,
                        seed=spec.seed, note=note)
    return report, model


def ablation_compare(design: DesignMatrix, target: str,
                     feature_group: Sequence[str]) -> AblationResult:
    """McFadden R^2 with and without a feature group, on identical rows."""
    group = tuple(feature_group)
    unknown = set(group) - set(design.feature_names)
    if unknown:
        raise ValueError(f"feature group not in design: {sorted(unknown)}")
    null = fit_logistic(design.intercept_only(), target=target)
    full = fit_logistic(design, target=target)
    r2_with = mcfadden_r2(full.log_likelihood, null.log_likelihood)
    reduced = fit_logistic(design.drop(group), target=target)
    r2_without = mcfadden_r2(reduced.log_likelihood, null.log_likelihood)
    return AblationResult(target=target, group=" ".join(group), r2_with=r2_with,
                          r2_without=r2_without, difference=r2_with - r2_without)


def descriptive_stats(values: np.ndarray,
                      targets: Sequence[int]) -> tuple[np.ndarray, list[str]]:
    """Per-feature mean/std split by accident status.

    ``values`` holds one row per observation and one column per feature.
    Returns a (features, 4) matrix whose columns are the mean and std with
    accidents, then without, NaN where a group is too small to define the
    statistic, plus a list of diagnostics.  Standard deviations use the n-1
    denominator.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != len(targets):
        raise ValueError("features and targets length mismatch")
    y = np.asarray(targets)
    groups = {"acc": np.flatnonzero(y == 1), "noacc": np.flatnonzero(y == 0)}
    notes = [f"group {gname!r} is empty" for gname, idx in groups.items() if len(idx) == 0]
    stats = np.full((values.shape[1], 4), np.nan)
    for row, col in zip(stats, values.T):
        for g, idx in enumerate(groups.values()):
            vals = col[idx]
            if len(vals):
                row[2 * g] = vals.mean()
            if len(vals) >= 2:
                row[2 * g + 1] = vals.std(ddof=1)
    return stats, notes


def correlation_matrix(values: np.ndarray,
                       names: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Pearson correlations between the columns of ``values``, named ``names``.

    Zero-variance columns get NaN entries (emitted as blanks downstream) and
    a diagnostic.  For the remaining block the matrix is symmetric with unit
    diagonal and positive semidefinite by construction.
    """
    X = np.array(values, dtype=float, order="C")  # a copy, centred in place
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows for correlations")
    notes = []
    sd = X.std(axis=0, ddof=1)
    X -= X.mean(axis=0)
    k = len(names)
    corr = np.full((k, k), np.nan)
    valid = sd > 0
    for j in np.flatnonzero(~valid):
        notes.append(f"column {names[j]!r} has zero variance; correlations undefined")
    if valid.any():
        Z = X[:, valid]
        Z /= sd[valid]
        block = (Z.T @ Z) / (X.shape[0] - 1)
        np.fill_diagonal(block, 1.0)
        block = 0.5 * (block + block.T)
        ix = np.flatnonzero(valid)
        corr[np.ix_(ix, ix)] = block
    return corr, notes
