"""ROC AUC, train/test splitting and model evaluation reports."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivescore.evaluation import (AblationResult, DegenerateLabelsError,
                                   SplitSpec, ablation_compare,
                                   correlation_matrix, descriptive_stats,
                                   evaluate_model, roc_auc, split_indices)
from drivescore.glm import DesignMatrix, predict_proba


class TestRocAuc:
    def test_perfect_and_inverted(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
        assert roc_auc([0.9, 0.1], [0, 1]) == 0.0

    def test_hand_counted_with_ties(self):
        # positive 1.0 vs negatives (1.0, 0.0): one tie, one win -> 1.5/2
        assert roc_auc([1.0, 1.0, 0.0], [1, 0, 0]) == 0.75

    def test_all_tied_is_half(self):
        assert roc_auc([3.0, 3.0, 3.0, 3.0], [1, 0, 1, 0]) == 0.5

    def test_label_validation(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [0, 2])
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            roc_auc([0.1], [0, 1])


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.integers(min_value=-1000, max_value=1000).map(float),
                          st.integers(min_value=0, max_value=1)),
                min_size=2, max_size=60).filter(
    lambda rows: len({y for _, y in rows}) == 2))
def test_auc_invariances(rows):
    # integer-valued scores so the transforms below cannot create new ties
    scores = [s for s, _ in rows]
    labels = [y for _, y in rows]
    base = roc_auc(scores, labels)
    # strictly increasing transforms preserve the ranking, hence the AUC
    assert roc_auc([3.0 * s + 7.0 for s in scores], labels) == base
    assert roc_auc([math.atan(s) for s in scores], labels) == base
    # negating scores swaps the classes' roles
    assert roc_auc([-s for s in scores], labels) == pytest.approx(1.0 - base,
                                                                  abs=1e-12)
    assert 0.0 <= base <= 1.0
    # the rank sum equals exhaustive pair counting, ties earning half credit
    pos, neg = [s for s, y in rows if y == 1], [s for s, y in rows if y == 0]
    pairs = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    assert base == pairs / (len(pos) * len(neg))


class TestSplits:
    def test_partition(self):
        train, test = split_indices(100, SplitSpec(0.25, seed=4))
        both = np.concatenate([train, test])
        assert sorted(both.tolist()) == list(range(100))
        assert len(test) == 25

    def test_seed_reproducibility(self):
        a = split_indices(50, SplitSpec(0.2, seed=9))
        b = split_indices(50, SplitSpec(0.2, seed=9))
        c = split_indices(50, SplitSpec(0.2, seed=10))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_stratified_keeps_class_balance(self):
        labels = [1] * 20 + [0] * 80
        _, test = split_indices(100, SplitSpec(0.2, seed=1, stratify=True), labels)
        y = np.asarray(labels)
        assert y[test].sum() == 4 and len(test) == 20

    def test_stratified_needs_labels(self):
        with pytest.raises(ValueError):
            split_indices(100, SplitSpec(0.2, seed=0, stratify=True))

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_indices(9, SplitSpec(0.5, seed=0))

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0.0, seed=0)


def _planted_design(n=400, seed=17, extra_noise=True):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    noise = rng.normal(size=n)
    eta = 1.5 * x - 0.4
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(int)
    rows = [{"x": float(a), "noise": float(b)} for a, b in zip(x, noise)]
    names = ("x", "noise") if extra_noise else ("x",)
    return DesignMatrix.from_rows(rows, y, names)


class TestEvaluateModel:
    def test_report_fields(self):
        d = _planted_design()
        report, model = evaluate_model(d, "any", SplitSpec(0.25, seed=3))
        assert report.target == "any"
        assert report.n_train + report.n_test == d.n_obs
        assert 0.5 < report.auc_in_sample <= 1.0
        assert report.auc_out_of_sample is not None
        assert report.seed == 3
        assert model.converged

    def test_strong_signal_scores_high(self):
        d = _planted_design(n=800, seed=19)
        report, _ = evaluate_model(d, "any", SplitSpec(0.2, seed=5))
        assert report.auc_in_sample > 0.7
        assert abs(report.auc_in_sample - report.auc_out_of_sample) < 0.15

    @pytest.mark.parametrize("stratify", [False, True])
    def test_aucs_score_the_rows_as_predict_proba_does(self, stratify):
        """Both AUCs rank the probabilities ``predict_proba`` gives the train and
        test rows' feature values, to the last bit."""
        d = _planted_design(n=500, seed=31)
        spec = SplitSpec(0.2, seed=7, stratify=stratify)
        report, model = evaluate_model(d, "any", spec)
        train, test = split_indices(d.n_obs, spec, d.y if stratify else None)
        values = d.X[:, 1:]
        for auc, rows in ((report.auc_in_sample, train), (report.auc_out_of_sample, test)):
            probs = predict_proba(model, values[rows], d.feature_names)
            assert auc == roc_auc(probs, d.y[rows].astype(int))


class TestAblation:
    def test_removing_signal_costs_fit_quality(self):
        d = _planted_design(n=600, seed=23)
        res = ablation_compare(d, "any", ["x"])
        assert isinstance(res, AblationResult)
        assert res.group == "x"
        assert res.difference == pytest.approx(res.r2_with - res.r2_without)
        assert res.difference > 0.05

    def test_removing_noise_barely_matters(self):
        d = _planted_design(n=600, seed=27)
        res = ablation_compare(d, "any", ["noise"])
        assert abs(res.difference) < 0.02


class TestDescriptiveStats:
    def test_group_means(self):
        feats = np.array([[1.0], [3.0], [10.0], [20.0]])
        stats, notes = descriptive_stats(feats, [0, 0, 1, 1])
        assert notes == []
        mean_acc, std_acc, mean_noacc, _ = stats[0]
        assert mean_noacc == pytest.approx(2.0)
        assert mean_acc == pytest.approx(15.0)
        assert std_acc == pytest.approx(np.std([10, 20], ddof=1))

    def test_empty_group_noted(self):
        stats, notes = descriptive_stats(np.array([[1.0]]), [0])
        assert any("acc" in n for n in notes)
        assert np.isnan(stats[0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            descriptive_stats(np.array([[1.0]]), [0, 1])


class TestCorrelationMatrix:
    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(41)
        feats = np.array([[v, w, v + w] for v, w in rng.normal(size=(50, 2))])
        corr, notes = correlation_matrix(feats, ["a", "b", "c"])
        assert notes == []
        assert np.allclose(np.diag(corr), 1.0)
        assert np.allclose(corr, corr.T)
        assert corr[0, 2] > 0.5

    def test_zero_variance_noted(self):
        feats = np.array([[1.0, 5.0], [2.0, 5.0]])
        corr, notes = correlation_matrix(feats, ["a", "k"])
        assert len(notes) == 1
        assert math.isnan(corr[0, 1])
