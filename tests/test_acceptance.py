"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every criterion prints ``criterion NN <label>: PASS/FAIL (<detail>)`` so a
plain pytest run doubles as a checklist.  Oracles here are deliberately
independent of the library code they check: AUC against exhaustive pair
counting, the fitter against a derivative-free likelihood maximizer, the
feature pipeline against a hand-computed fixture.
"""
import json
import math
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from drivescore.evaluation import roc_auc
from drivescore.features import (FEATURE_CSV_COLUMNS, FEATURE_NAMES, FeatureTable,
                                 compute_feature_table, feature_rows)
from drivescore.fileio import write_csv
from drivescore.glm import DesignMatrix, fit_logistic, load_reference_models, \
    predict_proba
from drivescore.ingest import parse_event_file
from drivescore.labeling import ClaimRecord, classify_severity
from drivescore.trips import roll_up
from conftest import GOLDEN_WEEK, csv_rows, run_cli

UTC = timezone.utc
RECOVERY_SEEDS = tuple(range(20))
SHAPE_SEEDS = (0, 1, 2, 3, 4)


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


# --- 1: rank-sum AUC equals exhaustive pair counting -----------------------

def _auc_by_pairs(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum()
    return wins / (len(pos) * len(neg))


def test_criterion_01_auc_matches_pair_counting():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(2, 501))
        n_pos = int(rng.integers(1, n))
        labels = np.zeros(n, dtype=int)
        labels[:n_pos] = 1
        rng.shuffle(labels)
        if i % 2 == 0:
            scores = rng.integers(0, 5, size=n).astype(float)  # heavy ties
        else:
            scores = rng.normal(size=n)
        got = roc_auc(list(scores), list(labels))
        want = _auc_by_pairs(scores, labels)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _line(1, "auc vs pair counting", worst <= 1e-12 and elapsed < 5.0,
          f"max|diff|={worst:.2e} over 200 instances in {elapsed:.2f}s")


# --- 2: the fitter agrees with a derivative-free maximizer -----------------

def _loglik(X1, y, beta):
    eta = X1 @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _golden_max(f, lo, hi, tol=1e-12):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _coordinate_ascent(X1, y, start):
    beta = np.array(start, dtype=float)
    span = 8.0
    for _ in range(200):
        moved = 0.0
        for j in range(len(beta)):
            def slice_ll(v, j=j):
                trial = beta.copy()
                trial[j] = v
                return _loglik(X1, y, trial)
            best = _golden_max(slice_ll, beta[j] - span, beta[j] + span)
            moved = max(moved, abs(best - beta[j]))
            beta[j] = best
        span = max(4.0 * moved, 1e-6)
        if moved < 1e-9:
            break
    return beta


def _design(X, y, names):
    rows = [dict(zip(names, map(float, xr))) for xr in X]
    return DesignMatrix.from_rows(rows, list(map(int, y)), tuple(names))


def test_criterion_02_fitter_matches_brute_force():
    rng = np.random.default_rng(202)
    worst_beta = worst_score = 0.0
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 200, "could not draw 50 non-separated problems"
        n = 60
        X = rng.normal(size=(n, 2))
        beta_true = rng.uniform(-1.5, 1.5, size=3)
        X1 = np.column_stack([np.ones(n), X])
        p = 1.0 / (1.0 + np.exp(-(X1 @ beta_true)))
        y = (rng.random(n) < p).astype(int)
        if y.sum() in (0, n):
            continue
        try:
            m = fit_logistic(_design(X, y, ("mileage", "avg_sp")), tol=1e-10)
        except Exception:
            continue  # separated or degenerate draw, redraw
        beta_hat = np.array(m.coef)
        brute = _coordinate_ascent(X1, y, beta_hat + rng.normal(scale=0.01, size=3))
        score = X1.T @ (y - 1.0 / (1.0 + np.exp(-(X1 @ beta_hat))))
        worst_beta = max(worst_beta, float(np.max(np.abs(beta_hat - brute))))
        worst_score = max(worst_score, float(np.max(np.abs(score))))
        done += 1

    # intercept-only closed form: logit of the base rate
    worst_icpt = 0.0
    for n_pos, n in ((17, 60), (30, 60), (3, 50), (45, 50)):
        y = np.array([1] * n_pos + [0] * (n - n_pos))
        m = fit_logistic(_design(np.empty((n, 0)), y, ()), tol=1e-12)
        want = math.log(n_pos / (n - n_pos))
        worst_icpt = max(worst_icpt, abs(m.coef[0] - want))

    ok = worst_beta <= 1e-4 and worst_score <= 1e-8 and worst_icpt <= 1e-8
    _line(2, "irls vs brute force",
          ok, f"max|dbeta|={worst_beta:.2e} max|score|={worst_score:.2e} "
              f"intercept err={worst_icpt:.2e} over {done} problems")


# --- 3: AIC identity --------------------------------------------------------

def test_criterion_03_aic_identity():
    rng = np.random.default_rng(303)
    exact = True
    for _ in range(10):
        n = 120
        X = rng.normal(size=(n, 3))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(int)
        if y.sum() in (0, n):
            continue
        m = fit_logistic(_design(X, y, ("mileage", "avg_sp", "a1")))
        exact &= (m.aic == 2.0 * len(m.coef) - 2.0 * m.log_likelihood)
    anchor = 2.0 * 7 - 2.0 * (-2080.0)
    anchor_ok = abs(anchor - 4174.6) <= 1.0
    _line(3, "aic identity", exact and anchor_ok,
          f"identity exact on random fits; anchor 2*7-2*(-2080)={anchor} "
          f"vs 4174.6 (published log-likelihood rounded to integer)")


# --- 4-6: closed loop on the planted-truth generator ------------------------

def _model_payload(d, target):
    return json.loads((d / f"model_{target}.json").read_text())


def _seed_recovers(d) -> bool:
    truth = json.loads((d / "truth.json").read_text())
    for target, planted in truth["planted_betas"].items():
        payload = _model_payload(d, target)
        coef, se = payload["coef"], payload["se"]
        for name, beta in planted.items():
            if name == "const":
                continue  # intercept pins the event rate, not a style signal
            if name not in coef:
                return False
            est = float(coef[name])
            if math.copysign(1.0, est) != math.copysign(1.0, beta):
                return False
            if abs(est - beta) > 3.0 * float(se[name]):
                return False
    return True


def test_criterion_04_planted_coefficients_recovered(closed_loop):
    recovered = 0
    slow = []
    for seed in RECOVERY_SEEDS:
        d = closed_loop(seed)
        elapsed = float((d / "elapsed_synth_fit.txt").read_text())
        if elapsed >= 60.0:
            slow.append((seed, elapsed))
        if _seed_recovers(d):
            recovered += 1
    ok = recovered >= 18 and not slow
    _line(4, "planted coefficient recovery", ok,
          f"{recovered}/20 seeds fully recovered (need >=18); slow={slow}")


def _any_row(d):
    rows = csv_rows(d / "eval_report.csv")
    (row,) = [r for r in rows if r["target"] == "any"]
    return float(row["auc_in_sample"]), float(row["auc_out_of_sample"])


def test_criterion_05_auc_bracket_and_generalization(closed_loop):
    details = []
    ok = True
    for seed in SHAPE_SEEDS:
        auc_in, auc_out = _any_row(closed_loop(seed))
        good = 0.63 <= auc_in <= 0.73 and abs(auc_in - auc_out) < 0.05
        ok &= good
        details.append(f"s{seed}:{auc_in:.3f}/{auc_out:.3f}")
    _line(5, "auc in [0.63,0.73], gap < 0.05", ok, " ".join(details))


def test_criterion_06_acceleration_ablation(closed_loop):
    positive = 0
    for seed in RECOVERY_SEEDS:
        rows = csv_rows(closed_loop(seed) / "ablation.csv")
        assert len(rows) == 4
        if min(float(r["difference"]) for r in rows) > 0.0:
            positive += 1
    _line(6, "ablation strictly lowers fit quality", positive >= 19,
          f"{positive}/20 seeds positive on all four targets (need >=19)")


# --- 7: severity boundaries --------------------------------------------------

def test_criterion_07_severity_grid():
    ins = 10000.0
    # boundary cases land on exactly representable ratios
    assert 4.0 * 125 / ins == 0.05 and 4.0 * 500 / ins == 0.20
    mismatches = []
    for i in range(1000):
        loss = 4.0 * i
        culprit = (i % 7 != 5)
        got = classify_severity(ClaimRecord("g", loss, ins, culprit))
        r = loss / ins
        if not culprit or r == 0.0:
            want = "none"
        elif r < 0.05:
            want = "weak"
        elif r <= 0.20:
            want = "medium"
        else:
            want = "strong"
        if got != want:
            mismatches.append((i, got, want))
    _line(7, "severity classification grid", not mismatches,
          f"1000 cases spanning 0.05/0.20 boundaries, zero loss and "
          f"non-culprit; mismatches={mismatches[:5]}")


# --- 8: hand-computed weekly fixture -----------------------------------------

# Three trips on one ISO week (Mon 2019-02-04 .. Sun 2019-02-10, UTC):
#   Mon 08:10  5 km at 30 kph (morning jam, daytime, business day)
#   Wed 02:00 15 km at 15 kph (night, business day)
#   Sat 10:00 250 km at 120 kph with one 150 kph burst (daytime, holiday class)
# One harsh acceleration, one harsh braking, one harsh turn on the Monday trip.
GOLDEN_EXPECTED = {
    "mileage": 270.0,
    "trips_day": 1.0,                      # 3 trips / 3 active days
    "below_10_pr": 100.0 / 3.0,
    "below_30_pr": 200.0 / 3.0,
    "over_200": 100.0 / 3.0,
    "over_400": 0.0,
    "d_total_m": 270.0 / 3.0,
    "avg_trip_mil": 270.0 / 3.0,
    "avg_trip_dur": (600.0 + 3600.0 + 7500.0) / 3.0,
    "d_business_m": (5.0 + 15.0) / 2.0,    # two business days covered
    "d_day_m": (5.0 + 250.0) / 3.0,
    "d_evening_jam_m": 0.0,
    "d_morning_jam_m": 5.0 / 3.0,
    "d_holi_m": 250.0 / 1.0,
    "d_night_m": 15.0 / 3.0,
    "day_m_pr": 100.0 * 255.0 / 270.0,
    "ej_m_pr": 0.0,
    "avg_sp": (5.0 * 30.0 + 15.0 * 15.0 + 250.0 * 120.0) / 270.0,
    "max_sp": 150.0,
    "max_ej_sp": 0.0,
    "max_mj_sp": 30.0,
    "max_n_sp": 15.0,
    "m_pr_below_20": 100.0 * 15.0 / 270.0,
    "m_pr_below_60": 100.0 * 20.0 / 270.0,
    "m_pr_over_100": 100.0 * 250.0 / 270.0,
    "m_pr_over_130": 0.0,
    "a1": 100.0 / 270.0, "a2": 0.0, "a3": 0.0,
    "d1": 100.0 / 270.0, "d2": 0.0, "d3": 0.0,
    "s1": 0.0, "s2": 100.0 / 270.0, "s3": 0.0,
    "sp1": 0.0, "sp2": 0.0, "sp3": 0.0,
}
assert set(GOLDEN_EXPECTED) == set(FEATURE_NAMES)


def test_criterion_08_golden_week_fixture():
    logs = []
    with open(GOLDEN_WEEK, "rb") as fh:
        res = parse_event_file(fh, logs.append)
    assert not res.skipped
    (log,) = logs
    trips, hourly = roll_up(log)
    table = compute_feature_table(hourly, trips, "weekly")
    assert table.device_ids == ("g1",)
    assert table.window_kinds == ("weekly",)
    assert table.window_starts == (datetime(2019, 2, 4, tzinfo=UTC),)
    assert table.quality_flags == ((),)
    fv = dict(zip(FEATURE_NAMES, table.values[0].tolist()))
    worst = max(abs(fv[n] - GOLDEN_EXPECTED[n]) for n in FEATURE_NAMES)
    _line(8, "hand-computed weekly features", worst <= 1e-9,
          f"3-trip fixture, max|err|={worst:.2e} across {len(FEATURE_NAMES)} fields")


# --- 9: published reference models -------------------------------------------

def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def test_criterion_09_reference_model_scoring(tmp_path):
    zero = FeatureTable(("z0",), ("lifetime",), (datetime(2020, 1, 1, tzinfo=UTC),),
                        ((),), np.zeros((1, len(FEATURE_NAMES))))
    write_csv(tmp_path / "features.csv", FEATURE_CSV_COLUMNS, feature_rows(zero))
    assert run_cli("score", "--model", "paper-reference", "--target", "any",
                   "--features", tmp_path / "features.csv",
                   "--out-dir", tmp_path) == 0
    rows = csv_rows(tmp_path / "scores.csv")
    (row,) = rows
    got = float(row["probability"])
    want = 1.0 / (1.0 + math.exp(2.880))
    base_err = abs(got - want)

    # unit increment in any retained feature shifts the log-odds by exactly
    # the published coefficient
    worst_shift = 0.0
    zeros = np.zeros((1, len(FEATURE_NAMES)))
    for model in load_reference_models().values():
        (p0,) = predict_proba(model, zeros, FEATURE_NAMES)
        for name, coef in zip(model.columns, model.coef):
            if name == "const":
                continue
            bumped = zeros.copy()
            bumped[0, FEATURE_NAMES.index(name)] = 1.0
            (p1,) = predict_proba(model, bumped, FEATURE_NAMES)
            shift = _logit(p1) - _logit(p0)
            worst_shift = max(worst_shift, abs(shift - coef))
    _line(9, "reference model scoring", base_err <= 1e-6 and worst_shift <= 1e-12,
          f"p(zero)={got:.6f} vs 1/(1+e^2.880) err={base_err:.2e}; "
          f"max log-odds shift err={worst_shift:.2e}")


# --- 10: byte-identical reruns ------------------------------------------------

def _run_chain(base, fit_src):
    def out(name):
        p = base / name
        p.mkdir(parents=True, exist_ok=True)
        return p

    synth = out("synth")
    assert run_cli("synth", "--n", 160, "--weeks", 8, "--seed", 7,
                   "--logs", "--logs-limit", 2, "--out-dir", synth) == 0
    assert run_cli("parse", "--events", synth / "events.jsonl",
                   "--out-dir", out("parse")) == 0
    agg = out("agg")
    assert run_cli("aggregate", "--events", synth / "events.jsonl",
                   "--tz", "UTC", "--out-dir", agg) == 0
    assert run_cli("features", "--hourly", agg / "hourly.csv",
                   "--trips", agg / "trips.csv", "--window", "lifetime",
                   "--tz", "UTC", "--out-dir", out("feat")) == 0
    assert run_cli("label", "--claims", synth / "claims.csv",
                   "--out-dir", out("label")) == 0
    score = out("score")
    assert run_cli("score", "--model", "paper-reference", "--target", "any",
                   "--features", synth / "features.csv", "--out-dir", score) == 0
    assert run_cli("premium", "--scores", score / "scores.csv",
                   "--loss", 45000, "--admin", 1000, "--margin", 500,
                   "--out-dir", out("prem")) == 0
    fit_args = ("--features", fit_src / "features.csv",
                "--claims", fit_src / "claims.csv",
                "--alpha", 0.05, "--test-fraction", 0.10, "--seed", 0)
    assert run_cli("fit", *fit_args, "--out-dir", out("fit")) == 0
    assert run_cli("evaluate", *fit_args, "--out-dir", out("eval")) == 0
    assert run_cli("ablate", "--features", fit_src / "features.csv",
                   "--claims", fit_src / "claims.csv", "--group", "accel",
                   "--out-dir", out("abl")) == 0
    assert run_cli("report", "--features", fit_src / "features.csv",
                   "--claims", fit_src / "claims.csv",
                   "--out-dir", out("rep")) == 0


def test_criterion_10_reruns_are_byte_identical(closed_loop, tmp_path):
    fit_src = closed_loop(0)
    a, b = tmp_path / "a", tmp_path / "b"
    _run_chain(a, fit_src)
    _run_chain(b, fit_src)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    diffs = [str(rel) for rel in files_a
             if (a / rel).read_bytes() != (b / rel).read_bytes()]
    same_eval = (a / "fit" / "eval_report.csv").read_bytes() == \
        (a / "eval" / "eval_report.csv").read_bytes()
    _line(10, "byte-identical reruns", not diffs and same_eval,
          f"{len(files_a)} artifacts compared across full command chain; "
          f"diffs={diffs[:5]}; evaluate matches fit report: {same_eval}")
