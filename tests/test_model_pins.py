"""Pinned discrete outcomes of the model path: which columns each fit keeps
and drops in what order, how many IRLS steps it takes, how the rows split.

These are counts, names and index sets, not model-JSON digests: IRLS runs
through BLAS matrix products, whose last bits may differ between machines.
"""
import hashlib
import json

import numpy as np
import pytest

from drivescore.evaluation import SplitSpec, split_indices
from drivescore.features import MODEL_FEATURE_NAMES

from conftest import csv_rows, run_cli

SINGLE_CLASS_NOTE = "test partition single-class; out-of-sample AUC undefined"

# target: (columns, n_iter, converged, flagged, dropped_columns, eval_report note)
FIT_PINS = {
    "any": (["const", "trips_day", "over_400", "avg_trip_mil", "d_business_m",
             "max_sp", "a1", "a2"], 3, True, [], [], ""),
    "weak": (["const", "d_total_m", "d_business_m"], 3, True, [], [], ""),
    "medium": (["const", "d_day_m", "a1"], 3, True, [], [], SINGLE_CLASS_NOTE),
    "strong": (["const", "trips_day", "below_30_pr", "over_200", "over_400",
                "avg_trip_mil", "avg_trip_dur", "d_evening_jam_m", "ej_m_pr",
                "avg_sp", "max_n_sp"], 3, True, [], [], ""),
}

# target: the columns backward elimination dropped, in drop order
ELIMINATION_PINS = {
    "any": """s2 max_ej_sp d_evening_jam_m m_pr_over_130 avg_trip_dur below_30_pr
              m_pr_over_100 a3 below_10_pr over_200 s3 mileage ej_m_pr m_pr_below_20
              m_pr_below_60 avg_sp max_n_sp s1 d1 max_mj_sp day_m_pr d_day_m d_night_m
              d3 d_morning_jam_m d_holi_m d_total_m d2""".split(),
    "weak": """d1 below_30_pr max_mj_sp s3 mileage trips_day avg_trip_dur max_ej_sp
               over_200 max_n_sp m_pr_over_100 day_m_pr m_pr_over_130 d_night_m d_day_m
               ej_m_pr d_evening_jam_m avg_sp m_pr_below_20 a2 m_pr_below_60 max_sp
               d_morning_jam_m s2 below_10_pr s1 d3 avg_trip_mil over_400 d_holi_m a3
               a1 d2""".split(),
    "medium": """s3 d_business_m mileage m_pr_over_130 m_pr_over_100 over_400 s1
                 m_pr_below_60 avg_trip_mil below_30_pr ej_m_pr d_evening_jam_m d_total_m
                 s2 avg_sp m_pr_below_20 max_mj_sp d1 d_holi_m a2 d3 a3 d2 d_night_m
                 max_ej_sp max_n_sp avg_trip_dur below_10_pr day_m_pr over_200
                 d_morning_jam_m max_sp trips_day""".split(),
    "strong": """d1 max_sp a1 m_pr_below_60 s1 s3 a3 d3 d_total_m a2 d_night_m
                 below_10_pr m_pr_over_100 s2 m_pr_over_130 d_morning_jam_m max_mj_sp
                 d_business_m day_m_pr d_holi_m d_day_m mileage d2 max_ej_sp
                 m_pr_below_20""".split(),
}


@pytest.fixture(scope="module")
def ci_fit(tmp_path_factory):
    """``fit`` on the population the CI model chain uses."""
    d = tmp_path_factory.mktemp("cifit")
    assert run_cli("synth", "--n", 400, "--weeks", 8, "--seed", 0, "--out-dir", d) == 0
    assert run_cli("fit", "--features", d / "features.csv", "--claims", d / "claims.csv",
                   "--out-dir", d / "fit") == 0
    return d / "fit"


@pytest.mark.parametrize("target", list(FIT_PINS))
def test_fit_outcomes(ci_fit, target):
    columns, n_iter, converged, flagged, dropped, note = FIT_PINS[target]
    model = json.loads((ci_fit / f"model_{target}.json").read_text())
    assert (model["columns"], model["n_iter"], model["converged"], model["flagged"],
            model["dropped_columns"]) == (columns, n_iter, converged, flagged, dropped)
    assert [step["column"] for step in model["elimination"]] == ELIMINATION_PINS[target]
    assert sorted(model["columns"][1:] + ELIMINATION_PINS[target] + dropped) == \
        sorted(MODEL_FEATURE_NAMES)
    row, = [r for r in csv_rows(ci_fit / "eval_report.csv") if r["target"] == target]
    assert (row["n_train"], row["n_test"], row["note"]) == ("360", "40", note)


def _header_and_rows(path):
    """The header line of a CSV artifact and its data rows as dicts."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return lines[0], csv_rows(path)


def test_report_layouts(ci_fit):
    """The header and discrete cells of eval_report.csv and ablation.csv.

    The medium target's test partition is single-class, so its out-of-sample
    AUC cell is empty.  Float cells are not pinned (see the module docstring).
    """
    header, rows = _header_and_rows(ci_fit / "eval_report.csv")
    assert header == ("target,auc_in_sample,auc_out_of_sample,mcfadden_r2,"
                      "n_train,n_test,seed,note")
    assert [r["target"] for r in rows] == list(FIT_PINS)
    assert [r["seed"] for r in rows] == ["0"] * len(FIT_PINS)
    assert [r["target"] for r in rows if r["auc_out_of_sample"] == ""] == ["medium"]

    book = ci_fit.parent
    assert run_cli("ablate", "--features", book / "features.csv",
                   "--claims", book / "claims.csv", "--out-dir", book / "ablate") == 0
    header, rows = _header_and_rows(book / "ablate" / "ablation.csv")
    assert header == "target,group,r2_with,r2_without,difference"
    assert [(r["target"], r["group"]) for r in rows] == \
        [(target, "a1 a2 a3 d1 d2 d3 s1 s2 s3") for target in FIT_PINS]


def test_split_indices_digest():
    """Every split over a grid of sizes, fractions, seeds and both modes; a
    stratified split whose test side would be empty is pinned as that error."""
    h = hashlib.sha256()
    for n in (10, 11, 37, 100, 999, 5000):
        labels = (np.arange(n) * 7919 % 13 < 3).astype(int)
        for fraction in (0.01, 0.05, 0.1, 0.25, 0.5, 0.9):
            for seed in range(5):
                for stratify in (False, True):
                    spec = SplitSpec(fraction, seed=seed, stratify=stratify)
                    try:
                        parts = split_indices(n, spec, labels if stratify else None)
                    except ValueError as exc:
                        h.update(str(exc).encode())
                        continue
                    for part in parts:
                        h.update(part.astype(np.int64).tobytes())
    assert h.hexdigest() == "60f347f24313b01d9e4055a345fbacb343c29ffbe9095975263c7b64abbde12e"
