"""Pinned discrete outcomes of the model path: which columns each fit keeps,
how many IRLS steps it takes, how the rows split.

These are counts, names and index sets, not model-JSON digests: IRLS runs
through BLAS matrix products, whose last bits may differ between machines.
"""
import hashlib
import json

import numpy as np
import pytest

from drivescore.evaluation import SplitSpec, split_indices

from conftest import csv_rows, run_cli

SINGLE_CLASS_NOTE = "test partition single-class; out-of-sample AUC undefined"

# target: (columns, n_iter, converged, flagged, dropped_columns, eval_report note)
FIT_PINS = {
    "any": (["const", "trips_day", "over_400", "avg_trip_mil", "d_business_m",
             "max_sp", "a1", "a2"], 5, True, [], [], ""),
    "weak": (["const", "d_total_m", "d_business_m"], 6, True, [], [], ""),
    "medium": (["const", "d_day_m", "a1"], 7, True, [], [], SINGLE_CLASS_NOTE),
    "strong": (["const", "trips_day", "below_30_pr", "over_200", "over_400",
                "avg_trip_mil", "avg_trip_dur", "d_evening_jam_m", "ej_m_pr",
                "avg_sp", "max_n_sp"], 8, True, [], [], ""),
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
