"""Command-line pipeline: artifacts, exit codes, config handling."""
import csv
import json
import math
import tracemalloc
from datetime import datetime
from itertools import dropwhile

import pytest

from drivescore import evaluation
from drivescore.evaluation import DegenerateLabelsError
from drivescore.features import ACCEL_FEATURES, FEATURE_CSV_COLUMNS, FEATURE_NAMES
from drivescore.fileio import fmt_float, iter_csv_records, write_csv
from drivescore.glm import (FittedModel, model_to_dict, fit_logistic, DesignMatrix,
                           predict_proba)
from drivescore.labeling import CLAIMS_CSV_COLUMNS, claim_from_row
from drivescore.synthgen import SynthConfig, generate_population
from conftest import csv_rows as rows_of, run_cli

import numpy as np


class TestSynthArtifacts:
    def test_outputs_exist(self, small_pop):
        for name in ("features.csv", "claims.csv", "truth.json", "events.jsonl"):
            assert (small_pop / name).exists(), name

    def test_features_csv_shape(self, small_pop):
        rows = rows_of(small_pop / "features.csv")
        assert len(rows) == 160
        assert rows[0]["window_kind"] == "lifetime"
        assert float(rows[0]["mileage"]) > 0

    def test_truth_lists_all_targets(self, small_pop):
        truth = json.loads((small_pop / "truth.json").read_text())
        assert set(truth["planted_betas"]) == {"weak", "medium", "strong"}
        assert truth["n_drivers"] == 160

    def test_claims_csv_reads_back_as_the_generated_claims(self, tmp_path):
        assert run_cli("synth", "--n", 300, "--weeks", 8, "--seed", 4,
                       "--out-dir", tmp_path) == 0
        got = list(iter_csv_records(tmp_path / "claims.csv", CLAIMS_CSV_COLUMNS, claim_from_row))
        assert got == generate_population(SynthConfig(300, 8, 4)).claims

    def test_requires_population_size(self, tmp_path):
        assert run_cli("synth", "--weeks", 4, "--out-dir", tmp_path) == 4


class TestEventPipeline:
    def test_parse(self, small_pop, tmp_path, capsys):
        rc = run_cli("parse", "--events", small_pop / "events.jsonl",
                     "--out-dir", tmp_path)
        assert rc == 0
        report = json.loads((tmp_path / "parse_report.json").read_text())
        assert report["n_devices"] == 2
        assert report["skipped"] == []
        assert (tmp_path / "parsed.jsonl").exists()

    def test_parse_report_lists_each_devices_validation_issues(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            f'{{"device":"{dev}","ts":"2021-01-04T10:{m}:00Z","kind":"{kind}"{extra}}}\n'
            for dev, m, kind, extra in [
                ("good", "00", "ignition_on", ""),
                ("good", "05", "position", ',"lat":0.0,"lon":1.0'),
                ("good", "08", "speed", ',"speed_kph":300.0'),  # at the threshold: clean
                ("good", "10", "ignition_off", ""),
                ("bad", "00", "ignition_on", ""),
                ("bad", "10", "ignition_on", ""),
                ("bad", "20", "speed", ',"speed_kph":350.5'),
                ("bad", "30", "ignition_off", ""),
                ("bad", "40", "ignition_off", ""),
                ("bad", "50", "ignition_on", "")]))
        assert run_cli("parse", "--events", events, "--out-dir", tmp_path) == 0
        report = json.loads((tmp_path / "parse_report.json").read_text())
        at = "2021-01-04 10:{}:00+00:00".format
        assert report["validation"] == {"bad": [
            {"code": "unterminated_trip",
             "message": f"unterminated trip: ignition_on at {at('00')} "
                        f"followed by ignition_on at {at('10')}"},
            {"code": "suspect_speed", "message": f"suspect speed 350.5 kph at {at('20')}"},
            {"code": "unmatched_ignition_off",
             "message": f"ignition_off at {at('40')} without ignition_on"},
            {"code": "unterminated_trip",
             "message": f"unterminated trip: ignition_on at {at('50')} never closed"},
        ]}

    def test_aggregate_then_features(self, small_pop, tmp_path):
        assert run_cli("aggregate", "--events", small_pop / "events.jsonl",
                       "--tz", "UTC", "--out-dir", tmp_path) == 0
        hourly = rows_of(tmp_path / "hourly.csv")
        trips = rows_of(tmp_path / "trips.csv")
        assert hourly and trips
        assert sum(float(r["mileage_km"]) for r in hourly) == pytest.approx(
            sum(float(r["mileage_km"]) for r in trips), rel=1e-6)
        assert run_cli("features", "--hourly", tmp_path / "hourly.csv",
                       "--trips", tmp_path / "trips.csv", "--window", "lifetime",
                       "--tz", "UTC", "--holidays", "none",
                       "--out-dir", tmp_path) == 0
        fv_rows = rows_of(tmp_path / "features.csv")
        assert len(fv_rows) == 2   # one lifetime row per logged device

    def test_aggregate_reports_skipped_lines(self, small_pop, tmp_path, capsys):
        lines = (small_pop / "events.jsonl").read_text().splitlines(keepends=True)
        events = tmp_path / "events.jsonl"
        events.write_text("".join(lines[:3]) + "{not json\n" + "".join(lines[3:]))
        assert run_cli("aggregate", "--events", events, "--out-dir", tmp_path) == 0
        out, err = capsys.readouterr()
        assert "(1 lines skipped)" in out
        assert err.startswith("line 4: ")
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["events.jsonl", "hourly.csv", "trips.csv"]

    def test_aggregate_skips_non_finite_numbers(self, small_pop, tmp_path, capsys):
        lines = (small_pop / "events.jsonl").read_text().splitlines(keepends=True)
        bad = '{"device":"d00000","ts":"2021-01-04T10:00:00Z","kind":"speed","speed_kph":Infinity}\n'
        events = tmp_path / "events.jsonl"
        events.write_text("".join(lines[:3]) + bad + "".join(lines[3:]))
        assert run_cli("aggregate", "--events", events, "--out-dir", tmp_path) == 0
        out, err = capsys.readouterr()
        assert "(1 lines skipped)" in out
        assert err == "line 4: speed_kph is not a finite number\n"

    @pytest.mark.parametrize("bad, reason", [
        ('{"device":"d00000","ts":"2021-01-04T10:00:00Z","kind":["position"]}',
         "unknown event kind: ['position']"),
        ('{"device":"d00000","ts":"2021-01-04T10:00:00Z","kind":"acceleration",'
         '"axis":["x"],"accel_g":0.1}', "invalid acceleration axis: ['x']"),
    ])
    def test_unhashable_kind_or_axis_is_a_skipped_line(self, small_pop, tmp_path,
                                                       capsys, bad, reason):
        lines = (small_pop / "events.jsonl").read_text().splitlines(keepends=True)
        events = tmp_path / "events.jsonl"
        events.write_text("".join(lines[:3]) + bad + "\n" + "".join(lines[3:]))
        assert run_cli("parse", "--events", events, "--out-dir", tmp_path) == 0
        report = json.loads((tmp_path / "parse_report.json").read_text())
        assert report["skipped"] == [{"line": 4, "reason": reason}]
        capsys.readouterr()
        assert run_cli("aggregate", "--events", events, "--out-dir", tmp_path) == 0
        assert capsys.readouterr().err == f"line 4: {reason}\n"

    def test_aggregate_names_a_device_without_trips(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"device":"parked","ts":"2021-01-04T10:00:00Z","kind":"ignition_on"}\n'
            '{"device":"parked","ts":"2021-01-04T10:05:00Z","kind":"ignition_off"}\n')
        assert run_cli("aggregate", "--events", events, "--out-dir", tmp_path) == 0
        out, err = capsys.readouterr()
        assert out == "wrote 0 hourly records and 0 trips (0 lines skipped)\n"
        assert err == "device parked: no trip kept\n"
        assert len(rows_of(tmp_path / "trips.csv")) == 0

    def test_aggregate_default_gap_is_600_s(self, tmp_path):
        # two ignition-less drives 1,200 s apart: one trip under an 1,800 s
        # threshold, two under the 600 s default
        fixes = [(10 * 3600 + 30 * k, 0.003 * k) for k in range(21)]
        fixes += [(t + 1800, lon + 0.1) for t, lon in fixes]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            f'{{"device":"car","ts":"2021-01-04T{t // 3600:02d}:{t // 60 % 60:02d}:'
            f'{t % 60:02d}Z","kind":"position","lat":0.0,"lon":{lon}}}\n'
            for t, lon in fixes))
        runs = {"default": []} | {gap: ["--gap-threshold-s", gap]
                                  for gap in ("600", "1800", "inf")}
        for name, flags in runs.items():
            assert run_cli("aggregate", "--events", events, *flags,
                           "--out-dir", tmp_path / name) == 0
        trips = {name: (tmp_path / name / "trips.csv").read_bytes() for name in runs}
        assert len(rows_of(tmp_path / "default" / "trips.csv")) == 2
        assert len(rows_of(tmp_path / "1800" / "trips.csv")) == 1
        assert trips["inf"] == trips["1800"]  # an infinite threshold never splits
        assert trips["default"] == trips["600"]
        assert (tmp_path / "default" / "hourly.csv").read_bytes() == \
            (tmp_path / "600" / "hourly.csv").read_bytes()

    def test_parse_rewrites_its_own_output_unchanged(self, small_pop, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("parse", "--events", small_pop / "events.jsonl",
                       "--out-dir", first) == 0
        assert run_cli("parse", "--events", first / "parsed.jsonl",
                       "--out-dir", second) == 0
        assert (second / "parsed.jsonl").read_bytes() == (first / "parsed.jsonl").read_bytes()

    def test_weekly_window_multiplies_rows(self, small_pop, tmp_path):
        assert run_cli("aggregate", "--events", small_pop / "events.jsonl",
                       "--out-dir", tmp_path) == 0
        assert run_cli("features", "--hourly", tmp_path / "hourly.csv",
                       "--trips", tmp_path / "trips.csv", "--window", "weekly",
                       "--out-dir", tmp_path) == 0
        weekly = rows_of(tmp_path / "features.csv")
        assert len(weekly) > 2
        assert {r["window_kind"] for r in weekly} == {"weekly"}


# Traced peak bytes per event of a whole command, measured on the 22k-event
# small_pop log (Python 3.11): parse 99, aggregate 154.  The bounds add 30%
# for allocator and interpreter differences.  With one tuple, datetime and
# floats per event they were 316 and 309; before the JSONL writers streamed,
# 672 and 443.
PARSE_PEAK_B_PER_EVENT = 130
AGGREGATE_PEAK_B_PER_EVENT = 200


class TestEventCommandMemory:
    def _peak_per_event(self, command, events, out_dir):
        n_events = sum(1 for _ in events.open())
        assert n_events >= 10_000
        tracemalloc.start()
        try:
            assert run_cli(command, "--events", events, "--out-dir", out_dir) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / n_events

    def test_parse_holds_each_event_once(self, small_pop, tmp_path):
        peak = self._peak_per_event("parse", small_pop / "events.jsonl", tmp_path)
        assert peak < PARSE_PEAK_B_PER_EVENT

    def test_aggregate_holds_each_event_once(self, small_pop, tmp_path):
        peak = self._peak_per_event("aggregate", small_pop / "events.jsonl", tmp_path)
        assert peak < AGGREGATE_PEAK_B_PER_EVENT


# Traced peak bytes per feature row of a whole command, measured on the
# 5000-row closed-loop book (Python 3.11): report 1146, score 883.  The
# bounds leave about 25% headroom.  With a dict, a tuple and a list of floats
# per row held until the matrix was built they were 1926 and 1893.
REPORT_PEAK_B_PER_ROW = 1430
SCORE_PEAK_B_PER_ROW = 1090


class TestModelCommandMemory:
    def _peak_per_row(self, book, *args):
        n_rows = len(rows_of(book / "features.csv"))
        assert n_rows >= 5000
        tracemalloc.start()
        try:
            assert run_cli(*args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / n_rows

    def test_report_holds_each_row_once(self, closed_loop, tmp_path):
        book = closed_loop(0)
        peak = self._peak_per_row(book, "report", "--features", book / "features.csv",
                                  "--claims", book / "claims.csv", "--out-dir", tmp_path)
        assert peak < REPORT_PEAK_B_PER_ROW

    def test_score_holds_each_row_once(self, closed_loop, tmp_path):
        book = closed_loop(0)
        peak = self._peak_per_row(book, "score", "--model", "paper-reference",
                                  "--features", book / "features.csv", "--out-dir", tmp_path)
        assert peak < SCORE_PEAK_B_PER_ROW


class TestLabel:
    @pytest.mark.parametrize("cell,loss,ins", [
        ("loss_size", "nan", "1000"), ("ins_sum", "100", "inf")])
    def test_non_finite_amount_exits_1_naming_the_row(self, tmp_path, capsys, cell, loss, ins):
        bad = tmp_path / "claims.csv"
        bad.write_text(f"device,loss_size,ins_sum,culprit\nd1,100,1000,1\nd2,{loss},{ins},1\n")
        assert run_cli("label", "--claims", bad, "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: data row 2: {cell} must be finite")
        assert not (tmp_path / "out").exists()

    def test_oversized_cell_exits_1_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "claims.csv"
        bad.write_text(f"device,loss_size,ins_sum,culprit\nd1,100,1000,1\n{'d' * 200_000},1,2,1\n")
        assert run_cli("label", "--claims", bad, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: field larger than field limit (131072)\n"
        assert not (tmp_path / "out").exists()

    def test_labels_csv(self, small_pop, tmp_path):
        assert run_cli("label", "--claims", small_pop / "claims.csv",
                       "--out-dir", tmp_path) == 0
        labels = rows_of(tmp_path / "labels.csv")
        claims = rows_of(small_pop / "claims.csv")
        assert len(labels) == len(claims)
        assert set(r["class"] for r in labels) <= \
            {"none", "weak", "medium", "strong"}


class TestScoreAndPremium:
    def test_reference_scoring_and_premiums(self, small_pop, tmp_path):
        assert run_cli("score", "--model", "paper-reference", "--target", "any",
                       "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path) == 0
        scores = rows_of(tmp_path / "scores.csv")
        assert len(scores) == 160
        for r in scores[:10]:
            assert 0.0 < float(r["probability"]) < 1.0
        assert run_cli("premium", "--scores", tmp_path / "scores.csv",
                       "--loss", 40000, "--admin", 1200, "--margin", 800,
                       "--out-dir", tmp_path) == 0
        prem = rows_of(tmp_path / "premiums.csv")
        for r in prem[:10]:
            want = float(r["probability"]) * 40000 + 1200 + 800
            assert float(r["premium"]) == pytest.approx(want, rel=1e-12)

    def test_scoring_with_model_file(self, small_pop, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 1))
        y = (rng.random(200) < 1 / (1 + np.exp(-X[:, 0]))).astype(int)
        rows = [{"mileage": float(v)} for v in X[:, 0]]
        model = fit_logistic(DesignMatrix.from_rows(rows, y, ("mileage",)),
                             target="any")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model)))
        assert run_cli("score", "--model", path,
                       "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path) == 0
        features = rows_of(small_pop / "features.csv")
        want = predict_proba(model, np.array([[float(r["mileage"])] for r in features]),
                             ("mileage",))
        assert [(r["device"], r["probability"]) for r in rows_of(tmp_path / "scores.csv")] == \
            [(r["device"], fmt_float(p)) for r, p in zip(features, want)]

    def test_model_file_needs_only_target_columns_and_coef(self, small_pop, tmp_path):
        """score reads nothing else of a model file, so a file without the fit
        statistics scores the same rows as the full one."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 2))
        y = (rng.random(200) < 1 / (1 + np.exp(-X[:, 0] + X[:, 1]))).astype(int)
        rows = [{"mileage": float(a), "avg_sp": float(b)} for a, b in X]
        model = model_to_dict(fit_logistic(DesignMatrix.from_rows(rows, y, ("mileage", "avg_sp")),
                                           target="any"))
        for name, payload in (("full", model),
                              ("minimal", {k: model[k] for k in ("target", "columns", "coef")})):
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
            assert run_cli("score", "--model", tmp_path / f"{name}.json",
                           "--features", small_pop / "features.csv",
                           "--out-dir", tmp_path / name) == 0
        assert rows_of(tmp_path / "minimal" / "scores.csv") == \
            rows_of(tmp_path / "full" / "scores.csv")

    @pytest.mark.parametrize("shape", ["list", "coef list", "null coefficient",
                                       "not JSON", "not UTF-8"])
    def test_malformed_model_file_exits_1_naming_it(self, small_pop, tmp_path, capsys, shape):
        payload = model_to_dict(FittedModel("any", ("intercept", "mileage"), (-1.0, 0.5),
                                            (0.1, 0.1), (0.01, 0.01), -10.0, 24.0, 20, True, 5))
        if shape == "list":
            payload = [payload]
        elif shape == "coef list":
            payload["coef"] = list(payload["coef"].values())
        elif shape == "null coefficient":
            payload["coef"]["mileage"] = None
        text = {"not JSON": b"{\n", "not UTF-8": b'{"target": "any\xff"}\n'}.get(
            shape, json.dumps(payload).encode())
        path = tmp_path / "model.json"
        path.write_bytes(text)
        assert run_cli("score", "--model", path, "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err  # the reason's wording varies with the Python version
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_exits_1_naming_it(self, small_pop, tmp_path, capsys,
                                                      value):
        """json writes and reads NaN and Infinity; a model holding one would
        score every row as an empty probability cell."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"target": "any", "columns": ["intercept", "mileage"],
                                    "coef": {"intercept": -1.0, "mileage": value}}))
        assert run_cli("score", "--model", path, "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {path}: coefficient of mileage is not a finite number: {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("columns, coef, reason", [
        (["mileage", "avg_sp"], {"mileage": -2.0, "avg_sp": 0.01},
         "columns must start with 'const': ['mileage', 'avg_sp']"),
        (["const", "avg_sp", "avg_sp"], {"const": -2.0, "avg_sp": 0.01},
         "columns name a column more than once: ['const', 'avg_sp', 'avg_sp']"),
    ])
    def test_model_columns_start_with_const_and_name_each_once(self, small_pop, tmp_path,
                                                               capsys, columns, coef, reason):
        """Scoring takes the first column as the intercept and adds one term per
        column, so any other first column or a repeated one would misprice."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"target": "any", "columns": columns, "coef": coef}))
        assert run_cli("score", "--model", path, "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
        assert not (tmp_path / "out").exists()

    def test_target_with_model_file_exits_4_before_reading_it(self, small_pop, tmp_path,
                                                               capsys):
        """The file's own target is what gets scored, so a --target beside it is
        refused, before the file is even looked for."""
        assert run_cli("score", "--model", tmp_path / "model.json", "--target", "strong",
                       "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path / "out") == 4
        assert capsys.readouterr().err == \
            "error: --target applies only to --model paper-reference\n"

    def test_premium_requires_loss(self, small_pop, tmp_path):
        assert run_cli("score", "--model", "paper-reference",
                       "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path) == 0
        assert run_cli("premium", "--scores", tmp_path / "scores.csv",
                       "--out-dir", tmp_path) == 4


def _model_inputs(dst, columns, positives):
    """features.csv and claims.csv for devices d000.. with the given feature
    columns (every other feature 0) and one strong claim per positive row."""
    n = len(next(iter(columns.values())))
    rows = [[f"d{i:03d}", "lifetime", "2019-03-04T00:00:00+00:00", ""]
            + [float(columns[name][i]) if name in columns else 0.0
               for name in FEATURE_NAMES]
            for i in range(n)]
    dst.mkdir(parents=True, exist_ok=True)
    write_csv(dst / "features.csv", FEATURE_CSV_COLUMNS, rows)
    write_csv(dst / "claims.csv", CLAIMS_CSV_COLUMNS,
              [[f"d{i:03d}", 30_000.0, 100_000.0, "1"] for i in positives])
    return dst / "features.csv", dst / "claims.csv"


@pytest.fixture(scope="module")
def book(tmp_path_factory):
    """A lifetime book every target fits on: the CI model chain's."""
    d = tmp_path_factory.mktemp("book")
    assert run_cli("synth", "--n", 400, "--weeks", 8, "--seed", 0, "--out-dir", d) == 0
    return d


class TestFitAndReport:
    def test_fit_without_positives_exits_3(self, small_pop, tmp_path, capsys):
        empty = tmp_path / "claims.csv"
        empty.write_text("device,loss_size,ins_sum,culprit\n")
        rc = run_cli("fit", "--features", small_pop / "features.csv",
                     "--claims", empty, "--out-dir", tmp_path)
        assert rc == 3
        assert "needs at least one positive and one negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "evaluate", "ablate"])
    def test_separation_exits_3(self, tmp_path, capsys, command):
        x = [float(i % 20 - 10) for i in range(40)]
        features, claims = _model_inputs(tmp_path, {"a1": x},
                                         [i for i, v in enumerate(x) if v >= 0])
        assert run_cli(command, "--features", features, "--claims", claims,
                       "--out-dir", tmp_path / "out") == 3
        assert "separation; diverging coefficients on columns: a1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "evaluate", "ablate"])
    def test_collinearity_exits_3(self, tmp_path, capsys, command):
        x = np.random.default_rng(0).normal(size=40)
        features, claims = _model_inputs(tmp_path, {"mileage": x + 5, "avg_sp": 2 * x + 10},
                                         range(0, 40, 3))
        assert run_cli(command, "--features", features, "--claims", claims,
                       "--out-dir", tmp_path / "out") == 3
        assert "linearly dependent columns: avg_sp" in capsys.readouterr().err

    def test_failed_fit_leaves_the_out_dir_as_it_was(self, tmp_path, capsys):
        """On this book `any` and `weak` fit and `medium` separates: fit exits 3
        and writes no model, so an earlier run's model file comes through."""
        book, out = tmp_path / "book", tmp_path / "out"
        assert run_cli("synth", "--n", 200, "--weeks", 8, "--seed", 0, "--out-dir", book) == 0
        out.mkdir()
        (out / "model_any.json").write_text("an earlier run's model\n")
        capsys.readouterr()
        assert run_cli("fit", "--features", book / "features.csv",
                       "--claims", book / "claims.csv", "--out-dir", out) == 3
        assert capsys.readouterr().err.startswith(
            "error: complete or quasi-complete separation")
        assert [p.name for p in out.iterdir()] == ["model_any.json"]
        assert (out / "model_any.json").read_text() == "an earlier run's model\n"

    def test_degenerate_labels_exit_3(self, small_pop, tmp_path, capsys, monkeypatch):
        # A fit raises SingleClassError on a one-class sample before any AUC
        # is taken, so no input file brings roc_auc's error up to the CLI;
        # the mapping is pinned through the layer the command imports.
        def degenerate(*args, **kwargs):
            raise DegenerateLabelsError("need at least one positive and one negative label")

        monkeypatch.setattr(evaluation, "evaluate_model", degenerate)
        assert run_cli("evaluate", "--features", small_pop / "features.csv",
                       "--claims", small_pop / "claims.csv", "--out-dir", tmp_path) == 3
        assert capsys.readouterr().err == \
            "error: need at least one positive and one negative label\n"

    def test_report_artifacts(self, small_pop, tmp_path):
        assert run_cli("report", "--features", small_pop / "features.csv",
                       "--claims", small_pop / "claims.csv",
                       "--out-dir", tmp_path) == 0
        desc = rows_of(tmp_path / "descriptive.csv")
        assert {r["feature"] for r in desc} >= {"mileage", "a1", "max_sp"}
        corr = rows_of(tmp_path / "correlation.csv")
        first = corr[0]
        assert float(first[first["feature"]]) == pytest.approx(1.0)

    def test_ablate_grouping(self, closed_loop, tmp_path):
        src = closed_loop(0)
        rc = run_cli("ablate", "--features", src / "features.csv",
                     "--claims", src / "claims.csv",
                     "--group", "mileage,avg_sp", "--out-dir", tmp_path)
        assert rc == 0
        rows = rows_of(tmp_path / "ablation.csv")
        assert [r["target"] for r in rows] == ["any", "weak", "medium", "strong"]
        assert all(r["group"] == "mileage avg_sp" for r in rows)


MODEL_COMMANDS = ("fit", "evaluate", "ablate", "report")


class TestModelUnitIsTheDevice:
    """A claim has no date, so the model commands take one feature row per
    device and count the claims they cannot join."""

    @pytest.fixture(scope="class")
    def weekly(self, small_pop, tmp_path_factory):
        d = tmp_path_factory.mktemp("weekly")
        assert run_cli("aggregate", "--events", small_pop / "events.jsonl", "--out-dir", d) == 0
        assert run_cli("features", "--hourly", d / "hourly.csv", "--trips", d / "trips.csv",
                       "--window", "weekly", "--out-dir", d) == 0
        return d / "features.csv"

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_weekly_features_exit_1(self, small_pop, weekly, tmp_path, capsys, command):
        devices = [r["device"] for r in rows_of(weekly)]
        first, n = devices[0], devices.count(devices[0])
        assert n > 1
        out = tmp_path / "out"
        assert run_cli(command, "--features", weekly, "--claims", small_pop / "claims.csv",
                       "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            f"error: {weekly}: device {first} has {n} feature rows; model commands need "
            "one row per device (features --window lifetime)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_claims_without_a_feature_row_are_counted(self, book, tmp_path, capsys, command):
        claims = tmp_path / "claims.csv"
        rows = (book / "claims.csv").read_text(encoding="utf-8")
        claims.write_text(rows + "ghost-1,100.0,1000.0,1\nghost-2,0.0,1000.0,0\n",
                          encoding="utf-8")
        n = len(rows_of(claims))
        assert run_cli(command, "--features", book / "features.csv", "--claims", claims,
                       "--out-dir", tmp_path / "out") == 0
        assert capsys.readouterr().err == (f"note: 2 of {n} claims name a device with no "
                                           "feature row and are not used\n")

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_joined_claims_print_no_note(self, book, tmp_path, capsys, command):
        assert run_cli(command, "--features", book / "features.csv",
                       "--claims", book / "claims.csv", "--out-dir", tmp_path) == 0
        assert capsys.readouterr().err == ""


def _csv_sample(src, dst, n_rows=10, drop=None, **cells):
    """First rows of a CSV artifact, with one column dropped or row 3 edited."""
    with open(src, newline="", encoding="utf-8") as f:
        reader = csv.reader(dropwhile(lambda ln: ln.startswith("#"), f))
        header = next(reader)
        rows = [row for _, row in zip(range(n_rows), reader)]
    for name, value in cells.items():
        rows[2][header.index(name)] = value
    keep = [j for j, name in enumerate(header) if name != drop]
    with open(dst, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [[r[j] for j in keep] for r in [header] + rows])
    return dst


class TestFeatureInputErrors:
    BAD = [{"drop": "avg_sp"}, {"mileage": "abc"}, {"avg_sp": "inf"},
           {"window_kind": "monthly"}, {"window_start": "not-a-date"}]

    @pytest.mark.parametrize("bad", BAD, ids=["missing_column", "non_numeric",
                                              "inf_in_model_column", "window_kind",
                                              "window_start"])
    @pytest.mark.parametrize("command", ["score", "fit"])
    def test_malformed_features_exit_1(self, small_pop, tmp_path, capsys, bad, command):
        feats = _csv_sample(small_pop / "features.csv", tmp_path / "f.csv", **bad)
        if command == "score":
            args = ("score", "--model", "paper-reference", "--target", "any")
        else:
            args = ("fit", "--claims", small_pop / "claims.csv")
        assert run_cli(*args, "--features", feats, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")

    def test_header_only_exit_codes(self, small_pop, tmp_path):
        feats = _csv_sample(small_pop / "features.csv", tmp_path / "f.csv", n_rows=0)
        claims = small_pop / "claims.csv"
        assert run_cli("fit", "--features", feats, "--claims", claims,
                       "--out-dir", tmp_path) == 3
        assert run_cli("report", "--features", feats, "--claims", claims,
                       "--out-dir", tmp_path) == 1
        assert run_cli("score", "--model", "paper-reference", "--features", feats,
                       "--out-dir", tmp_path) == 0
        assert rows_of(tmp_path / "scores.csv") == []

    def test_score_writes_parsed_window_start(self, small_pop, tmp_path):
        src = rows_of(small_pop / "features.csv")[2]
        spaced = src["window_start"].replace("T", " ")
        feats = _csv_sample(small_pop / "features.csv", tmp_path / "f.csv",
                            n_rows=3, window_start=spaced)
        assert run_cli("score", "--model", "paper-reference", "--features", feats,
                       "--out-dir", tmp_path) == 0
        scores = rows_of(tmp_path / "scores.csv")
        assert " " in spaced
        assert scores[2]["window_start"] == src["window_start"]
        assert [r["device"] for r in scores] == \
            [r["device"] for r in rows_of(feats)]


def _short_row(src, dst, data_row=2):
    """Copy of a CSV artifact with the last two cells of one data row cut off."""
    lines = src.read_text().splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + data_row
    lines[i] = ",".join(lines[i].rstrip("\n").split(",")[:-2]) + "\n"
    dst.write_text("".join(lines))
    return dst


class TestShortRows:
    @pytest.mark.parametrize("name", ["hourly.csv", "trips.csv", "claims.csv", "scores.csv"])
    def test_short_row_exits_1_naming_the_row(self, small_pop, tmp_path, capsys, name):
        made = tmp_path / "made"
        assert run_cli("aggregate", "--events", small_pop / "events.jsonl",
                       "--out-dir", made) == 0
        assert run_cli("score", "--model", "paper-reference",
                       "--features", small_pop / "features.csv", "--out-dir", made) == 0
        (made / "claims.csv").write_bytes((small_pop / "claims.csv").read_bytes())
        bad = _short_row(made / name, tmp_path / name)
        args = {"hourly.csv": ("features", "--hourly", bad, "--trips", made / "trips.csv"),
                "trips.csv": ("features", "--hourly", made / "hourly.csv", "--trips", bad),
                "claims.csv": ("label", "--claims", bad),
                "scores.csv": ("premium", "--scores", bad, "--loss", 1000)}[name]
        capsys.readouterr()
        assert run_cli(*args, "--out-dir", tmp_path / "out") == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: {bad}: data row 2: ")
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def small_pop_aggregate(small_pop, tmp_path_factory):
    """``aggregate``'s hourly.csv and trips.csv for the small population's logs."""
    d = tmp_path_factory.mktemp("small_pop_aggregate")
    assert run_cli("aggregate", "--events", small_pop / "events.jsonl", "--out-dir", d) == 0
    return d


class TestNonFiniteRecordCells:
    @pytest.mark.parametrize("column", ["a1", "s3"])
    def test_huge_count_exits_1_naming_the_row(self, small_pop_aggregate, tmp_path, capsys,
                                               column):
        """A count too large for a float fails the row, not the command."""
        bad = _csv_sample(small_pop_aggregate / "hourly.csv", tmp_path / "hourly.csv",
                          **{column: "1" + "0" * 400})
        capsys.readouterr()
        assert run_cli("features", "--hourly", bad, "--trips", small_pop_aggregate / "trips.csv",
                       "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: data row 3: int too large to convert to float\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, column", [("hourly.csv", "mileage_km"),
                                              ("trips.csv", "mileage_km"),
                                              ("trips.csv", "duration_s")])
    def test_exits_1_naming_the_row(self, small_pop_aggregate, tmp_path, capsys,
                                    name, column, value):
        bad = _csv_sample(small_pop_aggregate / name, tmp_path / name, **{column: value})
        files = {"hourly.csv": small_pop_aggregate / "hourly.csv",
                 "trips.csv": small_pop_aggregate / "trips.csv", name: bad}
        capsys.readouterr()
        assert run_cli("features", "--hourly", files["hourly.csv"], "--trips", files["trips.csv"],
                       "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: data row 3: {column} is not a finite number: {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column, value", [("mileage", "nan"), ("sp1", "inf"),
                                               ("over_400", "-inf")])
    @pytest.mark.parametrize("command", ["fit", "evaluate", "ablate", "report", "score"])
    def test_features_csv_exits_1_naming_the_row(self, small_pop, tmp_path, capsys,
                                                 command, column, value):
        """Every command that reads features.csv refuses a non-finite cell, in a
        model column or not, before it writes anything."""
        bad = _csv_sample(small_pop / "features.csv", tmp_path / "features.csv",
                          **{column: value})
        args = (("score", "--model", "paper-reference", "--target", "strong")  # no note
                if command == "score" else
                (command, "--claims", small_pop / "claims.csv"))
        capsys.readouterr()
        assert run_cli(*args, "--features", bad, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: data row 3: {column} is not a finite number: {value}\n"
        assert not (tmp_path / "out").exists()


class TestTimestampWithoutOffset:
    @pytest.mark.parametrize("window", ["weekly", "lifetime"])
    @pytest.mark.parametrize("name, column", [("hourly.csv", "hour_start"),
                                              ("trips.csv", "start"), ("trips.csv", "end")])
    def test_exits_1_naming_the_row(self, small_pop_aggregate, tmp_path, capsys,
                                    name, column, window):
        """A local time without its offset would be read in the machine's zone,
        so the windows a row falls in would depend on where features runs."""
        stamp = datetime.fromisoformat(rows_of(small_pop_aggregate / name)[2][column])
        naive = stamp.replace(tzinfo=None).isoformat()
        bad = _csv_sample(small_pop_aggregate / name, tmp_path / name, **{column: naive})
        files = {"hourly.csv": small_pop_aggregate / "hourly.csv",
                 "trips.csv": small_pop_aggregate / "trips.csv", name: bad}
        capsys.readouterr()
        assert run_cli("features", "--hourly", files["hourly.csv"], "--trips", files["trips.csv"],
                       "--window", window, "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: data row 3: {column} has no UTC offset: {naive}\n"
        assert not (tmp_path / "out").exists()


class TestBadProbability:
    @pytest.mark.parametrize("probability", ["nan", "1.5"])
    def test_names_the_row(self, tmp_path, capsys, probability):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"device,probability\nd1,{probability}\nd2,0.5\n")
        capsys.readouterr()
        assert run_cli("premium", "--scores", scores, "--loss", 1000,
                       "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {scores}: data row 1: p_accident must be within [0, 1]\n"
        assert not (tmp_path / "out").exists()


class TestErrorPaths:
    def test_missing_input_exits_2(self, tmp_path):
        assert run_cli("parse", "--events", tmp_path / "nope.jsonl") == 2
        assert run_cli("--config", tmp_path / "nope.cfg", "parse",
                       "--events", tmp_path / "nope.jsonl") == 2

    @pytest.mark.parametrize("args, culprit", [
        (["parse", "--events", "{dir}"], "dir"),
        (["--config", "{dir}", "parse", "--events", "{file}"], "dir"),
        (["label", "--claims", "{claims}", "--out-dir", "{file}"], "file"),
        (["--config", "{binary}", "label", "--claims", "{claims}"], "binary"),
    ])
    def test_unusable_path_exits_1(self, small_pop, tmp_path, capsys, args, culprit):
        """A path that is there but is a directory where a file goes, or the
        reverse, or a config file that is not UTF-8 text, gives one error line
        naming it, not a traceback."""
        paths = {"dir": tmp_path / "dir", "file": tmp_path / "file",
                 "binary": tmp_path / "binary.cfg", "claims": small_pop / "claims.csv"}
        paths["dir"].mkdir()
        paths["file"].write_text("x\n")
        paths["binary"].write_bytes(b"seed = 1\xff\n")
        assert run_cli(*[a.format(**paths) for a in args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(paths[culprit]) in err and "Traceback" not in err
        assert paths["file"].read_text() == "x\n"

    @pytest.mark.parametrize("command, old, directory", [
        ("fit", "model_any.json", "eval_report.csv"),
        ("aggregate", "hourly.csv", "trips.csv"),
    ])
    def test_a_target_that_is_a_directory_replaces_nothing(self, small_pop, book, tmp_path,
                                                           capsys, command, old, directory):
        """A command that writes several files fails on a target path that is a
        directory before it replaces any of them."""
        inputs = {"fit": ["--features", book / "features.csv", "--claims", book / "claims.csv"],
                  "aggregate": ["--events", small_pop / "events.jsonl"]}
        out = tmp_path / "out"
        (out / directory).mkdir(parents=True)
        (out / old).write_text("an earlier run's file\n")
        capsys.readouterr()
        assert run_cli(command, *inputs[command], "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"Is a directory: '{out / directory}'" in err
        assert sorted(p.name for p in out.iterdir()) == sorted([old, directory])
        assert (out / old).read_text() == "an earlier run's file\n"

    def test_unknown_config_key_exits_4(self, small_pop, tmp_path):
        cfg = tmp_path / "drivescore.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli("--config", cfg, "label",
                       "--claims", small_pop / "claims.csv") == 4

    def test_malformed_config_line_exits_4(self, small_pop, tmp_path):
        cfg = tmp_path / "drivescore.cfg"
        cfg.write_text("just some words\n")
        assert run_cli("--config", cfg, "label",
                       "--claims", small_pop / "claims.csv") == 4

    def test_bad_window_exits_4(self, small_pop, tmp_path):
        assert run_cli("aggregate", "--events", small_pop / "events.jsonl",
                       "--out-dir", tmp_path) == 0
        cfg = tmp_path / "drivescore.cfg"
        cfg.write_text("window = daily\n")
        assert run_cli("--config", cfg, "features",
                       "--hourly", tmp_path / "hourly.csv",
                       "--trips", tmp_path / "trips.csv",
                       "--out-dir", tmp_path) == 4

    @pytest.mark.parametrize("flag,value", [
        ("--loss", "inf"), ("--loss", "nan"), ("--admin", "inf"), ("--margin", "-inf")])
    def test_non_finite_amount_exits_4(self, small_pop, tmp_path, capsys, flag, value):
        assert run_cli("score", "--model", "paper-reference",
                       "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path) == 0
        # the "=" form, so argparse takes "-inf" as a value, not an option
        args = {"--loss": "1000", flag: value}
        capsys.readouterr()
        assert run_cli("premium", "--scores", tmp_path / "scores.csv",
                       *[f"{k}={v}" for k, v in args.items()],
                       "--out-dir", tmp_path / "out") == 4
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_loss_in_config_exits_4(self, small_pop, tmp_path):
        assert run_cli("score", "--model", "paper-reference",
                       "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path) == 0
        cfg = tmp_path / "drivescore.cfg"
        cfg.write_text("loss = nan\n")
        assert run_cli("--config", cfg, "premium", "--scores", tmp_path / "scores.csv",
                       "--out-dir", tmp_path / "out") == 4

    def test_negative_loss_exits_4(self, small_pop, tmp_path, capsys):
        assert run_cli("score", "--model", "paper-reference",
                       "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path) == 0
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("device,window_kind,window_start,probability\n")
        # checked before any row is read, so a file without rows fails alike
        for scores in (tmp_path / "scores.csv", header_only):
            capsys.readouterr()
            assert run_cli("premium", "--scores", scores,
                           "--loss", -5, "--out-dir", tmp_path / "out") == 4
            assert capsys.readouterr().err == "error: loss must be non-negative, got -5.0\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--admin", "--margin"])
    def test_negative_admin_or_margin_exits_4(self, small_pop, tmp_path, flag):
        assert run_cli("score", "--model", "paper-reference",
                       "--features", small_pop / "features.csv",
                       "--out-dir", tmp_path) == 0
        assert run_cli("premium", "--scores", tmp_path / "scores.csv", "--loss", 1000,
                       f"{flag}=-1", "--out-dir", tmp_path / "out") == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, config, message", [
        (["aggregate", "--gap-threshold-s", "nan"], "", "gap_threshold_s must be positive, got nan"),
        (["aggregate", "--gap-threshold-s", "0"], "", "gap_threshold_s must be positive, got 0.0"),
        (["aggregate"], "gap_threshold_s = -600", "gap_threshold_s must be positive, got -600.0"),
        (["aggregate"], "gap_threshold_s = nan", "gap_threshold_s must be positive, got nan"),
        (["fit", "--alpha", "nan"], "", "alpha must be in (0, 1]"),
        (["fit", "--alpha", "0"], "", "alpha must be in (0, 1]"),
        (["evaluate", "--alpha", "2"], "", "alpha must be in (0, 1]"),
        (["evaluate"], "alpha = nan", "alpha must be in (0, 1]"),
        (["fit", "--test-fraction", "nan"], "", "test_fraction must lie strictly between 0 and 1"),
        (["synth", "--n", "20", "--logs", "--logs-limit=-1"], "",
         "logs_limit must be non-negative, got -1"),
        (["synth", "--n", "1"], "", "need at least 2 drivers"),
        (["synth", "--n", "20", "--weeks", "0"], "", "need at least 1 week"),
        (["synth"], "n = 20\nweeks = 0", "need at least 1 week"),
        (["ablate", "--group", ","], "", "group names no feature: ','"),
        (["ablate", "--group", ""], "", "group names no feature: ''"),
        (["synth", "--n", "5", "--weeks", "1", "--logs-limit", "3"], "",
         "logs_limit applies only with --logs"),
        (["aggregate", "--tz", "Mars/Base"], "", "unknown timezone: 'Mars/Base'"),
        (["fit"], "alpha = abc",
         "config key 'alpha': bad value 'abc' (could not convert string to float: 'abc')"),
        (["fit"], "alpha =", "{cfg}:1: empty key or value"),
        (["score", "--model", "paper-reference", "--target", "bogus"], "",
         "target must be one of ('any', 'weak', 'medium', 'strong'), got 'bogus'"),
        (["fit"], "stratify = maybe",
         "config key 'stratify': bad value 'maybe' (expected one of 1, true, yes, 0, false, no)"),
    ])
    def test_out_of_range_option_exits_4_before_reading_input(self, tmp_path, capsys,
                                                                args, config, message):
        events = tmp_path / "events.jsonl"
        events.write_text("{not json\n")  # aggregate reads it only after its options pass
        absent = tmp_path / "absent.csv"   # the model commands never look at theirs
        inputs = {"aggregate": ["--events", events], "synth": [],
                  "fit": ["--features", absent, "--claims", absent],
                  "score": ["--features", events]}  # there, but score reads it after its model
        cfg = tmp_path / "drivescore.cfg"
        cfg.write_text(config + "\n")
        assert run_cli("--config", cfg, *args, *inputs.get(args[0], inputs["fit"]),
                       "--out-dir", tmp_path / "out") == 4
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "out").exists()

    YEAR_1 = ('{"device":"old","ts":"0001-01-01T00:00:00Z","kind":"position",'
              '"lat":0.0,"lon":0.0}\n'
              '{"device":"old","ts":"0001-01-01T00:05:00Z","kind":"position",'
              '"lat":0.0,"lon":0.05}\n')
    BEFORE_YEAR_1 = ("error: local time in America/New_York of 0001-01-01 00:00:00+00:00 "
                     "is outside years 1-9999\n")

    def test_aggregate_hour_before_year_1_exits_1(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text(self.YEAR_1)
        assert run_cli("aggregate", "--events", events, "--tz", "America/New_York",
                       "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == self.BEFORE_YEAR_1
        assert list((tmp_path / "out").iterdir()) == []

    def test_weekly_features_before_year_1_exit_1(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text(self.YEAR_1)
        assert run_cli("aggregate", "--events", events, "--out-dir", tmp_path) == 0
        capsys.readouterr()
        assert run_cli("features", "--hourly", tmp_path / "hourly.csv",
                       "--trips", tmp_path / "trips.csv", "--window", "weekly",
                       "--tz", "America/New_York", "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == self.BEFORE_YEAR_1
        assert not (tmp_path / "out").exists()

    def test_unknown_ablation_group_exits_4(self, tmp_path, capsys):
        # checked before any input is read: the absent files are never looked at
        assert run_cli("ablate", "--features", tmp_path / "absent.csv",
                       "--claims", tmp_path / "absent.csv", "--group", "a1, nosuch",
                       "--out-dir", tmp_path) == 4
        assert capsys.readouterr().err == (
            "error: group must be one of ['accel', 'mileage', 'speed'] or model "
            "feature names; unknown: nosuch\n")

    @staticmethod
    def _zeroed(src, dst, names):
        """``src`` features with every value of the ``names`` columns set to 0."""
        with open(src, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(dropwhile(lambda ln: ln.startswith("#"), f)))
        cols = [rows[0].index(name) for name in names]
        for row in rows[1:]:
            for col in cols:
                row[col] = "0"
        with open(dst, "w", encoding="utf-8", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        return dst

    def test_constant_ablation_feature_exits_1(self, small_pop, tmp_path, capsys):
        """A model feature that is constant, so dropped from the design, is a
        data error with a plain message."""
        features = self._zeroed(small_pop / "features.csv", tmp_path / "features.csv",
                                ["over_400"])
        assert run_cli("ablate", "--features", features,
                       "--claims", small_pop / "claims.csv", "--group", "over_400",
                       "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err == \
            "error: feature group 'over_400': every column was dropped as constant\n"

    @pytest.mark.parametrize("group, rest", [("accel", "a1,a2,a3,d1,d2,d3,s1,s2"),
                                             ("a1,s3", "a1")])
    def test_constant_group_column_is_skipped_with_a_note(self, tmp_path, capsys, group, rest):
        """A named group and a list of names follow one rule: the columns the design
        has are ablated, and one note names those skipped as constant."""
        assert run_cli("synth", "--n", 400, "--weeks", 8, "--seed", 0,
                       "--out-dir", tmp_path / "book") == 0
        features = self._zeroed(tmp_path / "book" / "features.csv", tmp_path / "features.csv",
                                ["s3"])
        for spec, out in ((group, "named"), (rest, "rest")):
            capsys.readouterr()
            assert run_cli("ablate", "--features", features,
                           "--claims", tmp_path / "book" / "claims.csv", "--group", spec,
                           "--out-dir", tmp_path / out) == 0
            assert capsys.readouterr().err == ("" if spec == rest else
                f"note: feature group {group!r}: dropped as constant and not ablated: s3\n")
        assert (tmp_path / "named" / "ablation.csv").read_bytes() == \
            (tmp_path / "rest" / "ablation.csv").read_bytes()

    def test_ablation_group_all_constant_exits_1(self, small_pop, tmp_path, capsys):
        """A named group whose every column was dropped as constant has nothing
        to ablate: an error naming the group, not a difference of +0.0000."""
        features = self._zeroed(small_pop / "features.csv", tmp_path / "features.csv",
                                ACCEL_FEATURES)
        out = tmp_path / "out"
        assert run_cli("ablate", "--features", features,
                       "--claims", small_pop / "claims.csv", "--group", "accel",
                       "--out-dir", out) == 1
        assert capsys.readouterr().err == \
            "error: feature group 'accel': every column was dropped as constant\n"
        assert not (out / "ablation.csv").exists()


class TestConfigPassthrough:
    def test_config_supplies_out_dir(self, small_pop, tmp_path):
        out = tmp_path / "from_config"
        cfg = tmp_path / "drivescore.cfg"
        cfg.write_text(f"out_dir = {out}\nloss = 30000\n")
        assert run_cli("--config", cfg, "label",
                       "--claims", small_pop / "claims.csv") == 0
        assert (out / "labels.csv").exists()

    def test_flags_beat_config(self, small_pop, tmp_path):
        cfg = tmp_path / "drivescore.cfg"
        other = tmp_path / "flagged"
        cfg.write_text(f"out_dir = {tmp_path / 'ignored'}\n")
        assert run_cli("--config", cfg, "label",
                       "--claims", small_pop / "claims.csv",
                       "--out-dir", other) == 0
        assert (other / "labels.csv").exists()
        assert not (tmp_path / "ignored").exists()
