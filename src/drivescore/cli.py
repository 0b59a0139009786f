"""Command-line pipeline driver.

Subcommands compose the library modules through files only: parse,
aggregate, features, label, fit, score, premium, evaluate, ablate, report,
synth.  Every artifact carries a provenance header (tool version, seed,
input digests) and is written atomically, so identical inputs and seeds
reproduce identical bytes.

Exit codes: 0 success, 2 missing input file, 3 estimation failure
(separation, collinearity, single-class target), 4 malformed configuration,
1 any other data error or an unusable path (a directory where a file goes,
or the reverse).

Every command runs in a process of its own, so start-up counts: only the
numpy-free layers (ingest, fileio, labeling) are imported here, and each
command imports the numpy-backed layers it calls in its own body.  parse,
label and premium never load numpy.  Input digests use CPython's built-in
SHA-256 (``fileio.sha256``), not hashlib's, whose OpenSSL library adds
3.6 MB to every command's resident memory.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from datetime import timezone
from importlib import resources
from pathlib import Path
from zoneinfo import ZoneInfo

from . import __version__
from .fileio import (WINDOW_KINDS, atomic_files, csv_row_writer, iter_csv_records,
                     provenance_line, sha256, sha256_digest, write_csv)
from .ingest import DeviceOrderError, iter_log_lines, parse_event_file, validate_log
from .labeling import (BOOLEANS, CLAIMS_CSV_COLUMNS, LABELS_CSV_COLUMNS, TARGETS,
                       EstimationError, build_targets, claim_from_row,
                       classify_severity, compute_premium)

REFERENCE_MODEL_TOKEN = "paper-reference"


KNOWN_CONFIG_KEYS = frozenset({
    "out_dir", "tz", "gap_threshold_s", "window", "holidays", "alpha",
    "test_fraction", "seed", "stratify", "loss", "admin", "margin",
    "group", "n", "weeks",
})


class ConfigError(ValueError):
    pass


class InputMissingError(FileNotFoundError):
    pass


# An error's exit code: that of the first class here it is an instance of, else 1.
EXIT_CODES = ((InputMissingError, 2), (EstimationError, 3), (ConfigError, 4))


def load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` config file; # starts a comment."""
    p = Path(path)
    if not p.exists():
        raise InputMissingError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key not in KNOWN_CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value
    return out


def _opt(ns, key: str, cast, default):
    """Flag value if given, else config value, else default; flags win."""
    v = getattr(ns, key.replace("-", "_"), None)
    if v is not None:
        return v
    raw = ns._config.get(key)
    if raw is None:
        return default
    try:
        if cast is bool and raw.lower() not in BOOLEANS:
            raise ValueError(f"expected one of {', '.join(BOOLEANS)}")
        return BOOLEANS[raw.lower()] if cast is bool else cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: bad value {raw!r} ({exc})") from None


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, a range check it fails raised as ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise InputMissingError(f"{what} not found: {p}")
    return p


def _tzinfo(name: str):
    if name.upper() == "UTC":
        return timezone.utc
    try:
        return ZoneInfo(name)
    except Exception:
        raise ConfigError(f"unknown timezone: {name!r}") from None


def _calendar(ns):
    from .features import load_holiday_calendar

    spec = _opt(ns, "holidays", str, "default")
    if spec == "none":
        return frozenset()
    if spec == "default":
        with resources.as_file(resources.files("drivescore.data")
                               .joinpath("holidays_ru.txt")) as p:
            return load_holiday_calendar(p)
    return load_holiday_calendar(_require(spec, "holiday calendar"))


def _provenance_obj(seed: int | None, inputs: dict[str, str]) -> dict:
    obj: dict = {"tool_version": __version__}
    if seed is not None:
        obj["seed"] = seed
    if inputs:
        obj["inputs"] = {k: f"sha256:{v}" for k, v in inputs.items()}
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with atomic_files(path) as (f,):
        f.write(json.dumps(payload, indent=2) + "\n")


def _read_claims(path: Path):
    return list(iter_csv_records(path, CLAIMS_CSV_COLUMNS, claim_from_row))


# ---------------------------------------------------------------- commands

def _each_reading(run) -> int:
    """``run(grouped=True)``, and ``run(grouped=False)`` if the device ids turn out
    not to be grouped, so the file is read again holding every device."""
    try:
        return run(grouped=True)
    except DeviceOrderError:
        return run(grouped=False)


def cmd_parse(ns) -> int:
    events_path = _require(ns.events, "events file")
    digest = sha256_digest(events_path)  # once, though the file may be read twice

    def run(grouped: bool) -> int:
        issues = {}
        with atomic_files(ns.out_dir / "parsed.jsonl") as (parsed,):
            def each(log):
                issues[log.device_id] = validate_log(log)
                parsed.writelines(iter_log_lines([log]))
            with open(events_path, "rb") as lines:
                result = parse_event_file(lines, each, grouped=grouped)
        _write_json(ns.out_dir / "parse_report.json", {
            "n_lines": result.n_lines,
            "n_events": result.n_events,
            "n_devices": len(issues),
            "skipped": [s._asdict() for s in result.skipped],
            "validation": {dev: [i._asdict() for i in found]
                           for dev, found in issues.items() if found},
            "provenance": _provenance_obj(None, {"events": digest}),
        })
        print(f"parsed {result.n_events} events from {result.n_lines} lines "
              f"({len(result.skipped)} skipped, {len(issues)} devices)")
        return 0
    return _each_reading(run)


def cmd_aggregate(ns) -> int:
    from .trips import DEFAULT_GAP_THRESHOLD_S, HOURLY_CSV_COLUMNS, TRIP_CSV_COLUMNS, roll_up

    events_path = _require(ns.events, "events file")
    tz = _tzinfo(_opt(ns, "tz", str, "UTC"))
    gap = _opt(ns, "gap_threshold_s", float, DEFAULT_GAP_THRESHOLD_S)
    if not gap > 0:  # inf is valid: it never splits
        raise ConfigError(f"gap_threshold_s must be positive, got {gap}")
    prov = provenance_line(None, {"events": sha256_digest(events_path)})

    def run(grouped: bool) -> int:
        tripless, n_hourly, n_trips = [], 0, 0
        with atomic_files(ns.out_dir / "hourly.csv",
                          ns.out_dir / "trips.csv") as (hourly_f, trips_f):
            write_hourly = csv_row_writer(hourly_f, HOURLY_CSV_COLUMNS, prov)
            write_trips = csv_row_writer(trips_f, TRIP_CSV_COLUMNS, prov)
            def each(log):
                nonlocal n_hourly, n_trips
                trips, hourly = roll_up(log, gap, tz)
                write_hourly(hourly)
                write_trips(trips)
                if not trips:
                    tripless.append(log.device_id)
                n_hourly, n_trips = n_hourly + len(hourly), n_trips + len(trips)
            with open(events_path, "rb") as lines:
                result = parse_event_file(lines, each, grouped=grouped)
        for s in result.skipped:
            print(f"line {s.line}: {s.reason}", file=sys.stderr)
        for device in tripless:
            print(f"device {device}: no trip kept", file=sys.stderr)
        print(f"wrote {n_hourly} hourly records and {n_trips} trips "
              f"({len(result.skipped)} lines skipped)")
        return 0
    return _each_reading(run)


def cmd_features(ns) -> int:
    from .features import (FEATURE_CSV_COLUMNS, compute_feature_table,
                           feature_rows)
    from .trips import (HOURLY_CSV_COLUMNS, TRIP_CSV_COLUMNS, hourly_from_row,
                        trip_from_row)

    hourly_path = _require(ns.hourly, "hourly CSV")
    trips_path = _require(ns.trips, "trips CSV")
    window = _opt(ns, "window", str, "lifetime")
    if window not in WINDOW_KINDS:
        raise ConfigError(f"window must be one of {WINDOW_KINDS}, got {window!r}")
    tz = _tzinfo(_opt(ns, "tz", str, "UTC"))
    calendar = _calendar(ns)
    table = compute_feature_table(
        iter_csv_records(hourly_path, HOURLY_CSV_COLUMNS, hourly_from_row),
        iter_csv_records(trips_path, TRIP_CSV_COLUMNS, trip_from_row), window, calendar, tz)
    prov = provenance_line(None, {"hourly": sha256_digest(hourly_path),
                                  "trips": sha256_digest(trips_path)})
    write_csv(ns.out_dir / "features.csv", FEATURE_CSV_COLUMNS, feature_rows(table), prov)
    print(f"wrote {len(table)} feature vectors ({window} windows)")
    return 0


def cmd_label(ns) -> int:
    claims_path = _require(ns.claims, "claims CSV")
    claims = _read_claims(claims_path)
    prov = provenance_line(None, {"claims": sha256_digest(claims_path)})
    write_csv(ns.out_dir / "labels.csv", LABELS_CSV_COLUMNS,
              ([c.device, classify_severity(c)] for c in claims), prov)
    print(f"labeled {len(claims)} claims")
    return 0


def _read_model_inputs(ns):
    """The feature table, every target's labels and both files' digests for provenance.

    A claim is a fact about a device's whole history, so the model's unit is
    the device: a device with more than one feature row is refused, and the
    claims whose device has no feature row are counted on stderr.
    """
    from .features import read_feature_table

    features_path = _require(ns.features, "features CSV")
    claims_path = _require(ns.claims, "claims CSV")
    inputs = {"features": sha256_digest(features_path),
              "claims": sha256_digest(claims_path)}
    table = read_feature_table(features_path)
    rows = Counter(table.device_ids)
    for device, n in rows.items():
        if n > 1:
            raise ValueError(f"{features_path}: device {device} has {n} feature rows; "
                             "model commands need one row per device "
                             "(features --window lifetime)")
    claims = _read_claims(claims_path)
    unjoined = sum(c.device not in rows for c in claims)
    if unjoined:
        print(f"note: {unjoined} of {len(claims)} claims name a device with no "
              "feature row and are not used", file=sys.stderr)
    return table, build_targets(claims, table.device_ids), inputs


def _designs(ns):
    """Each target's design over the model features that vary, the names of the
    constant ones dropped, and the input digests.  The designs share one
    intercept-led, C-contiguous X, filled once column by column; the feature
    table is freed before any fit."""
    import numpy as np

    from .features import MODEL_FEATURE_NAMES
    from .glm import DesignMatrix

    table, labels, inputs = _read_model_inputs(ns)
    values = table.model_values
    constant = np.all(values == values[:1], axis=0)
    kept = np.flatnonzero(~constant)
    X = np.empty((len(values), len(kept) + 1))
    X[:, 0] = 1.0
    for j, col in enumerate(kept, start=1):
        X[:, j] = values[:, col]
    names = tuple(MODEL_FEATURE_NAMES[j] for j in kept)
    designs = {target: DesignMatrix(names, X, np.asarray(y, dtype=float))
               for target, y in labels.items()}
    return designs, [n for n, c in zip(MODEL_FEATURE_NAMES, constant) if c], inputs


def _fit_targets(ns):
    """Backward elimination and the train/test report for every target: the
    reports, each target's model payload and the report's provenance line."""
    from .evaluation import SplitSpec, evaluate_model
    from .glm import backward_eliminate, check_alpha, model_to_dict

    alpha = _checked(check_alpha, _opt(ns, "alpha", float, 0.05))
    spec = _checked(SplitSpec, test_fraction=_opt(ns, "test_fraction", float, 0.10),
                    seed=_opt(ns, "seed", int, 0),
                    stratify=_opt(ns, "stratify", bool, False))
    designs, dropped, inputs = _designs(ns)
    reports, payloads = [], {}
    for target, design in designs.items():
        model = backward_eliminate(design, alpha, target=target)
        unused = [n for n in design.feature_names if n not in model.columns]
        reports.append(evaluate_model(design.drop(unused), target, spec)[0])
        payloads[target] = model_to_dict(model)
        payloads[target].update(alpha=alpha, dropped_columns=dropped,
                                provenance=_provenance_obj(spec.seed, inputs))
    return reports, payloads, provenance_line(spec.seed, inputs)


def cmd_fit(ns) -> int:
    from .evaluation import EvalReport

    reports, payloads, prov = _fit_targets(ns)
    # the whole book or nothing: a failed fit leaves the out dir as it was
    with atomic_files(*(ns.out_dir / f"model_{t}.json" for t in payloads),
                      ns.out_dir / "eval_report.csv") as files:
        for f, payload in zip(files, payloads.values()):
            f.write(json.dumps(payload, indent=2) + "\n")
        csv_row_writer(files[-1], EvalReport._fields, prov)(reports)
    for r in reports:
        out = "n/a" if r.auc_out_of_sample is None else f"{r.auc_out_of_sample:.3f}"
        print(f"{r.target}: auc_in={r.auc_in_sample:.3f} auc_out={out} "
              f"r2={r.mcfadden_r2:.4f}")
    return 0


def cmd_evaluate(ns) -> int:
    from .evaluation import EvalReport

    reports, _, prov = _fit_targets(ns)
    # csv writes None, an undefined out-of-sample AUC, as an empty cell
    write_csv(ns.out_dir / "eval_report.csv", EvalReport._fields, reports, prov)
    print(f"wrote eval_report.csv for {len(reports)} targets")
    return 0


def _load_scoring_model(ns):
    """ScoringModel from a JSON file, or the published bundle by token."""
    from .glm import load_reference_models, scoring_model

    if ns.model == REFERENCE_MODEL_TOKEN:
        target = ns.target or "any"
        if target not in TARGETS:
            raise ConfigError(f"target must be one of {TARGETS}, got {target!r}")
        bundle = load_reference_models()
        model = bundle[target]
        if model.non_scorable:
            print(f"note: reference model {target!r} coefficients for "
                  f"{', '.join(model.non_scorable)} rounded to zero in print "
                  "and contribute nothing to scores", file=sys.stderr)
        raw = resources.files("drivescore.data").joinpath("reference_models.json").read_bytes()
        return model, sha256(raw).hexdigest()
    if ns.target is not None:
        raise ConfigError(f"--target applies only to --model {REFERENCE_MODEL_TOKEN}")
    path = _require(ns.model, "model file")
    raw = path.read_bytes()
    try:
        d = json.loads(raw.decode("utf-8"))
        model = scoring_model(d["target"], d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model, sha256(raw).hexdigest()


def cmd_score(ns) -> int:
    from .features import FEATURE_NAMES, read_feature_table
    from .glm import predict_proba

    features_path = _require(ns.features, "features CSV")
    model, model_digest = _load_scoring_model(ns)
    table = read_feature_table(features_path)
    probs = predict_proba(model, table.values, FEATURE_NAMES)
    rows = list(zip(table.device_ids, table.window_kinds, table.window_starts, probs.tolist()))
    prov = provenance_line(None, {"features": sha256_digest(features_path),
                                  "model": model_digest})
    write_csv(ns.out_dir / "scores.csv",
              ("device", "window_kind", "window_start", "probability"), rows, prov)
    print(f"scored {len(rows)} feature vectors with model {model.target!r}")
    return 0


def cmd_premium(ns) -> int:
    scores_path = _require(ns.scores, "scores CSV")
    loss = _opt(ns, "loss", float, None)
    if loss is None:
        raise ConfigError("predicted loss required (--loss or config key 'loss')")
    admin = _opt(ns, "admin", float, 0.0)
    margin = _opt(ns, "margin", float, 0.0)
    for key, value in (("loss", loss), ("admin", admin), ("margin", margin)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if value < 0:
            raise ConfigError(f"{key} must be non-negative, got {value}")

    def priced(cells):
        p = float(cells[1])
        return [cells[0], p, compute_premium(p, loss, admin, margin)]

    out_rows = list(iter_csv_records(scores_path, ("device", "probability"), priced))
    prov = provenance_line(None, {"scores": sha256_digest(scores_path)})
    write_csv(ns.out_dir / "premiums.csv", ("device", "probability", "premium"), out_rows, prov)
    print(f"computed {len(out_rows)} premiums "
          f"(loss={loss}, admin={admin}, margin={margin})")
    return 0


def cmd_ablate(ns) -> int:
    from .evaluation import AblationResult, ablation_compare
    from .features import FEATURE_GROUPS, MODEL_FEATURE_NAMES

    group_spec = _opt(ns, "group", str, "accel")
    names = FEATURE_GROUPS.get(group_spec)
    if names is None:
        names = [g.strip() for g in group_spec.split(",") if g.strip()]
        if not names:
            raise ConfigError(f"group names no feature: {group_spec!r}")
        unknown = [n for n in names if n not in MODEL_FEATURE_NAMES]
        if unknown:
            raise ConfigError(f"group must be one of {sorted(FEATURE_GROUPS)} or model "
                              f"feature names; unknown: {', '.join(unknown)}")
    designs, dropped, inputs = _designs(ns)
    group = [n for n in names if n not in dropped]
    results = []
    for target, design in designs.items():
        results.append(ablation_compare(design, target, group))
        if not group:  # raised after the first target's fits, so a degenerate design exits 3
            raise ValueError(f"feature group {group_spec!r}: every column was "
                             "dropped as constant")
    skipped = [n for n in names if n in dropped]
    if skipped:
        print(f"note: feature group {group_spec!r}: dropped as constant and not ablated: "
              f"{', '.join(skipped)}", file=sys.stderr)
    write_csv(ns.out_dir / "ablation.csv", AblationResult._fields, results,
              provenance_line(None, inputs))
    for r in results:
        print(f"{r.target}: r2 {r.r2_without:.4f} -> {r.r2_with:.4f} "
              f"(+{r.difference:.4f})")
    return 0


def cmd_report(ns) -> int:
    from .evaluation import correlation_matrix, descriptive_stats
    from .features import MODEL_FEATURE_NAMES

    table, labels, inputs = _read_model_inputs(ns)
    y = labels["any"]
    del labels  # only any's labels are described; the other three go before the statistics
    names = list(MODEL_FEATURE_NAMES)
    values = table.model_values
    stats, notes = descriptive_stats(values, y)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    prov = provenance_line(None, inputs)
    write_csv(ns.out_dir / "descriptive.csv",
              ("feature", "mean_accidents", "std_accidents", "mean_no_accidents",
               "std_no_accidents"),
              ([name, *row] for name, row in zip(names, stats.tolist())), prov)
    corr, cnotes = correlation_matrix(values, names)
    for note in cnotes:
        print(f"note: {note}", file=sys.stderr)
    write_csv(ns.out_dir / "correlation.csv", ["feature"] + names,
              ([name, *row] for name, row in zip(names, corr.tolist())), prov)
    print(f"wrote descriptive.csv and correlation.csv over {len(table.device_ids)} rows")
    return 0


def cmd_synth(ns) -> int:
    from .features import FEATURE_CSV_COLUMNS, feature_rows
    from .synthgen import SynthConfig, generate_population, iter_event_logs

    n = _opt(ns, "n", int, None)
    if n is None:
        raise ConfigError("population size required (--n or config key 'n')")
    weeks = _opt(ns, "weeks", int, 26)
    seed = _opt(ns, "seed", int, 0)
    config = _checked(SynthConfig, n_drivers=n, weeks=weeks, seed=seed)
    if ns.logs_limit is not None and not ns.logs:
        raise ConfigError("logs_limit applies only with --logs")
    if ns.logs_limit is not None and ns.logs_limit < 0:
        raise ConfigError(f"logs_limit must be non-negative, got {ns.logs_limit}")
    result = generate_population(config)
    prov = provenance_line(seed)
    write_csv(ns.out_dir / "features.csv", FEATURE_CSV_COLUMNS,
              feature_rows(result.features), prov)
    write_csv(ns.out_dir / "claims.csv", CLAIMS_CSV_COLUMNS, result.claims, prov)
    truth = result.truth()
    truth["provenance"] = _provenance_obj(seed, {})
    _write_json(ns.out_dir / "truth.json", truth)
    if ns.logs:
        with atomic_files(ns.out_dir / "events.jsonl") as (events,):
            events.writelines(iter_log_lines(iter_event_logs(result, ns.logs_limit)))
    pos = truth["positive_counts"]
    print(f"generated {n} drivers, {len(result.claims)} claims "
          f"(any={pos['any']}, weak={pos['weak']}, medium={pos['medium']}, "
          f"strong={pos['strong']})")
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drivescore",
        description="Telematics event logs to driving-style features, "
                    "severity labels, accident-probability models and premiums.")
    ap.add_argument("--version", action="version", version=f"drivescore {__version__}")
    ap.add_argument("--config", help="flat 'key = value' config file; flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *inputs):
        """A subcommand with ``--out-dir``, then a required flag per input."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--out-dir", dest="out_dir")
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True)
        return p

    add("parse", cmd_parse, "validate a JSONL event log", "events")

    p = add("aggregate", cmd_aggregate, "segment trips and build hourly records", "events")
    p.add_argument("--tz")
    p.add_argument("--gap-threshold-s", dest="gap_threshold_s", type=float)

    p = add("features", cmd_features, "compute the driving-style feature catalog",
            "hourly", "trips")
    p.add_argument("--window", choices=WINDOW_KINDS)
    p.add_argument("--tz")
    p.add_argument("--holidays", help="'default', 'none', or a calendar file")

    add("label", cmd_label, "classify claim severity", "claims")

    def add_fit_options(p):
        p.add_argument("--alpha", type=float)
        p.add_argument("--test-fraction", dest="test_fraction", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--stratify", action="store_const", const=True)

    add_fit_options(add("fit", cmd_fit, "fit the four-target model family",
                        "features", "claims"))

    p = add("score", cmd_score, "score feature vectors with a model")
    p.add_argument("--model", required=True,
                   help=f"model JSON path or '{REFERENCE_MODEL_TOKEN}'")
    p.add_argument("--features", required=True)
    p.add_argument("--target", help=f"target when --model {REFERENCE_MODEL_TOKEN}")

    p = add("premium", cmd_premium, "turn probabilities into premiums", "scores")
    p.add_argument("--loss", type=float)
    p.add_argument("--admin", type=float)
    p.add_argument("--margin", type=float)

    add_fit_options(add("evaluate", cmd_evaluate, "in/out-of-sample AUC report",
                        "features", "claims"))

    p = add("ablate", cmd_ablate, "McFadden R^2 with vs without a feature group",
            "features", "claims")
    p.add_argument("--group", help="accel|speed|mileage or comma-separated names")

    add("report", cmd_report, "descriptive statistics and correlations", "features", "claims")

    p = add("synth", cmd_synth, "generate a synthetic population with known risk")
    p.add_argument("--n", type=int)
    p.add_argument("--weeks", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--logs", action="store_true",
                   help="also write events.jsonl (large; prefer small --n)")
    p.add_argument("--logs-limit", dest="logs_limit", type=int, default=None,
                   help="with --logs, emit logs for the first K drivers only")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        ns._config = load_config(ns.config) if ns.config else {}
        ns.out_dir = Path(_opt(ns, "out_dir", str, "."))
        return ns.func(ns)
    except (ValueError, KeyError, OSError) as exc:  # OSError: a path there but unusable
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in EXIT_CODES if isinstance(exc, kind)), 1)


if __name__ == "__main__":
    raise SystemExit(main())
