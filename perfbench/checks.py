"""Output checks: properties any correct implementation must satisfy.

Each check reads artifacts written by one command and, on failure, names
that command, so the benchmark can count it as a failed operation.  None
compares bytes against a stored copy; determinism is checked separately by
comparing a run's artifacts with the first run of the same inputs.  The
artifacts are read with this module's own CSV reader, not drivescore's, so a
defect in the program's reader cannot hide one in its writer.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime
from pathlib import Path

from workloads import ADMIN, LOSS, MARGIN

REL = 1e-9
# A trip the program must keep: its documented jitter filter drops trips
# under 60 s or 0.1 km.  The margins keep ``devices_with_a_trip`` clear of
# rounding in either implementation's haversine and timestamps.
KEPT_TRIP_S = 61.0
KEPT_TRIP_KM = 0.11
EARTH_RADIUS_KM = 6371.0


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def _premiums(out: Path) -> list[tuple[str, str]]:
    fails = []
    scores = _rows(out / "score" / "scores.csv")
    for r in scores:
        if not 0.0 < float(r["probability"]) < 1.0:
            fails.append(("score", f"probability {r['probability']} outside (0, 1)"))
            break
    premiums = _rows(out / "premium" / "premiums.csv")
    if len(premiums) != len(scores):
        fails.append(("premium", f"{len(premiums)} premiums for {len(scores)} scores"))
    for s, r in zip(scores, premiums):
        p = float(r["probability"])
        if p != float(s["probability"]) or not _close(
                float(r["premium"]), p * LOSS + ADMIN + MARGIN):
            fails.append(("premium", f"premium row {r} breaks p*loss + admin + margin"))
            break
    return fails


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def devices_with_a_trip(events_path: Path) -> set[str]:
    """Devices of a JSONL log with an ignition_on -> ignition_off span, no other
    ignition event between, of at least ``KEPT_TRIP_S`` whose GPS fixes
    strictly inside it are at least ``KEPT_TRIP_KM`` apart along their path.

    Any correct aggregation keeps a trip for each of these devices.  Fixes
    that tie with the span's ends are left out, which can only shorten the
    path, so the set errs towards fewer devices.  A device not in it, such
    as synth's placeholder for a driver who never drove (one ignition pair,
    no movement), may have no trip at all.
    """
    logs: dict[str, list[tuple[datetime, dict]]] = {}
    with open(events_path, encoding="utf-8") as f:
        for line in f:
            ev = json.loads(line)
            ts = datetime.fromisoformat(ev["ts"].replace("Z", "+00:00"))
            logs.setdefault(ev["device"], []).append((ts, ev))
    kept = set()
    for device, log in logs.items():
        log.sort(key=lambda te: te[0])
        opened, fixes = None, []
        for ts, ev in log:
            if ev["kind"] == "ignition_on":
                opened, fixes = ts, []
            elif ev["kind"] == "ignition_off":
                inside = [e for t, e in fixes if opened is not None and opened < t < ts]
                km = sum(_haversine_km(a["lat"], a["lon"], b["lat"], b["lon"])
                         for a, b in zip(inside, inside[1:]))
                if (opened is not None and (ts - opened).total_seconds() >= KEPT_TRIP_S
                        and km >= KEPT_TRIP_KM):
                    kept.add(device)
                    break
                opened, fixes = None, []
            elif ev["kind"] == "position" and "lat" in ev and "lon" in ev:
                fixes.append((ts, ev))
    return kept


def check_event_chain(out: Path, n_lines: int, devices: set[str],
                      driven: set[str]) -> list[tuple[str, str]]:
    """(command, message) for every failed check of parse -> ... -> premium.

    ``devices`` are the devices of the input log, ``driven`` those of them
    with a trip the program must keep (``devices_with_a_trip``).
    """
    fails = []
    report = json.loads((out / "parse" / "parse_report.json").read_text())
    if report["n_events"] + len(report["skipped"]) != report["n_lines"] \
            or report["n_lines"] != n_lines or report["skipped"]:
        fails.append(("parse", f"parse report {report['n_lines']} lines, "
                               f"{report['n_events']} events, {len(report['skipped'])} "
                               f"skipped; input has {n_lines} valid lines"))
    hourly = _rows(out / "aggregate" / "hourly.csv")
    trips = _rows(out / "aggregate" / "trips.csv")
    bands = ("m_lt20", "m_20_60", "m_60_100", "m_100_130", "m_gt130")
    for r in hourly:
        if not _close(float(r["mileage_km"]), sum(float(r[b]) for b in bands)):
            fails.append(("aggregate", f"hourly {r['device']} {r['hour_start']}: mileage "
                                       "differs from the sum of its speed bands"))
            break
    h_km = sum(float(r["mileage_km"]) for r in hourly)
    t_km = sum(float(r["mileage_km"]) for r in trips)
    if not _close(h_km, t_km):
        fails.append(("aggregate", f"hourly mileage {h_km} != trip mileage {t_km}"))
    aggregated = {r["device"] for r in hourly} | {r["device"] for r in trips}
    if driven - aggregated or aggregated - devices:
        fails.append(("aggregate", f"devices with a trip but no hourly or trip row: "
                                   f"{sorted(driven - aggregated)[:5]}; rows for devices "
                                   f"not in the log: {sorted(aggregated - devices)[:5]}"))
    featured = {r["device"] for r in _rows(out / "features" / "features.csv")}
    if featured != aggregated:
        fails.append(("features", f"devices missing from features.csv: "
                                  f"{sorted(aggregated - featured)[:5]}; in features.csv "
                                  f"but not aggregated: {sorted(featured - aggregated)[:5]}"))
    return fails + _premiums(out)


def check_model_chain(out: Path, n_features: int) -> list[tuple[str, str]]:
    """(command, message) for every failed check of label -> ... -> premium."""
    fails = []
    for target in ("any", "weak", "medium", "strong"):
        model = json.loads((out / "fit" / f"model_{target}.json").read_text())
        if model.get("converged") is not True:
            fails.append(("fit", f"model_{target}.json did not converge"))
    for command in ("fit", "evaluate"):
        rows = _rows(out / command / "eval_report.csv")
        aucs = [r[k] for r in rows for k in ("auc_in_sample", "auc_out_of_sample")]
        if len(rows) != 4 or not all(a and 0.0 <= float(a) <= 1.0 for a in aucs):
            fails.append((command, f"eval_report.csv: {len(rows)} rows, AUCs {aucs}"))
    n_scores = len(_rows(out / "score" / "scores.csv"))
    if n_scores != n_features:
        fails.append(("score", f"{n_scores} scores for {n_features} feature rows"))
    return fails + _premiums(out)


def artifact_digests(out: Path) -> dict[str, str]:
    """relative path -> sha256 of every file under ``out``."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def digest_mismatches(first: dict[str, str], again: dict[str, str]) -> list[tuple[str, str]]:
    """(command, message) for each artifact that differs between two runs."""
    return [(path.split("/", 1)[0] if "/" in path else path,
             f"{path} differs from the first run of these inputs")
            for path in sorted(set(first) | set(again)) if first.get(path) != again.get(path)]
