"""Raw telematics event model and JSONL log parsing/validation.

The portable log format is JSON lines, one event object per line:

    {"device": "<id>", "ts": "<RFC3339 UTC>", "kind": "position|speed|acceleration|ignition_on|ignition_off",
     "lat": <num>, "lon": <num>, "speed_kph": <num>, "axis": "longitudinal|lateral", "accel_g": <num>}

Keys irrelevant to the event kind are absent; unknown extra keys are tolerated.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import attrgetter
from typing import IO, Iterable, Iterator, NamedTuple

EVENT_KINDS = frozenset({"ignition_on", "ignition_off", "position", "speed", "acceleration"})
AXES = frozenset({"longitudinal", "lateral"})
# Each valid value maps to this module's own string, so events share one object per value.
_KINDS = {k: k for k in EVENT_KINDS}
_AXES = {a: a for a in AXES}

MAX_ABS_ACCEL_G = 24.0     # accelerometer measurement ceiling
SUSPECT_SPEED_KPH = 300.0  # data-quality flag threshold; such events are kept


class EventValidationError(ValueError):
    """A single event record violates the schema or its invariants."""


class EventPackage(NamedTuple):
    """One raw telematics record, sent on a triggering condition rather than a clock.

    Two events are duplicates exactly when they are equal, so an event is its
    own duplicate-detection key.
    """

    device_id: str
    timestamp: datetime  # tz-aware UTC, second precision
    kind: str
    latitude: float | None = None
    longitude: float | None = None
    speed_kph: float | None = None
    axis: str | None = None
    accel_g: float | None = None

    @property
    def has_coords(self) -> bool:
        return self.latitude is not None and self.longitude is not None


@dataclass(frozen=True)
class DeviceLog:
    """One device's time-ordered event stream over an observation window."""

    device_id: str
    events: tuple[EventPackage, ...]
    observation_start: datetime
    observation_end: datetime

    @classmethod
    def from_events(cls, device_id: str, events: Iterable[EventPackage]) -> "DeviceLog":
        evs = tuple(sorted(events, key=attrgetter("timestamp")))
        if not evs:
            raise ValueError("a DeviceLog needs at least one event")
        return cls(device_id, evs, evs[0].timestamp, evs[-1].timestamp)


@dataclass(frozen=True)
class SkippedLine:
    line_no: int
    reason: str


@dataclass
class ParseResult:
    logs: list[DeviceLog]
    skipped: list[SkippedLine]
    n_lines: int

    @property
    def n_events(self) -> int:
        return sum(len(log.events) for log in self.logs)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass
class ValidationReport:
    device_id: str
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not self.issues


def _parse_timestamp(raw: object) -> datetime:
    if not isinstance(raw, str):
        raise EventValidationError("timestamp not parseable: not a string")
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise EventValidationError(f"timestamp not parseable: {exc}") from None
    if ts.tzinfo is timezone.utc and not ts.microsecond:
        return ts
    if ts.tzinfo is None:
        raise EventValidationError("timestamp not parseable: missing timezone")
    # Second precision by contract.
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def _number(obj: dict, key: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise EventValidationError(f"{key} is not a number")
    # json.loads reads NaN, Infinity and 1e400 as floats, and an integer
    # literal may lie beyond the float range.
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise EventValidationError(f"{key} is not a finite number")
    return v


def _coords(obj: dict, required: bool) -> tuple[float | None, float | None]:
    has_lat, has_lon = "lat" in obj, "lon" in obj
    if not has_lat and not has_lon:
        if required:
            raise EventValidationError("missing coordinates")
        return None, None
    if has_lat != has_lon:
        raise EventValidationError("lat/lon must appear together")
    lat, lon = _number(obj, "lat"), _number(obj, "lon")
    if not -90.0 <= lat <= 90.0:
        raise EventValidationError("latitude out of range")
    if not -180.0 <= lon <= 180.0:
        raise EventValidationError("longitude out of range")
    return lat, lon


def _canonical(table: dict[str, str], value: object, what: str) -> str:
    """The table's own string equal to ``value``; unhashable values are invalid too."""
    try:
        return table[value]
    except (KeyError, TypeError):
        raise EventValidationError(f"{what}: {value!r}") from None


def event_from_obj(obj: dict) -> EventPackage:
    """Build a validated EventPackage from a decoded JSON object.

    The device id is interned and kind and axis are the module's constants,
    so the events of a log share those strings rather than each holding a copy.
    """
    if not isinstance(obj, dict):
        raise EventValidationError("record is not an object")
    device = obj.get("device")
    if not isinstance(device, str) or not device:
        raise EventValidationError("missing or invalid device id")
    device = sys.intern(str(device))  # str() passes a str through and unwraps a subclass
    if "ts" not in obj:
        raise EventValidationError("missing timestamp")
    ts = _parse_timestamp(obj["ts"])
    kind = _canonical(_KINDS, obj.get("kind"), "unknown event kind")

    lat = lon = speed = accel = None
    axis = None
    if kind == "position":
        lat, lon = _coords(obj, required=True)
    elif kind == "speed":
        lat, lon = _coords(obj, required=False)
        if "speed_kph" not in obj:
            raise EventValidationError("speed event without speed_kph")
        speed = _number(obj, "speed_kph")
        if speed < 0:
            raise EventValidationError("speed_kph negative")
    elif kind == "acceleration":
        lat, lon = _coords(obj, required=False)
        axis = _canonical(_AXES, obj.get("axis"), "invalid acceleration axis")
        if "accel_g" not in obj:
            raise EventValidationError("acceleration event without accel_g")
        accel = _number(obj, "accel_g")
        if abs(accel) > MAX_ABS_ACCEL_G:
            raise EventValidationError("accel_g out of range")
    else:  # ignition events carry no payload
        for key in ("lat", "lon", "speed_kph", "axis", "accel_g"):
            if key in obj:
                raise EventValidationError(f"{key} not allowed on {kind} event")

    if kind != "speed" and "speed_kph" in obj:
        raise EventValidationError(f"speed_kph not allowed on {kind} event")
    if kind != "acceleration" and ("axis" in obj or "accel_g" in obj):
        raise EventValidationError(f"acceleration fields not allowed on {kind} event")
    if kind in ("ignition_on", "ignition_off") and ("lat" in obj or "lon" in obj):
        raise EventValidationError(f"coordinates not allowed on {kind} event")

    return EventPackage(device, ts, kind, lat, lon, speed, axis, accel)


def parse_event_log(stream: IO[bytes] | IO[str] | Iterable[str] | Iterable[bytes]) -> ParseResult:
    """Parse a JSONL event stream into one DeviceLog per device.

    Malformed lines are skipped with a (line number, reason) diagnostic;
    duplicate events (identical device, timestamp, kind and payload) are
    dropped the same way, so skipped + emitted always equals the line count.
    Events are sorted by timestamp within each device (stable, preserving
    input order between equal timestamps).
    """
    events: dict[str, list[EventPackage]] = {}
    seen: set[EventPackage] = set()
    skipped: list[SkippedLine] = []
    n_lines = 0
    for n_lines, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                skipped.append(SkippedLine(n_lines, "invalid utf-8"))
                continue
        else:
            line = raw
        line = line.strip()
        if not line:
            skipped.append(SkippedLine(n_lines, "empty line"))
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
            skipped.append(SkippedLine(n_lines, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        try:
            ev = event_from_obj(obj)
        except EventValidationError as exc:
            skipped.append(SkippedLine(n_lines, str(exc)))
            continue
        if ev in seen:
            skipped.append(SkippedLine(n_lines, "duplicate event"))
            continue
        seen.add(ev)
        events.setdefault(ev.device_id, []).append(ev)

    logs = [DeviceLog.from_events(dev, evs) for dev, evs in events.items()]
    return ParseResult(logs=logs, skipped=skipped, n_lines=n_lines)


def parse_event_file(path) -> ParseResult:
    with open(path, "rb") as f:
        return parse_event_log(f)


def iter_log_lines(logs: Iterable[DeviceLog]) -> Iterator[str]:
    """The JSONL lines for a set of logs, one event per line with its newline.

    Each line is the compact ``json.dumps`` of the event's object, formatted
    directly: the device id is JSON-quoted once per device, floats are
    written by ``repr`` (as ``json.dumps`` writes them) and the year is
    zero-padded to four digits.  Lines are made one at a time, so a writer
    holds one line, not the file.
    """
    quoted: dict[str, str] = {}
    for log in logs:
        for dev, ts, kind, lat, lon, speed, axis, accel in log.events:
            q = quoted.get(dev)
            if q is None:
                q = quoted[dev] = json.dumps(dev)
            line = '{"device":%s,"ts":"%04d-%02d-%02dT%02d:%02d:%02dZ","kind":"%s"' % (
                q, ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second, kind)
            if lat is not None:
                line += ',"lat":%r,"lon":%r' % (lat, lon)
            if speed is not None:
                line += ',"speed_kph":%r' % (speed,)
            if axis is not None:
                line += ',"axis":"%s","accel_g":%r' % (axis, accel)
            yield line + "}\n"


def serialize_logs(logs: Iterable[DeviceLog]) -> str:
    """JSONL text for a set of logs; parse_event_log inverts this exactly."""
    return "".join(iter_log_lines(logs))


def validate_log(log: DeviceLog) -> ValidationReport:
    """Report invariant violations without mutating the log.

    Checks time ordering, ignition pairing and implausible speeds
    (> 300 kph is flagged as suspect, not dropped).
    """
    report = ValidationReport(device_id=log.device_id)
    issues = report.issues
    prev_ts = None
    ignition_open: datetime | None = None
    for ev in log.events:
        if ev.device_id != log.device_id:
            issues.append(ValidationIssue("device_mismatch",
                                          f"event at {ev.timestamp} bears device {ev.device_id!r}"))
        if prev_ts is not None and ev.timestamp < prev_ts:
            issues.append(ValidationIssue("non_monotone_time",
                                          f"timestamp {ev.timestamp} before {prev_ts}"))
        prev_ts = ev.timestamp
        if not log.observation_start <= ev.timestamp <= log.observation_end:
            issues.append(ValidationIssue("outside_window",
                                          f"event at {ev.timestamp} outside observation window"))
        if ev.kind == "ignition_on":
            if ignition_open is not None:
                issues.append(ValidationIssue("unterminated_trip",
                                              f"unterminated trip: ignition_on at {ignition_open} "
                                              f"followed by ignition_on at {ev.timestamp}"))
            ignition_open = ev.timestamp
        elif ev.kind == "ignition_off":
            if ignition_open is None:
                issues.append(ValidationIssue("unmatched_ignition_off",
                                              f"ignition_off at {ev.timestamp} without ignition_on"))
            ignition_open = None
        elif ev.kind == "speed" and ev.speed_kph is not None and ev.speed_kph > SUSPECT_SPEED_KPH:
            issues.append(ValidationIssue("suspect_speed",
                                          f"suspect speed {ev.speed_kph} kph at {ev.timestamp}"))
    if ignition_open is not None:
        issues.append(ValidationIssue("unterminated_trip",
                                      f"unterminated trip: ignition_on at {ignition_open} never closed"))
    return report
