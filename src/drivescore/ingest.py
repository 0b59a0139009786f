"""JSONL telematics event logs: parsing into columns, validation, serialization.

The portable log format is JSON lines, one event object per line:

    {"device": "<id>", "ts": "<RFC3339 UTC>", "kind": "position|speed|acceleration|ignition_on|ignition_off",
     "lat": <num>, "lon": <num>, "speed_kph": <num>, "axis": "longitudinal|lateral", "accel_g": <num>}

Keys irrelevant to the event kind are absent; unknown extra keys are tolerated.
A device's events are held as parallel columns (``DeviceLog``); this module
needs nothing beyond the standard library.
"""
from __future__ import annotations

import json
import math
import struct
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import compress, count, islice
from operator import attrgetter, eq, le
from typing import Callable, Iterable, Iterator, NamedTuple

# Event kinds and acceleration axes by their uint8 codes in a DeviceLog.
KIND_NAMES = ("ignition_on", "ignition_off", "position", "speed", "acceleration")
IGNITION_ON, IGNITION_OFF, POSITION, SPEED, ACCELERATION = range(len(KIND_NAMES))
AXIS_NAMES = (None, "longitudinal", "lateral")  # code 0: the event has no axis
LONGITUDINAL, LATERAL = 1, 2
_KIND_CODES = {k: i for i, k in enumerate(KIND_NAMES)}
_AXIS_CODES = {a: i for i, a in enumerate(AXIS_NAMES) if a is not None}

MAX_ABS_ACCEL_G = 24.0     # accelerometer measurement ceiling
SUSPECT_SPEED_KPH = 300.0  # data-quality flag threshold; such events are kept

NAN = math.nan
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)
_MIN_S = (datetime(1, 1, 1, tzinfo=timezone.utc) - EPOCH) // _SECOND  # the UTC datetime range
_MAX_S = (datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc) - EPOCH) // _SECOND

# The C scanner json.loads runs, called directly: json.loads adds two regex
# whitespace matches per call, which a stripped line does not need.
_scan_once = json.JSONDecoder().scan_once


class EventValidationError(ValueError):
    """A single event record violates the schema or its invariants."""


def utc_datetime(seconds: int) -> datetime:
    return EPOCH + timedelta(seconds=seconds)


def epoch_seconds(ts: datetime) -> int:
    """The epoch second of a tz-aware datetime, truncating a fraction."""
    return (ts - EPOCH) // _SECOND


def _present(x: float) -> float | None:
    return None if x != x else x


@dataclass(frozen=True, eq=False)
class DeviceLog:
    """One device's time-ordered event stream, held as parallel columns.

    Row ``i`` is one event: ``ts`` holds epoch seconds (ascending, events of
    one second in arrival order), ``kind`` and ``axis`` hold codes into
    ``KIND_NAMES`` and ``AXIS_NAMES``, and the float columns hold NaN where
    the event has no such value.  A log holds at least one event and no two
    equal ones; ``DeviceLogBuilder`` makes it.
    """

    device_id: str
    ts: array = field(repr=False)         # int64
    kind: array = field(repr=False)       # uint8
    axis: array = field(repr=False)       # uint8
    lat: array = field(repr=False)        # float64, like the columns below
    lon: array = field(repr=False)
    speed_kph: array = field(repr=False)
    accel_g: array = field(repr=False)

# One event as a builder packs it, in 8-byte words so that each column is a
# strided view: epoch s, lat, lon, speed_kph, accel_g, tag, then kind and axis.
_RECORD = struct.Struct("=qddddqBB6x")
_WORDS = _RECORD.size // 8


def _column(view: memoryview, typecode: str, first: int, step: int) -> array:
    col = array(typecode)
    col.frombytes(view[first::step].tobytes())
    return col


class DeviceLogBuilder:
    """One device's events as they arrive; ``build`` makes its DeviceLog.

    The log gets one stable sort by time; exact duplicates, which then lie
    in one run of equal timestamps, are dropped, keeping the first to arrive.
    """

    __slots__ = ("device_id", "records")

    def __init__(self, device_id: str):
        self.device_id = device_id
        self.records = bytearray()

    def append(self, ts: int, kind: int, axis: int = 0, lat: float = NAN, lon: float = NAN,
               speed_kph: float = NAN, accel_g: float = NAN, tag: int = 0) -> None:
        """Add an event: epoch seconds, codes, values (NaN where absent) and a
        tag, such as its line number, that ``build`` reports if it is a duplicate."""
        self.records += _RECORD.pack(ts, lat, lon, speed_kph, accel_g, tag, kind, axis)

    def build(self) -> tuple[DeviceLog, list[int]]:
        """The log, and the tags of the duplicates dropped from it, in order."""
        if not self.records:
            raise ValueError("a DeviceLog needs at least one event")
        with memoryview(self.records) as words:
            ints, floats, octets = words.cast("q"), words.cast("d"), words.cast("B")
            cols = (_column(ints, "q", 0, _WORDS), _column(octets, "B", 48, 8 * _WORDS),
                    _column(octets, "B", 49, 8 * _WORDS),
                    *(_column(floats, "d", i, _WORDS) for i in range(1, 5)))
            tags = _column(ints, "q", 5, _WORDS)
            ints.release(), floats.release(), octets.release()
        ts = cols[0]
        if not all(map(le, ts, islice(ts, 1, None))):
            order = sorted(range(len(ts)), key=ts.__getitem__)
            cols, tags = (tuple(array(c.typecode, map(c.__getitem__, order)) for c in cols),
                          array("q", map(tags.__getitem__, order)))
            ts = cols[0]
        dropped, run, prev = [], set(), -1
        for i in compress(count(1), map(eq, ts, islice(ts, 1, None))):
            if i - 1 != prev:  # i - 1 starts a run of equal timestamps
                run = {_row(cols, i - 1)}
            row = _row(cols, i)
            if row in run:
                dropped.append(i)
            run.add(row)
            prev = i
        if dropped:
            keep = [True] * len(ts)
            for i in dropped:
                keep[i] = False
            cols = tuple(array(c.typecode, compress(c, keep)) for c in cols)
        return DeviceLog(self.device_id, *cols), sorted(tags[i] for i in dropped)


def _row(cols: tuple[array, ...], i: int) -> tuple:
    """Row ``i`` without its time, absent values as None, for comparison."""
    _, kind, axis, lat, lon, speed, accel = cols
    return (kind[i], axis[i], _present(lat[i]), _present(lon[i]), _present(speed[i]),
            _present(accel[i]))


class SkippedLine(NamedTuple):  # its fields are parse_report.json's keys
    line: int
    reason: str


@dataclass
class ParseResult:
    skipped: list[SkippedLine]
    n_events: int

    @property
    def n_lines(self) -> int:  # each line is an event or a skipped line
        return self.n_events + len(self.skipped)


class ValidationIssue(NamedTuple):  # its fields are parse_report.json's keys
    code: str
    message: str


def _parse_timestamp(raw: object) -> int:
    """Epoch seconds of an RFC 3339 timestamp with a zone, truncated to the second."""
    if not isinstance(raw, str):
        raise EventValidationError("timestamp not parseable: not a string")
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise EventValidationError(f"timestamp not parseable: {exc}") from None
    if ts.tzinfo is None:
        raise EventValidationError("timestamp not parseable: missing timezone")
    seconds = (ts - EPOCH) // _SECOND
    # only an offset can carry a valid local time out of the UTC year range
    if ts.tzinfo is not timezone.utc and not _MIN_S <= seconds <= _MAX_S:
        raise EventValidationError("timestamp not parseable: date value out of range")
    return seconds


def _number(obj: dict, key: str) -> float:
    v = obj[key]
    if type(v) is not float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise EventValidationError(f"{key} is not a number")
        # an integer literal may lie beyond the float range
        try:
            v = float(v)
        except OverflowError:
            v = math.inf
    # json.loads reads NaN, Infinity and 1e400 as floats
    if not math.isfinite(v):
        raise EventValidationError(f"{key} is not a finite number")
    return v


def _coords(obj: dict, required: bool) -> tuple[float, float]:
    has_lat, has_lon = "lat" in obj, "lon" in obj
    if not has_lat and not has_lon:
        if required:
            raise EventValidationError("missing coordinates")
        return NAN, NAN
    if has_lat != has_lon:
        raise EventValidationError("lat/lon must appear together")
    lat, lon = _number(obj, "lat"), _number(obj, "lon")
    if not -90.0 <= lat <= 90.0:
        raise EventValidationError("latitude out of range")
    if not -180.0 <= lon <= 180.0:
        raise EventValidationError("longitude out of range")
    return lat, lon


def _event_fields(obj: object) -> tuple:
    """(device, epoch s, kind, axis, lat, lon, speed_kph, accel_g) of a decoded
    JSON object, codes for kind and axis and NaN for absent values."""
    if not isinstance(obj, dict):
        raise EventValidationError("record is not an object")
    device = obj.get("device")
    if not isinstance(device, str) or not device:
        raise EventValidationError("missing or invalid device id")
    if "ts" not in obj:
        raise EventValidationError("missing timestamp")
    ts = _parse_timestamp(obj["ts"])
    try:
        kind = _KIND_CODES[obj.get("kind")]
    except (KeyError, TypeError):  # an unhashable value is no kind either
        raise EventValidationError(f"unknown event kind: {obj.get('kind')!r}") from None

    lat = lon = speed = accel = NAN
    axis = 0
    if kind == POSITION:
        lat, lon = _coords(obj, required=True)
    elif kind == SPEED:
        lat, lon = _coords(obj, required=False)
        if "speed_kph" not in obj:
            raise EventValidationError("speed event without speed_kph")
        speed = _number(obj, "speed_kph")
        if speed < 0:
            raise EventValidationError("speed_kph negative")
    elif kind == ACCELERATION:
        lat, lon = _coords(obj, required=False)
        try:
            axis = _AXIS_CODES[obj.get("axis")]
        except (KeyError, TypeError):  # an unhashable value is no axis either
            raise EventValidationError(f"invalid acceleration axis: {obj.get('axis')!r}") from None
        if "accel_g" not in obj:
            raise EventValidationError("acceleration event without accel_g")
        accel = _number(obj, "accel_g")
        if abs(accel) > MAX_ABS_ACCEL_G:
            raise EventValidationError("accel_g out of range")
    else:  # ignition events carry no payload
        for key in ("lat", "lon", "speed_kph", "axis", "accel_g"):
            if key in obj:
                raise EventValidationError(f"{key} not allowed on {KIND_NAMES[kind]} event")

    if kind != SPEED and "speed_kph" in obj:
        raise EventValidationError(f"speed_kph not allowed on {KIND_NAMES[kind]} event")
    if kind != ACCELERATION and ("axis" in obj or "accel_g" in obj):
        raise EventValidationError(f"acceleration fields not allowed on {KIND_NAMES[kind]} event")
    return device, ts, kind, axis, lat, lon, speed, accel


def _loads(line: str):
    """``json.loads`` of a stripped line."""
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError):
        pass
    return json.loads(line)  # raises json's own error for the line, or decodes it


class DeviceOrderError(Exception):
    """A device id arrived that is not above every earlier one, in grouped reading."""


def parse_event_file(lines: Iterable[bytes], each: Callable[[DeviceLog], None],
                     grouped: bool = True) -> ParseResult:
    """One pass over JSONL event lines, such as a file opened ``rb``, handing each
    device's log to ``each`` in device-id order.

    Malformed lines, and duplicate events (same device, timestamp, kind and
    payload) after the first, are returned as skipped with line number and
    reason, in line order.  Each log is stably sorted by time.  With
    ``grouped``, device ids must arrive grouped and ascending: a log is handed
    on when the next device's first line arrives, so one device is held at a
    time, and an id not above every earlier one raises DeviceOrderError.
    Otherwise every device is held, and the logs are handed on once all are built.
    """
    skipped: list[SkippedLine] = []
    n_events = 0

    def build(builder: DeviceLogBuilder) -> DeviceLog:
        nonlocal n_events
        log, dropped = builder.build()
        skipped.extend(SkippedLine(n, "duplicate event") for n in dropped)
        n_events += len(log.ts)
        return log

    builders: dict[str, DeviceLogBuilder] = {}
    for n_lines, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            skipped.append(SkippedLine(n_lines, "invalid utf-8"))
            continue
        if not line:
            skipped.append(SkippedLine(n_lines, "empty line"))
            continue
        try:
            obj = _loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
            skipped.append(SkippedLine(n_lines, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        try:
            device, ts, kind, axis, lat, lon, speed, accel = _event_fields(obj)
        except EventValidationError as exc:
            skipped.append(SkippedLine(n_lines, str(exc)))
            continue
        b = builders.get(device)
        if b is None:
            if grouped and builders:
                (current,) = builders
                if device < current:
                    raise DeviceOrderError(f"line {n_lines}: device {device!r} after {current!r}")
                each(build(builders.pop(current)))
            b = builders[device] = DeviceLogBuilder(device)
        b.records += _RECORD.pack(ts, lat, lon, speed, accel, n_lines, kind, axis)  # b.append
    b = None  # a builder's records go once its log is built
    # every log is built before the first is handed on: a builder holds about
    # 64 B/event, its log about 42
    for log in sorted((build(builders.pop(device)) for device in list(builders)),
                      key=attrgetter("device_id")):
        each(log)
    skipped.sort()  # each line is skipped at most once, so this is line order
    return ParseResult(skipped, n_events)


def iter_log_lines(logs: Iterable[DeviceLog]) -> Iterator[str]:
    """The JSONL lines for a set of logs, one event per line with its newline.

    Each line is the compact ``json.dumps`` of the event's object, formatted
    directly: the device id is JSON-quoted once per device, each day's date
    is formatted once, floats are written by ``repr`` (as ``json.dumps``
    writes them) and the year is zero-padded to four digits.  Lines are made
    one at a time, so a writer holds one line, not the file.
    ``parse_event_file`` inverts the joined lines exactly.
    """
    days: dict[int, str] = {}
    for log in logs:
        head = '{"device":%s,"ts":"' % json.dumps(log.device_id)
        for ts, kind, axis, lat, lon, speed, accel in zip(
                log.ts, log.kind, log.axis, log.lat, log.lon, log.speed_kph, log.accel_g):
            day, s = divmod(ts, 86400)
            date = days.get(day)
            if date is None:
                date = days[day] = '%sT' % utc_datetime(day * 86400).date().isoformat()
            line = '%s%s%02d:%02d:%02dZ","kind":"%s"' % (
                head, date, s // 3600, s // 60 % 60, s % 60, KIND_NAMES[kind])
            if lat == lat:
                line += ',"lat":%r,"lon":%r' % (lat, lon)
            if speed == speed:
                line += ',"speed_kph":%r' % (speed,)
            if axis:
                line += ',"axis":"%s","accel_g":%r' % (AXIS_NAMES[axis], accel)
            yield line + "}\n"


def validate_log(log: DeviceLog) -> list[ValidationIssue]:
    """The log's invariant violations in time order; the log is not changed.

    Checks ignition pairing and implausible speeds (> 300 kph is flagged as
    suspect, not dropped); time order is the DeviceLog's own invariant.
    """
    issues = []
    ts, kind, speed = log.ts, log.kind, log.speed_kph
    ignitions = compress(count(), map(IGNITION_OFF.__ge__, kind))
    suspect = compress(count(), map(SUSPECT_SPEED_KPH.__lt__, speed))
    ignition_open: datetime | None = None
    for i in sorted((*ignitions, *suspect)):
        at = utc_datetime(ts[i])
        if kind[i] == IGNITION_ON:
            if ignition_open is not None:
                issues.append(ValidationIssue("unterminated_trip",
                                              f"unterminated trip: ignition_on at {ignition_open} "
                                              f"followed by ignition_on at {at}"))
            ignition_open = at
        elif kind[i] == IGNITION_OFF:
            if ignition_open is None:
                issues.append(ValidationIssue("unmatched_ignition_off",
                                              f"ignition_off at {at} without ignition_on"))
            ignition_open = None
        else:
            issues.append(ValidationIssue("suspect_speed",
                                          f"suspect speed {speed[i]} kph at {at}"))
    if ignition_open is not None:
        issues.append(ValidationIssue("unterminated_trip",
                                      f"unterminated trip: ignition_on at {ignition_open} never closed"))
    return issues
