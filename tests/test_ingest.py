"""JSONL event parsing, validation and round-tripping."""
import json
import math
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from drivescore.ingest import (_RECORD, AXIS_NAMES, KIND_NAMES, MAX_ABS_ACCEL_G, NAN, POSITION,
                               SUSPECT_SPEED_KPH, DeviceLogBuilder, epoch_seconds,
                               iter_log_lines, parse_event_file, validate_log)
from conftest import assert_same_logs, jsonl, parse_lines, parse_objs

UTC = timezone.utc


def ev(kind, ts="2021-05-03T10:00:00Z", device="d1", **extra):
    obj = {"device": device, "ts": ts, "kind": kind}
    obj.update(extra)
    return obj


def pos(ts, lon, lat=0.0, device="d1"):
    return ev("position", ts, device, lat=lat, lon=lon)


def skip_reason(obj):
    """Why ``parse_event_file`` skips the line of one JSON object, or None if it keeps it."""
    _, result = parse_lines([json.dumps(obj)])
    return result.skipped[0].reason if result.skipped else None


_REJECTS = [
    ({"ts": "2021-05-03T10:00:00Z", "kind": "position", "lat": 0.0, "lon": 0.0},
     "missing or invalid device id"),
    (ev("position"), "missing coordinates"),
    (ev("speed"), "speed event without speed_kph"),
    (ev("speed", speed_kph=-3.0), "speed_kph negative"),
    (ev("acceleration", accel_g=0.4), "invalid acceleration axis: None"),
    (ev("acceleration", axis="vertical", accel_g=0.4), "invalid acceleration axis: 'vertical'"),
    (ev("acceleration", axis="lateral"), "acceleration event without accel_g"),
    (ev("warp_drive"), "unknown event kind: 'warp_drive'"),
    (ev(["position"], lat=0.0, lon=0.0), "unknown event kind: ['position']"),
    (ev({"kind": "speed"}, speed_kph=1.0), "unknown event kind: {'kind': 'speed'}"),
    (ev("acceleration", axis=["lateral"], accel_g=0.4), "invalid acceleration axis: ['lateral']"),
    (ev("position", ts="yesterday", lat=0.0, lon=0.0),
     "timestamp not parseable: Invalid isoformat string: 'yesterday'"),
    (ev("position", lat=0.0, lon=10 ** 400), "lon is not a finite number"),  # beyond float range
    *[bad for c in (math.nan, math.inf, -math.inf) for bad in (
        (ev("position", lat=c, lon=0.0), "lat is not a finite number"),
        (ev("position", lat=0.0, lon=c), "lon is not a finite number"),
        (ev("speed", speed_kph=c), "speed_kph is not a finite number"),
        (ev("acceleration", axis="lateral", accel_g=c), "accel_g is not a finite number"))],
    (ev("position", ts=1620036000, lat=0.0, lon=0.0), "timestamp not parseable: not a string"),
    (ev("position", ts="2021-05-03T10:00:00", lat=0.0, lon=0.0),
     "timestamp not parseable: missing timezone"),
    (ev("position", ts="9999-12-31T23:00:00-05:00", lat=0.0, lon=0.0),
     "timestamp not parseable: date value out of range"),
    (ev("speed", speed_kph="55"), "speed_kph is not a number"),
    (ev("speed", speed_kph=True), "speed_kph is not a number"),
    (ev("position", lat=0.0), "lat/lon must appear together"),
    (ev("position", lat=91.0, lon=0.0), "latitude out of range"),
    (ev("position", lat=0.0, lon=-181.0), "longitude out of range"),
    ([ev("position", lat=0.0, lon=0.0)], "record is not an object"),
    ({"device": "d1", "kind": "position", "lat": 0.0, "lon": 0.0}, "missing timestamp"),
    (ev("position", lat=0.0, lon=0.0, speed_kph=1.0), "speed_kph not allowed on position event"),
    (ev("speed", speed_kph=1.0, accel_g=0.1), "acceleration fields not allowed on speed event"),
]


class TestEventFromObj:
    """One JSON object per line: the event parse keeps, or the reason it skips the line."""

    def test_position(self):
        (log,) = parse_objs([pos("2021-05-03T10:00:00Z", 30.5, lat=59.9)])
        assert (log.device_id, log.kind[0], log.axis[0], log.lat[0], log.lon[0]) == \
            ("d1", POSITION, 0, 59.9, 30.5)
        assert log.ts[0] == epoch_seconds(datetime(2021, 5, 3, 10, tzinfo=UTC))
        assert math.isnan(log.speed_kph[0]) and math.isnan(log.accel_g[0])

    def test_ignition_carries_no_payload(self):
        assert skip_reason(ev("ignition_on", speed_kph=10.0)) == \
            "speed_kph not allowed on ignition_on event"

    @pytest.mark.parametrize("bad, reason", _REJECTS,
                             ids=[f"bad{i}" for i in range(len(_REJECTS))])
    def test_rejects(self, bad, reason):
        assert skip_reason(bad) == reason

    def test_accel_magnitude_cap(self):
        ok = ev("acceleration", axis="longitudinal", accel_g=MAX_ABS_ACCEL_G)
        assert parse_objs([ok])[0].accel_g[0] == MAX_ABS_ACCEL_G
        assert skip_reason(ev("acceleration", axis="longitudinal",
                              accel_g=MAX_ABS_ACCEL_G + 0.001)) == "accel_g out of range"


class TestParseEventLog:
    def test_line_bookkeeping(self):
        lines = [json.dumps(pos("2021-05-03T10:00:00Z", 1.0)).encode(),
                 b"{not json",
                 json.dumps(pos("2021-05-03T10:01:00Z", 1.01)).encode(),
                 json.dumps(pos("2021-05-03T10:01:00Z", 1.01)).encode(),  # duplicate
                 json.dumps(ev("speed")).encode(),                        # invalid
                 b"\xff\xfe",
                 b"   \n"]
        result = parse_event_file(lines, lambda log: None)
        assert result.n_lines == 7
        assert result.n_events == 2
        assert [s.line for s in result.skipped] == [2, 4, 5, 6, 7]
        assert [s.reason for s in result.skipped][1:] == [
            "duplicate event", "speed event without speed_kph", "invalid utf-8", "empty line"]
        assert result.n_events + len(result.skipped) == result.n_lines

    def test_sorts_within_device(self):
        objs = [pos("2021-05-03T10:05:00Z", 1.05),
                pos("2021-05-03T10:00:00Z", 1.0),
                pos("2021-05-03T10:02:00Z", 1.02)]
        log = parse_objs(objs)[0]
        assert list(log.ts) == sorted(log.ts)
        assert list(log.lon) == [1.0, 1.02, 1.05]

    def test_splits_by_device(self):
        objs = [pos("2021-05-03T10:00:00Z", 1.0, device="a"),
                pos("2021-05-03T10:00:00Z", 1.0, device="b")]
        logs = parse_objs(objs)
        assert sorted(log.device_id for log in logs) == ["a", "b"]

    def test_serialize_round_trip(self):
        objs = [ev("ignition_on", "2021-05-03T10:00:00Z"),
                pos("2021-05-03T10:00:30Z", 1.0),
                ev("speed", "2021-05-03T10:01:00Z", speed_kph=55.0),
                ev("acceleration", "2021-05-03T10:01:30Z",
                   axis="lateral", accel_g=0.42),
                ev("ignition_off", "2021-05-03T10:02:00Z")]
        first = parse_objs(objs)
        text = "".join(iter_log_lines(first))
        second, result = parse_lines(text.splitlines())
        assert not result.skipped
        assert_same_logs(second, first)

    def test_year_below_1000_round_trips(self):
        first = parse_objs([pos("0999-05-03T10:00:00Z", 1.0)])
        text = "".join(iter_log_lines(first))
        assert '"ts":"0999-05-03T10:00:00Z"' in text
        assert_same_logs(parse_lines(text.splitlines())[0], first)

    def test_non_finite_numbers_are_skipped(self):
        lines = ['{"device":"d1","ts":"2021-05-03T10:00:00Z","kind":"speed","speed_kph":NaN}',
                 '{"device":"d1","ts":"2021-05-03T10:00:00Z","kind":"position","lat":0,"lon":1e400}',
                 '{"device":"d1","ts":"2021-05-03T10:00:00Z","kind":"position","lat":0,"lon":%s}'
                 % ("1" * 5000)]
        _, result = parse_lines(lines)
        assert result.n_events == 0
        assert [s.reason for s in result.skipped][:2] == [
            "speed_kph is not a finite number", "lon is not a finite number"]
        assert result.skipped[2].reason.startswith("invalid JSON: ")


_ts = st.datetimes(min_value=datetime(1, 1, 1),
                   max_value=datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda d: d.replace(microsecond=0).isoformat() + "Z")
_lat = st.floats(min_value=-90, max_value=90, allow_nan=False)
_lon = st.floats(min_value=-180, max_value=180, allow_nan=False)
_device = st.text(min_size=1, max_size=8)


@st.composite
def event_objs(draw, device=_device, ts=_ts, lat=_lat, lon=_lon,
               speed=st.floats(min_value=0, max_value=400, allow_nan=False),
               accel=st.floats(min_value=-24, max_value=24, allow_nan=False)):
    """An event's JSON object, its keys in the order ``iter_log_lines`` writes them."""
    obj = {"device": draw(device), "ts": draw(ts), "kind": draw(st.sampled_from(KIND_NAMES))}
    if obj["kind"] == "position":
        obj.update(lat=draw(lat), lon=draw(lon))
    elif obj["kind"] == "speed":
        obj["speed_kph"] = draw(speed)
    elif obj["kind"] == "acceleration":
        obj.update(axis=draw(st.sampled_from(AXIS_NAMES[1:])), accel_g=draw(accel))
    return obj


def _built_log(objs):
    """The log of one device's event objects, made by the builder without any range check."""
    b = DeviceLogBuilder(objs[0]["device"])
    for o in objs:
        b.records += _RECORD.pack(
            epoch_seconds(datetime.fromisoformat(o["ts"][:-1]).replace(tzinfo=UTC)),
            *(o.get(k, NAN) for k in ("lat", "lon", "speed_kph", "accel_g")), 0,
            KIND_NAMES.index(o["kind"]), AXIS_NAMES.index(o.get("axis")))
    return b.build()[0]


@given(event_objs())
def test_obj_round_trip_is_identity(obj):
    log = _built_log([obj])
    assert_same_logs(parse_lines([json.dumps(obj)])[0], [log])
    assert_same_logs(parse_lines(iter_log_lines([log]))[0], [log])


_any_float = st.floats(allow_nan=False, allow_infinity=False)


@given(event_objs(device=st.text(min_size=1), lat=_any_float, lon=_any_float,
                  speed=_any_float, accel=_any_float))
def test_line_is_compact_json_dumps(obj):
    (line,) = iter_log_lines([_built_log([obj])])
    assert line == json.dumps(obj, separators=(",", ":")) + "\n"


@given(st.lists(event_objs(device=st.sampled_from(["a", "b\"", "c\u00e9"])),
                min_size=1, max_size=12))
def test_serialize_then_parse_returns_the_logs(objs):
    by_device = {}
    for obj in objs:
        by_device.setdefault(obj["device"], []).append(obj)
    logs = [_built_log(by_device[d]) for d in sorted(by_device)]  # exact duplicates dropped
    got, result = parse_lines("".join(iter_log_lines(logs)).splitlines())
    assert not result.skipped
    assert_same_logs(got, logs)


@given(st.lists(event_objs(), max_size=12))
def test_line_iterator_yields_the_serialized_text_line_by_line(objs):
    logs = [_built_log([obj]) for obj in objs]
    lines = list(iter_log_lines(logs))
    assert len(lines) == len(objs)
    assert all(ln.endswith("}\n") and ln.count("\n") == 1 for ln in lines)
    assert lines == ["".join(iter_log_lines([log])) for log in logs]


class TestValidateLog:
    def _log(self, objs):
        return parse_objs(objs)[0]

    def test_clean(self):
        log = self._log([ev("ignition_on", "2021-05-03T10:00:00Z"),
                         pos("2021-05-03T10:01:00Z", 1.0),
                         ev("ignition_off", "2021-05-03T10:02:00Z")])
        assert validate_log(log) == []

    def test_double_ignition_on(self):
        log = self._log([ev("ignition_on", "2021-05-03T10:00:00Z"),
                         ev("ignition_on", "2021-05-03T10:30:00Z"),
                         ev("ignition_off", "2021-05-03T11:00:00Z")])
        codes = [i.code for i in validate_log(log)]
        assert "unterminated_trip" in codes

    def test_unmatched_ignition_off(self):
        log = self._log([pos("2021-05-03T10:00:00Z", 1.0),
                         ev("ignition_off", "2021-05-03T10:02:00Z")])
        codes = [i.code for i in validate_log(log)]
        assert "unmatched_ignition_off" in codes

    def test_suspect_speed_flagged_not_dropped(self):
        log = self._log([ev("speed", "2021-05-03T10:00:00Z",
                            speed_kph=SUSPECT_SPEED_KPH + 50)])
        assert [i.code for i in validate_log(log)] == ["suspect_speed"]
        assert len(log.ts) == 1

    def test_never_ends(self):
        log = self._log([ev("ignition_on", "2021-05-03T10:00:00Z"),
                         pos("2021-05-03T10:01:00Z", 1.0)])
        codes = [i.code for i in validate_log(log)]
        assert "unterminated_trip" in codes


def test_device_log_requires_events():
    with pytest.raises(ValueError):
        DeviceLogBuilder("d1").build()


def test_jsonl_helper_ends_with_newline():
    assert jsonl([{"a": 1}]).endswith("\n")
