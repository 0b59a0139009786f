"""JSONL event parsing, validation and round-tripping."""
import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from drivescore.ingest import (AXES, EVENT_KINDS, MAX_ABS_ACCEL_G,
                               SUSPECT_SPEED_KPH, DeviceLog, EventPackage,
                               EventValidationError, event_from_obj,
                               iter_log_lines, parse_event_log, validate_log)
from conftest import jsonl, parse_objs

UTC = timezone.utc


def ev(kind, ts="2021-05-03T10:00:00Z", device="d1", **extra):
    obj = {"device": device, "ts": ts, "kind": kind}
    obj.update(extra)
    return obj


def pos(ts, lon, lat=0.0, device="d1"):
    return ev("position", ts, device, lat=lat, lon=lon)


class TestEventFromObj:
    def test_position(self):
        e = event_from_obj(pos("2021-05-03T10:00:00Z", 30.5, lat=59.9))
        assert e.kind == "position"
        assert e.latitude == 59.9 and e.longitude == 30.5
        assert e.timestamp == datetime(2021, 5, 3, 10, tzinfo=UTC)

    def test_ignition_carries_no_payload(self):
        with pytest.raises(EventValidationError):
            event_from_obj(ev("ignition_on", speed_kph=10.0))

    @pytest.mark.parametrize("bad", [
        {"ts": "2021-05-03T10:00:00Z", "kind": "position", "lat": 0.0, "lon": 0.0},
        ev("position"),                          # no coordinates
        ev("speed"),                             # no speed_kph
        ev("speed", speed_kph=-3.0),
        ev("acceleration", accel_g=0.4),         # no axis
        ev("acceleration", axis="vertical", accel_g=0.4),
        ev("acceleration", axis="lateral"),      # no magnitude
        ev("warp_drive"),
        ev(["position"], lat=0.0, lon=0.0),      # unhashable kind
        ev({"kind": "speed"}, speed_kph=1.0),
        ev("acceleration", axis=["lateral"], accel_g=0.4),  # unhashable axis
        ev("position", ts="yesterday", lat=0.0, lon=0.0),
        ev("position", lat=0.0, lon=10 ** 400),  # an integer beyond the float range
        *[bad for c in ("NaN", "Infinity", "-Infinity") for bad in (
            ev("position", lat=json.loads(c), lon=0.0),
            ev("position", lat=0.0, lon=json.loads(c)),
            ev("speed", speed_kph=json.loads(c)),
            ev("acceleration", axis="lateral", accel_g=json.loads(c)))],
    ])
    def test_rejects(self, bad):
        with pytest.raises(EventValidationError):
            event_from_obj(bad)

    def test_accel_magnitude_cap(self):
        ok = ev("acceleration", axis="longitudinal", accel_g=MAX_ABS_ACCEL_G)
        assert event_from_obj(ok).accel_g == MAX_ABS_ACCEL_G
        with pytest.raises(EventValidationError):
            event_from_obj(ev("acceleration", axis="longitudinal",
                              accel_g=MAX_ABS_ACCEL_G + 0.001))


class TestParseEventLog:
    def test_line_bookkeeping(self):
        lines = [json.dumps(pos("2021-05-03T10:00:00Z", 1.0)),
                 "{not json",
                 json.dumps(pos("2021-05-03T10:01:00Z", 1.01)),
                 json.dumps(pos("2021-05-03T10:01:00Z", 1.01)),  # duplicate
                 json.dumps(ev("speed"))]                        # invalid
        result = parse_event_log(lines)
        assert result.n_lines == 5
        assert result.n_events == 2
        assert [s.line_no for s in result.skipped] == [2, 4, 5]
        assert result.n_events + len(result.skipped) == result.n_lines

    def test_sorts_within_device(self):
        objs = [pos("2021-05-03T10:05:00Z", 1.05),
                pos("2021-05-03T10:00:00Z", 1.0),
                pos("2021-05-03T10:02:00Z", 1.02)]
        log = parse_objs(objs).logs[0]
        stamps = [e.timestamp for e in log.events]
        assert stamps == sorted(stamps)

    def test_splits_by_device(self):
        objs = [pos("2021-05-03T10:00:00Z", 1.0, device="a"),
                pos("2021-05-03T10:00:00Z", 1.0, device="b")]
        result = parse_objs(objs)
        assert sorted(log.device_id for log in result.logs) == ["a", "b"]

    def test_serialize_round_trip(self):
        objs = [ev("ignition_on", "2021-05-03T10:00:00Z"),
                pos("2021-05-03T10:00:30Z", 1.0),
                ev("speed", "2021-05-03T10:01:00Z", speed_kph=55.0),
                ev("acceleration", "2021-05-03T10:01:30Z",
                   axis="lateral", accel_g=0.42),
                ev("ignition_off", "2021-05-03T10:02:00Z")]
        first = parse_objs(objs)
        text = "".join(iter_log_lines(first.logs))
        second = parse_event_log(text.splitlines())
        assert not second.skipped
        assert second.logs[0].events == first.logs[0].events

    def test_events_share_device_kind_and_axis_strings(self):
        objs = [ev("ignition_on", "2021-05-03T10:00:00Z", device="dev 1/\u00e9"),
                pos("2021-05-03T10:00:30Z", 1.0, device="dev 1/\u00e9"),
                ev("acceleration", "2021-05-03T10:01:00Z", device="dev 1/\u00e9",
                   axis="lateral", accel_g=0.4),
                ev("acceleration", "2021-05-03T10:01:30Z", device="dev 1/\u00e9",
                   axis="lateral", accel_g=-0.2),
                pos("2021-05-03T10:02:00Z", 1.1, device="dev 1/\u00e9"),
                ev("ignition_off", "2021-05-03T10:03:00Z", device="dev 1/\u00e9")]
        (log,) = parse_objs(objs).logs
        kinds = {k: k for k in EVENT_KINDS}
        axes = {a: a for a in AXES}
        assert all(e.device_id is log.device_id for e in log.events)
        assert all(e.kind is kinds[e.kind] for e in log.events)
        assert all(e.axis is axes[e.axis] for e in log.events if e.axis is not None)

    def test_year_below_1000_round_trips(self):
        first = parse_objs([pos("0999-05-03T10:00:00Z", 1.0)])
        text = "".join(iter_log_lines(first.logs))
        assert '"ts":"0999-05-03T10:00:00Z"' in text
        assert parse_event_log(text.splitlines()).logs == first.logs

    def test_non_finite_numbers_are_skipped(self):
        lines = ['{"device":"d1","ts":"2021-05-03T10:00:00Z","kind":"speed","speed_kph":NaN}',
                 '{"device":"d1","ts":"2021-05-03T10:00:00Z","kind":"position","lat":0,"lon":1e400}',
                 '{"device":"d1","ts":"2021-05-03T10:00:00Z","kind":"position","lat":0,"lon":%s}'
                 % ("1" * 5000)]
        result = parse_event_log(lines)
        assert result.n_events == 0
        assert [s.reason for s in result.skipped][:2] == [
            "speed_kph is not a finite number", "lon is not a finite number"]
        assert result.skipped[2].reason.startswith("invalid JSON: ")


_ts = st.datetimes(min_value=datetime(1, 1, 1),
                   max_value=datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda d: d.replace(microsecond=0, tzinfo=UTC))
_lat = st.floats(min_value=-90, max_value=90, allow_nan=False)
_lon = st.floats(min_value=-180, max_value=180, allow_nan=False)
_device = st.text(min_size=1, max_size=8)


@st.composite
def event_packages(draw, device=_device, ts=_ts, lat=_lat, lon=_lon,
                   speed=st.floats(min_value=0, max_value=400, allow_nan=False),
                   accel=st.floats(min_value=-24, max_value=24, allow_nan=False)):
    kind = draw(st.sampled_from(("ignition_on", "ignition_off", "position",
                                 "speed", "acceleration")))
    device, ts = draw(device), draw(ts)
    if kind == "position":
        return EventPackage(device, ts, kind, latitude=draw(lat), longitude=draw(lon))
    if kind == "speed":
        return EventPackage(device, ts, kind, speed_kph=draw(speed))
    if kind == "acceleration":
        return EventPackage(device, ts, kind, axis=draw(st.sampled_from(sorted(AXES))),
                            accel_g=draw(accel))
    return EventPackage(device, ts, kind)


def _log_of(pkg):
    return DeviceLog.from_events(pkg.device_id, [pkg])


@given(event_packages())
def test_obj_round_trip_is_identity(pkg):
    line = "".join(iter_log_lines([_log_of(pkg)]))
    assert parse_event_log([line]).logs == [_log_of(pkg)]


_any_float = st.floats(allow_nan=False, allow_infinity=False)


@given(event_packages(device=st.text(min_size=1),
                      ts=_ts.filter(lambda d: d.year >= 1000),
                      lat=_any_float, lon=_any_float, speed=_any_float, accel=_any_float))
def test_line_is_compact_json_dumps(pkg):
    obj = {"device": pkg.device_id,
           "ts": pkg.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
           "kind": pkg.kind}
    if pkg.latitude is not None:
        obj.update(lat=pkg.latitude, lon=pkg.longitude)
    if pkg.speed_kph is not None:
        obj["speed_kph"] = pkg.speed_kph
    if pkg.axis is not None:
        obj.update(axis=pkg.axis, accel_g=pkg.accel_g)
    (line,) = iter_log_lines([_log_of(pkg)])
    assert line == json.dumps(obj, separators=(",", ":")) + "\n"


@given(st.lists(event_packages(device=st.sampled_from(["a", "b\"", "c\u00e9"])),
                min_size=1, max_size=12))
def test_serialize_then_parse_returns_the_logs(pkgs):
    by_device = {}
    for pkg in dict.fromkeys(pkgs):  # parse drops exact duplicates
        by_device.setdefault(pkg.device_id, []).append(pkg)
    logs = [DeviceLog.from_events(dev, evs) for dev, evs in by_device.items()]
    result = parse_event_log("".join(iter_log_lines(logs)).encode("utf-8").splitlines())
    assert not result.skipped
    assert result.logs == logs


@given(st.lists(event_packages(), max_size=12))
def test_line_iterator_yields_the_serialized_text_line_by_line(pkgs):
    logs = [_log_of(pkg) for pkg in pkgs]
    lines = list(iter_log_lines(logs))
    assert len(lines) == len(pkgs)
    assert all(ln.endswith("}\n") and ln.count("\n") == 1 for ln in lines)
    assert lines == ["".join(iter_log_lines([log])) for log in logs]


class TestValidateLog:
    def _log(self, objs):
        return parse_objs(objs).logs[0]

    def test_clean(self):
        log = self._log([ev("ignition_on", "2021-05-03T10:00:00Z"),
                         pos("2021-05-03T10:01:00Z", 1.0),
                         ev("ignition_off", "2021-05-03T10:02:00Z")])
        assert validate_log(log).is_clean

    def test_double_ignition_on(self):
        log = self._log([ev("ignition_on", "2021-05-03T10:00:00Z"),
                         ev("ignition_on", "2021-05-03T10:30:00Z"),
                         ev("ignition_off", "2021-05-03T11:00:00Z")])
        codes = [i.code for i in validate_log(log).issues]
        assert "unterminated_trip" in codes

    def test_unmatched_ignition_off(self):
        log = self._log([pos("2021-05-03T10:00:00Z", 1.0),
                         ev("ignition_off", "2021-05-03T10:02:00Z")])
        codes = [i.code for i in validate_log(log).issues]
        assert "unmatched_ignition_off" in codes

    def test_suspect_speed_flagged_not_dropped(self):
        log = self._log([ev("speed", "2021-05-03T10:00:00Z",
                            speed_kph=SUSPECT_SPEED_KPH + 50)])
        report = validate_log(log)
        assert [i.code for i in report.issues] == ["suspect_speed"]
        assert len(log.events) == 1

    def test_never_ends(self):
        log = self._log([ev("ignition_on", "2021-05-03T10:00:00Z"),
                         pos("2021-05-03T10:01:00Z", 1.0)])
        codes = [i.code for i in validate_log(log).issues]
        assert "unterminated_trip" in codes


def test_device_log_requires_events():
    with pytest.raises(ValueError):
        DeviceLog.from_events("d1", [])


def test_jsonl_helper_ends_with_newline():
    assert jsonl([{"a": 1}]).endswith("\n")
