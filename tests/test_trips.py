"""Trip segmentation and hourly aggregation."""
import math
import time
from datetime import datetime, timedelta, timezone
from functools import cache
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings, strategies as st

from drivescore.features import FEATURE_NAMES, compute_feature_table
from drivescore.fileio import iter_csv_records, write_csv
from drivescore.ingest import POSITION, SPEED, utc_datetime
from drivescore.synthgen import SynthConfig, generate_population, iter_event_logs
from drivescore.trips import (DEFAULT_GAP_THRESHOLD_S, EARTH_RADIUS_KM,
                              HOURLY_CSV_COLUMNS, TRIP_CSV_COLUMNS,
                              HourlyRecord, Trip, haversine_km, hourly_from_row,
                              roll_up, trip_from_row)
from conftest import jsonl, parse_lines, parse_objs

UTC = timezone.utc
KM_PER_DEGREE = EARTH_RADIUS_KM * math.pi / 180.0
T0 = datetime(2021, 5, 3, 10, 0, tzinfo=UTC)  # a Monday


def iso(ts):
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def drive(start, minutes, speed_kph, device="d1", lon0=0.0, ignition=True,
          step_s=60):
    """Event dicts for a straight equatorial drive at constant speed."""
    objs = []
    if ignition:
        objs.append({"device": device, "ts": iso(start), "kind": "ignition_on"})
    deg_per_s = speed_kph / 3600.0 / KM_PER_DEGREE
    n_steps = int(minutes * 60 / step_s)
    for i in range(n_steps + 1):
        t = start + timedelta(seconds=i * step_s)
        objs.append({"device": device, "ts": iso(t), "kind": "position",
                     "lat": 0.0, "lon": lon0 + deg_per_s * i * step_s})
    if ignition:
        end = start + timedelta(minutes=minutes)
        objs.append({"device": device, "ts": iso(end), "kind": "ignition_off"})
    return objs


class TestHaversine:
    def test_equatorial_degree(self):
        assert haversine_km(0, 0, 0, 1) == pytest.approx(KM_PER_DEGREE, rel=1e-12)

    def test_symmetry_and_zero(self):
        assert haversine_km(10, 20, -5, 40) == haversine_km(-5, 40, 10, 20)
        assert haversine_km(55.75, 37.61, 55.75, 37.61) == 0.0

    def test_quarter_meridian(self):
        assert haversine_km(0, 0, 90, 0) == pytest.approx(
            EARTH_RADIUS_KM * math.pi / 2, rel=1e-12)


class TestSegmentation:
    def test_single_ignition_trip(self):
        log = parse_objs(drive(T0, 30, 60.0))[0]
        trips, _ = roll_up(log)
        assert len(trips) == 1
        t = trips[0]
        assert t.start == T0 and t.duration_s == 1800.0
        assert t.mileage_km == pytest.approx(30.0, rel=1e-9)
        assert t.mean_speed_kph == pytest.approx(
            t.mileage_km / t.duration_s * 3600.0)

    def test_two_ignition_trips(self):
        objs = drive(T0, 20, 50.0) + drive(T0 + timedelta(hours=3), 20, 50.0)
        trips, _ = roll_up(parse_objs(objs)[0])
        assert len(trips) == 2
        assert trips[0].end < trips[1].start

    def test_gap_splits_without_ignition(self):
        a = drive(T0, 10, 60.0, ignition=False)
        b = drive(T0 + timedelta(seconds=600 + 11 * 60), 10, 60.0,
                  lon0=1.0, ignition=False)
        trips, _ = roll_up(parse_objs(a + b)[0])
        assert len(trips) == 2

    def test_gap_below_threshold_keeps_one_trip(self):
        a = drive(T0, 10, 60.0, ignition=False)
        b = drive(T0 + timedelta(seconds=10 * 60 + 599), 10, 60.0,
                  lon0=0.8, ignition=False)
        trips, _ = roll_up(parse_objs(a + b)[0])
        assert len(trips) == 1

    def test_short_trips_discarded(self):
        jitter = drive(T0, 0.5, 20.0)  # 30 s
        assert roll_up(parse_objs(jitter)[0])[0] == []
        parked = drive(T0, 30, 0.1)    # 50 m of creep
        assert roll_up(parse_objs(parked)[0])[0] == []

    def test_unclosed_trip_ends_at_last_movement(self):
        objs = drive(T0, 15, 60.0)
        objs = objs[:-1]  # drop ignition_off
        trips, _ = roll_up(parse_objs(objs)[0])
        assert len(trips) == 1
        assert trips[0].end == T0 + timedelta(minutes=15)

    def test_threshold_validation(self):
        log = parse_objs(drive(T0, 10, 50.0))[0]
        with pytest.raises(ValueError):
            roll_up(log, gap_threshold_s=0.0)


class TestTripInvariants:
    """``trip_from_row`` checks each trip that enters from a trips.csv row."""

    def test_end_after_start(self):
        with pytest.raises(ValueError, match="trip must end after it starts"):
            trip_from_row(["d1", T0.isoformat(), T0.isoformat(), "1.0", "0.0", "0.0"])

    def test_duration_consistency(self):
        end = T0 + timedelta(minutes=10)
        with pytest.raises(ValueError, match="duration_s inconsistent with start/end"):
            trip_from_row(["d1", T0.isoformat(), end.isoformat(), "5.0", "500.0", "30.0"])

    def test_negative_mileage(self):
        end = T0 + timedelta(minutes=10)
        with pytest.raises(ValueError, match="negative mileage"):
            trip_from_row(["d1", T0.isoformat(), end.isoformat(), "-1.0", "600.0", "0.0"])


class TestAggregateHourly:
    def _pipeline(self, objs, tz=UTC):
        log = parse_objs(objs)[0]
        return (log, *roll_up(log, tz=tz))

    def test_leg_split_across_hours(self):
        start = T0.replace(minute=30)
        _, _, recs = self._pipeline(drive(start, 60, 72.0))
        assert [r.hour_start.hour for r in recs] == [10, 11]
        assert recs[0].mileage_km == pytest.approx(36.0, rel=1e-9)
        assert recs[1].mileage_km == pytest.approx(36.0, rel=1e-9)
        for r in recs:
            assert r.mean_speed_kph == pytest.approx(72.0, rel=1e-9)
            assert sum(r.band_mileage()) == pytest.approx(r.mileage_km)
            assert r.m_60_100 == pytest.approx(r.mileage_km)

    def test_total_mileage_matches_trips(self):
        objs = drive(T0, 45, 80.0) + drive(T0 + timedelta(hours=5), 20, 30.0)
        _, trips, recs = self._pipeline(objs)
        assert sum(r.mileage_km for r in recs) == pytest.approx(
            sum(t.mileage_km for t in trips), rel=1e-9)

    def test_speed_events_raise_hourly_max(self):
        objs = drive(T0, 30, 60.0)
        objs.append({"device": "d1", "ts": iso(T0 + timedelta(minutes=10)),
                     "kind": "speed", "speed_kph": 131.0})
        _, _, recs = self._pipeline(objs)
        assert recs[0].max_kph == 131.0

    def test_speed_reading_counts_in_an_hour_without_legs(self):
        """An hour that only a harsh event opens still takes the hour's speed
        readings, whether they come before or after that event."""
        objs = drive(T0, 30, 60.0)
        later = T0 + timedelta(hours=2)
        objs += [{"device": "d1", "ts": iso(later), "kind": "speed", "speed_kph": 42.0},
                 {"device": "d1", "ts": iso(later + timedelta(minutes=1)),
                  "kind": "acceleration", "axis": "lateral", "accel_g": 0.45}]
        _, _, recs = self._pipeline(objs)
        assert [(r.hour_start.hour, r.mileage_km, r.s2, r.max_kph)
                for r in recs[1:]] == [(12, 0.0, 1, 42.0)]

    def test_accel_events_counted_by_band(self):
        objs = drive(T0, 30, 60.0)
        for minute, axis, g in ((5, "longitudinal", 0.35),
                                (6, "longitudinal", -0.25),
                                (7, "lateral", 0.45),
                                (8, "longitudinal", 0.05)):  # below any band
            objs.append({"device": "d1", "ts": iso(T0 + timedelta(minutes=minute)),
                         "kind": "acceleration", "axis": axis, "accel_g": g})
        _, _, recs = self._pipeline(objs)
        r = recs[0]
        assert (r.a1, r.d1, r.s2) == (1, 1, 1)
        assert r.a2 == r.a3 == r.d2 == r.d3 == r.s1 == r.s3 == 0

    def test_timezone_changes_hour_bucket(self):
        tz3 = timezone(timedelta(hours=3))
        _, _, recs = self._pipeline(drive(T0, 30, 60.0), tz=tz3)
        assert recs[0].hour_start.hour == 13
        assert recs[0].hour_start.utcoffset() == timedelta(hours=3)

    def test_hours_without_activity_absent(self):
        objs = drive(T0, 10, 60.0) + drive(T0 + timedelta(hours=4), 10, 60.0)
        _, _, recs = self._pipeline(objs)
        assert [r.hour_start.hour for r in recs] == [10, 14]


def _through_reversed_csv(path, columns, row, from_row):
    """Write one row under ``columns`` in reverse order, then read it back."""
    write_csv(path, columns[::-1], [row[::-1]])
    return list(iter_csv_records(path, columns, from_row))


def test_trip_row_round_trip(tmp_path):
    t = Trip("d9", T0, T0 + timedelta(seconds=1234), 17.25, 1234.0, 50.32)
    assert _through_reversed_csv(tmp_path / "trips.csv", TRIP_CSV_COLUMNS, t,
                                 trip_from_row) == [t]


def test_hourly_row_round_trip(tmp_path):
    rec = HourlyRecord("d9", T0, 12.5, 48.0,
                       1, 0, 0, 2, 0, 0, 0, 1, 0,
                       1.5, 8.0, 3.0, 0.0, 0.0, 92.0)
    assert _through_reversed_csv(tmp_path / "hourly.csv", HOURLY_CSV_COLUMNS,
                                 rec, hourly_from_row) == [rec]


@settings(deadline=None, max_examples=30)
@given(minutes=st.integers(min_value=2, max_value=150),
       speed=st.floats(min_value=5.0, max_value=140.0),
       start_minute=st.integers(min_value=0, max_value=59))
def test_hourly_mileage_conserves_trip_mileage(minutes, speed, start_minute):
    start = T0.replace(minute=start_minute)
    log = parse_objs(drive(start, minutes, speed))[0]
    trips, recs = roll_up(log)
    assert sum(r.mileage_km for r in recs) == pytest.approx(
        sum(t.mileage_km for t in trips), rel=1e-9, abs=1e-12)


@st.composite
def tie_logs(draw):
    """Event dicts for 1-3 ignition trips whose GPS fixes share seconds with
    the ignition events, in any order within a second; a trip may start in
    the second the previous one ended."""
    objs = []
    end = 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        on = end + draw(st.sampled_from([0, 0, 45, 900]))
        end = on + draw(st.integers(min_value=60, max_value=900))
        objs += [{"device": "d1", "ts": iso(T0 + timedelta(seconds=on)), "kind": "ignition_on"},
                 {"device": "d1", "ts": iso(T0 + timedelta(seconds=end)), "kind": "ignition_off"}]
        seconds = draw(st.lists(st.sampled_from([on, on, end, end, on - 1, end + 1])
                                | st.integers(min_value=on, max_value=end), max_size=8))
        for sec in seconds:
            fix = {"device": "d1", "ts": iso(T0 + timedelta(seconds=sec)),
                   "kind": draw(st.sampled_from(["position", "speed"])),
                   "lat": draw(st.floats(min_value=-0.02, max_value=0.02)),
                   "lon": draw(st.floats(min_value=0.0, max_value=0.05))}
            if fix["kind"] == "speed":
                fix["speed_kph"] = 50.0
            objs.append(fix)
    return draw(st.permutations(objs))


def _fixes(log):
    """(UTC time, lat, lon) of each movement event with coordinates, in order."""
    return [(utc_datetime(t), lat, lon)
            for t, kind, lat, lon in zip(log.ts, log.kind, log.lat, log.lon)
            if kind in (POSITION, SPEED) and not math.isnan(lat)]


def _first_trip_legs(log, trips):
    """Reference for the one-leg-one-trip rule: trip index -> the km of its
    legs, each leg of consecutive fixes going to the first trip whose span
    holds both its fixes."""
    fixes = _fixes(log)
    legs = {k: [] for k in range(len(trips))}
    for (t0, lat0, lon0), (t1, lat1, lon1) in zip(fixes, fixes[1:]):
        for k, trip in enumerate(trips):
            if trip.start <= t0 and t1 <= trip.end:
                legs[k].append(haversine_km(lat0, lon0, lat1, lon1))
                break
    return legs


@settings(deadline=None, max_examples=200)
@given(objs=tie_logs())
def test_each_leg_counts_in_the_first_trip_holding_it(objs):
    log = parse_lines(jsonl(objs).splitlines())[0][0]
    trips, recs = roll_up(log)
    assert sum(r.mileage_km for r in recs) == pytest.approx(
        sum(t.mileage_km for t in trips), rel=1e-9, abs=1e-12)
    for trip, legs in zip(trips, _first_trip_legs(log, trips).values()):
        assert trip.mileage_km == pytest.approx(sum(legs), rel=1e-12, abs=1e-12)


def test_a_leg_in_the_second_two_trips_share_counts_once():
    """Back-to-back trips meet at 10:05:00, where two fixes were taken: the
    leg between those fixes counts in the first trip only."""
    def at(minute, kind, **extra):
        return {"device": "d1", "ts": iso(T0 + timedelta(minutes=minute)), "kind": kind,
                **extra}
    objs = [at(0, "ignition_on"), at(0, "position", lat=0.0, lon=0.0),
            at(5, "position", lat=0.0, lon=0.01), at(5, "position", lat=0.0, lon=0.02),
            at(5, "ignition_off"), at(5, "ignition_on"),
            at(10, "position", lat=0.0, lon=0.03), at(10, "ignition_off")]
    log = parse_objs(objs)[0]
    trips, recs = roll_up(log)
    leg_km = 0.01 * KM_PER_DEGREE
    assert [t.mileage_km for t in trips] == pytest.approx([2 * leg_km, leg_km], rel=1e-9)
    assert sum(t.mileage_km for t in trips) == pytest.approx(3.336, abs=1e-3)
    assert sum(r.mileage_km for r in recs) == pytest.approx(3 * leg_km, rel=1e-9)


# ------------------------------------------------ hours keyed by UTC instant

BERLIN = ZoneInfo("Europe/Berlin")
ZONES = ("UTC", "Europe/Berlin", "America/New_York", "Asia/Kolkata", "Australia/Lord_Howe")


def test_fall_back_night_has_two_two_oclock_hours():
    """A 3-hour drive over Berlin's 2019 fall-back: 02:00 CEST, the repeated
    02:00 CET and 03:00 CET are three hours of 42.9 km each."""
    start = datetime(2019, 10, 27, 0, 0, tzinfo=UTC)
    log = parse_objs(drive(start, 180, 42.9))[0]
    _, recs = roll_up(log, tz=BERLIN)
    assert [r.hour_start.isoformat() for r in recs] == [
        "2019-10-27T02:00:00+02:00", "2019-10-27T02:00:00+01:00", "2019-10-27T03:00:00+01:00"]
    assert [r.mileage_km for r in recs] == pytest.approx([42.9] * 3, rel=1e-9)


def test_fall_back_week_features():
    """Weekly Berlin features of the week holding the fall-back drive.

    The drive gives three local hours of 42.9 km, all on Sunday 2019-10-27:
    02:00+02:00, 02:00+01:00 and 03:00+01:00.  So mileage = 3 x 42.9 =
    128.7 km over one covered day, d_total_m = 128.7 / 1.  Both 02:00 hours
    and the 03:00 hour fall in the night slice (00-06 local), so
    d_night_m = 128.7 / 1 as well: the repeated hour is night mileage of its
    own, not folded into the first.
    """
    start = datetime(2019, 10, 27, 0, 0, tzinfo=UTC)
    log = parse_objs(drive(start, 180, 42.9))[0]
    trips, recs = roll_up(log, tz=BERLIN)
    table = compute_feature_table(recs, trips, "weekly", tz=BERLIN)
    (start,) = table.window_starts
    assert start.isoformat() == "2019-10-21T00:00:00+02:00"
    fv = dict(zip(FEATURE_NAMES, table.values[0].tolist()))
    assert fv["mileage"] == pytest.approx(128.7, rel=1e-9)
    assert fv["d_total_m"] == pytest.approx(128.7, rel=1e-9)
    assert fv["d_night_m"] == pytest.approx(128.7, rel=1e-9)


def _tz(name):
    return UTC if name == "UTC" else ZoneInfo(name)


def _offset(tz, t):
    return (T0 + timedelta(seconds=t - T0_S)).astimezone(tz).utcoffset()


T0_S = int(T0.timestamp())


@cache
def _anchors(name):
    """Seconds since T0 of the zone's offset changes in 2019-2021, or one instant."""
    tz = _tz(name)
    days = [int(datetime(2019, 1, 1, tzinfo=UTC).timestamp()) + 86400 * d for d in range(3 * 365)]
    out = []
    for lo, hi in zip(days, days[1:]):
        if _offset(tz, lo) != _offset(tz, hi):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if _offset(tz, mid) == _offset(tz, lo) else (lo, mid)
            out.append(hi - T0_S)
    return out or [0]


def _local_hour_key(tz, t):
    """Reference key of epoch second ``t``: the UTC instant its local clock hour
    starts at, under the offset in effect at ``t``."""
    local = (T0 + timedelta(seconds=t - T0_S)).astimezone(tz)
    return t - (local.minute * 60 + local.second)


@st.composite
def zone_logs(draw):
    """A zone and 1-3 ignition trips near one of its offset changes, every time
    on a whole minute; legs last 0 to 90 minutes, and a trip may start in the
    second the previous one ended or about half a year later, by when a zone
    with daylight saving time has changed its offset."""
    name = draw(st.sampled_from(ZONES))
    t = draw(st.sampled_from(_anchors(name))) + 60 * draw(st.integers(-300, 120))
    objs, lon = [], 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        on = t
        objs.append({"device": "d1", "ts": iso(T0 + timedelta(seconds=on)), "kind": "ignition_on"})
        for _ in range(draw(st.integers(min_value=1, max_value=10))):
            t += 60 * draw(st.sampled_from([0, 1, 5, 20, 45, 90]))
            lon += draw(st.floats(min_value=0.0, max_value=0.3))
            objs.append({"device": "d1", "ts": iso(T0 + timedelta(seconds=t)),
                         "kind": "position", "lat": 0.0, "lon": lon})
        t = max(t, on + 60)
        objs.append({"device": "d1", "ts": iso(T0 + timedelta(seconds=t)), "kind": "ignition_off"})
        t += 60 * draw(st.sampled_from([0, 0, 5, 30, 262_800]))
    return name, objs


@settings(deadline=None, max_examples=150)
@given(zone_logs())
def test_hours_book_each_real_minute_once(case):
    """Each record's mileage is what a minute-by-minute walk of the trips'
    legs books to its hour: every record spans at most 3600 real seconds, no
    real hour is booked twice, hourly mileage equals trip mileage, and no leg
    counts in two trips."""
    name, objs = case
    tz = _tz(name)
    log = parse_lines(jsonl(objs).splitlines())[0][0]  # a repeated fix is a duplicate
    trips, recs = roll_up(log, tz=tz)

    legs = [km for k in _first_trip_legs(log, trips).values() for km in k]
    fixes = _fixes(log)
    held = sum(haversine_km(lat0, lon0, lat1, lon1)
               for (a, lat0, lon0), (b, lat1, lon1) in zip(fixes, fixes[1:])
               if any(t.start <= a and b <= t.end for t in trips))
    assert sum(t.mileage_km for t in trips) == pytest.approx(held, rel=1e-9, abs=1e-12)
    assert sum(legs) == pytest.approx(held, rel=1e-9, abs=1e-12)

    booked, minutes = {}, {}  # hour key -> km, and -> the minutes booked to it
    for (a, lat0, lon0), (b, lat1, lon1) in zip(fixes, fixes[1:]):
        if not any(t.start <= a and b <= t.end for t in trips):
            continue
        km = haversine_km(lat0, lon0, lat1, lon1)
        t0, t1 = int(a.timestamp()), int(b.timestamp())
        if km == 0.0:
            continue
        for m in range(t0, max(t1, t0 + 1), 60):
            key = _local_hour_key(tz, m)
            booked[key] = booked.get(key, 0.0) + (km * 60 / (t1 - t0) if t1 > t0 else km)
            minutes.setdefault(key, []).append(m)
    keys = [int(r.hour_start.timestamp()) for r in recs]
    assert keys == sorted(booked)
    for r, key in zip(recs, keys):
        assert (r.hour_start.minute, r.hour_start.second) == (0, 0)
        assert r.hour_start.utcoffset() == _offset(tz, minutes[key][0])
        assert max(minutes[key]) + 60 - min(minutes[key]) <= 3600
        assert r.mileage_km == pytest.approx(booked[key], rel=1e-9, abs=1e-12)
    assert sum(r.mileage_km for r in recs) == pytest.approx(
        sum(t.mileage_km for t in trips), rel=1e-9, abs=1e-12)


def _best_seconds_per_event(weeks):
    log = next(iter_event_logs(generate_population(
        SynthConfig(n_drivers=2, weeks=weeks, seed=0)), 1))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        roll_up(log)
        best = min(best, time.perf_counter() - t0)
    return best / len(log.ts)


def test_long_history_costs_no_more_per_event():
    """Segmentation and roll-up stay linear in a device's history: a year of
    one device costs about what a quarter does per event (2.5x for noise)."""
    assert _best_seconds_per_event(52) <= 2.5 * _best_seconds_per_event(13)
