"""Trip segmentation and hourly roll-up of device logs.

Trips are bounded by ignition pairs when the device reports them and by
silence gaps between movement events otherwise.  Hourly records carry the
per-hour mileage split by speed band, the G-band event counts and the hour's
speed statistics; they are the only input the feature catalog needs besides
the trips themselves.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone, tzinfo
from operator import attrgetter
from typing import Sequence

from .bands import (ACCEL_BAND_NAMES, SPEED_BAND_NAMES, classify_accel_event,
                    speed_band)
from .ingest import DeviceLog, EventPackage

EARTH_RADIUS_KM = 6371.0088

DEFAULT_GAP_THRESHOLD_S = 600.0
MIN_TRIP_DURATION_S = 60.0   # anything shorter is GPS jitter
MIN_TRIP_MILEAGE_KM = 0.1

MOVEMENT_KINDS = ("position", "speed")

HOURLY_CSV_COLUMNS = (("device", "hour_start", "mileage_km", "mean_speed_kph")
                      + ACCEL_BAND_NAMES + SPEED_BAND_NAMES + ("max_kph",))
TRIP_CSV_COLUMNS = ("device", "start", "end", "mileage_km", "duration_s", "mean_speed_kph")


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km between two WGS84 points."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


@dataclass(frozen=True)
class Trip:
    device_id: str
    start: datetime
    end: datetime
    mileage_km: float
    duration_s: float
    mean_speed_kph: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("trip must end after it starts")
        if abs(self.duration_s - (self.end - self.start).total_seconds()) > 1e-9:
            raise ValueError("duration_s inconsistent with start/end")
        if self.mileage_km < 0:
            raise ValueError("negative mileage")


@dataclass(frozen=True)
class HourlyRecord:
    """Aggregate of one device's activity during one local clock hour.

    ``hour_start`` is timezone-aware in the aggregation timezone; with the
    default UTC configuration it is a UTC instant truncated to the hour.
    ``mileage_km`` equals the sum of the speed-band mileage fields exactly.
    """

    device_id: str
    hour_start: datetime
    mileage_km: float
    mean_speed_kph: float
    max_speed_kph: float
    a1_n: int
    a2_n: int
    a3_n: int
    d1_n: int
    d2_n: int
    d3_n: int
    s1_n: int
    s2_n: int
    s3_n: int
    m_lt20: float
    m_20_60: float
    m_60_100: float
    m_100_130: float
    m_gt130: float

    def band_mileage(self) -> tuple[float, ...]:
        return (self.m_lt20, self.m_20_60, self.m_60_100, self.m_100_130, self.m_gt130)

    def accel_counts(self) -> tuple[int, ...]:
        return (self.a1_n, self.a2_n, self.a3_n, self.d1_n, self.d2_n,
                self.d3_n, self.s1_n, self.s2_n, self.s3_n)


def _fixes(log: DeviceLog) -> list[EventPackage]:
    """The log's movement events with coordinates, in time order."""
    return [e for e in log.events if e.kind in MOVEMENT_KINDS and e.has_coords]


def _trip_legs(fixes: Sequence[EventPackage], start: datetime,
               end: datetime) -> list[tuple[datetime, datetime, float]]:
    """GPS legs (t0, t1, km) between consecutive fixes timed within [start, end]."""
    key = attrgetter("timestamp")
    lo = bisect_left(fixes, start, key=key)
    pts = fixes[lo:bisect_right(fixes, end, lo, key=key)]
    return [(a.timestamp, b.timestamp,
             haversine_km(a.latitude, a.longitude, b.latitude, b.longitude))
            for a, b in zip(pts, pts[1:])]


def segment_trips(log: DeviceLog, gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S) -> list[Trip]:
    """Split a device log into trips.

    When the log carries ignition events, each ignition_on opens a trip that
    the next ignition_off closes (an unclosed trip ends at the last movement
    event seen before the next ignition_on or the end of the log).  Without
    ignition events, a silence longer than ``gap_threshold_s`` between
    consecutive movement events starts a new trip.  A trip's GPS path is
    every movement event with coordinates timed within [start, end], ties
    with the trip's ignition events included; ``aggregate_hourly`` rolls up
    the same legs, so hourly mileage sums to trip mileage.  Trips shorter
    than 60 s or under 0.1 km are discarded as jitter.
    """
    if gap_threshold_s <= 0:
        raise ValueError("gap_threshold_s must be positive")
    spans: list[tuple[datetime, datetime]] = []
    if any(e.kind in ("ignition_on", "ignition_off") for e in log.events):
        open_ts = last_move = None
        for ev in log.events:
            if ev.kind == "ignition_on":
                if open_ts is not None and last_move is not None:
                    spans.append((open_ts, last_move))
                open_ts, last_move = ev.timestamp, None
            elif ev.kind == "ignition_off":
                if open_ts is not None:
                    spans.append((open_ts, ev.timestamp))
                open_ts = None
            elif open_ts is not None and ev.kind in MOVEMENT_KINDS:
                last_move = ev.timestamp
        if open_ts is not None and last_move is not None:
            spans.append((open_ts, last_move))
    else:
        first = last = None
        for ev in log.events:
            if ev.kind not in MOVEMENT_KINDS:
                continue
            if last is None or (ev.timestamp - last).total_seconds() > gap_threshold_s:
                if last is not None:
                    spans.append((first, last))
                first = ev.timestamp
            last = ev.timestamp
        if last is not None:
            spans.append((first, last))

    fixes = _fixes(log)
    trips: list[Trip] = []
    for start, end in spans:
        duration = (end - start).total_seconds()
        if duration < MIN_TRIP_DURATION_S:
            continue
        mileage = sum(km for _, _, km in _trip_legs(fixes, start, end))
        if mileage >= MIN_TRIP_MILEAGE_KM:
            trips.append(Trip(log.device_id, start, end, mileage, duration,
                              mileage / (duration / 3600.0)))
    return trips


def _local_hour_start(ts: datetime, tz: tzinfo) -> datetime:
    return ts.astimezone(tz).replace(minute=0, second=0, microsecond=0)


class _HourAccumulator:
    __slots__ = ("band_km", "counts", "speed_weight", "speed_wsum", "max_speed")

    def __init__(self):
        self.band_km = dict.fromkeys(SPEED_BAND_NAMES, 0.0)
        self.counts = dict.fromkeys(ACCEL_BAND_NAMES, 0)
        self.speed_weight = 0.0
        self.speed_wsum = 0.0
        self.max_speed = 0.0

    def add_leg_portion(self, km: float, speed_kph: float):
        self.band_km[speed_band(speed_kph)] += km
        self.speed_weight += km
        self.speed_wsum += km * speed_kph
        self.max_speed = max(self.max_speed, speed_kph)


def _split_leg_hours(t0: datetime, t1: datetime, tz: tzinfo) -> list[tuple[datetime, float]]:
    """Fractions of the leg's duration falling in each local hour."""
    total = (t1 - t0).total_seconds()
    if total <= 0:
        return [(_local_hour_start(t0, tz), 1.0)]
    out: list[tuple[datetime, float]] = []
    cur = t0
    while cur < t1:
        hour = _local_hour_start(cur, tz)
        nxt = (hour + timedelta(hours=1)).astimezone(timezone.utc)
        chunk_end = min(t1, nxt)
        out.append((hour, (chunk_end - cur).total_seconds() / total))
        cur = chunk_end
    return out


def aggregate_hourly(log: DeviceLog, trips: Sequence[Trip],
                     tz: tzinfo = timezone.utc) -> list[HourlyRecord]:
    """Roll a device log up into one record per active local clock hour.

    Mileage comes from the GPS legs ``segment_trips`` sums for each trip
    (consecutive fixes timed within [start, end]), so hourly mileage sums to
    trip mileage; a leg spanning an hour boundary is split in proportion to
    time.  Each leg's mileage lands in the speed
    band of the leg's average speed.  The hourly mean speed is the
    mileage-weighted mean of leg speeds, the hourly max is taken over both
    leg speeds and speed-package readings, and every in-band acceleration
    event in the log is counted in its hour whether or not it falls inside a
    trip.  Hours with no activity produce no record.
    """
    hours: defaultdict[datetime, _HourAccumulator] = defaultdict(_HourAccumulator)
    fixes = _fixes(log)
    for trip in trips:
        for t0, t1, km in _trip_legs(fixes, trip.start, trip.end):
            if km == 0.0:
                continue
            dt = (t1 - t0).total_seconds()
            speed = km / (dt / 3600.0) if dt > 0 else 0.0
            for hour, frac in _split_leg_hours(t0, t1, tz):
                hours[hour].add_leg_portion(km * frac, speed)

    for ev in log.events:
        if ev.kind == "speed":
            a = hours.get(_local_hour_start(ev.timestamp, tz))
            if a is not None:
                a.max_speed = max(a.max_speed, ev.speed_kph)
        elif ev.kind == "acceleration":
            band = classify_accel_event(ev.axis, ev.accel_g)
            if band is not None:
                hours[_local_hour_start(ev.timestamp, tz)].counts[band] += 1

    records = []
    for hour in sorted(hours):
        a = hours[hour]
        bands = [a.band_km[name] for name in SPEED_BAND_NAMES]
        mileage = sum(bands)
        mean_speed = a.speed_wsum / a.speed_weight if a.speed_weight > 0 else 0.0
        records.append(HourlyRecord(
            log.device_id, hour, mileage, mean_speed, a.max_speed,
            *(a.counts[name] for name in ACCEL_BAND_NAMES), *bands))
    return records


def hourly_to_row(rec: HourlyRecord) -> list:
    return [rec.device_id, rec.hour_start.isoformat(), rec.mileage_km,
            rec.mean_speed_kph, *rec.accel_counts(), *rec.band_mileage(),
            rec.max_speed_kph]


def hourly_from_row(row: dict) -> HourlyRecord:
    return HourlyRecord(
        row["device"], datetime.fromisoformat(row["hour_start"]),
        float(row["mileage_km"]), float(row["mean_speed_kph"]),
        float(row["max_kph"]),
        *(int(row[k]) for k in ACCEL_BAND_NAMES),
        *(float(row[k]) for k in SPEED_BAND_NAMES))


def trip_to_row(trip: Trip) -> list:
    return [trip.device_id, trip.start.isoformat(), trip.end.isoformat(),
            trip.mileage_km, trip.duration_s, trip.mean_speed_kph]


def trip_from_row(row: dict) -> Trip:
    return Trip(row["device"], datetime.fromisoformat(row["start"]),
                datetime.fromisoformat(row["end"]), float(row["mileage_km"]),
                float(row["duration_s"]), float(row["mean_speed_kph"]))
