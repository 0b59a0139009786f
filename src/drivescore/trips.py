"""Trip segmentation and hourly roll-up of device logs.

Trips are bounded by ignition pairs when the device reports them and by
silence gaps between movement events otherwise.  Hourly records carry the
per-hour mileage split by speed band, the G-band event counts and the hour's
speed statistics; they are the only input the feature catalog needs besides
the trips themselves.  ``roll_up`` returns both for one device log, measuring
its GPS legs once, with a fixed number of array passes over the log's columns.
"""
from __future__ import annotations

import math
from collections import namedtuple
from datetime import datetime, timedelta, timezone, tzinfo
from typing import Sequence

import numpy as np

from .bands import ACCEL_BAND_NAMES, SPEED_BAND_NAMES, accel_bands, speed_bands
from .ingest import (ACCELERATION, IGNITION_OFF, IGNITION_ON, LATERAL, POSITION,
                     SPEED, DeviceLog, utc_datetime)

EARTH_RADIUS_KM = 6371.0088

DEFAULT_GAP_THRESHOLD_S = 600.0
MIN_TRIP_DURATION_S = 60.0   # anything shorter is GPS jitter
MIN_TRIP_MILEAGE_KM = 0.1

HOURLY_CSV_COLUMNS = (("device", "hour_start", "mileage_km", "mean_speed_kph")
                      + ACCEL_BAND_NAMES + SPEED_BAND_NAMES + ("max_kph",))
TRIP_CSV_COLUMNS = ("device", "start", "end", "mileage_km", "duration_s", "mean_speed_kph")


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between WGS84 points, elementwise over arrays.

    ``asin`` comes from ``math``: ``np.arcsin`` can differ in the last bit.
    """
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = (np.sin((p2 - p1) / 2.0) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2)
    c = np.minimum(1.0, np.sqrt(a))
    asin = np.fromiter(map(math.asin, c.ravel().tolist()), float, c.size)
    return 2.0 * EARTH_RADIUS_KM * asin.reshape(np.shape(c))


# One trip: the cells of a trips.csv row.  ``roll_up`` keeps only trips that
# span at least a minute and 0.1 km, and ``trip_from_row`` checks a row's trip.
Trip = namedtuple("Trip", TRIP_CSV_COLUMNS)


class HourlyRecord(namedtuple("HourlyRecord", HOURLY_CSV_COLUMNS)):
    """Aggregate of one device's activity during one local clock hour.

    The fields are the cells of an ``hourly.csv`` row, named by
    ``HOURLY_CSV_COLUMNS``.  ``device`` is a str and ``hour_start`` a
    datetime: the local start of the hour, with the UTC offset in effect
    during it; with the default UTC configuration it is a UTC instant
    truncated to the hour.  The G-band counts ``a1`` ... ``s3`` are ints;
    ``mileage_km``, ``mean_speed_kph``, the speed-band mileages ``m_lt20``
    ... ``m_gt130`` and ``max_kph`` are floats, and ``mileage_km`` equals
    the sum of the speed-band mileages exactly.
    """

    __slots__ = ()

    def accel_counts(self) -> tuple[int, ...]:
        return self[4:13]

    def band_mileage(self) -> tuple[float, ...]:
        return self[13:18]


def _legs(log: DeviceLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t0, t1, km) of each GPS leg, the path between consecutive fixes (movement
    events with coordinates)."""
    kind = np.frombuffer(log.kind, np.uint8)
    lat, lon = np.frombuffer(log.lat), np.frombuffer(log.lon)
    fix = ((kind == POSITION) | (kind == SPEED)) & ~np.isnan(lat) & ~np.isnan(lon)
    t, lat, lon = np.frombuffer(log.ts, np.int64)[fix], lat[fix], lon[fix]
    return t[:-1], t[1:], haversine_km(lat[:-1], lon[:-1], lat[1:], lon[1:])


def _spans(ts: np.ndarray, kind: np.ndarray, gap_threshold_s: float):
    """(starts, ends) in epoch s of the log's candidate trips, in time order."""
    move = np.flatnonzero((kind == POSITION) | (kind == SPEED))
    ign = np.flatnonzero(kind <= IGNITION_OFF)
    if len(ign):
        nxt = np.append(ign[1:], len(ts))  # the next ignition event, or the end
        closed = np.append(kind[ign[1:]] == IGNITION_OFF, False)
        last_move = np.append(move, -1)[np.searchsorted(move, nxt) - 1]
        trip = (kind[ign] == IGNITION_ON) & (closed | (last_move > ign))
        ends = np.where(closed, ts[np.minimum(nxt, len(ts) - 1)], ts[last_move])
        return ts[ign[trip]], ends[trip]
    t = ts[move]
    cut = np.flatnonzero(np.diff(t) > gap_threshold_s) + 1
    if not len(t):
        return t, t
    return t[np.r_[0, cut]], t[np.r_[cut - 1, len(t) - 1]]


def _leg_trips(legs, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The trip each leg counts in, -1 for none: the first whose span holds both
    its fixes.  Trips are in time order and overlap at most in one shared
    second, so that trip is the first to end at or after the leg ends."""
    t0, t1, _ = legs
    k = np.searchsorted(ends, t1)
    inside = k < len(ends)
    inside[inside] = starts[k[inside]] <= t0[inside]
    return np.where(inside, k, -1)


def _trip_km(legs, k: np.ndarray, n: int) -> np.ndarray:
    """The mileage of each of ``n`` trips, given each leg's trip ``k``."""
    return np.bincount(k[k >= 0], weights=legs[2][k >= 0], minlength=n)


def roll_up(log: DeviceLog, gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S,
            tz: tzinfo = timezone.utc) -> tuple[list[Trip], list[HourlyRecord]]:
    """Split a device log into trips and roll it up into hourly records.

    When the log carries ignition events, each ignition_on opens a trip that
    the next ignition_off closes (an unclosed trip ends at the last movement
    event seen before the next ignition_on or the end of the log).  Without
    ignition events, a silence longer than ``gap_threshold_s`` between
    consecutive movement events starts a new trip.  Trips shorter than 60 s
    or under 0.1 km are discarded as jitter.

    A trip's mileage sums its GPS legs, the paths between consecutive
    position or speed fixes with coordinates.  A leg goes to the first kept
    trip whose span [start, end] holds both its fixes, so a leg inside the
    second where one trip ends and the next starts counts once, in the
    earlier trip, and a leg that a dropped trip held may count in a kept
    neighbour.  The hourly records (see ``_hourly``) book the same legs, so
    hourly mileage sums to trip mileage.
    """
    if not gap_threshold_s > 0:
        raise ValueError("gap_threshold_s must be positive")
    starts, ends = _spans(np.frombuffer(log.ts, np.int64), np.frombuffer(log.kind, np.uint8),
                          gap_threshold_s)
    long_enough = ends - starts >= MIN_TRIP_DURATION_S
    starts, ends = starts[long_enough], ends[long_enough]
    legs = _legs(log)
    k = _leg_trips(legs, starts, ends)
    km = _trip_km(legs, k, len(starts))
    kept = km >= MIN_TRIP_MILEAGE_KM
    if not kept.all():  # legs a dropped trip held may go to a kept one
        starts, ends = starts[kept], ends[kept]
        k = _leg_trips(legs, starts, ends)
        km = _trip_km(legs, k, len(starts))
    trips = [Trip(log.device_id, utc_datetime(s), utc_datetime(e), m, float(e - s),
                  m / ((e - s) / 3600.0))
             for s, e, m in zip(starts.tolist(), ends.tolist(), km.tolist())]
    counted = k >= 0
    del k  # so the index does not add to the peak that _hourly's arrays set
    return trips, _hourly(log, legs, counted, tz)


class _LocalHours:
    """The local clock hours of ``tz`` over a sorted array of UTC hours (epoch s // 3600).

    An instant's local hour is keyed by the UTC instant at which that clock
    hour starts, under the offset in effect at the instant.  The offset is
    looked up at the start of each UTC hour and of the next; where the two
    differ, bisection finds the second it changes (once per hour at most).
    """

    def __init__(self, tz: tzinfo, hours: np.ndarray):
        def offset(t: int) -> int:
            try:
                return datetime.fromtimestamp(t, tz).utcoffset() // timedelta(seconds=1)
            except OverflowError:
                raise ValueError(f"local time in {tz} of {utc_datetime(t)} is outside "
                                 "years 1-9999") from None

        starts = hours * 3600
        at = {t: offset(t) for t in {*starts.tolist(), *(starts + 3600).tolist()}}
        self.hours, self.change = hours, starts + 3600
        self.before = np.array([at[t] for t in starts.tolist()], np.int64)
        self.after = np.array([at[t] for t in self.change.tolist()], np.int64)
        for i in np.flatnonzero(self.before != self.after).tolist():
            lo, hi = int(starts[i]), int(self.change[i])
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if offset(mid) == self.before[i] else (lo, mid)
            self.change[i] = hi

    def key(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The hour key of each instant, and the offset in effect at it."""
        i = np.searchsorted(self.hours, t // 3600)
        off = np.where(t < self.change[i], self.before[i], self.after[i])
        return t - (t + off) % 3600, off

    def boundaries(self) -> np.ndarray:
        """Every instant, in order, at which the local hour changes."""
        s = self.hours * 3600
        first, then = s + -self.before % 3600, s + -self.after % 3600
        changed = self.before != self.after
        return np.unique(np.concatenate([
            first[first < self.change], self.change[changed],
            then[changed & (then >= self.change) & (then < s + 3600)]]), return_index=True)[0]


def _runs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For run lengths ``n``: each item's run and its place within the run."""
    run = np.repeat(np.arange(len(n)), n)
    return run, np.arange(len(run)) - (np.cumsum(n) - n)[run]


def _hourly(log: DeviceLog, legs, counted: np.ndarray, tz: tzinfo) -> list[HourlyRecord]:
    """One record per active local clock hour of a device log.

    ``legs`` are the log's GPS legs and ``counted`` marks those a kept trip
    holds, as ``roll_up`` assigns them.  Mileage comes from those legs only,
    so hourly mileage sums to trip mileage; a leg spanning an hour boundary
    is split in proportion to time.  Hours are keyed by the UTC instant at
    which the local hour starts: a fall-back night has two 02:00 hours, one
    per offset, and a zone offset by a half hour starts its hours at half
    past.  Each leg's mileage lands in the speed band of the leg's average
    speed.  The hourly mean speed is the mileage-weighted mean of leg speeds,
    the hourly max is taken over both leg speeds and the speed-package
    readings of hours with a record, and every in-band acceleration event in
    the log is counted in its hour whether or not it falls inside a trip.
    Hours with no activity produce no record.
    """
    mine = counted & (legs[2] != 0.0)
    t0, t1, km = (x[mine] for x in legs)
    dt = t1 - t0
    speed = np.divide(km, dt / 3600.0, out=np.zeros(len(km)), where=dt > 0)

    ts, kind = np.frombuffer(log.ts, np.int64), np.frombuffer(log.kind, np.uint8)
    acc = np.flatnonzero(kind == ACCELERATION)
    band = accel_bands(np.frombuffer(log.axis, np.uint8)[acc] == LATERAL,
                       np.frombuffer(log.accel_g)[acc])
    acc_t, acc_band = ts[acc][band >= 0], band[band >= 0]
    if not len(km) and not len(acc_t):
        return []
    spd = np.flatnonzero(kind == SPEED)
    spd_t, spd_kph = ts[spd], np.frombuffer(log.speed_kph)[spd]

    h0 = t0 // 3600
    leg, step = _runs(np.maximum(t1 - 1, t0) // 3600 - h0 + 1)
    # np.unique with return_index sorts stably and leaves numpy.ma, which the
    # values-only form imports (10-15 ms on numpy 2.4), unloaded
    hours = _LocalHours(tz, np.unique(np.concatenate(
        [h0[leg] + step, acc_t // 3600, spd_t // 3600]), return_index=True)[0])

    # Each leg's pieces between the hour boundaries inside it, in leg order.
    bounds = hours.boundaries()
    lo = np.searchsorted(bounds, t0, "right")
    inner = np.maximum(np.searchsorted(bounds, t1, "left") - lo, 0)
    leg, step = _runs(inner + 1)
    bounds = np.append(bounds, 0)
    p_start = np.where(step == 0, t0[leg], bounds[lo[leg] + step - 1])
    p_end = np.where(step == inner[leg], t1[leg], bounds[lo[leg] + step])
    p_km = km[leg] * np.divide(p_end - p_start, dt[leg], out=np.ones(len(leg)),
                               where=dt[leg] > 0)
    p_speed = speed[leg]

    (p_key, p_off), (acc_key, acc_off) = hours.key(p_start), hours.key(acc_t)
    keys, first = np.unique(np.concatenate([p_key, acc_key]), return_index=True)
    offsets = np.concatenate([p_off, acc_off])[first]
    n = len(keys)
    rec, acc_rec = np.searchsorted(keys, p_key), np.searchsorted(keys, acc_key)

    # bincount adds piece by piece in leg order, so each sum rounds as a loop over legs would.
    band_km = np.bincount(rec * 5 + speed_bands(p_speed), weights=p_km,
                          minlength=5 * n).reshape(n, 5)
    weight = np.bincount(rec, weights=p_km, minlength=n)
    mean_speed = np.divide(np.bincount(rec, weights=p_km * p_speed, minlength=n), weight,
                           out=np.zeros(n), where=weight > 0)
    max_speed = np.zeros(n)
    np.maximum.at(max_speed, rec, p_speed)
    spd_key = hours.key(spd_t)[0]
    spd_rec = np.minimum(np.searchsorted(keys, spd_key), n - 1)
    has = keys[spd_rec] == spd_key
    np.maximum.at(max_speed, spd_rec[has], spd_kph[has])
    counts = np.bincount(acc_rec * 9 + acc_band, minlength=9 * n).reshape(n, 9)
    mileage = band_km[:, 0] + band_km[:, 1] + band_km[:, 2] + band_km[:, 3] + band_km[:, 4]

    zones = {off: timezone(timedelta(seconds=off)) for off in set(offsets.tolist())}
    return [HourlyRecord(log.device_id, datetime.fromtimestamp(key, zones[off]),
                         m, mean, *c, *b, top)
            for key, off, m, mean, top, c, b in zip(
                keys.tolist(), offsets.tolist(), mileage.tolist(), mean_speed.tolist(),
                max_speed.tolist(), counts.tolist(), band_km.tolist())]


def _finite(record, first: int):
    """``record``, if its fields from ``first`` on are finite numbers."""
    if not all(map(math.isfinite, record[first:])):
        name = next(name for name, x in zip(record._fields[first:], record[first:])
                    if not math.isfinite(x))
        raise ValueError(f"{name} is not a finite number: {getattr(record, name)}")
    return record


def _instant(column: str, cell: str) -> datetime:
    """``cell``, which must carry its UTC offset, or it would be read in the machine's zone."""
    t = datetime.fromisoformat(cell)
    if t.tzinfo is None:
        raise ValueError(f"{column} has no UTC offset: {cell}")
    return t


def hourly_from_row(cells: Sequence[str]) -> HourlyRecord:
    """The record of one row's cells in ``HOURLY_CSV_COLUMNS`` order."""
    return _finite(HourlyRecord(cells[0], _instant("hour_start", cells[1]), float(cells[2]),
                                float(cells[3]), *map(int, cells[4:13]),
                                *map(float, cells[13:])), 2)


def trip_from_row(cells: Sequence[str]) -> Trip:
    """The trip of one row's cells in ``TRIP_CSV_COLUMNS`` order, if its times carry
    their UTC offsets, its numbers are finite, it ends after it starts, its
    ``duration_s`` agrees with its start and end, and its mileage is not negative."""
    device, start, end, *numbers = cells
    trip = _finite(Trip(device, _instant("start", start), _instant("end", end),
                        *map(float, numbers)), 3)
    if trip.end <= trip.start:
        raise ValueError("trip must end after it starts")
    if abs(trip.duration_s - (trip.end - trip.start).total_seconds()) > 1e-9:
        raise ValueError("duration_s inconsistent with start/end")
    if trip.mileage_km < 0:
        raise ValueError("negative mileage")
    return trip
