"""Driving-style feature catalog computed per device over a time window.

Three indicator groups: mileage structure (how much, when, in what trip
lengths), speed profile (averages, maxima by time slice, speed-band shares)
and harsh-manoeuvre frequencies per 100 km.  Event counts per G-band come in
from hourly records; the bands themselves are defined in ``bands``.  The
catalog is held one way, as a columnar ``FeatureTable``: ``features`` and
``synth`` build one and write it with ``feature_rows``, and the model
commands read ``features.csv`` back into one.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone, tzinfo
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bands import ACCEL_BAND_NAMES
from .fileio import WINDOW_KINDS, iter_csv_records

if TYPE_CHECKING:
    from .trips import HourlyRecord, Trip

# Local-clock slices, half-open hour ranges.
DAYTIME_HOURS = range(7, 19)
MORNING_JAM_HOURS = range(8, 10)
EVENING_JAM_HOURS = range(18, 20)
NIGHT_HOURS = range(0, 6)

TRIP_SHORT_KM = (10.0, 30.0)
TRIP_LONG_KM = (200.0, 400.0)

MILEAGE_FEATURES = ("mileage", "trips_day", "below_10_pr", "below_30_pr",
                    "over_200", "over_400", "d_total_m", "avg_trip_mil",
                    "avg_trip_dur", "d_business_m", "d_day_m",
                    "d_evening_jam_m", "d_morning_jam_m", "d_holi_m",
                    "d_night_m", "day_m_pr", "ej_m_pr")
SPEED_FEATURES = ("avg_sp", "max_sp", "max_ej_sp", "max_mj_sp", "max_n_sp",
                  "m_pr_below_20", "m_pr_below_60", "m_pr_over_100",
                  "m_pr_over_130")
ACCEL_FEATURES = ACCEL_BAND_NAMES
SPEEDING_FEATURES = ("sp1", "sp2", "sp3")

MODEL_FEATURE_NAMES = MILEAGE_FEATURES + SPEED_FEATURES + ACCEL_FEATURES
# the model features lead the catalog, so their columns are one slice of a matrix
FEATURE_NAMES = MODEL_FEATURE_NAMES + SPEEDING_FEATURES

FEATURE_CSV_COLUMNS = ("device", "window_kind", "window_start", "quality_flags") + FEATURE_NAMES

# the groups ``ablate --group`` names
FEATURE_GROUPS = {"accel": ACCEL_FEATURES, "speed": SPEED_FEATURES,
                  "mileage": MILEAGE_FEATURES}


def load_holiday_calendar(path) -> frozenset[date]:
    """Read a holiday calendar file: one YYYY-MM-DD per line, # comments."""
    days = set()
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    try:
                        days.add(date.fromisoformat(line))
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return frozenset(days)


def is_holiday_class(day: date, calendar: frozenset[date] | set[date]) -> bool:
    """Weekends and calendar holidays form the holiday day class."""
    return day.weekday() >= 5 or day in calendar


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def _per_day(km: float, days: int) -> float:
    return km / days if days > 0 else 0.0


@dataclass(frozen=True)
class FeatureTable:
    """Feature rows in columns: ids, window metadata, flags and one matrix.

    One row per device and window.  ``values`` is a C-contiguous float64
    matrix, one row per feature row and one column per name in
    ``FEATURE_NAMES``.
    """

    device_ids: tuple[str, ...]
    window_kinds: tuple[str, ...]
    window_starts: tuple[datetime, ...]
    quality_flags: tuple[tuple[str, ...], ...]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.device_ids)

    @property
    def model_values(self) -> np.ndarray:
        """View of the ``MODEL_FEATURE_NAMES`` columns of ``values``, in order."""
        return self.values[:, :len(MODEL_FEATURE_NAMES)]


def feature_matrix(rows: Sequence[Mapping[str, float]]) -> np.ndarray:
    """The ``values`` matrix of feature rows given by name.

    A name a row lacks reads 0.0: the speeding counts, which no pipeline
    stage derives.
    """
    return np.array([[row.get(name, 0.0) for name in FEATURE_NAMES] for row in rows],
                    dtype=float).reshape(len(rows), len(FEATURE_NAMES))


def _window_features(recs: Sequence[HourlyRecord], trs: Sequence[Trip],
                     calendar: frozenset[date] | set[date],
                     ) -> tuple[tuple[str, ...], dict[str, float]]:
    """Quality flags and indicator values of one device's records in one window.

    One pass over the records and one over the trips; float totals add left
    to right from 0.0.  Ratio features never divide by zero: with no trips
    the trip-share block is 0 and the row is flagged ``no_trips``; with no
    mileage every share and per-100km frequency is 0 under ``no_mileage``.
    """
    total_km = business_km = holi_km = day_km = mj_km = ej_km = night_km = 0.0
    speed_wsum = max_sp = max_ej = max_mj = max_n = 0.0
    band_km = [0.0] * 5
    counts = [0] * 9
    holiday: dict[date, bool] = {}  # each covered day's class
    for r in recs:
        km, h, day = r.mileage_km, r.hour_start.hour, r.hour_start.date()
        total_km += km
        if day not in holiday:
            holiday[day] = is_holiday_class(day, calendar)
        if holiday[day]:
            holi_km += km
        else:
            business_km += km
        if h in DAYTIME_HOURS:
            day_km += km
        if h in MORNING_JAM_HOURS:
            mj_km += km
            max_mj = max(max_mj, r.max_kph)
        if h in EVENING_JAM_HOURS:
            ej_km += km
            max_ej = max(max_ej, r.max_kph)
        if h in NIGHT_HOURS:
            night_km += km
            max_n = max(max_n, r.max_kph)
        max_sp = max(max_sp, r.max_kph)
        speed_wsum += km * r.mean_speed_kph
        for i, band in enumerate(r.band_mileage()):
            band_km[i] += band
        for i, n in enumerate(r.accel_counts()):
            counts[i] += n
    n_days = len(holiday)
    n_holi = sum(holiday.values())

    n_trips, short10, short30, long200, long400 = len(trs), 0, 0, 0, 0
    trip_km = trip_s = 0.0
    for t in trs:
        short10 += t.mileage_km < TRIP_SHORT_KM[0]
        short30 += t.mileage_km < TRIP_SHORT_KM[1]
        long200 += t.mileage_km > TRIP_LONG_KM[0]
        long400 += t.mileage_km > TRIP_LONG_KM[1]
        trip_km += t.mileage_km
        trip_s += t.duration_s

    per100 = [100.0 * n / total_km if total_km > 0 else 0.0 for n in counts]
    flags = ("no_mileage",) * (total_km <= 0) + ("no_trips",) * (not n_trips)
    return flags, {
        "mileage": total_km,
        "trips_day": n_trips / n_days if n_days else 0.0,
        "below_10_pr": _share(short10, n_trips),
        "below_30_pr": _share(short30, n_trips),
        "over_200": _share(long200, n_trips),
        "over_400": _share(long400, n_trips),
        "d_total_m": _per_day(total_km, n_days),
        "avg_trip_mil": trip_km / n_trips if n_trips else 0.0,
        "avg_trip_dur": trip_s / n_trips if n_trips else 0.0,
        "d_business_m": _per_day(business_km, n_days - n_holi),
        "d_day_m": _per_day(day_km, n_days),
        "d_evening_jam_m": _per_day(ej_km, n_days),
        "d_morning_jam_m": _per_day(mj_km, n_days),
        "d_holi_m": _per_day(holi_km, n_holi),
        "d_night_m": _per_day(night_km, n_days),
        "day_m_pr": _share(day_km, total_km),
        "ej_m_pr": _share(ej_km, total_km),
        "avg_sp": speed_wsum / total_km if total_km > 0 else 0.0,
        "max_sp": max_sp,
        "max_ej_sp": max_ej,
        "max_mj_sp": max_mj,
        "max_n_sp": max_n,
        "m_pr_below_20": _share(band_km[0], total_km),
        "m_pr_below_60": _share(band_km[0] + band_km[1], total_km),
        "m_pr_over_100": _share(band_km[3] + band_km[4], total_km),
        "m_pr_over_130": _share(band_km[4], total_km),
        **dict(zip(ACCEL_FEATURES, per100)),
    }


def compute_feature_table(hourly: Iterable[HourlyRecord], trips: Iterable[Trip],
                          window_kind: str, calendar: frozenset[date] | set[date] = frozenset(),
                          tz: tzinfo = timezone.utc) -> FeatureTable:
    """One feature row per device and window, devices in id order.

    A ``lifetime`` window holds all of a device's activity and starts at its
    earliest hour or trip start.  ``weekly`` windows are the local ISO weeks
    (Monday 00:00 in ``tz``) in which the device was active, in time order.
    One pass groups the records by window: hourly records by their hour
    start, trips by their start instant, each in input order.
    """
    if window_kind not in WINDOW_KINDS:
        raise ValueError(f"unknown window kind: {window_kind!r}")

    def monday(ts: datetime) -> date | None:
        if window_kind == "lifetime":
            return None
        try:
            day = ts.astimezone(tz).date()
        except OverflowError:
            raise ValueError(f"local time in {tz} of {ts} is outside years 1-9999") from None
        return day - timedelta(days=day.weekday())

    windows: dict[tuple[str, date | None], tuple[list, list]] = {}
    for r in hourly:
        windows.setdefault((r.device, monday(r.hour_start)), ([], []))[0].append(r)
    for t in trips:
        windows.setdefault((t.device, monday(t.start)), ([], []))[1].append(t)
    keys = sorted(windows)
    starts, flags, rows = [], [], []
    for dev, week in keys:
        recs, trs = windows[dev, week]
        if week is None:
            # min keeps the first of equal instants, an hourly record's, whose offset is written
            starts.append(min([r.hour_start for r in recs] + [t.start for t in trs]))
        else:
            starts.append(datetime(week.year, week.month, week.day, tzinfo=tz))
        window_flags, row = _window_features(recs, trs, calendar)
        flags.append(window_flags)
        rows.append(row)
    return FeatureTable(tuple(dev for dev, _ in keys), (window_kind,) * len(keys),
                        tuple(starts), tuple(flags), feature_matrix(rows))


def feature_rows(table: FeatureTable) -> Iterator[list]:
    """The table's ``features.csv`` data rows, cells in ``FEATURE_CSV_COLUMNS`` order."""
    for device, kind, start, flags, values in zip(
            table.device_ids, table.window_kinds, table.window_starts,
            table.quality_flags, table.values.tolist()):
        yield [device, kind, start, ";".join(flags), *values]


def read_feature_table(path) -> FeatureTable:
    """Read a features CSV into a FeatureTable, one row at a time.

    Feature cells go through ``float`` straight into one flat float64
    buffer that becomes ``values``, so no per-row object outlives its row;
    every row's window kind is the shared ``WINDOW_KINDS`` string.
    Missing columns, a short row, an unknown window kind, an unparseable
    window start or a non-numeric or non-finite feature cell raise ValueError
    naming the file and data row.  Finiteness is checked once on the finished
    matrix; the first bad cell is looked for only if that check fails.
    """
    values = array("d")
    kinds = {k: k for k in WINDOW_KINDS}

    def parse(cells: list[str]) -> tuple:
        device, kind, start, flags = cells[:4]
        if kind not in kinds:
            raise ValueError(f"unknown window kind: {kind!r}")
        values.extend(map(float, cells[4:]))
        return (device, kinds[kind], datetime.fromisoformat(start),
                tuple(f for f in flags.split(";") if f))

    columns: tuple[list, ...] = ([], [], [], [])
    for meta in iter_csv_records(path, FEATURE_CSV_COLUMNS, parse):
        for column, cell in zip(columns, meta):
            column.append(cell)
    n = len(columns[0])
    matrix = np.frombuffer(values, dtype=float).reshape(n, len(FEATURE_NAMES))
    if not np.isfinite(matrix).all():
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise ValueError(f"{path}: data row {i + 1}: {FEATURE_NAMES[j]} is not a finite "
                         f"number: {float(matrix[i, j])}")
    return FeatureTable(*map(tuple, columns), matrix)
