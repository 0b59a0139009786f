"""Driving-style feature catalog semantics."""
import tempfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drivescore.features import (ACCEL_FEATURES, FEATURE_CSV_COLUMNS,
                                 FEATURE_NAMES, MODEL_FEATURE_NAMES, WINDOW_KINDS,
                                 FeatureTable, compute_feature_table, feature_rows,
                                 is_holiday_class, load_holiday_calendar,
                                 read_feature_table)
from drivescore.fileio import write_csv
from drivescore.trips import HourlyRecord, Trip
from conftest import run_cli

UTC = timezone.utc
MON = datetime(2021, 6, 7, tzinfo=UTC)   # Monday
SUN = datetime(2021, 6, 6, tzinfo=UTC)


def rec(ts, km, mean_sp, max_sp, bands=None, counts=(0,) * 9, device="d1"):
    """HourlyRecord with all mileage in one band unless bands given."""
    if bands is None:
        bands = (0.0, km, 0.0, 0.0, 0.0)
    return HourlyRecord(device, ts, km, mean_sp, *counts, *bands, max_sp)


def trip(start, km, minutes, device="d1"):
    dur = minutes * 60.0
    return Trip(device, start, start + timedelta(seconds=dur), km, dur,
                km / dur * 3600.0)


def lifetime_row(hourly, trips):
    """The one lifetime feature row of one device's activity: its quality
    flags and one attribute per feature name."""
    table = compute_feature_table(hourly, trips, "lifetime", frozenset(), UTC)
    (flags,) = table.quality_flags
    return SimpleNamespace(quality_flags=flags,
                           **dict(zip(FEATURE_NAMES, table.values[0].tolist())))


class TestPerDayDenominators:
    """Per-day features divide by days covered by data, split by day class."""

    def test_day_class_split(self):
        hourly = [rec(MON.replace(hour=10), 30.0, 40.0, 80.0),
                  rec(SUN.replace(hour=23), 10.0, 15.0, 20.0,
                      bands=(10.0, 0.0, 0.0, 0.0, 0.0))]
        fv = lifetime_row(hourly, [])
        assert fv.d_total_m == pytest.approx(40.0 / 2)
        assert fv.d_business_m == pytest.approx(30.0 / 1)
        assert fv.d_holi_m == pytest.approx(10.0 / 1)
        assert fv.day_m_pr == pytest.approx(100.0 * 30.0 / 40.0)
        assert fv.avg_sp == pytest.approx((30 * 40 + 10 * 15) / 40.0)
        assert fv.m_pr_below_20 == pytest.approx(100.0 * 10.0 / 40.0)
        assert fv.max_sp == 80.0
        assert "no_trips" in fv.quality_flags

    def test_jam_slices_use_all_covered_days(self):
        hourly = [rec(MON.replace(hour=8), 6.0, 30.0, 50.0),
                  rec(MON + timedelta(days=1, hours=12), 14.0, 50.0, 70.0),
                  rec(MON + timedelta(days=2, hours=12), 10.0, 50.0, 70.0)]
        fv = lifetime_row(hourly, [])
        assert fv.d_morning_jam_m == pytest.approx(6.0 / 3)
        assert fv.max_mj_sp == 50.0
        assert fv.d_day_m == pytest.approx(30.0 / 3)


class TestTripShares:
    def test_length_buckets(self):
        trips = [trip(MON.replace(hour=9), 5.0, 20),
                 trip(MON.replace(hour=12), 25.0, 40),
                 trip(MON.replace(hour=15), 250.0, 150),
                 trip(MON.replace(hour=20), 420.0, 260)]
        fv = lifetime_row([], trips)
        assert fv.below_10_pr == pytest.approx(25.0)
        assert fv.below_30_pr == pytest.approx(50.0)
        assert fv.over_200 == pytest.approx(50.0)
        assert fv.over_400 == pytest.approx(25.0)
        assert fv.avg_trip_mil == pytest.approx(700.0 / 4)
        assert fv.avg_trip_dur == pytest.approx((20 + 40 + 150 + 260) * 60 / 4)
        assert "no_mileage" in fv.quality_flags  # no hourly records

    def test_boundary_lengths_are_not_below(self):
        trips = [trip(MON.replace(hour=9), 10.0, 20),
                 trip(MON.replace(hour=12), 30.0, 40)]
        fv = lifetime_row([], trips)
        assert fv.below_10_pr == 0.0
        assert fv.below_30_pr == pytest.approx(50.0)


def test_empty_window_returns_none():
    """A window without activity gets no row."""
    for kind in WINDOW_KINDS:
        assert compute_feature_table([], [], kind).values.shape == (0, len(FEATURE_NAMES))
    hourly = [rec(MON.replace(hour=10), 5.0, 30.0, 40.0),
              rec(MON + timedelta(days=30), 5.0, 30.0, 40.0)]
    table = compute_feature_table(hourly, [], "weekly", frozenset(), UTC)
    assert table.window_starts == (MON, MON + timedelta(days=28))


def test_no_mileage_never_divides_by_zero():
    hourly = [rec(MON.replace(hour=10), 0.0, 0.0, 0.0,
                  bands=(0.0,) * 5, counts=(3, 0, 0, 1, 0, 0, 0, 0, 0))]
    fv = lifetime_row(hourly, [])
    assert "no_mileage" in fv.quality_flags
    assert fv.a1 == 0.0 and fv.d1 == 0.0
    assert fv.day_m_pr == 0.0 and fv.m_pr_below_20 == 0.0


def test_accel_rates_per_100km():
    hourly = [rec(MON.replace(hour=10), 50.0, 60.0, 90.0,
                  counts=(2, 1, 0, 4, 0, 0, 1, 0, 0))]
    fv = lifetime_row(hourly, [])
    assert fv.a1 == pytest.approx(100.0 * 2 / 50.0)
    assert fv.a2 == pytest.approx(100.0 * 1 / 50.0)
    assert fv.d1 == pytest.approx(100.0 * 4 / 50.0)
    assert fv.s1 == pytest.approx(100.0 * 1 / 50.0)


class TestWindows:
    def test_weekly_windows_start_on_local_mondays(self):
        hourly = [rec(SUN.replace(hour=20), 5.0, 30.0, 40.0),
                  rec(MON.replace(hour=12), 5.0, 30.0, 40.0)]
        table = compute_feature_table(hourly, [], "weekly", frozenset(), UTC)
        assert table.window_kinds == ("weekly", "weekly")
        assert table.window_starts == (MON - timedelta(days=7), MON)
        # the same instants fall on Monday in UTC+10: one week, local midnight
        plus10 = timezone(timedelta(hours=10))
        table = compute_feature_table(hourly, [], "weekly", frozenset(), plus10)
        assert table.window_starts == (datetime(2021, 6, 7, tzinfo=plus10),)
        assert table.values[0, FEATURE_NAMES.index("mileage")] == 10.0

    def test_lifetime_window_spans_activity(self):
        hourly = [rec(MON + timedelta(days=40), 5.0, 30.0, 40.0),
                  rec(MON, 5.0, 30.0, 40.0)]
        trips = [trip(MON - timedelta(hours=1), 3.0, 10)]
        table = compute_feature_table(hourly, trips, "lifetime", frozenset(), UTC)
        assert table.window_kinds == ("lifetime",)
        assert table.window_starts == (trips[0].start,)
        assert table.values[0, FEATURE_NAMES.index("mileage")] == 10.0
        # on a tie the hourly record's start, offset and all, is the window's
        local = MON.astimezone(timezone(timedelta(hours=2)))
        table = compute_feature_table([rec(local, 5.0, 30.0, 40.0)], [trip(MON, 3.0, 10)],
                                      "lifetime", frozenset(), UTC)
        assert table.window_starts[0].isoformat() == local.isoformat()

    def test_lifetime_window_needs_activity(self):
        table = compute_feature_table([], [], "lifetime", frozenset(), UTC)
        assert table.device_ids == table.window_starts == ()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            compute_feature_table([], [], "monthly", frozenset(), UTC)
        # weekly windows are half-open: next Monday 00:00 starts the next week
        hourly = [rec(MON + timedelta(days=6, hours=23), 5.0, 30.0, 40.0),
                  rec(MON + timedelta(days=7), 7.0, 30.0, 40.0)]
        table = compute_feature_table(hourly, [], "weekly", frozenset(), UTC)
        assert table.window_starts == (MON, MON + timedelta(days=7))
        assert table.values[:, FEATURE_NAMES.index("mileage")].tolist() == [5.0, 7.0]

    def test_weekly_table_one_row_per_active_week(self):
        hourly = [rec(MON.replace(hour=10), 5.0, 30.0, 40.0),
                  rec(MON + timedelta(days=14, hours=10), 5.0, 30.0, 40.0)]
        table = compute_feature_table(hourly, [], "weekly", frozenset(), UTC)
        assert len(table) == 2
        assert table.device_ids == ("d1", "d1")
        assert table.window_starts[0] + timedelta(days=14) == table.window_starts[1]

    def test_unknown_window_kind(self):
        with pytest.raises(ValueError):
            compute_feature_table([], [], "daily", frozenset(), UTC)


class TestHolidayCalendar:
    def test_weekends_are_holiday_class(self):
        assert is_holiday_class(date(2021, 6, 6), frozenset())
        assert not is_holiday_class(date(2021, 6, 7), frozenset())

    def test_calendar_file(self, tmp_path):
        p = tmp_path / "cal.txt"
        p.write_text("# national days\n2021-06-14\n\n2021-11-04  # comment\n")
        cal = load_holiday_calendar(p)
        assert cal == frozenset({date(2021, 6, 14), date(2021, 11, 4)})
        assert is_holiday_class(date(2021, 6, 14), cal)

    def test_bad_line_names_file_and_line(self, tmp_path, capsys):
        cal = tmp_path / "cal.txt"
        cal.write_text("# national days\n2021-06-14\nnot-a-date  # typo\n")
        want = f"{cal}:3: Invalid isoformat string: 'not-a-date'"
        with pytest.raises(ValueError) as exc:
            load_holiday_calendar(cal)
        assert str(exc.value) == want
        # the calendar is read before either CSV, so empty ones suffice
        (tmp_path / "hourly.csv").touch()
        (tmp_path / "trips.csv").touch()
        capsys.readouterr()
        assert run_cli("features", "--hourly", tmp_path / "hourly.csv",
                       "--trips", tmp_path / "trips.csv", "--holidays", cal,
                       "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not (tmp_path / "out").exists()

    def test_text_not_utf8_names_file(self, tmp_path, capsys):
        cal = tmp_path / "cal.txt"
        cal.write_bytes(b"2021-06-14\n2021-11-04\xff\n")
        want = f"{cal}: 'utf-8' codec can't decode byte 0xff in position 21: invalid start byte"
        with pytest.raises(ValueError) as exc:
            load_holiday_calendar(cal)
        assert str(exc.value) == want
        (tmp_path / "hourly.csv").touch()
        (tmp_path / "trips.csv").touch()
        capsys.readouterr()
        assert run_cli("features", "--hourly", tmp_path / "hourly.csv",
                       "--trips", tmp_path / "trips.csv", "--holidays", cal,
                       "--out-dir", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not (tmp_path / "out").exists()


def test_feature_row_round_trip(tmp_path):
    hourly = [rec(MON.replace(hour=10), 30.0, 40.0, 80.0,
                  counts=(1, 0, 0, 2, 0, 0, 0, 0, 1))]
    trips = [trip(MON.replace(hour=10), 30.0, 45)]
    written = compute_feature_table(hourly, trips, "lifetime")
    path = tmp_path / "features.csv"
    write_csv(path, FEATURE_CSV_COLUMNS, feature_rows(written))
    table = read_feature_table(path)
    assert table.device_ids == written.device_ids == ("d1",)
    assert table.quality_flags == written.quality_flags
    assert table.values.tolist() == written.values.tolist()
    assert table.window_kinds == ("lifetime",)
    assert table.window_starts == written.window_starts


class TestReadFeatureTable:
    def _write(self, tmp_path, rows, header=FEATURE_CSV_COLUMNS):
        path = tmp_path / "features.csv"
        write_csv(path, header, rows, "# provenance")
        return path

    def _row(self, **cells):
        row = dict(zip(FEATURE_CSV_COLUMNS, ["d1", "weekly", MON.isoformat(), ""]
                       + [float(j) for j in range(len(FEATURE_NAMES))]))
        row.update(cells)
        return [row[c] for c in FEATURE_CSV_COLUMNS]

    def test_matrix_layout(self, tmp_path):
        flags = "no_mileage;no_trips"
        table = read_feature_table(self._write(
            tmp_path, [self._row(), self._row(device="d2", quality_flags=flags)]))
        assert table.values.shape == (2, len(FEATURE_NAMES))
        assert table.values.dtype == float and table.values.flags.c_contiguous
        assert table.values[1, FEATURE_NAMES.index("avg_sp")] == \
            FEATURE_NAMES.index("avg_sp")
        assert table.quality_flags == ((), ("no_mileage", "no_trips"))

    @pytest.mark.parametrize("cells", [
        {"mileage": "abc"}, {"avg_sp": ""}, {"window_kind": "monthly"},
        {"window_start": "not-a-date"}])
    def test_bad_cell_names_its_row(self, tmp_path, cells):
        rows = [self._row(), self._row(**cells)]
        with pytest.raises(ValueError, match="data row 2"):
            read_feature_table(self._write(tmp_path, rows))

    def test_missing_column(self, tmp_path):
        header = [c for c in FEATURE_CSV_COLUMNS if c != "avg_sp"]
        row = [v for c, v in zip(FEATURE_CSV_COLUMNS, self._row()) if c != "avg_sp"]
        with pytest.raises(ValueError, match="avg_sp"):
            read_feature_table(self._write(tmp_path, [row], header))


_STARTS = st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1),
                       timezones=st.sampled_from([UTC, timezone(timedelta(hours=5, minutes=30)),
                                                  timezone(-timedelta(hours=3))]))
# ids carry the CSV delimiter, quote and flag separator, and may start with #
_IDS = st.text(st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from(',";#'),
               max_size=12)
_FLAGS = st.lists(st.sampled_from(("no_mileage", "no_trips")), unique=True)


@st.composite
def feature_tables(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * len(FEATURE_NAMES), max_size=n * len(FEATURE_NAMES)))
    return FeatureTable(tuple(draw(_IDS) for _ in range(n)),
                        tuple(draw(st.sampled_from(WINDOW_KINDS)) for _ in range(n)),
                        tuple(draw(_STARTS) for _ in range(n)),
                        tuple(tuple(sorted(draw(_FLAGS))) for _ in range(n)),
                        np.array(values, dtype=float).reshape(n, len(FEATURE_NAMES)))


@settings(deadline=None, max_examples=80)
@given(feature_tables())
def test_feature_csv_round_trip(written):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "features.csv"
        write_csv(path, FEATURE_CSV_COLUMNS, feature_rows(written), "# provenance")
        table = read_feature_table(path)
    assert table.device_ids == written.device_ids
    assert table.window_kinds == written.window_kinds
    assert [s.isoformat() for s in table.window_starts] == \
        [s.isoformat() for s in written.window_starts]
    assert table.quality_flags == written.quality_flags
    assert table.values.shape == written.values.shape
    assert table.values.flags.c_contiguous
    # exact equality; -0.0 is written as "0" and reads back as 0.0, which == -0.0
    assert table.values.tolist() == written.values.tolist()


def test_header_only_features_csv(tmp_path):
    path = tmp_path / "features.csv"
    write_csv(path, FEATURE_CSV_COLUMNS, [], "# provenance")
    table = read_feature_table(path)
    assert table.device_ids == table.window_kinds == table.window_starts == ()
    assert table.quality_flags == ()
    assert table.values.shape == (0, len(FEATURE_NAMES))
    assert table.model_values.shape == (0, len(MODEL_FEATURE_NAMES))


def test_catalog_layout():
    assert len(FEATURE_NAMES) == 38
    assert len(MODEL_FEATURE_NAMES) == 35
    assert set(ACCEL_FEATURES) <= set(MODEL_FEATURE_NAMES)
    assert not set(("sp1", "sp2", "sp3")) & set(MODEL_FEATURE_NAMES)


_hours = st.integers(min_value=0, max_value=23)
_days = st.integers(min_value=0, max_value=6)
_km = st.floats(min_value=0.0, max_value=400.0, allow_nan=False)


@st.composite
def activity(draw):
    hourly = []
    seen = set()
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        ts = MON + timedelta(days=draw(_days), hours=draw(_hours))
        if ts in seen:
            continue
        seen.add(ts)
        bands = tuple(draw(_km) for _ in range(5))
        mean_sp = draw(st.floats(min_value=0.0, max_value=150.0))
        max_sp = mean_sp + draw(st.floats(min_value=0.0, max_value=100.0))
        counts = tuple(draw(st.integers(min_value=0, max_value=20))
                       for _ in range(9))
        hourly.append(HourlyRecord("d1", ts, sum(bands), mean_sp,
                                   *counts, *bands, max_sp))
    trips = [trip(MON + timedelta(days=draw(_days), hours=draw(_hours)),
                  draw(st.floats(min_value=0.1, max_value=600.0)),
                  draw(st.integers(min_value=2, max_value=300)))
             for _ in range(draw(st.integers(min_value=0, max_value=5)))]
    return hourly, trips


@settings(deadline=None, max_examples=60)
@given(activity())
def test_feature_invariants(data):
    hourly, trips = data
    fv = lifetime_row(hourly, trips)
    assert fv.below_10_pr <= fv.below_30_pr + 1e-12
    assert fv.over_400 <= fv.over_200 + 1e-12
    assert fv.m_pr_below_20 <= fv.m_pr_below_60 + 1e-12
    for name in ("below_10_pr", "below_30_pr", "over_200", "over_400",
                 "day_m_pr", "ej_m_pr", "m_pr_below_20", "m_pr_below_60",
                 "m_pr_over_100", "m_pr_over_130"):
        v = getattr(fv, name)
        assert 0.0 <= v <= 100.0 + 1e-9, name
    for name in ("max_ej_sp", "max_mj_sp", "max_n_sp"):
        assert getattr(fv, name) <= fv.max_sp
    assert fv.mileage == pytest.approx(sum(r.mileage_km for r in hourly))
    assert fv.d_day_m <= fv.d_total_m + 1e-9
    for name in ACCEL_FEATURES:
        assert getattr(fv, name) >= 0.0
