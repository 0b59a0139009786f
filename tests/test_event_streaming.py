"""parse and aggregate on grouped and on interleaved device input.

Both commands finish each device before reading the next when device ids
arrive grouped and ascending, and read the file again holding every device
when they do not.  Either way they must write the same bytes and print the
same lines.
"""
import hashlib
import re
import tracemalloc

import pytest

import drivescore.trips  # noqa: F401  numpy's import is not the command's peak
from conftest import run_cli

# Three devices, grouped and ascending: "a" drives across an hour boundary,
# a truncated line follows its events, "b" only turns its ignition on and
# off (no trip kept), and "c" drives without ignition events and repeats
# one fix (a duplicate event) and reports a suspect speed.
GROUPED = """\
{"device":"a","ts":"2021-01-04T09:50:00Z","kind":"ignition_on"}
{"device":"a","ts":"2021-01-04T09:51:00Z","kind":"position","lat":55.75,"lon":37.6}
{"device":"a","ts":"2021-01-04T09:55:00Z","kind":"position","lat":55.76,"lon":37.62}
{"device":"a","ts":"2021-01-04T09:58:00Z","kind":"speed","speed_kph":62.5}
{"device":"a","ts":"2021-01-04T10:02:00Z","kind":"position","lat":55.78,"lon":37.65}
{"device":"a","ts":"2021-01-04T10:03:00Z","kind":"acceleration","axis":"longitudinal","accel_g":0.35}
{"device":"a","ts":"2021-01-04T10:05:00Z","kind":"position","lat":55.8,"lon":37.7}
{"device":"a","ts":"2021-01-04T10:06:00Z","kind":"ignition_off"}
{"device":"b","ts":"2021-01-04T09:59:30Z","kind":"posi
{"device":"b","ts":"2021-01-04T09:52:00Z","kind":"ignition_on"}
{"device":"b","ts":"2021-01-04T10:04:00Z","kind":"ignition_off"}
{"device":"c","ts":"2021-01-04T09:57:00Z","kind":"position","lat":48.1,"lon":11.5}
{"device":"c","ts":"2021-01-04T09:59:00Z","kind":"position","lat":48.11,"lon":11.52}
{"device":"c","ts":"2021-01-04T09:59:00Z","kind":"position","lat":48.11,"lon":11.52}
{"device":"c","ts":"2021-01-04T10:01:00Z","kind":"acceleration","axis":"lateral","accel_g":-0.41}
{"device":"c","ts":"2021-01-04T10:04:00Z","kind":"position","lat":48.13,"lon":11.55}
{"device":"c","ts":"2021-01-04T10:04:30Z","kind":"speed","speed_kph":320.0}
"""


def _ts(line: str) -> str:
    return re.search(r'"ts":"([^"]*)"', line).group(1)


# The same lines stably sorted by timestamp, so the devices interleave.
INTERLEAVED = "".join(sorted(GROUPED.splitlines(keepends=True), key=_ts))

# sha256 of each artifact.  parsed.jsonl is the same for both orders;
# hourly.csv and trips.csv differ only in the input digest on their
# provenance line, parse_report.json also in its skipped line numbers.
DIGESTS = {
    ("grouped", "parsed.jsonl"):
        "016ea52cadd75adddcb01d72ad0799f997abbe082ec414f46c97796892d187cb",
    ("grouped", "parse_report.json"):
        "7c9cf12f2ef300563f5d7beb16283bdcd2773f2449c3365c85d4e6602ff6a6a3",
    ("grouped", "hourly.csv"):
        "c4bccbcdd900dd595a79d58037747f3f8f2a213c350ec4e7deac580dad684f22",
    ("grouped", "trips.csv"):
        "c85b7847cf5b70b9b9b35ffdb5db40d4af91798b44254b2e681724fb5ebfafa5",
    ("interleaved", "parsed.jsonl"):
        "016ea52cadd75adddcb01d72ad0799f997abbe082ec414f46c97796892d187cb",
    ("interleaved", "parse_report.json"):
        "530221a7720858ada5bf0c9f8d3c7ab70d97e58de63e320c8be85e2aae5e6e16",
    ("interleaved", "hourly.csv"):
        "b3de455f11f3de667303240f4d68c52f385ee504bfea9e5519ba712a6030315e",
    ("interleaved", "trips.csv"):
        "a3011c81eb7d865fb22719ca32e4d7b361f75b78fdb5198003a9d2b3a22aed79",
}
# Skip lines come in line order, before the devices without a trip.
SKIPS = {
    "grouped": "line 9: invalid JSON: Unterminated string starting at\n"
               "line 14: duplicate event\n",
    "interleaved": "line 8: duplicate event\n"
                   "line 9: invalid JSON: Unterminated string starting at\n",
}


@pytest.mark.parametrize("order", ["grouped", "interleaved"])
def test_parse_and_aggregate_bytes(tmp_path, capsys, order):
    events = tmp_path / "events.jsonl"
    events.write_text(GROUPED if order == "grouped" else INTERLEAVED)
    out = tmp_path / "out"
    assert run_cli("parse", "--events", events, "--out-dir", out) == 0
    assert capsys.readouterr() == (
        "parsed 15 events from 17 lines (2 skipped, 3 devices)\n", "")
    assert run_cli("aggregate", "--events", events, "--tz", "Europe/Berlin",
                   "--out-dir", out) == 0
    assert capsys.readouterr() == (
        "wrote 4 hourly records and 2 trips (2 lines skipped)\n",
        SKIPS[order] + "device b: no trip kept\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "hourly.csv", "parse_report.json", "parsed.jsonl", "trips.csv"]
    got = {(order, p.name): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == {k: v for k, v in DIGESTS.items() if k[0] == order}


@pytest.mark.parametrize("order", ["grouped", "interleaved"])
def test_a_failure_inside_a_device_leaves_no_artifact(tmp_path, capsys, monkeypatch,
                                                      order):
    from drivescore import trips

    real = trips.roll_up

    def fail_on_c(log, *args):
        if log.device_id == "c":
            raise ValueError("rollup failed")
        return real(log, *args)

    monkeypatch.setattr(trips, "roll_up", fail_on_c)
    events = tmp_path / "events.jsonl"
    events.write_text(GROUPED if order == "grouped" else INTERLEAVED)
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("aggregate", "--events", events, "--out-dir", out) == 1
    assert capsys.readouterr().err.endswith("error: rollup failed\n")
    assert list(out.iterdir()) == []


# Traced peak of a command on eight equal devices less its peak on one of
# them, measured with 4,000-event devices (Python 3.11): parse 14 kB,
# aggregate 18 kB.  Holding every device, as the commands did before they
# streamed, the differences were 1.7 MB and 1.9 MB.
EXTRA_DEVICES_PEAK_B = 150_000


class TestOneDeviceAtATime:
    def _log(self, small_pop, path, n_devices):
        """``n_devices`` copies of one device's first 4,000 events, grouped."""
        with open(small_pop / "events.jsonl", encoding="utf-8") as f:
            lines = [ln for ln in f if '"device":"d00000"' in ln][:4000]
        assert len(lines) == 4000
        with open(path, "w", encoding="utf-8") as f:
            for k in range(n_devices):
                f.writelines(ln.replace('"d00000"', f'"d{k:03d}"') for ln in lines)
        return path

    def _peak(self, *args):
        tracemalloc.start()
        try:
            assert run_cli(*args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command", ["parse", "aggregate"])
    def test_peak_is_that_of_one_device(self, small_pop, tmp_path, capsys, command):
        one = self._log(small_pop, tmp_path / "one.jsonl", 1)
        eight = self._log(small_pop, tmp_path / "eight.jsonl", 8)
        peak_one = self._peak(command, "--events", one, "--out-dir", tmp_path / "one")
        peak_eight = self._peak(command, "--events", eight, "--out-dir", tmp_path / "eight")
        assert peak_eight - peak_one < EXTRA_DEVICES_PEAK_B, (peak_one, peak_eight)
