"""Artifact bytes pinned across versions.

Criterion 10 compares two runs of the same code, and criterion 08 checks
feature values to within 1e-9; neither notices a refactor that moves the
last bit of a feature or a planted probability.  These digests were taken
from the code before the feature catalog moved to one columnar table, and
every later version must write the same bytes.  The provenance header
carries the tool version, so a version bump re-records them.

From Python 3.12 the builtin ``sum`` adds floats with Neumaier compensation,
while 3.10 and 3.11 add left to right.  Each test runs the commands under
the running interpreter's ``sum`` and under ``compensated_sum``, a stand-in
for the newer one, so the digests hold on every supported Python.
"""
import builtins
import hashlib
import math

import pytest

from conftest import GOLDEN_WEEK, run_cli

FEATURES_DIGESTS = {
    ("weekly", "UTC"):
        "ccf02ad1f75b21161aa8ac12749350512a582fa0d3a84f27a08488336d29ae0a",
    ("lifetime", "UTC"):
        "77354f4d3ffa065f747b24df4e9d06b7d2d5e65826b2e1aae175e7c72d0630b4",
    ("weekly", "Europe/Berlin"):
        "45631ae8f1b5840df89b78ba252bfcbbc46889c2f50254a69a6db813b20ec377",
    ("lifetime", "Europe/Berlin"):
        "055c710707de8405c8f0a617564f0df18207547a1464beaee73e3422d93590f8",
    ("weekly", "America/New_York"):
        "0d9095dea20a137b94fa60d9ad03e375867a1a42663d95e9396ef6f5d66bb061",
    ("lifetime", "America/New_York"):
        "4dfccb7dbffc4def582ab098f83d2d62d7af34f28f35dfe813b0022d342cae08",
    ("weekly", "Asia/Kolkata"):
        "a36912371a64cda70b4524867a36259caf7c3105e41c6b114a8a36e508ba638e",
    ("lifetime", "Asia/Kolkata"):
        "89c1bceefe94b989522e6a7b4ecb6ba8e8944f5e6c3bc0945deece1a9c42eeb3",
    ("weekly", "Australia/Lord_Howe"):
        "681586ff5bc82583d1005b22730e828e6c4f9744cea47ecdb634621f39aa0d9f",
    ("lifetime", "Australia/Lord_Howe"):
        "79430cd95a0fa8f10ead28856a3a6eecf829d9a7f194bc8200ed9c76d11c527d",
}

# the golden week's hourly.csv under each zone, and its trips.csv, which is
# written in UTC under every zone
GOLDEN_WEEK_TRIPS = "4003607df8cc36fa5eb882d9d8e713e33d94f7a53b982ac90bd46e202f7f3202"
AGGREGATE_DIGESTS = {
    "UTC": "7bea129a739f359a5aa1a0052742e48ec19fea51863c8cfba2e3226175b40c70",
    "Europe/Berlin": "09994cb33ada69f7c8f294ee50521def552b644443b145c21dc701ecbea72878",
    "America/New_York": "3a4a4c837e274fb8bda67a72e84614d78bb4f86f1fac0c1fec718a9ed5c485eb",
    "Asia/Kolkata": "b944deaff3436a0638603e3ba112ffe1468b115f806ecbc7effa48d538d63ca7",
    "Australia/Lord_Howe": "18cfc8617dfcf6d019699e9c4b3087d114d2b197d0d69ac41cb8058f9877200a",
}

# synth --n 300 --weeks 8 --seed 4
SYNTH_DIGESTS = {
    "features.csv": "37dfdb970e6ffcb25f8d4582b6b81efe3904cdf67062ccbc44af5d6988d6703a",
    "claims.csv": "97e9e8761768bc2c74d2d7a4c03c38ce2d28de5dfba29423f8865745b35e13fa",
    "truth.json": "9a8b90e9b708d6c0be6ec45c2ff30620e6039f80313c640477cc9866a2675071",
}

# synth --n 5 --weeks 2 --seed 3 --logs: 11,515 events from five devices
EVENTS_DIGEST = "7a3703eff63bc04a8930d1a22003c6afffe38ae71ffe4811554b54c3bf7d4ce1"
# its weekly features.csv, aggregated and windowed under --tz UTC
EVENTS_FEATURES_DIGEST = "23a475e6ccc76cf7022f0951034e498f18404561cf7f747016217c31ab524b1c"


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12 and later: runs of exact floats add
    with Neumaier's compensation, anything else adds plainly."""
    def settle(total, c):
        return total + c if c and math.isfinite(c) else total

    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total, c = settle(total, c) + x, 0.0
    return settle(total, c)


SUMS = [pytest.param(sum, id="builtin_sum"), pytest.param(compensated_sum, id="compensated_sum")]


def _run(float_sum, *args) -> int:
    """``run_cli`` with ``float_sum`` standing in for the builtin ``sum``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "sum", float_sum)
        return run_cli(*args)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _features(float_sum, events, window, tz, out) -> str:
    """The digest of ``features.csv`` from an events file, aggregated and windowed under ``tz``."""
    assert _run(float_sum, "aggregate", "--events", events, "--tz", tz, "--out-dir", out) == 0
    assert _run(float_sum, "features", "--hourly", out / "hourly.csv", "--trips",
                out / "trips.csv", "--window", window, "--tz", tz, "--out-dir", out) == 0
    return _sha256(out / "features.csv")


# the builtin-sum cases keep the ids they had before the sum became a parameter
@pytest.mark.parametrize("window,tz,float_sum", [
    pytest.param(window, tz, float_sum, id=f"{window}-{tz}{suffix}")
    for float_sum, suffix in ((sum, ""), (compensated_sum, "-compensated_sum"))
    for window, tz in sorted(FEATURES_DIGESTS)])
def test_golden_week_features_bytes(tmp_path, window, tz, float_sum):
    assert _features(float_sum, GOLDEN_WEEK, window, tz, tmp_path) == FEATURES_DIGESTS[window, tz]
    assert (_sha256(tmp_path / "hourly.csv"), _sha256(tmp_path / "trips.csv")) == \
        (AGGREGATE_DIGESTS[tz], GOLDEN_WEEK_TRIPS)


@pytest.mark.parametrize("float_sum", SUMS)
def test_synth_artifact_bytes(tmp_path, float_sum):
    assert _run(float_sum, "synth", "--n", 300, "--weeks", 8, "--seed", 4,
                "--out-dir", tmp_path) == 0
    assert {name: _sha256(tmp_path / name) for name in SYNTH_DIGESTS} == SYNTH_DIGESTS


@pytest.mark.parametrize("float_sum", SUMS)
def test_synth_event_log_bytes(tmp_path, float_sum):
    assert _run(float_sum, "synth", "--n", 5, "--weeks", 2, "--seed", 3, "--logs",
                "--out-dir", tmp_path) == 0
    assert _sha256(tmp_path / "events.jsonl") == EVENTS_DIGEST


@pytest.mark.parametrize("float_sum", SUMS)
def test_event_path_features_bytes(tmp_path, float_sum):
    """The golden week is too small for the two sums to differ; this log's weeks are not."""
    assert _run(float_sum, "synth", "--n", 5, "--weeks", 2, "--seed", 3, "--logs",
                "--out-dir", tmp_path) == 0
    assert _features(float_sum, tmp_path / "events.jsonl", "weekly", "UTC",
                     tmp_path) == EVENTS_FEATURES_DIGEST
