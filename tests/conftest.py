"""Shared fixtures: event-stream, log and CSV helpers and cached synthetic artifacts."""
import csv
import json
import time
from dataclasses import fields
from itertools import dropwhile
from pathlib import Path

import pytest

from drivescore.cli import main as cli_main
from drivescore.ingest import parse_event_file

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_WEEK = DATA_DIR / "golden_week.jsonl"


def run_cli(*args) -> int:
    return cli_main([str(a) for a in args])


def csv_rows(path) -> list[dict[str, str]]:
    """Data rows of a CSV artifact as dicts, after its leading # provenance lines."""
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(dropwhile(lambda ln: ln.startswith("#"), f)))


def jsonl(objs) -> str:
    return "\n".join(json.dumps(o) for o in objs) + "\n"


def log_columns(log) -> tuple:
    """A DeviceLog's device id and the bytes of each column, NaN included."""
    return (log.device_id, *(getattr(log, f.name).tobytes() for f in fields(log)[1:]))


def assert_same_logs(got, want):
    """The logs hold the same devices and events, in the same order."""
    assert [log_columns(log) for log in got] == [log_columns(log) for log in want]


def parse_lines(lines):
    """Every device's log, in device-id order, and the ParseResult of JSONL text
    lines, read as the commands read a file whose ids are not grouped."""
    logs = []
    result = parse_event_file((ln.encode("utf-8") for ln in lines), logs.append, grouped=False)
    return logs, result


def parse_objs(objs):
    """The logs of event dicts, failing the test on any skipped line."""
    logs, result = parse_lines(jsonl(objs).splitlines())
    assert not result.skipped, result.skipped
    return logs


@pytest.fixture(scope="session")
def small_pop(tmp_path_factory):
    """CLI artifacts for a small population, with event logs for two drivers."""
    d = tmp_path_factory.mktemp("smallpop")
    rc = run_cli("synth", "--n", 160, "--weeks", 8, "--seed", 7,
                 "--logs", "--logs-limit", 2, "--out-dir", d)
    assert rc == 0
    return d


@pytest.fixture(scope="session")
def closed_loop(tmp_path_factory):
    """Per-seed synth + fit + ablate artifacts at default population scale.

    Returns a callable seed -> directory; each seed is generated once per
    session and reused by every test that asks for it.  The fit timing
    (generation plus refit, the budgeted part) is stored alongside.
    """
    root = tmp_path_factory.mktemp("closedloop")
    cache: dict[int, Path] = {}

    def run(seed: int) -> Path:
        if seed in cache:
            return cache[seed]
        d = root / f"seed{seed}"
        t0 = time.perf_counter()
        assert run_cli("synth", "--n", 5000, "--weeks", 26, "--seed", seed,
                       "--out-dir", d) == 0
        assert run_cli("fit", "--features", d / "features.csv",
                       "--claims", d / "claims.csv", "--alpha", 0.05,
                       "--test-fraction", 0.10, "--seed", seed,
                       "--out-dir", d) == 0
        elapsed = time.perf_counter() - t0
        assert run_cli("ablate", "--features", d / "features.csv",
                       "--claims", d / "claims.csv", "--group", "accel",
                       "--out-dir", d) == 0
        for name in ("model_any.json", "model_weak.json", "model_medium.json",
                     "model_strong.json", "eval_report.csv", "ablation.csv",
                     "truth.json"):
            assert (d / name).exists(), f"missing artifact {name}"
        (d / "elapsed_synth_fit.txt").write_text(repr(elapsed))
        cache[seed] = d
        return d

    return run
