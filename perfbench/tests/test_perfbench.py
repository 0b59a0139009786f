"""Tests of the benchmark harness itself: python3 -m pytest -q perfbench/tests"""
from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import pytest

import run
from checks import (artifact_digests, check_event_chain, devices_with_a_trip,
                    digest_mismatches)
from plain_cmd import peak_rss_kb
from spans import Node, Tracer, self_times, totals_by_name
from workloads import Shape, Workload, select_devices

REPO = Path(__file__).resolve().parents[2]


def test_self_times_on_hand_built_tree():
    nodes = [
        Node("cli.fit", None, duration=10.0, calls=1),
        Node("glm.backward_eliminate", 0, duration=3.0, calls=1),
        Node("fileio.read_csv_rows", 0, duration=4.0, calls=1),
        Node("glm.fit_logistic", 1, duration=1.0, calls=1),
        Node("features.feature_from_row", 2, duration=0.5, calls=1000),
        Node("glm.fit_logistic", 1, duration=1.5, calls=1),
    ]
    assert self_times(nodes) == [3.0, 0.5, 3.5, 1.0, 0.5, 1.5]
    totals = totals_by_name(nodes)
    assert totals["glm.fit_logistic"] == (2, 2.5)
    assert totals["features.feature_from_row"] == (1000, 0.5)
    assert sum(s for _, s in totals.values()) == pytest.approx(10.0)


def test_tracer_nests_spans_and_aggregates_per_row_calls():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    row = tracer.wrap("features.feature_from_row", lambda r: r, per_row=True)
    read = tracer.wrap("fileio.read_csv_rows", lambda n: [row(i) for i in range(n)])
    tracer.wrap("cli.score", lambda: read(3))()
    names = [n.name for n in tracer.nodes]
    assert names == ["cli.score", "fileio.read_csv_rows", "features.feature_from_row"]
    assert [n.parent for n in tracer.nodes] == [None, 0, 1]
    assert tracer.nodes[2].calls == 3
    assert sum(self_times(tracer.nodes)) == pytest.approx(tracer.nodes[0].duration)


def test_select_devices_swaps_outliers_for_devices_on_target():
    counts = {"d0": (10000, 10), "d1": (100, 200),
              **{f"d{i}": (1000, 20) for i in range(2, 8)}}
    shape = Shape(pool=8, keep=2, weeks=1, events_per_device=1000, trips_per_device=20)
    assert select_devices(counts, shape) == ["d2", "d3"]
    assert select_devices(dict(reversed(counts.items())), shape) == ["d6", "d7"]


TINY = Workload("tiny", "two short histories", Shape(pool=2, keep=2, weeks=1,
                                                     events_per_device=200, trips_per_device=5))


def _bench(tmp_path: Path) -> run.Bench:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return run.Bench(TINY, 0, tmp_path, env)


def test_nonzero_exit_is_a_failed_command(tmp_path):
    bench = _bench(tmp_path)
    ok = bench.run("rep0", "synth", ["synth", "--n", "2", "--weeks", "1",
                                     "--out-dir", str(tmp_path / "s")])
    bad = bench.run("rep0", "score", ["score", "--model", str(tmp_path / "none.json"),
                                      "--features", str(tmp_path / "none.csv")])
    assert (ok.exit_code, bad.exit_code) == (0, 2)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert bench.failures[0][:2] == ("rep0", "score")


def test_peak_rss_is_the_commands_own(tmp_path):
    ballast = b"x" * (96 * 2**20)  # written, so resident in this process
    proc = _bench(tmp_path).run("rep0", "synth", ["synth", "--n", "2", "--weeks", "1",
                                                  "--out-dir", str(tmp_path / "s")])
    assert proc.exit_code == 0 and len(ballast) == 96 * 2**20
    assert 0 < proc.rss_mb < peak_rss_kb() / 1024 - 64


@pytest.fixture(scope="module")
def tiny_chain(tmp_path_factory):
    """A real set-up and event chain on two one-week devices, untraced and traced."""
    tmp = tmp_path_factory.mktemp("tiny")
    bench = _bench(tmp)
    setup = bench.setup("setup0", tmp / "setup0")
    inputs = run.prepare_inputs(bench, tmp / "setup0")
    traces = tmp / "traces"
    traces.mkdir()
    traced = [bench.setup("traced", tmp / "traced_synth", traces / "synth.json")]
    procs, traced_chain = bench.paired_chain(inputs.path, tmp / "paired", inputs, traces)
    return bench, inputs, setup, procs, traced + traced_chain, tmp


def test_tiny_chain_passes_every_check(tiny_chain):
    bench, inputs, setup, procs, traced, tmp = tiny_chain
    assert bench.failures == []
    assert [p.command for p in procs] == ["parse", "aggregate", "features", "score", "premium"]
    assert digest_mismatches(artifact_digests(tmp / "paired" / "plain"),
                             artifact_digests(tmp / "paired" / "traced")) == []


def _copy_artifacts(src: Path, out: Path) -> None:
    for d in src.iterdir():
        (out / d.name).mkdir(parents=True)
        for f in d.iterdir():
            (out / d.name / f.name).write_bytes(f.read_bytes())


def test_corrupted_hourly_mileage_fails_its_check(tiny_chain, tmp_path):
    _, inputs, _, _, _, tmp = tiny_chain
    out = tmp_path / "out"
    _copy_artifacts(tmp / "paired" / "plain", out)
    hourly = out / "aggregate" / "hourly.csv"
    lines = hourly.read_text().splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    rows = list(csv.reader(lines[header:]))
    col = rows[0].index("mileage_km")
    rows[1][col] = repr(float(rows[1][col]) * 1.01)
    with open(hourly, "w", newline="") as f:
        f.writelines(lines[:header])
        csv.writer(f, lineterminator="\n").writerows(rows)
    fails = check_event_chain(out, inputs.records, inputs.devices, inputs.driven)
    assert fails and {c for c, _ in fails} == {"aggregate"}
    assert [c for c, _ in digest_mismatches(artifact_digests(tmp / "paired" / "plain"),
                                            artifact_digests(out))] == ["aggregate"]


def test_dropped_device_fails_its_check(tiny_chain, tmp_path):
    _, inputs, _, _, _, tmp = tiny_chain
    assert inputs.driven == inputs.devices and len(inputs.devices) == 2
    out = tmp_path / "out"
    _copy_artifacts(tmp / "paired" / "plain", out)
    gone = sorted(inputs.devices)[0]
    for name in ("hourly.csv", "trips.csv"):
        path = out / "aggregate" / name
        path.write_text("".join(ln for ln in path.read_text().splitlines(keepends=True)
                                if not ln.startswith(gone + ",")))
    fails = check_event_chain(out, inputs.records, inputs.devices, inputs.driven)
    assert {c for c, _ in fails} == {"aggregate", "features"}
    assert check_event_chain(out, inputs.records, inputs.devices, inputs.driven - {gone}) \
        == [("features", f"devices missing from features.csv: []; in features.csv "
                         f"but not aggregated: ['{gone}']")]


def test_devices_with_a_trip_to_keep(tmp_path):
    def ev(device, minute, kind, **kw):
        return json.dumps({"device": device, "ts": f"2019-03-04T12:{minute:02d}:00Z",
                           "kind": kind, **kw}) + "\n"

    def fix(device, minute, lon):
        return ev(device, minute, "position", lat=0.0, lon=lon)

    lines = [ev("drove", 0, "ignition_on"), fix("drove", 0, 10.0), fix("drove", 1, 10.01),
             fix("drove", 2, 10.02), ev("drove", 3, "ignition_off"),
             ev("idle", 0, "ignition_on"), ev("idle", 30, "ignition_off"),
             ev("jitter", 0, "ignition_on"), fix("jitter", 1, 10.0),
             fix("jitter", 2, 10.0005), ev("jitter", 3, "ignition_off")]
    path = tmp_path / "events.jsonl"
    path.write_text("".join(reversed(lines)))
    assert devices_with_a_trip(path) == {"drove"}


def test_reported_metrics_match_benchmark_json(tiny_chain):
    _, inputs, setup, procs, traced, tmp = tiny_chain
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    commands = run.per_command([setup, *procs])
    e2e = run.end_to_end(commands, [procs])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    assert e2e["chain_s"][0] == pytest.approx(sum(p.wall_s for p in procs))
    layers = run.per_layer(tmp / "traces", traced, commands, e2e["chain_s"][0])
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(layers[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert layers["glm.fit_logistic.calls"][0] == 0
    assert layers["ingest.events"][0] == 2 * inputs.records


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "wide_fleet", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
