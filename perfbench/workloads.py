"""The benchmark's workloads: set-up command, input selection and command chain.

Every workload is a closed loop with one client: each command starts when the
previous one exits, because it reads that command's files.

The two event workloads hold the same amount of driving (36k events and about
860 trips) and differ only in how it is cut into device histories: two long
ones or 72 short ones.  The synthetic generator draws each driver's activity
and trip lengths from wide distributions, so a plain ``synth --n 2`` differs
by half its size from seed to seed.  To keep a workload's shape fixed while
the seed changes the data, set-up generates a pool of drivers, and the
benchmark keeps of each of ``keep`` devices its first ``events_per_device``
events in time order (the last trip may stay open, which the program
handles).  It picks the devices whose kept trips come closest to the target,
so the events, the trips and the sum over devices of events x trips (what a
per-trip rescan of a device's history costs) all hold.  Selection reads only
the generated log and is not timed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

LOSS, ADMIN, MARGIN = 40000.0, 1500.0, 0.0
TZ = "Europe/Berlin"
MODEL_BOOK_DRIVERS = 5000


@dataclass(frozen=True)
class Shape:
    """Size of an event workload after selection."""
    pool: int                # drivers generated by set-up
    keep: int                # devices kept
    weeks: int
    events_per_device: int   # a kept device's first events in time order
    trips_per_device: float  # target ignition_on count among them

    @property
    def events(self) -> int:
        return self.keep * self.events_per_device

    @property
    def trips(self) -> float:
        return self.keep * self.trips_per_device

    @property
    def events_x_trips(self) -> float:
        return self.events_per_device * self.trips


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape | None  # None: the set-up output is the input, unselected

    def setup_args(self, seed: int, out: Path) -> list[str]:
        if self.shape is not None:
            return ["synth", "--n", str(self.shape.pool), "--weeks", str(self.shape.weeks),
                    "--seed", str(seed), "--logs", "--out-dir", str(out)]
        return ["synth", "--n", str(MODEL_BOOK_DRIVERS), "--weeks", "26",
                "--seed", str(seed), "--out-dir", str(out)]

    def chain(self, seed: int, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
        """(command, CLI args) in order; each command writes to ``out/<command>``."""
        money = ["--loss", str(LOSS), "--admin", str(ADMIN)]
        if self.shape is not None:
            events = str(inputs / "events.jsonl")
            agg = out / "aggregate"
            steps = [
                ["parse", "--events", events],
                ["aggregate", "--events", events, "--tz", TZ],
                ["features", "--hourly", str(agg / "hourly.csv"),
                 "--trips", str(agg / "trips.csv"), "--window", "weekly", "--tz", TZ],
                ["score", "--model", "paper-reference",
                 "--features", str(out / "features" / "features.csv")],
                ["premium", "--scores", str(out / "score" / "scores.csv"), *money],
            ]
        else:
            data = ["--features", str(inputs / "features.csv"),
                    "--claims", str(inputs / "claims.csv")]
            steps = [
                ["label", "--claims", str(inputs / "claims.csv")],
                ["fit", *data, "--alpha", "0.05", "--test-fraction", "0.10",
                 "--seed", str(seed)],
                ["evaluate", *data, "--seed", str(seed)],
                ["ablate", *data, "--group", "accel"],
                ["report", *data],
                ["score", "--model", str(out / "fit" / "model_any.json"),
                 "--features", str(inputs / "features.csv")],
                ["premium", "--scores", str(out / "score" / "scores.csv"), *money],
            ]
        return [(s[0], s + ["--out-dir", str(out / s[0])]) for s in steps]


WORKLOADS = {w.name: w for w in (
    Workload(
        "long_history",
        "2 devices x 18000 events, ~430 trips each (about 26 weeks): long per-device "
        "histories, where the per-trip rescan in trips.aggregate_hourly dominates",
        Shape(pool=6, keep=2, weeks=26, events_per_device=18000, trips_per_device=430)),
    Workload(
        "wide_fleet",
        "72 devices x 500 events, ~13 trips each: the same driving as long_history cut "
        "short, so JSON decode, validation and serialization dominate and trip rescans barely cost",
        Shape(pool=100, keep=72, weeks=1, events_per_device=500, trips_per_device=13)),
    Workload(
        "model_book",
        "5000 drivers, no event logs: IRLS fits, backward elimination, AUC and 5 re-reads of "
        "features.csv; ingest and trips never run, so event-path changes must not move it",
        None),
)}


def device_logs(events_path: Path) -> dict[str, list[tuple[str, str, str]]]:
    """device -> its (ts, kind, line) in time order, devices in file order.

    ``synth`` writes every timestamp in one format, so the strings sort in time
    order; equal times keep their file order.
    """
    logs: dict[str, list[tuple[str, str, str]]] = {}
    with open(events_path, encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            logs.setdefault(obj["device"], []).append((obj["ts"], obj["kind"], line))
    for events in logs.values():
        events.sort(key=lambda e: e[0])
    return logs


def kept_counts(logs: dict[str, list[tuple[str, str, str]]],
                shape: Shape) -> dict[str, tuple[int, int]]:
    """device -> (events, ignition_on events) of what a device would keep.

    Only devices with at least ``events_per_device`` events are candidates,
    unless fewer than ``keep`` have that many; then every device is, and the
    shorter ones keep all their events.
    """
    n = shape.events_per_device
    counts = {d: (len(evs[:n]), sum(kind == "ignition_on" for _, kind, _ in evs[:n]))
              for d, evs in logs.items()}
    full = {d: c for d, c in counts.items() if c[0] == n}
    return full if len(full) >= shape.keep else counts


def select_devices(counts: dict[str, tuple[int, int]], shape: Shape) -> list[str]:
    """``shape.keep`` devices whose totals come closest to the shape's targets.

    Steepest-descent single swaps from the first ``keep`` devices, minimising
    the summed squared relative misses of events, trips and events x trips.
    Deterministic: ties go to the earliest swap.
    """
    devices = list(counts)
    if len(devices) < shape.keep:
        raise ValueError(f"pool has {len(devices)} devices, need {shape.keep}")

    def miss(chosen: list[str]) -> float:
        e = sum(counts[d][0] for d in chosen)
        t = sum(counts[d][1] for d in chosen)
        c = sum(counts[d][0] * counts[d][1] for d in chosen)
        return ((e / shape.events - 1) ** 2 + (t / shape.trips - 1) ** 2
                + (c / shape.events_x_trips - 1) ** 2)

    chosen = devices[:shape.keep]
    best = miss(chosen)
    while True:
        outside = [d for d in devices if d not in chosen]
        swaps = ((miss(chosen[:i] + [d] + chosen[i + 1:]), i, j)
                 for i in range(len(chosen)) for j, d in enumerate(outside))
        value, i, j = min(swaps, default=(best, 0, 0))
        if value >= best:
            return sorted(chosen)
        best, chosen = value, chosen[:i] + [outside[j]] + chosen[i + 1:]


def write_selected(logs: dict[str, list[tuple[str, str, str]]], out_path: Path,
                   devices: list[str], events_per_device: int) -> int:
    """Write each selected device's first events in time order; returns the count."""
    keep = set(devices)
    n = 0
    with open(out_path, "w", encoding="utf-8") as dst:
        for device, events in logs.items():
            if device in keep:
                for _, _, line in events[:events_per_device]:
                    dst.write(line)
                    n += 1
    return n
