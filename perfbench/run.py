"""drivescore benchmark: one workload, end-to-end metrics or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload long_history --seed 0 --seconds 30 --trace 0

Set-up runs the workload's ``synth`` command several times (timed, median
reported) and checks that every repeat writes identical bytes.  Then the
command chain runs, one CLI process per command, again and again for about
``--seconds``; every repeat's artifacts are checked for
correctness and compared with the first repeat's.  ``--trace 1`` instead
runs set-up once more and each chain command twice in a row, untraced and
then with every layer call traced (see ``trace_cmd.py``), and reports
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and hold the run record.  Without a
``src/drivescore`` package to run, the benchmark exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import fmean, median

from checks import (artifact_digests, check_event_chain, check_model_chain,
                    devices_with_a_trip, digest_mismatches)
from spans import nodes_from_json, totals_by_name
from workloads import (WORKLOADS, Workload, device_logs, kept_counts, select_devices,
                       write_selected)

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
COMMAND_TIMEOUT_S = 150.0

COMMANDS = ("synth", "parse", "aggregate", "features", "label", "fit", "evaluate",
            "ablate", "report", "score", "premium")
LAYERS = ("ingest", "trips", "features", "labeling", "glm", "evaluation", "fileio",
          "synthgen")
SELF_TIMED = (
    "ingest.parse_event_file", "ingest.serialize_logs", "ingest.validate_log",
    "trips.aggregate_hourly", "trips.segment_trips",
    "features.compute_feature_table", "features.feature_from_row",
    "features.feature_to_row",
    "labeling.claim_from_row", "labeling.build_targets",
    "glm.fit_logistic", "glm.DesignMatrix.from_rows", "glm.backward_eliminate",
    "glm.predict_proba", "glm.compute_premium",
    "evaluation.evaluate_model", "evaluation.roc_auc", "evaluation.ablation_compare",
    "evaluation.descriptive_stats", "evaluation.correlation_matrix",
    "fileio.read_csv_rows", "fileio.render_csv", "fileio.atomic_write_text",
    "fileio.sha256_digest",
    "synthgen.generate_population", "synthgen.iter_event_logs",
)
CALL_COUNTED = ("features.feature_from_row", "labeling.build_targets",
                "glm.fit_logistic", "glm.predict_proba")
WORK_COUNTS = ("ingest.events", "ingest.skipped", "trips.trips", "trips.hourly_records",
               "features.vectors", "glm.irls_iterations", "fileio.bytes_written")
ROW_CODEC = ("trips.hourly_to_row", "trips.trip_to_row", "trips.hourly_from_row",
             "trips.trip_from_row")


@dataclass
class Proc:
    command: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(command: str, argv: list[str], log_path: Path, rss_path: Path,
          env: dict) -> Proc:
    """Run one child to completion; its own wall time, CPU time and peak RSS.

    Wall and CPU time come from ``wait4`` on that child alone:
    ``RUSAGE_CHILDREN`` would sum or max over every earlier child as well.
    The peak RSS is the one the child wrote to ``rss_path`` as it ended (see
    ``plain_cmd.py``); ``wait4``'s own figure would include this process's.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 2)])
        killer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    try:
        rss_kb = float(rss_path.read_text())
    except (OSError, ValueError):  # killed, or no /proc: an upper bound instead
        rss_kb = float(usage.ru_maxrss)
    return Proc(command, os.waitstatus_to_exitcode(status), wall,
                usage.ru_utime + usage.ru_stime, rss_kb / 1024.0)


@dataclass
class Bench:
    workload: Workload
    seed: int
    work: Path
    env: dict
    attempted: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)  # (step, command, why)

    @property
    def failed(self) -> int:
        return len({(step, command) for step, command, _ in self.failures})

    def fail(self, step: str, problems: list[tuple[str, str]]) -> None:
        for command, why in problems:
            self.failures.append((step, command, why))
            print(f"FAILED {step} {command}: {why}", file=sys.stderr)

    def run(self, step: str, command: str, args: list[str],
            trace_file: Path | None = None) -> Proc:
        log = self.work / "logs" / f"{step}-{command}.log"
        log.parent.mkdir(exist_ok=True)
        rss = log.with_suffix(".rss")
        rss.unlink(missing_ok=True)
        if trace_file is None:
            argv = [sys.executable, str(HERE / "plain_cmd.py"), str(rss), *args]
        else:
            argv = [sys.executable, str(HERE / "trace_cmd.py"), str(rss), str(trace_file),
                    *args]
        proc = spawn(command, argv, log, rss, self.env)
        self.attempted += 1
        if proc.exit_code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            self.fail(step, [(command, f"exit code {proc.exit_code}: {' '.join(tail)}")])
        return proc

    def setup(self, step: str, out: Path, trace_file: Path | None = None) -> Proc:
        return self.run(step, "synth", self.workload.setup_args(self.seed, out), trace_file)

    def chain(self, step: str, inputs: Path, out: Path, checked: "Inputs") -> list[Proc]:
        procs = [self.run(step, command, args)
                 for command, args in self.workload.chain(self.seed, inputs, out)]
        self.check(step, procs, out, checked)
        return procs

    def paired_chain(self, inputs: Path, out: Path, checked: "Inputs",
                     traces: Path) -> tuple[list[Proc], list[Proc]]:
        """Each command untraced into ``out/plain``, then at once traced into
        ``out/traced``, so both runs of a command see the machine alike."""
        plain, traced = [], []
        for (command, args), (_, traced_args) in zip(
                self.workload.chain(self.seed, inputs, out / "plain"),
                self.workload.chain(self.seed, inputs, out / "traced")):
            plain.append(self.run("plain", command, args))
            traced.append(self.run("traced", command, traced_args,
                                   traces / f"{command}.json"))
        self.check("plain", plain, out / "plain", checked)
        self.check("traced", traced, out / "traced", checked)
        return plain, traced

    def check(self, step: str, procs: list[Proc], out: Path, checked: "Inputs") -> None:
        if all(p.exit_code == 0 for p in procs):
            try:
                self.fail(step, checked.check(out))
            except (OSError, ValueError, KeyError) as exc:
                self.fail(step, [("checks", f"artifacts unreadable: {exc!r}")])


@dataclass
class Inputs:
    """What the chain reads, and what its outputs are checked against."""
    path: Path
    records: int            # events, or feature rows when there are no logs
    devices: set[str]
    driven: set[str] = field(default_factory=set)  # devices with a trip to keep

    def check(self, out: Path) -> list[tuple[str, str]]:
        if self.devices:
            return check_event_chain(out, self.records, self.devices, self.driven)
        return check_model_chain(out, self.records)


def prepare_inputs(bench: Bench, setup_out: Path) -> Inputs:
    shape = bench.workload.shape
    if shape is None:
        with open(setup_out / "features.csv", encoding="utf-8") as f:
            n_rows = sum(1 for line in f if not line.startswith("#")) - 1
        return Inputs(setup_out, n_rows, set())
    inputs = bench.work / "inputs"
    inputs.mkdir()
    logs = device_logs(setup_out / "events.jsonl")
    devices = select_devices(kept_counts(logs, shape), shape)
    n = write_selected(logs, inputs / "events.jsonl", devices, shape.events_per_device)
    return Inputs(inputs, n, set(devices), devices_with_a_trip(inputs / "events.jsonl"))


def run_record(root: Path, seed: int) -> dict:
    """Where and how the numbers were taken; results from different records differ."""
    import ctypes
    import glob
    import hashlib

    import numpy
    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            blas_threads = fn()
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "drivescore").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads,
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                     if k in os.environ},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
        "seed": seed,
    }


def per_command(procs: list[Proc]) -> dict[str, dict[str, float]]:
    """command -> median wall, CPU and RSS over every run of it."""
    out = {}
    for command in dict.fromkeys(p.command for p in procs):
        mine = [p for p in procs if p.command == command]
        out[command] = {"wall_s": median(p.wall_s for p in mine),
                        "cpu_s": median(p.cpu_s for p in mine),
                        "rss_mb": median(p.rss_mb for p in mine)}
    return out


def end_to_end(commands: dict[str, dict[str, float]], reps: list[list[Proc]]) -> dict:
    """The gated metrics: set-up and peak RSS from the per-command medians.

    ``chain_s`` is the mean over repeats of the chain's summed wall time, that
    is, all measured chain time over the number of repeats.  The machine's
    speed wanders by about 20% over seconds; a mean takes in the whole
    measured time, while a median of a few repeats keeps only one of them,
    and varied more between runs.
    """
    chain = [v for c, v in commands.items() if c != "synth"]
    return {
        "setup_s": (commands["synth"]["wall_s"], "s"),
        "chain_s": (fmean(sum(p.wall_s for p in rep) for rep in reps), "s"),
        "peak_rss_mb": (max(v["rss_mb"] for v in chain), "MB"),
    }


def per_layer(traces: Path, traced: list[Proc], untraced: dict[str, dict[str, float]],
              chain_s: float) -> dict:
    """Per-layer metrics from the traced command processes."""
    totals: dict[str, list] = {}
    counts: dict[str, float] = {}
    imports = []
    for proc in traced:
        data = json.loads((traces / f"{proc.command}.json").read_text())
        imports.append(data["import_s"])
        nodes = nodes_from_json(data["nodes"])
        mine = totals_by_name(nodes)
        accounted = sum(s for _, s in mine.values())
        if abs(accounted - nodes[0].duration) > 1e-6:
            raise RuntimeError(f"{proc.command}: self times sum to {accounted}, "
                               f"span is {nodes[0].duration}")
        for name, (calls, self_s) in mine.items():
            t = totals.setdefault(name, [0, 0.0])
            t[0] += calls
            t[1] += self_s
        for k, v in data["counts"].items():
            counts[k] = counts.get(k, 0.0) + v

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def per_event(name, events):
        return 1e6 * self_s(name) / events if events else 0.0

    m = {"cli.import_s": (median(imports), "s")}
    for c in COMMANDS:
        m[f"cli.{c}.wall_s"] = (untraced.get(c, {}).get("wall_s", 0.0), "s")
        m[f"cli.{c}.self_s"] = (self_s(f"cli.{c}"), "s")
        m[f"cli.{c}.rss_mb"] = (untraced.get(c, {}).get("rss_mb", 0.0), "MB")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(s for n, (_, s) in totals.items()
                                    if n.startswith(layer + ".")), "s")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = (totals.get(name, (0, 0.0))[0], "count")
    for name in WORK_COUNTS:
        m[name] = (counts.get(name, 0.0), "B" if name.endswith("bytes_written") else "count")
    m["ingest.parse_event_file.us_per_event"] = (
        per_event("ingest.parse_event_file", counts.get("ingest.events", 0)), "us/event")
    m["trips.aggregate_hourly.us_per_event"] = (
        per_event("trips.aggregate_hourly", counts.get("trips.aggregate_hourly.events", 0)),
        "us/event")
    m["trips.row_codec_s"] = (sum(self_s(n) for n in ROW_CODEC), "s")
    traced_chain = sum(p.wall_s for p in traced if p.command != "synth")
    m["trace.overhead_frac"] = ((traced_chain - chain_s) / chain_s, "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "drivescore" / "cli.py").is_file():
        print(f"error: no drivescore package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    bench = Bench(WORKLOADS[args.workload], args.seed, work, env)
    try:
        return measure(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(bench: Bench, args) -> int:
    record = run_record(Path.cwd(), args.seed)
    work = bench.work

    setups, first = [], None
    for i in range(SETUP_REPS):
        out = work / f"setup{i}"
        setups.append(bench.setup(f"setup{i}", out))
        if setups[-1].exit_code != 0:
            print("error: set-up failed; nothing to measure", file=sys.stderr)
            return 1
        digests = artifact_digests(out)
        if first is None:
            first = digests
        else:
            bench.fail(f"setup{i}", [("synth", why) for _, why in
                                 digest_mismatches(first, digests)])
            shutil.rmtree(out)
    inputs = prepare_inputs(bench, work / "setup0")

    if args.trace:
        traces = work / "traces"
        traces.mkdir()
        synth = bench.setup("traced", work / "traced_synth", traces / "synth.json")
        bench.fail("traced", [("synth", f"traced: {why}") for _, why in digest_mismatches(
            first, artifact_digests(work / "traced_synth"))])
        plain, traced = bench.paired_chain(inputs.path, work / "paired", inputs, traces)
        bench.fail("traced", [(c, f"traced: {why}") for c, why in digest_mismatches(
            artifact_digests(work / "paired" / "plain"),
            artifact_digests(work / "paired" / "traced"))])
        if any(p.exit_code != 0 for p in [synth, *traced]):
            print("error: traced run failed; no per-layer metrics", file=sys.stderr)
            return 1
        reps = [plain]
        commands = per_command(setups + plain)
        e2e = end_to_end(commands, reps)
        metrics = per_layer(traces, [synth, *traced], commands, e2e["chain_s"][0])
    else:
        # Start another repeat while it would end nearer the deadline than not.
        reps, chain_first = [], None
        t0 = time.perf_counter()
        while not reps or (time.perf_counter() - t0 + sum(p.wall_s for p in reps[-1]) / 2
                           < args.seconds):
            out = work / f"rep{len(reps)}"
            reps.append(bench.chain(f"rep{len(reps)}", inputs.path, out, inputs))
            digests = artifact_digests(out)
            if chain_first is None:
                chain_first = digests
            else:
                bench.fail(f"rep{len(reps) - 1}",
                           [(c, f"repeat: {why}") for c, why in
                            digest_mismatches(chain_first, digests)])
            shutil.rmtree(out)
        commands = per_command(setups + [p for rep in reps for p in rep])
        e2e = metrics = end_to_end(commands, reps)

    report(bench, args, record, inputs, e2e, commands, reps, metrics)
    return 0


def report(bench: Bench, args, record: dict, inputs: Inputs, e2e: dict,
           commands: dict, reps: list[list[Proc]], metrics: dict) -> None:
    """Human-readable lines, a results file, then the one-line JSON result."""
    print(f"# run record: {json.dumps(record, sort_keys=True)}")
    print(f"# workload {args.workload}: {inputs.records} input records, "
          f"{len(inputs.devices)} devices ({len(inputs.devices - inputs.driven)} without "
          f"a trip to keep), {len(reps)} chain repeats, "
          f"{bench.attempted} commands, {bench.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    # Not in the result: the end-to-end metrics of a traced run's untraced part,
    # and figures that follow the set-up pool's size or restate chain_s.
    info = {} if metrics is e2e else dict(e2e)
    info |= {"failed_frac": (bench.failed / bench.attempted, "share"),
            "setup_rss_mb": (commands["synth"]["rss_mb"], "MB"),
            ("events_per_s" if inputs.devices else "rows_per_s"):
                (inputs.records / e2e["chain_s"][0], "1/s")}
    for c, v in commands.items():
        info.update({f"{c}_s": (v["wall_s"], "s"), f"{c}_cpu_s": (v["cpu_s"], "s"),
                     f"{c}_rss_mb": (v["rss_mb"], "MB")})
    for name, (value, unit) in info.items():
        print(f"info {name} {value:.6g} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = Path.cwd() / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}.json").write_text(
        json.dumps({"record": record, "result": result, "commands": commands,
                    "repeats": [[asdict(p) for p in rep] for rep in reps],
                    "failures": bench.failures}, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    raise SystemExit(main())
