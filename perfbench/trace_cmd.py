"""Run one drivescore command in this process with its layer calls traced.

Usage: python3 perfbench/trace_cmd.py RSS_FILE TRACE.json COMMAND [ARGS...]

The benchmark starts one such process per command, the same process layout as
the untraced chain, so the traced and untraced wall times compare directly.
Every function that ``drivescore.cli`` imports from a layer module is wrapped
where the CLI looks it up, plus the calls layers make into each other that
dominate model fitting: ``fit_logistic`` (from ``glm`` and ``evaluation``),
``roc_auc`` and ``DesignMatrix.from_rows``.  The command itself is the root
span ``cli.<command>``; its self time is CLI glue outside every layer.
Spans stay in memory and are written to TRACE.json when the command ends,
and the process's peak RSS to RSS_FILE, as ``plain_cmd.py`` does.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

from plain_cmd import write_peak_rss
from spans import Tracer, nodes_to_json

# Called once per row or per event: one aggregate node per parent, not one span per call.
PER_ROW = frozenset({
    "feature_from_row", "feature_to_row", "claim_from_row", "classify_severity",
    "hourly_from_row", "hourly_to_row", "trip_from_row", "trip_to_row",
    "predict_proba", "compute_premium",
})


# Work done per call, read from the arguments or the result: name -> {count: fn}.
COUNTS: dict[str, dict[str, Callable[[tuple, Any], float]]] = {
    "ingest.parse_event_file": {"ingest.events": lambda a, r: r.n_events,
                                "ingest.skipped": lambda a, r: len(r.skipped)},
    "trips.segment_trips": {"trips.trips": lambda a, r: len(r)},
    "trips.aggregate_hourly": {"trips.aggregate_hourly.events": lambda a, r: len(a[0].events),
                               "trips.hourly_records": lambda a, r: len(r)},
    "features.compute_feature_table": {"features.vectors": lambda a, r: len(r)},
    "glm.fit_logistic": {"glm.irls_iterations": lambda a, r: r.n_iter},
    "fileio.atomic_write_text": {"fileio.bytes_written": lambda a, r: len(a[1].encode("utf-8"))},
}


def _counter(name: str):
    tallies = COUNTS.get(name)
    if not tallies:
        return None

    def count(counts, args, result):
        for key, fn in tallies.items():
            counts[key] += fn(args, result)
    return count


def install(tracer: Tracer) -> None:
    """Wrap the layer functions every CLI command reaches."""
    import drivescore.cli as cli
    import drivescore.evaluation as evaluation
    import drivescore.glm as glm

    def wrapped(fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if inspect.isgeneratorfunction(fn):
            return tracer.wrap_iter(name, fn)
        return tracer.wrap(name, fn, per_row=fn.__name__ in PER_ROW,
                           count=_counter(name))

    for attr, obj in list(vars(cli).items()):
        if (inspect.isfunction(obj) and obj.__module__ != cli.__name__
                and obj.__module__.startswith("drivescore.")):
            setattr(cli, attr, wrapped(obj))
    fit = wrapped(glm.fit_logistic)
    glm.fit_logistic = fit
    evaluation.fit_logistic = fit
    evaluation.roc_auc = wrapped(evaluation.roc_auc)
    from_rows = glm.DesignMatrix.from_rows.__func__
    glm.DesignMatrix.from_rows = classmethod(
        tracer.wrap("glm.DesignMatrix.from_rows", from_rows))


def main(argv: list[str]) -> int:
    rss_path, out_path, command = Path(argv[0]), Path(argv[1]), argv[2:]
    t0 = time.perf_counter()
    import drivescore.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.wrap(f"cli.{command[0]}", cli.main)(command)
    finally:
        write_peak_rss(rss_path)
    out_path.write_text(json.dumps({
        "import_s": import_s,
        "nodes": nodes_to_json(tracer.nodes),
        "counts": dict(tracer.counts),
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
