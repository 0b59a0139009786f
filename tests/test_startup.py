"""What each command's process imports.

Every command runs as a process of its own, so the layers it imports are
start-up time it pays on every call.  Each command below runs as
``python -X importtime -m drivescore ...`` on small inputs; the import log
names every module the process loaded.

Digests use CPython's built-in SHA-256 (``fileio.sha256``), so no command
loads OpenSSL's libcrypto, 3.6 MB of resident memory, through ``hashlib``.
synth, fit and evaluate still load it: they draw from ``numpy.random``,
whose ``bit_generator`` imports ``secrets``, which imports ``hmac``, which
imports ``_hashlib``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drivescore
from conftest import run_cli

SRC = Path(drivescore.__file__).resolve().parents[1]

NUMPY_FREE = ("parse", "label", "premium", "--help")
NUMPY_RANDOM = ("synth", "fit", "evaluate")  # each imports _hashlib through numpy.random


@pytest.fixture(scope="module")
def inputs(small_pop, tmp_path_factory):
    """small_pop's event log and claims, a book every target fits on, and
    the hourly, trips and scores files later commands read."""
    d = tmp_path_factory.mktemp("startup")
    assert run_cli("synth", "--n", 400, "--weeks", 8, "--seed", 0,
                   "--out-dir", d / "book") == 0
    assert run_cli("aggregate", "--events", small_pop / "events.jsonl", "--out-dir", d) == 0
    assert run_cli("score", "--model", "paper-reference",
                   "--features", small_pop / "features.csv", "--out-dir", d) == 0
    return small_pop, d


def command_args(command: str, pop: Path, made: Path) -> list:
    book = made / "book"
    model_inputs = ["--features", book / "features.csv", "--claims", book / "claims.csv"]
    return {
        "synth": ["--n", 20, "--weeks", 1, "--seed", 0, "--logs"],
        "parse": ["--events", pop / "events.jsonl"],
        "aggregate": ["--events", pop / "events.jsonl"],
        "features": ["--hourly", made / "hourly.csv", "--trips", made / "trips.csv"],
        "label": ["--claims", pop / "claims.csv"],
        "fit": model_inputs,
        "evaluate": model_inputs,
        "ablate": model_inputs,
        "report": model_inputs,
        "score": ["--model", "paper-reference", "--features", pop / "features.csv"],
        "premium": ["--scores", made / "scores.csv", "--loss", 40000],
    }[command]


def imported_modules(args: list, cwd: Path) -> set[str]:
    """Every module a ``python -m drivescore`` process with these arguments loads."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "drivescore", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


@pytest.mark.parametrize("command", [
    "synth", "parse", "aggregate", "features", "label", "fit", "evaluate",
    "ablate", "report", "score", "premium", "--help"])
def test_command_imports_only_what_it_calls(inputs, tmp_path, command):
    if command == "--help":
        args = ["--help"]
    else:
        args = [command, *command_args(command, *inputs), "--out-dir", tmp_path]
    modules = imported_modules(args, tmp_path)
    assert "drivescore.cli" in modules
    assert ("numpy" in modules) is (command not in NUMPY_FREE)
    assert "numpy.ma" not in modules  # 10-15 ms to import, and nothing calls it
    assert ("_hashlib" in modules) is (command in NUMPY_RANDOM)
    assert ("drivescore.synthgen" in modules) is (command == "synth")
    assert ("drivescore.trips" in modules) is (command in {"synth", "aggregate", "features"})
