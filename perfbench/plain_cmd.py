"""Run one drivescore command in this process, as ``python3 -m drivescore``
does, and write its peak RSS in kB to RSS_FILE when it ends.

Usage: python3 perfbench/plain_cmd.py RSS_FILE COMMAND [ARGS...]

The peak is ``VmHWM`` from ``/proc/self/status``: the high-water mark of this
process's memory since its exec.  ``ru_maxrss`` from ``wait4`` cannot give it:
Linux carries the spawning process's high-water mark across exec into the
child's, so every child of a benchmark process that holds 80 MB would report
at least 80 MB.
"""
from __future__ import annotations

import runpy
import sys
from pathlib import Path


def peak_rss_kb() -> int | None:
    """This process's peak resident set since exec, or None off Linux."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def write_peak_rss(path: Path) -> None:
    kb = peak_rss_kb()
    if kb is not None:
        path.write_text(str(kb))


def main() -> None:
    rss_path = Path(sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    try:
        runpy.run_module("drivescore", run_name="__main__", alter_sys=True)
    finally:
        write_peak_rss(rss_path)


if __name__ == "__main__":
    main()
