#!/usr/bin/env python3
"""Run `selqa <args>` the way the console script does, and report on it.

Usage: launch.py PROBE_PATH evaluate ...

Stands in for the `selqa` entry point (import selqa.cli, call main). After
the run it writes PROBE_PATH as JSON: the CLOCK_MONOTONIC time at which
selqa.cli was imported and ready to parse flags, the peak RSS of this
process alone, and the exit code. The peak is VmHWM of this process's own
address space: getrusage's ru_maxrss would also count the parent's size at
fork time, and adapter subprocesses are not included either way.
CLOCK_MONOTONIC is shared by all processes, so the parent can subtract its
own spawn time.
"""

import json
import sys
import time

import selqa.cli


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


ready = time.clock_gettime(time.CLOCK_MONOTONIC)
code = selqa.cli.main(sys.argv[2:])
probe = {
    "ready": ready,
    "peak_rss_kb": peak_rss_kb(),
    "exit": code,
}
with open(sys.argv[1], "w", encoding="utf-8") as f:
    json.dump(probe, f)
sys.exit(code)
