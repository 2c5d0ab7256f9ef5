#!/usr/bin/env python3
"""Benchmark of `selqa evaluate`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads: synth-default, high-vocab, load-heavy, adapter-jaccard (see
bench/RATIONALE.md), or `all` to run them round-robin. The inputs are
generated from --seed.

--trace 0 runs `selqa evaluate` as a child process again and again for S
seconds per workload, checks every run's outputs, and prints end-to-end
metrics (medians over runs). --trace 1 makes one CLI reference run, then
alternates untraced and traced in-process passes of the same pipeline for
S seconds and prints per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Without the program's sources
under src/ it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "selqa" / "cli.py").is_file():
        print(f"no selqa sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
