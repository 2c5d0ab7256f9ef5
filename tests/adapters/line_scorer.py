#!/usr/bin/env python3
"""Scriptable similarity adapter for tests.

Speaks the line protocol: reads {"a": ..., "b": ...} per line, answers
{"score": ...}. The mode argument selects the behavior:

    em          1.0 when the two strings are equal, else 0.0
    jaccard     word-set Jaccard overlap
    const:<x>   always <x> (floats outside [0, 1] test the range check)
    json:<v>    always the JSON value <v> as the score (e.g. true)
    error       always {"error": "..."}
    garbage     non-JSON reply
    die         exit before answering the first request
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "em"
    for raw in sys.stdin:
        raw = raw.strip()
        if not raw:
            continue
        if mode == "die":
            return 7
        if mode == "garbage":
            sys.stdout.write("not json at all\n")
            sys.stdout.flush()
            continue
        if mode == "error":
            sys.stdout.write(json.dumps({"error": "scorer exploded"}) + "\n")
            sys.stdout.flush()
            continue
        request = json.loads(raw)
        a, b = request["a"], request["b"]
        if mode == "em":
            score = 1.0 if a == b else 0.0
        elif mode == "jaccard":
            wa, wb = set(a.split()), set(b.split())
            score = len(wa & wb) / len(wa | wb) if wa | wb else 0.0
        elif mode.startswith("const:"):
            score = float(mode.split(":", 1)[1])
        elif mode.startswith("json:"):
            score = json.loads(mode.split(":", 1)[1])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        sys.stdout.write(json.dumps({"score": score}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
