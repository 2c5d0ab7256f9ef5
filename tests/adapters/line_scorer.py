#!/usr/bin/env python3
"""Scriptable similarity adapter for tests.

Speaks the line protocol: reads {"a": ..., "b": ...} per line, answers
{"score": ...}. Usage: line_scorer.py [MODE [REQUEST_LOG]]. The mode
selects the behavior:

    em                1.0 when the two strings are equal, else 0.0
    jaccard           word-set Jaccard overlap
    const:<x>         always <x> (floats outside [0, 1] test the range check)
    json:<v>          always the JSON value <v> as the score (e.g. true)
    raw:<path>        always the text of the file <path>, verbatim, as the
                      whole reply line (for replies too long for argv)
    pad:<n>           jaccard, each reply padded with n more bytes
    error             always {"error": "..."}
    garbage           non-JSON reply
    die               exit before answering the first request
    <fault>-after:<n> jaccard for the first n requests, then the fault
                      (error, garbage or die)

With REQUEST_LOG, each request line is appended to that file before its
reply is written, so the requests a test sees counted are the ones the
scorer received.
"""

from __future__ import annotations

import json
import sys

FAULTS = ("error", "garbage", "die")


def jaccard(a: str, b: str) -> float:
    wa, wb = set(a.split()), set(b.split())
    return len(wa & wb) / len(wa | wb) if wa | wb else 0.0


def reply(mode: str, request: dict) -> dict:
    a, b = request["a"], request["b"]
    if mode == "em":
        return {"score": 1.0 if a == b else 0.0}
    if mode == "jaccard" or mode.startswith(FAULTS):
        return {"score": jaccard(a, b)}
    if mode.startswith("pad:"):
        return {"score": jaccard(a, b), "pad": "x" * int(mode.split(":", 1)[1])}
    if mode.startswith("const:"):
        return {"score": float(mode.split(":", 1)[1])}
    if mode.startswith("json:"):
        return {"score": json.loads(mode.split(":", 1)[1])}
    raise SystemExit(f"unknown mode {mode!r}")


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "em"
    log = open(sys.argv[2], "a", encoding="utf-8") if len(sys.argv) > 2 else None
    fault, _, after = mode.partition("-after:")
    healthy = int(after or 0) if fault in FAULTS else None
    answered = 0
    for raw in sys.stdin:
        raw = raw.strip()
        if not raw:
            continue
        if log is not None:
            log.write(raw + "\n")
            log.flush()
        if healthy is not None and answered >= healthy:
            if fault == "die":
                return 7
            line = "not json at all" if fault == "garbage" else json.dumps(
                {"error": "scorer exploded"})
        elif mode.startswith("raw:"):
            with open(mode.split(":", 1)[1], encoding="utf-8") as f:
                line = f.read()
        else:
            line = json.dumps(reply(mode, json.loads(raw)))
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
        answered += 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
