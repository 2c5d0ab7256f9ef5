#!/usr/bin/env python3
"""Word-set Jaccard similarity adapter that counts its own work.

Speaks selqa's single-pair line protocol: one {"a": ..., "b": ...} request
per line in, one {"score": ...} line out. Scores like the test suite's
`line_scorer.py jaccard`.

Usage: jaccard_scorer.py [SIDECAR_PREFIX]

With a prefix, it writes SIDECAR_PREFIX.<pid>.json at end of input: the
request count, distinct (a, b) pairs, diagonal requests (a == b) and the
seconds spent between reading a request and flushing its reply. The counts
are taken on the far side of the pipe, outside the program under test.
"""

import json
import os
import sys
import time


def main() -> int:
    prefix = sys.argv[1] if len(sys.argv) > 1 else None
    requests = diagonal = 0
    pairs = set()
    busy = 0.0
    for raw in sys.stdin:
        start = time.perf_counter()
        raw = raw.strip()
        if not raw:
            continue
        request = json.loads(raw)
        a, b = request["a"], request["b"]
        wa, wb = set(a.split()), set(b.split())
        score = len(wa & wb) / len(wa | wb) if wa | wb else 0.0
        sys.stdout.write(json.dumps({"score": score}) + "\n")
        sys.stdout.flush()
        requests += 1
        diagonal += a == b
        pairs.add((a, b))
        busy += time.perf_counter() - start
    if prefix is not None:
        counts = {
            "requests": requests,
            "distinct_pairs": len(pairs),
            "diag_pairs": diagonal,
            "busy_s": busy,
        }
        with open(f"{prefix}.{os.getpid()}.json", "w", encoding="utf-8") as f:
            json.dump(counts, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
