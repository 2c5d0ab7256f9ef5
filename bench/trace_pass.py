#!/usr/bin/env python3
"""One in-process pass of the evaluate pipeline, rebuilt from public calls.

Usage: trace_pass.py plain|traced WORK_DIR evaluate --predictions ... [flags]

Takes the same arguments as the CLI run and parses them with the CLI's own
parser, so every default is the CLI's. Both modes time the stages (load
predictions, load gold, join, score, report, curves, emit). `plain` scores
each record with one `score_all` call, as `selqa evaluate --jobs 1` does.
`traced` also splits scoring into one `score_record(p, [m], fn)` call per
method, passes a timing `SimilarityFn` wrapper as `fn`, times every
correctness verdict, normalizes every raw answer text once, and reads the
counting scorer's sidecar when an adapter is in use. The difference between
the two modes' pass times is the tracing overhead.

Prints one JSON object: the pass time, the sha256 of the report and of each
curve file (named as the CLI names them), and the layer measurements.
Starts in a fresh process, like the CLI, so no cache carries over between
passes.
"""

import time

_start = time.perf_counter()
import selqa.cli  # noqa: E402  (timed: this is the evaluate process's set-up)

CLI_IMPORT_S = time.perf_counter() - _start

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from selqa import io as selqa_io  # noqa: E402
from selqa import metrics, scoring  # noqa: E402
from selqa.adapter import ExternalSimilarity  # noqa: E402
from selqa.correctness import CorrectnessClassifier  # noqa: E402
from selqa.records import ScoredPrediction  # noqa: E402
from selqa.similarity import BleuSimilarity, SimilarityFn  # noqa: E402
from selqa.textnorm import normalize_answer  # noqa: E402

clock = time.perf_counter

_METHOD_LAYER = {
    "likelihood": "scoring.likelihood_s",
    "repetition": "scoring.repetition_s",
    "diversity": "scoring.diversity_s",
}


class TimedSimilarity(SimilarityFn):
    """Forwards to another SimilarityFn and records every call."""

    def __init__(self, inner: SimilarityFn) -> None:
        self.inner = inner
        self.name = inner.name
        self.durations: list[float] = []
        self.pairs: set[tuple[str, str]] = set()
        self.diagonal = 0
        self.busy = 0.0

    def similarity(self, candidate: str, reference: str) -> float:
        start = clock()
        score = self.inner.similarity(candidate, reference)
        elapsed = clock() - start
        self.durations.append(elapsed)
        self.busy += elapsed
        self.pairs.add((candidate, reference))
        self.diagonal += candidate == reference
        return score


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def safe_name(method: str) -> str:
    """The CLI's curve file stem for a method."""
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in method)


def score_traced(pairs, methods, score_fn, classifier, layers):
    scored = []
    per_method = dict.fromkeys(methods, 0.0)
    avg_self = verdict_s = 0.0
    record_us = []
    for record, gold in pairs:
        triggered = scoring.trigger_decision(record.greedy)
        scores = {}
        record_start = clock()
        for method in methods:
            sim_before = score_fn.busy
            start = clock()
            scores.update(scoring.score_record(record, [method], score_fn))
            elapsed = clock() - start
            per_method[method] += elapsed
            if method not in _METHOD_LAYER:
                avg_self += elapsed - (score_fn.busy - sim_before)
        record_us.append((clock() - record_start) * 1e6)
        correct = {}
        if triggered:
            start = clock()
            correct[classifier.name] = classifier.verdict(record.greedy.text, gold)
            verdict_s += clock() - start
        scored.append(
            ScoredPrediction(record.question_id, triggered, scores, correct, gold.answerable)
        )
    for method, seconds in per_method.items():
        layers[_METHOD_LAYER.get(method, "scoring.avg_sim_s")] = seconds
    if any(m not in _METHOD_LAYER for m in methods):
        layers["scoring.avg_sim_self_s"] = avg_self
    layers["scoring.busy_s"] = sum(per_method.values())
    layers["scoring.record_p50_us"] = percentile(record_us, 0.50)
    layers["scoring.record_p99_us"] = percentile(record_us, 0.99)
    layers["correctness.verdict_s"] = verdict_s
    return scored


def run_pass(traced: bool, work_dir: Path, argv: list[str]) -> dict:
    layers: dict[str, float] = {"cli.import_s": CLI_IMPORT_S}
    pass_start = clock()
    args = selqa.cli.build_parser().parse_args(argv)
    layers["cli.parse_s"] = clock() - pass_start
    sim_name = args.adapter_name if args.adapter_cmd else "bleu"
    methods = scoring.resolve_method_names(
        [m.strip() for m in args.methods.split(",") if m.strip()], sim_name
    )
    targets = [float(t) for t in args.acc_targets.split(",") if t.strip()]
    sidecar = work_dir / f"scorer-{os.getpid()}"
    if args.adapter_cmd:
        command = shlex.split(args.adapter_cmd) + ([str(sidecar)] if traced else [])
        start = clock()
        inner = ExternalSimilarity(command, name=args.adapter_name)
        layers["adapter.launch_s"] = clock() - start
    else:
        inner = BleuSimilarity(mode=args.sim_mode)
    score_fn = TimedSimilarity(inner) if traced else inner
    verdict_fn = TimedSimilarity(inner) if traced else inner
    if args.classifier == "em":
        classifier = CorrectnessClassifier.exact_match()
    elif args.classifier == "adapter-threshold":
        classifier = CorrectnessClassifier.adapter_threshold(verdict_fn, args.threshold)
    else:
        raise SystemExit(f"trace pass does not model --classifier {args.classifier}")

    try:
        start = clock()
        predictions = selqa_io.load_predictions(args.predictions)
        layers["io.load_predictions_s"] = clock() - start
        start = clock()
        gold = selqa_io.load_gold(args.gold)
        layers["io.load_gold_s"] = clock() - start
        start = clock()
        pairs, _ = selqa_io.join(predictions, gold)
        layers["io.join_s"] = clock() - start
        if traced:
            scored = score_traced(pairs, methods, score_fn, classifier, layers)
        else:
            start = clock()
            scored = [scoring.score_all(p, g, methods, inner, (classifier,)) for p, g in pairs]
            layers["scoring.busy_s"] = clock() - start
    finally:
        inner.close()

    meta = {"classifier": classifier.name, "bins": str(args.bins), "similarity": inner.name}
    if classifier.name != "em":
        meta["threshold"] = repr(classifier.threshold)
    start = clock()
    report = metrics.build_report(
        scored, methods, targets, classifier.name, n_bins=args.bins, meta=meta
    )
    layers["metrics.build_report_s"] = clock() - start
    start = clock()
    triggered = [s for s in scored if s.triggered]
    curves = {}
    for method in methods:
        points = [
            metrics.EvalPoint(s.scores[method], s.correct[classifier.name], s.question_id)
            for s in triggered
        ]
        curves[method] = metrics.risk_coverage_curve(points) if points else []
    layers["metrics.curve_s"] = clock() - start
    layers["metrics.points"] = len(triggered) * len(methods)
    start = clock()
    outputs = {"report": selqa_io.emit_report(report, args.format)}
    for method, curve in curves.items():
        outputs[f"{safe_name(method)}.csv"] = selqa_io.emit_curve(curve)
    layers["io.emit_s"] = clock() - start
    total_s = clock() - pass_start

    layers["io.records"] = len(pairs)
    layers["io.input_mb"] = (
        os.path.getsize(args.predictions) + os.path.getsize(args.gold)
    ) / 2**20
    if traced:
        layers.update(similarity_layers(score_fn, verdict_fn, args.classifier == "em"))
        layers.update(textnorm_layers(pairs))
        if args.adapter_cmd:
            layers.update(adapter_layers(work_dir, sidecar, score_fn, verdict_fn))
    return {
        "total_s": total_s,
        "outputs": {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()},
        "layers": layers,
    }


def similarity_layers(score_fn, verdict_fn, exact_match: bool) -> dict:
    fns = (score_fn,) if exact_match else (score_fn, verdict_fn)
    out = {
        "similarity.calls": sum(len(f.durations) for f in fns),
        "similarity.distinct_pairs": len(set().union(*(f.pairs for f in fns))),
        "similarity.diag_calls": sum(f.diagonal for f in fns),
        "correctness.sim_calls": 0 if exact_match else len(verdict_fn.durations),
    }
    busy = sum(f.busy for f in fns)
    if busy:
        out["similarity.busy_s"] = busy
    return out


def textnorm_layers(pairs) -> dict:
    texts = [
        text
        for record, gold in pairs
        for text in (
            record.greedy.text,
            *(s.text for s in record.samples),
            *(a.answer for a in gold.annotations),
        )
    ]
    start = clock()
    for text in texts:
        normalize_answer(text)
    return {
        "textnorm.normalize_s": clock() - start,
        "textnorm.texts": len(texts),
        "textnorm.distinct": len(set(texts)),
    }


def adapter_layers(work_dir: Path, sidecar: Path, score_fn, verdict_fn) -> dict:
    # One scorer process (the default pool of one connection) wrote one file;
    # it is removed after reading so a later pass cannot count it again.
    counts = []
    for path in work_dir.glob(f"{sidecar.name}.*.json"):
        counts.append(json.loads(path.read_text()))
        path.unlink()
    if not counts:
        raise SystemExit("the counting scorer wrote no sidecar")
    rtt_us = [d * 1e6 for d in score_fn.durations + verdict_fn.durations]
    return {
        "adapter.round_trips": sum(c["requests"] for c in counts),
        "adapter.distinct_pairs": sum(c["distinct_pairs"] for c in counts),
        "adapter.diag_pairs": sum(c["diag_pairs"] for c in counts),
        "adapter.scorer_busy_s": sum(c["busy_s"] for c in counts),
        "adapter.rtt_p50_us": percentile(rtt_us, 0.50),
        "adapter.rtt_p99_us": percentile(rtt_us, 0.99),
    }


def main() -> int:
    mode, work_dir, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    if mode not in ("plain", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(run_pass(mode == "traced", work_dir, argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
