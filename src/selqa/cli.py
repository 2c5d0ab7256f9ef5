"""Command-line pipeline: score -> classify -> report.

Subcommands: evaluate (full calibration report), score (per-record JSONL),
sweep (threshold operating points), synth (generate a synthetic dump).
Exit codes: 0 success, 1 usage error, 2 data error, 3 adapter error.

Records are scored one after another, in input order. A record the loader
accepts but a scoring method cannot score (no greedy logprobs, no samples,
sample probabilities summing above 1) is a data error naming the file, the
line and the question id. Outputs are written atomically (temp file +
rename) and are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Sequence

from . import io as selqa_io
from . import metrics, scoring
from .correctness import CorrectnessClassifier
from .errors import AdapterError, DataError, UsageError
from .similarity import BleuSimilarity, SimilarityFn
from .records import GoldRecord, PredictionRecord, ScoredPrediction

_EXIT_USAGE = 1
_EXIT_DATA = 2
_EXIT_ADAPTER = 3

_CLASSIFIER_CHOICES = ("em", "bleu-threshold", "adapter-threshold")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selqa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser("evaluate", help="full calibration report from a dump + gold")
    _add_input_flags(evaluate, gold_required=True)
    _add_scoring_flags(evaluate)
    _add_classifier_flags(evaluate)
    evaluate.add_argument("--acc-targets", default="60,70,80",
                          help="comma-separated accuracy targets in (0, 100]")
    evaluate.add_argument("--bins", type=int, default=10, help="calibration-error bins")
    evaluate.add_argument("--format", choices=("markdown", "json", "csv"),
                          default="markdown")
    evaluate.add_argument("--out", help="report path (default: stdout)")
    evaluate.add_argument("--curves-out",
                          help="directory for per-method risk-coverage CSVs")
    evaluate.set_defaults(func=cmd_evaluate)

    score = sub.add_parser("score", help="per-record scores as JSONL")
    _add_input_flags(score, gold_required=False)
    _add_scoring_flags(score)
    _add_classifier_flags(score)
    score.add_argument("--out", help="output path (default: stdout)")
    score.set_defaults(func=cmd_score)

    sweep = sub.add_parser("sweep", help="threshold sweep: tau, coverage, accuracy")
    _add_input_flags(sweep, gold_required=True)
    _add_scoring_flags(sweep)
    _add_classifier_flags(sweep)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    synth_cmd = sub.add_parser("synth", help="generate a synthetic dump with known calibration")
    synth_cmd.add_argument("--out", required=True,
                           help="output directory (predictions.jsonl + gold.json)")
    synth_cmd.add_argument("--n", type=int, required=True, help="number of questions")
    synth_cmd.add_argument("--seed", type=int, default=0)
    synth_cmd.add_argument("--miscalibration", type=float, default=0.0,
                           help="shift between confidence and correctness rate, in [-1, 1]")
    synth_cmd.add_argument("--cluster-rate", type=float, default=0.0,
                           help="fraction of records whose agreeing samples are paraphrases")
    synth_cmd.add_argument("--abstain-rate", type=float, default=0.0)
    synth_cmd.add_argument("--samples-per-q", type=int, default=10)
    synth_cmd.set_defaults(func=cmd_synth)

    return parser


def _add_input_flags(parser: argparse.ArgumentParser, gold_required: bool) -> None:
    parser.add_argument("--predictions", required=True, help="prediction dump (JSONL)")
    parser.add_argument("--gold", required=gold_required, help="gold annotations (JSON)")


def _add_scoring_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--methods", default=",".join(scoring.BUILTIN_METHODS),
                        help="comma-separated scoring methods")
    parser.add_argument("--sim-mode", choices=("word", "char"), default="word",
                        help="token granularity for the built-in similarity")
    parser.add_argument("--adapter-cmd",
                        help="launch command for an external similarity adapter")
    parser.add_argument("--adapter-name", default="adapter",
                        help="name for the external similarity (labels avg-<name>)")


def _add_classifier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--classifier", choices=_CLASSIFIER_CHOICES, default="em")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="similarity threshold for non-em classifiers")


def _parse_methods(args: argparse.Namespace) -> list[str]:
    requested = [m.strip() for m in args.methods.split(",") if m.strip()]
    sim_name = args.adapter_name if args.adapter_cmd else "bleu"
    # Validates names before any file is opened.
    try:
        return scoring.resolve_method_names(requested, sim_name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_targets(raw: str) -> list[float]:
    try:
        targets = [float(t) for t in raw.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --acc-targets: {raw!r}") from exc
    if not targets or any(not 0.0 < t <= 100.0 for t in targets):
        raise UsageError("--acc-targets values must lie in (0, 100]")
    return targets


def _build_similarity(args: argparse.Namespace) -> SimilarityFn:
    if args.adapter_cmd:
        from .adapter import ExternalSimilarity

        return ExternalSimilarity(args.adapter_cmd, name=args.adapter_name)
    return BleuSimilarity(mode=args.sim_mode)


def _build_classifier(args: argparse.Namespace, fn: SimilarityFn) -> CorrectnessClassifier:
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError("--threshold must lie in [0, 1]")
    if args.classifier == "em":
        return CorrectnessClassifier.exact_match()
    if args.classifier == "bleu-threshold":
        return CorrectnessClassifier.bleu_threshold(args.threshold, mode=args.sim_mode)
    if args.adapter_cmd is None:
        raise UsageError("--classifier adapter-threshold requires --adapter-cmd")
    return CorrectnessClassifier.adapter_threshold(fn, args.threshold)


def _score_pairs(
    pairs: Sequence[tuple[PredictionRecord, GoldRecord | None]],
    score_one: Callable[[PredictionRecord, GoldRecord | None], object],
    predictions_path: str,
) -> list:
    """Score (record, gold) pairs one after another, in input order.

    A ValueError from scoring becomes a DataError naming the record's line
    and question.
    """
    rows = []
    for record, gold in pairs:
        try:
            rows.append(score_one(record, gold))
        except ValueError as exc:
            where = "" if record.line is None else f"line {record.line}: "
            raise DataError(
                f"{predictions_path}: {where}question_id {record.question_id!r}: {exc}"
            ) from exc
    return rows


def _write_atomic(data: bytes, out: str | None) -> None:
    """Write to a temp file and rename, so failures leave nothing behind."""
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".selqa-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_joined(args: argparse.Namespace):
    predictions = selqa_io.load_predictions(args.predictions)
    gold = selqa_io.load_gold(args.gold)
    pairs, summary = selqa_io.join(predictions, gold)
    if not summary.clean:
        print(f"join: {summary.describe()}", file=sys.stderr)
    if not pairs:
        raise DataError("no overlapping question ids between predictions and gold")
    return pairs


def _score_joined(
    args: argparse.Namespace, methods: Sequence[str]
) -> tuple[list[ScoredPrediction], CorrectnessClassifier, str]:
    """Join predictions with gold and score every pair.

    Returns the scored rows, the classifier and the similarity's name.
    """
    with _build_similarity(args) as fn:
        classifier = _build_classifier(args, fn)
        pairs = _load_joined(args)
        scored = _score_pairs(
            pairs,
            lambda record, gold: scoring.score_all(record, gold, methods, fn, (classifier,)),
            args.predictions,
        )
    return scored, classifier, fn.name


def cmd_evaluate(args: argparse.Namespace) -> int:
    methods = _parse_methods(args)
    targets = _parse_targets(args.acc_targets)
    if args.bins < 1:
        raise UsageError("--bins must be >= 1")
    scored, classifier, sim_name = _score_joined(args, methods)
    meta = {"classifier": classifier.name, "bins": str(args.bins), "similarity": sim_name}
    if classifier.name != "em":
        meta["threshold"] = repr(classifier.threshold)
    report = metrics.build_report(
        scored, methods, targets, classifier.name, n_bins=args.bins, meta=meta
    )
    outputs: list[tuple[bytes, str | None]] = [
        (selqa_io.emit_report(report, args.format), args.out)
    ]
    if args.curves_out:
        curve_dir = Path(args.curves_out)
        curve_dir.mkdir(parents=True, exist_ok=True)
        for method in methods:
            points = metrics.method_points(scored, method, classifier.name)
            curve = metrics.risk_coverage_curve(points) if points else []
            outputs.append(
                (selqa_io.emit_curve(curve), str(curve_dir / f"{_safe_name(method)}.csv"))
            )
    # Everything computed before anything is written: no partial artifacts.
    for data, out in outputs:
        _write_atomic(data, out)
    return 0


def _safe_name(method: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in method)


def cmd_score(args: argparse.Namespace) -> int:
    methods = _parse_methods(args)
    if args.gold:
        scored, _, _ = _score_joined(args, methods)
        rows = [
            {
                "question_id": s.question_id,
                "triggered": s.triggered,
                "scores": s.scores,
                "correct": s.correct,
                "answerable": s.answerable,
            }
            for s in scored
        ]
    else:
        with _build_similarity(args) as fn:
            records = selqa_io.load_predictions(args.predictions)
            rows = _score_pairs(
                [(record, None) for record in records],
                lambda record, _: {
                    "question_id": record.question_id,
                    "triggered": scoring.trigger_decision(record.greedy),
                    "scores": scoring.score_record(record, methods, fn),
                },
                args.predictions,
            )
    lines = [json.dumps(row, ensure_ascii=False, separators=(",", ":")) for row in rows]
    _write_atomic(("\n".join(lines) + "\n").encode("utf-8") if lines else b"", args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    methods = _parse_methods(args)
    scored, classifier, _ = _score_joined(args, methods)
    if not any(s.triggered for s in scored):
        raise DataError("nothing triggered; no operating points to sweep")
    sweeps = {
        method: metrics.threshold_sweep(metrics.method_points(scored, method, classifier.name))
        for method in methods
    }
    _write_atomic(selqa_io.emit_sweep(sweeps, args.format), args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    # Only synth needs numpy, so the other subcommands start without it.
    from . import synth

    try:
        config = synth.SynthConfig(
            n=args.n,
            seed=args.seed,
            miscalibration_shift=args.miscalibration,
            paraphrase_cluster_rate=args.cluster_rate,
            abstain_rate=args.abstain_rate,
            samples_per_q=args.samples_per_q,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    predictions, gold = synth.generate(config)
    selqa_io.dump_predictions(predictions, str(out_dir / "predictions.jsonl"))
    selqa_io.dump_gold(gold, str(out_dir / "gold.json"))
    echo = {
        "n": config.n,
        "seed": config.seed,
        "miscalibration_shift": config.miscalibration_shift,
        "paraphrase_cluster_rate": config.paraphrase_cluster_rate,
        "abstain_rate": config.abstain_rate,
        "samples_per_q": config.samples_per_q,
        "rng": "pcg64",
        "out": str(out_dir),
    }
    print(json.dumps(echo, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except AdapterError as exc:
        print(f"adapter error: {exc}", file=sys.stderr)
        return _EXIT_ADAPTER
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
