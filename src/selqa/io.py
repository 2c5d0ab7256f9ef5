"""File formats: prediction dumps (JSONL), gold annotations (JSON), reports.

Prediction dumps are one JSON object per line with fixed key order
(question_id, greedy, samples, meta), so re-serializing loaded records
reproduces the file byte for byte. Gold files are a single JSON array in the
shape of crowd-sourced VQA annotation releases: per-annotation answerable
flags default from the record-level flag when absent, and the record-level
flag is the OR of the annotation flags when only those exist.

All emission is byte-deterministic. Human formats (csv, markdown) round
floats to 4 decimals; the canonical json report keeps full precision so a
report round-trips exactly through emit_report/parse_report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DuplicateKeyError, ParseError
from .metrics import RiskCoveragePoint, SweepRow
from .records import (
    CalibrationReport,
    GoldAnnotation,
    GoldRecord,
    MethodMetrics,
    PredictionRecord,
    SampledAnswer,
    validate_record,
)

# ---------------------------------------------------------------------------
# prediction dumps (JSONL)


def _prediction_to_obj(record: PredictionRecord) -> dict:
    obj = {
        "question_id": record.question_id,
        "greedy": _answer_to_obj(record.greedy),
        "samples": [_answer_to_obj(s) for s in record.samples],
    }
    if record.meta is not None:
        obj["meta"] = dict(record.meta)
    return obj


def _answer_to_obj(answer: SampledAnswer) -> dict:
    return {"text": answer.text, "logprobs": list(answer.logprobs)}


def dump_predictions(records: Sequence[PredictionRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for record in records:
            obj = _prediction_to_obj(record)
            f.write(json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n")


def load_predictions(path: str) -> list[PredictionRecord]:
    """Parse and validate a prediction dump, preserving file order.

    Errors carry the offending line number, and each record keeps its line.
    Lines are decoded one at a time, so invalid UTF-8 is reported at its line.
    """
    records = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            where = f"line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, where, f"invalid UTF-8: {exc}") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, where, f"invalid JSON: {exc.msg}") from exc
            try:
                record = _prediction_from_obj(obj, lineno)
            except KeyError as exc:
                raise ParseError(path, where, f"missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ParseError(path, where, str(exc)) from exc
            violations = validate_record(record)
            if violations:
                raise ParseError(path, where, "; ".join(violations))
            records.append(record)
    return records


def _prediction_from_obj(obj: dict, line: int) -> PredictionRecord:
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    qid = _expect_str(obj, "question_id")
    greedy = _answer_from_obj(obj["greedy"], "greedy")
    raw_samples = obj.get("samples", [])
    if not isinstance(raw_samples, list):
        raise ValueError("samples is not an array")
    samples = tuple(
        _answer_from_obj(s, f"samples[{i}]") for i, s in enumerate(raw_samples)
    )
    meta = obj.get("meta")
    if meta is not None:
        if not isinstance(meta, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
        ):
            raise ValueError("meta must map strings to strings")
    return PredictionRecord(
        question_id=qid, greedy=greedy, samples=samples, meta=meta, line=line
    )


def _answer_from_obj(obj: object, where: str) -> SampledAnswer:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError(f"{where}.text is not a string")
    logprobs = obj.get("logprobs", [])
    if not isinstance(logprobs, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in logprobs
    ):
        raise ValueError(f"{where}.logprobs is not an array of numbers")
    return SampledAnswer(text=text, logprobs=tuple(float(v) for v in logprobs))


def _expect_str(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} is not a string")
    return value


# ---------------------------------------------------------------------------
# gold annotations (JSON array)


def _gold_to_obj(record: GoldRecord) -> dict:
    return {
        "question_id": record.question_id,
        "answers": [
            {
                "answer": a.answer,
                **({"answer_confidence": a.answer_confidence} if a.answer_confidence else {}),
                "answerable": a.answerable,
            }
            for a in record.annotations
        ],
        "answerable": record.answerable,
    }


def dump_gold(records: Sequence[GoldRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump([_gold_to_obj(r) for r in records], f, ensure_ascii=False, indent=1)
        f.write("\n")


def load_gold(path: str) -> list[GoldRecord]:
    """Parse a gold file, deriving answerability flags where absent."""
    try:
        with open(path, "rb") as f:
            parsed = json.loads(f.read().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"byte {exc.start}", f"invalid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        # exc.pos indexes the decoded characters; the location names a byte.
        offset = len(exc.doc[: exc.pos].encode("utf-8"))
        raise ParseError(path, f"byte {offset}", f"invalid JSON: {exc.msg}") from exc
    if not isinstance(parsed, list):
        raise ParseError(path, "top level", "gold file is not a JSON array")
    records = []
    for i, obj in enumerate(parsed):
        where = f"record {i}"
        try:
            records.append(_gold_from_obj(obj))
        except KeyError as exc:
            raise ParseError(path, where, f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(path, where, str(exc)) from exc
    return records


def _gold_from_obj(obj: dict) -> GoldRecord:
    if not isinstance(obj, dict):
        raise ValueError("gold record is not a JSON object")
    qid = _expect_str(obj, "question_id")
    answers = obj.get("answers")
    if not isinstance(answers, list) or not answers:
        raise ValueError(f"gold record {qid!r} has no answers")
    record_level = obj.get("answerable")
    if record_level is not None and not isinstance(record_level, bool):
        raise ValueError("answerable is not a boolean")
    annotations = []
    for j, a in enumerate(answers):
        if not isinstance(a, dict) or not isinstance(a.get("answer"), str):
            raise ValueError(f"answers[{j}] lacks a string answer")
        flag = a.get("answerable")
        if flag is None:
            # Per-annotation flag inherits the record-level one; a file with
            # neither is treated as answerable (an answer was given).
            flag = record_level if record_level is not None else True
        elif not isinstance(flag, bool):
            raise ValueError(f"answers[{j}].answerable is not a boolean")
        confidence = a.get("answer_confidence")
        if confidence is not None and not isinstance(confidence, str):
            raise ValueError(f"answers[{j}].answer_confidence is not a string")
        annotations.append(
            GoldAnnotation(answer=a["answer"], answerable=flag, answer_confidence=confidence)
        )
    return GoldRecord(question_id=qid, annotations=tuple(annotations))


# ---------------------------------------------------------------------------
# joining


@dataclass
class JoinSummary:
    """Counts and first few ids of records without a partner."""

    n_matched: int = 0
    n_unmatched_predictions: int = 0
    n_unmatched_gold: int = 0
    unmatched_predictions: list[str] = field(default_factory=list)
    unmatched_gold: list[str] = field(default_factory=list)

    MAX_IDS = 10

    @property
    def clean(self) -> bool:
        return self.n_unmatched_predictions == 0 and self.n_unmatched_gold == 0

    def describe(self) -> str:
        parts = [f"matched {self.n_matched}"]
        if self.n_unmatched_predictions:
            ids = ", ".join(self.unmatched_predictions)
            parts.append(f"{self.n_unmatched_predictions} predictions unmatched ({ids})")
        if self.n_unmatched_gold:
            ids = ", ".join(self.unmatched_gold)
            parts.append(f"{self.n_unmatched_gold} gold unmatched ({ids})")
        return "; ".join(parts)


def join(
    predictions: Sequence[PredictionRecord], gold: Sequence[GoldRecord]
) -> tuple[list[tuple[PredictionRecord, GoldRecord]], JoinSummary]:
    """Inner join on question_id, in prediction order; duplicates are fatal."""
    gold_index: dict[str, GoldRecord] = {}
    for g in gold:
        if g.question_id in gold_index:
            raise DuplicateKeyError(f"duplicate question_id in gold: {g.question_id!r}")
        gold_index[g.question_id] = g
    seen: set[str] = set()
    summary = JoinSummary()
    pairs = []
    for p in predictions:
        if p.question_id in seen:
            raise DuplicateKeyError(
                f"duplicate question_id in predictions: {p.question_id!r}"
            )
        seen.add(p.question_id)
        g = gold_index.get(p.question_id)
        if g is None:
            summary.n_unmatched_predictions += 1
            if len(summary.unmatched_predictions) < JoinSummary.MAX_IDS:
                summary.unmatched_predictions.append(p.question_id)
        else:
            pairs.append((p, g))
    summary.n_matched = len(pairs)
    for qid in gold_index:
        if qid not in seen:
            summary.n_unmatched_gold += 1
            if len(summary.unmatched_gold) < JoinSummary.MAX_IDS:
                summary.unmatched_gold.append(qid)
    return pairs, summary


# ---------------------------------------------------------------------------
# report emission


def _fmt(value: float | None, undefined: str) -> str:
    return undefined if value is None else f"{value:.4f}"


def _target_key(target: float) -> str:
    return format(target, "g")


def emit_report(report: CalibrationReport, format: str = "markdown") -> bytes:
    """Serialize a report; json is canonical, csv and markdown are tabular."""
    if format == "json":
        return _report_json(report)
    if format == "csv":
        return _report_csv(report)
    if format == "markdown":
        return _report_markdown(report)
    raise ValueError(f"unknown report format: {format!r}")


def _report_json(report: CalibrationReport) -> bytes:
    payload = {
        "accuracy_at_trigger": {
            "accuracy": report.accuracy,
            "trigger_rate": report.trigger_rate,
        },
        "methods": {
            name: {
                "auc": row.auc,
                "ece": row.ece,
                "coverage_at": {_target_key(t): v for t, v in row.coverage_at.items()},
            }
            for name, row in report.methods.items()
        },
        "n_total": report.n_total,
        "n_triggered": report.n_triggered,
        "meta": report.meta,
    }
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def parse_report(data: bytes) -> CalibrationReport:
    """Inverse of the json emission; parse_report(emit_report(r)) == r."""
    payload = json.loads(data.decode("utf-8"))
    methods = {
        name: MethodMetrics(
            auc=row["auc"],
            ece=row["ece"],
            coverage_at={float(t): v for t, v in row["coverage_at"].items()},
        )
        for name, row in payload["methods"].items()
    }
    header = payload["accuracy_at_trigger"]
    return CalibrationReport(
        methods=methods,
        accuracy=header["accuracy"],
        trigger_rate=header["trigger_rate"],
        n_total=payload["n_total"],
        n_triggered=payload["n_triggered"],
        meta=dict(payload.get("meta", {})),
    )


def _targets(report: CalibrationReport) -> list[float]:
    for row in report.methods.values():
        return list(row.coverage_at)
    return []


def _report_csv(report: CalibrationReport) -> bytes:
    targets = _targets(report)
    header = ["method", "auc", "ece"] + [f"c@{_target_key(t)}" for t in targets]
    lines = [",".join(header)]
    for name, row in report.methods.items():
        cells = [name, _fmt(row.auc, ""), _fmt(row.ece, "")]
        cells += [_fmt(row.coverage_at[t], "") for t in targets]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _report_markdown(report: CalibrationReport) -> bytes:
    acc = "—" if report.accuracy is None else f"{report.accuracy:.4f}%"
    head = (
        f"acc {acc} @ trig {report.trigger_rate:.4f}% "
        f"({report.n_triggered}/{report.n_total} answered)"
    )
    targets = _targets(report)
    columns = ["method", "AUC", "ECE"] + [f"C@{_target_key(t)}" for t in targets]
    lines = [head, ""]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join([" --- "] * len(columns)) + "|")
    for name, row in report.methods.items():
        cells = [name, _fmt(row.auc, "—"), _fmt(row.ece, "—")]
        cells += [_fmt(row.coverage_at[t], "—") for t in targets]
        lines.append("| " + " | ".join(cells) + " |")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# curve and sweep emission


def emit_curve(points: Sequence[RiskCoveragePoint]) -> bytes:
    """Plot-ready risk-coverage data; csv columns coverage,accuracy."""
    lines = ["coverage,accuracy"]
    lines += [f"{p.coverage:.4f},{p.accuracy:.4f}" for p in points]
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_sweep(sweeps: dict[str, list[SweepRow]], format: str = "csv") -> bytes:
    """Operating-point tables per method; tau keeps full precision."""
    if format == "csv":
        lines = ["method,tau,coverage,accuracy"]
        for method, rows in sweeps.items():
            lines += [
                f"{method},{row.tau!r},{row.coverage:.4f},{row.accuracy:.4f}"
                for row in rows
            ]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        payload = {
            method: [
                {"tau": row.tau, "coverage": row.coverage, "accuracy": row.accuracy}
                for row in rows
            ]
            for method, rows in sweeps.items()
        }
        text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
        return (text + "\n").encode("utf-8")
    raise ValueError(f"unknown sweep format: {format!r}")
