"""File formats: prediction dumps (JSONL), gold annotations (JSON), reports.

Prediction dumps are one JSON object per line with fixed key order
(question_id, greedy, samples, meta), so re-serializing loaded records
reproduces the file byte for byte. Gold files are a single JSON array in the
shape of crowd-sourced VQA annotation releases: per-annotation answerable
flags default from the record-level flag when absent, and the record-level
flag is the OR of the annotation flags when only those exist.

A dump line is decoded and then accepted in a few whole-record passes that
run in C (_accepted_record): one type-set test per kind of field, max and
sum over all of the record's logprobs, and one comparison of which texts
and logprob lists are empty. Only a line these passes refuse goes through
the per-field path (_prediction_from_obj, then validate_record), which
names each fault with its location, or accepts the rare valid record the
passes are too coarse for. Valid dumps never take that path, so its
per-answer work is paid only on the way to an error message.

Both readers stream: iter_predictions yields one record per line, and the
gold array is parsed one element at a time from chunks of 64 Ki characters,
either into GoldRecords (load_gold) or into the compact index scoring reads
(load_gold_index). Neither holds a valid file whole. A gold file the stream
cannot read as an array is parsed again whole, once, only to name its first
error as that parse words it.

The index maps each question id to one str (pack_gold): a flag character
for answerability, then the distinct normalized answers, each behind a
"\n". Exact match is one substring test on it (gold_has), and only a
similarity verdict splits it (gold_answers). join_stream marks an entry it
matches by the case of its flag, in place of a set of every id it has seen,
so a repeated id finds the mark; io.join runs the same loop over its
GoldRecords' ids, each with an entry that holds no answers, as the join
reads none.

All emission is byte-deterministic. Human formats (csv, markdown) round
floats to 4 decimals; the canonical json report keeps full precision so a
report round-trips exactly through emit_report/parse_report. A curve is
written line by line into one buffer from its (coverage, accuracy) pairs
(format_curve), which evaluate reads straight off a ranking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO, TypeVar

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
from .textnorm import distinct_normalized

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
    """Parse and validate a prediction dump, preserving file order."""
    return list(iter_predictions(path))


def iter_predictions(
    path: str,
    start: int = 0,
    end: int | None = None,
    first_line: int = 1,
    *,
    samples: bool = True,
) -> Iterator[PredictionRecord]:
    """Parse and validate a prediction dump one line at a time, in file order.

    Errors carry the offending line number, and each record keeps its line.
    Lines are decoded one at a time, so invalid UTF-8 is reported at its line.
    Only the line being parsed is held; the file closes when the generator
    finishes or is closed.

    start and end, byte offsets at line starts, limit the read to the lines
    between them (end None: to the end of the file); first_line is the
    number of the line at start. With samples False, every sample is checked
    as before but each record is yielded with samples=(), for a caller that
    reads only the greedy answer (likelihood scoring).
    """
    with open(path, "rb") as f:
        if start:  # a pipe cannot seek; it is only ever read from its start
            f.seek(start)
        lines = f if end is None else _lines_until(f, end - start)
        for lineno, raw in enumerate(lines, start=first_line):
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
            except (ValueError, RecursionError) as exc:
                raise ParseError(path, where, _json_limit(exc)) from exc
            if b"\\u" in raw:
                _check_unicode(obj, path, where)
            yield (_accepted_record(obj, lineno, samples)
                   or _checked_record(obj, lineno, path, where, samples))


def _lines_until(f: BinaryIO, size: int) -> Iterator[bytes]:
    """The lines of f that start within its next size bytes."""
    for raw in f:
        if size <= 0:
            return
        size -= len(raw)
        yield raw


def _checked_record(
    obj: object, line: int, path: str, where: str, with_samples: bool = True
) -> PredictionRecord:
    """The record obj holds, checked field by field; a ParseError names any fault.

    With with_samples False, the record is returned without its checked samples.
    """
    try:
        record = _prediction_from_obj(obj, line)
    except KeyError as exc:
        raise ParseError(path, where, f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(path, where, str(exc)) from exc
    violations = validate_record(record)
    if violations:
        raise ParseError(path, where, "; ".join(violations))
    if not with_samples:
        return PredictionRecord(record.question_id, record.greedy, (), record.meta, line)
    return record


def _json_limit(exc: ValueError | RecursionError) -> str:
    """The reason for well-formed JSON beyond a decoder limit: depth or integer digits."""
    if isinstance(exc, RecursionError):
        return "invalid JSON: nested too deeply"
    return f"invalid JSON: {exc}"


def _check_unicode(obj: object, path: str, where: str) -> None:
    """ParseError unless every string in obj is valid Unicode.

    A JSON escape such as \\ud800 decodes to a lone surrogate, which no
    output or adapter request can encode as UTF-8. Callers check only
    records whose raw text holds a \\u escape.
    """
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        surrogate = exc.object[exc.start]
        raise ParseError(path, where, f"invalid Unicode: lone surrogate {surrogate!r}") from exc


# Exact types: JSON decoding yields only dict, list, str, int, float, bool
# and None, so testing a set of types equals the isinstance checks below,
# bool excluded.
_DICT = frozenset({dict})
_LIST = frozenset({list})
_STR = frozenset({str})
_FLOAT = frozenset({float})
_NUMBER = frozenset({int, float})
#: The default of an absent samples or logprobs field; shared, never mutated.
_EMPTY: list = []


def _accepted_record(
    obj: object, line: int, with_samples: bool = True
) -> PredictionRecord | None:
    """The record a decoded dump line holds if it is valid, else None.

    Checks the whole record in a few passes over its answers and logprobs
    that run in C, with no Python loop per field: types, then logprob
    signs and finiteness through max and sum, then text against logprobs.
    None sends the line to _prediction_from_obj and validate_record, which
    name every fault, and accept what these passes are too coarse for: a
    record whose finite logprobs sum beyond float range. With with_samples
    False, the samples are checked but no SampledAnswer is built for them.
    """
    if type(obj) is not dict or "greedy" not in obj:
        return None
    qid = obj.get("question_id")
    samples = obj.get("samples", _EMPTY)
    meta = obj.get("meta")
    if type(qid) is not str or not qid or type(samples) is not list:
        return None
    if meta is not None and not (
        type(meta) is dict and _STR.issuperset(map(type, chain(meta, meta.values())))
    ):
        return None
    answers = [obj["greedy"], *samples]
    if not _DICT.issuperset(map(type, answers)):
        return None
    texts = list(map(dict.get, answers, repeat("text")))
    logprobs = list(map(dict.get, answers, repeat("logprobs"), repeat(_EMPTY)))
    if not (_STR.issuperset(map(type, texts)) and _LIST.issuperset(map(type, logprobs))):
        return None
    kinds = frozenset(map(type, chain.from_iterable(logprobs)))
    if not _FLOAT.issuperset(kinds):
        if not _NUMBER.issuperset(kinds):
            return None
        try:
            logprobs = [list(map(float, values)) for values in logprobs]
        except OverflowError:
            return None
    # NaN fails the sum, +inf the max, -inf and an overflowing sum the sum.
    if not (
        max(chain.from_iterable(logprobs), default=0.0) <= 0.0
        and sum(chain.from_iterable(logprobs)) > -math.inf
    ):
        return None
    if list(map(bool, texts)) != list(map(bool, logprobs)):
        return None
    if not with_samples:
        return PredictionRecord(qid, SampledAnswer(texts[0], logprobs[0]), (), meta, line)
    greedy, *rest = map(SampledAnswer, texts, logprobs)
    return PredictionRecord(question_id=qid, greedy=greedy, samples=rest, meta=meta, line=line)


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
    try:
        values = tuple(map(float, logprobs))
    except OverflowError:
        values = tuple(map(_to_float, logprobs))
    return SampledAnswer(text=text, logprobs=values)


def _to_float(value: int | float) -> float:
    """float(value), infinite for an integer beyond float range.

    Validation then reports it as not finite, as it does the literal -1e400.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
    records = []
    for i, obj in _gold_objects(path):
        qid, answers, flags = _checked_gold(obj, path, i)
        annotations = tuple(
            GoldAnnotation(a["answer"], flag, a.get("answer_confidence"))
            for a, flag in zip(answers, flags)
        )
        records.append(GoldRecord(question_id=qid, annotations=annotations))
    return records


def load_gold_index(path: str) -> dict[str, str]:
    """Map each question_id of a gold file to its packed entry (pack_gold).

    Reads and checks the file as load_gold does, without building its
    records; a question_id seen twice is a DuplicateKeyError naming the
    file and the repeating record's index.
    """
    index: dict[str, str] = {}
    for i, obj in _gold_objects(path):
        qid, answers, flags = _checked_gold(obj, path, i)
        if qid in index:
            raise DuplicateKeyError(f"{path}: record {i}: duplicate question_id {qid!r}")
        index[qid] = pack_gold([a["answer"] for a in answers], any(flags))
    return index


def _checked_gold(obj: object, path: str, i: int) -> tuple[str, list[dict], list[bool]]:
    """A gold record's question_id, answer objects and per-answer flags.

    Each answer's answerable flag defaults to the record-level flag, and to
    True when neither exists (an answer was given). Anything malformed is a
    ParseError naming the record's index.
    """
    try:
        if not isinstance(obj, dict):
            raise ValueError("gold record is not a JSON object")
        qid = _expect_str(obj, "question_id")
        if not qid:
            raise ValueError("empty question_id")
        answers = obj.get("answers")
        if not isinstance(answers, list) or not answers:
            raise ValueError(f"gold record {qid!r} has no answers")
        default = obj.get("answerable")
        if default is None:
            default = True
        elif not isinstance(default, bool):
            raise ValueError("answerable is not a boolean")
        flags = []
        for j, a in enumerate(answers):
            if not isinstance(a, dict) or not isinstance(a.get("answer"), str):
                raise ValueError(f"answers[{j}] lacks a string answer")
            flag = a.get("answerable")
            if flag is None:
                flag = default
            elif not isinstance(flag, bool):
                raise ValueError(f"answers[{j}].answerable is not a boolean")
            confidence = a.get("answer_confidence")
            if confidence is not None and not isinstance(confidence, str):
                raise ValueError(f"answers[{j}].answer_confidence is not a string")
            flags.append(flag)
    except KeyError as exc:
        raise ParseError(path, f"record {i}", f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(path, f"record {i}", str(exc)) from exc
    return qid, answers, flags


#: Characters of the gold file read at a time.
_CHUNK = 1 << 16
_DECODER = json.JSONDecoder()
_SKIP_WHITESPACE = json.decoder.WHITESPACE.match


def _gold_objects(path: str) -> Iterator[tuple[int, object]]:
    """Each element of a gold file's top-level JSON array, with its index.

    The file is read in chunks and parsed one element at a time, so a valid
    file is read once and never held whole. A file the stream cannot read as
    an array is parsed again whole, and that parse's error is reported. A
    value past a decoder limit (depth, integer digits) is reported where the
    stream met it, as another parse need not hit the same limit. An element
    holding a lone surrogate escape is a ParseError naming its index.
    """
    with open(path, encoding="utf-8", newline="") as f:
        text = _ChunkedText(f)
        try:
            if text.skip("["):
                for i in count():
                    if text.skip("]"):
                        if text.pos == len(text.buf):
                            return
                        break
                    if i and not text.skip(","):
                        break
                    obj = text.value()
                    if text.buf.find("\\u", text.mark, text.pos) >= 0:
                        _check_unicode(obj, path, f"record {i}")
                    yield i, obj
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
        except (ValueError, RecursionError) as exc:
            # The text before the value decoded; bytes after it need not.
            head = _reread(f, path).decode("utf-8", "replace")[: text.dropped + text.pos]
            raise ParseError(path, f"byte {len(head.encode('utf-8'))}", _json_limit(exc)) from exc
        raise _whole_file_error(f, path)


def _whole_file_error(f: TextIO, path: str) -> ParseError:
    """The error of parsing the gold file f whole, read again from its start.

    The parse keeps no records: each object it decodes is dropped. At most
    two copies of the file's text are held at once.
    """
    try:
        text = _reread(f, path).decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError(path, f"byte {exc.start}", f"invalid UTF-8: {exc}")
    try:
        json.loads(text, object_pairs_hook=len)  # len stands in for each object
        return ParseError(path, "top level", "gold file is not a JSON array")
    except json.JSONDecodeError as exc:
        end, reason = exc.pos, f"invalid JSON: {exc.msg}"
    except (ValueError, RecursionError) as exc:
        end, reason = _SKIP_WHITESPACE(text).end(), _json_limit(exc)
    text = text[:end]  # the parse's error, which holds the whole text, is gone
    return ParseError(path, f"byte {len(text.encode('utf-8'))}", reason)


def _reread(f: TextIO, path: str) -> bytes:
    """The bytes of the gold file f, read again from its start."""
    if not f.seekable():  # a pipe, whose text is gone once read
        raise ParseError(path, "top level", "invalid JSON; a pipe cannot be read again to find it")
    f.seek(0)
    return f.buffer.read()


class _ChunkedText:
    """A text file read chunk by chunk, with a read position.

    buf holds the text from character dropped on. Reading more drops the text
    before mark, the start of the value being parsed, so buf spans at most
    one value and one chunk.
    """

    def __init__(self, f: TextIO) -> None:
        self.f = f
        self.buf = ""
        self.pos = 0
        self.mark = 0
        self.dropped = 0

    def more(self, size: int) -> bool:
        """Append up to size more characters; False at end of file."""
        if self.mark:
            self.dropped += self.mark
            self.buf = self.buf[self.mark :]
            self.pos -= self.mark
            self.mark = 0
        data = self.f.read(size)
        self.buf += data
        return bool(data)

    def skip_whitespace(self) -> None:
        while True:
            self.pos = _SKIP_WHITESPACE(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return
            self.mark = self.pos
            if not self.more(_CHUNK):
                return

    def skip(self, char: str) -> bool:
        """Skip whitespace, then char and the whitespace after it if char is next."""
        self.skip_whitespace()
        if not self.buf.startswith(char, self.pos):
            return False
        self.pos += 1
        self.skip_whitespace()
        return True

    def value(self) -> object:
        """Parse the JSON value at pos and move past it.

        A value cut off by the end of buf, or failing to parse there, is
        parsed again with more text; each retry at least doubles the text,
        so a long value costs linear time.
        """
        self.mark = self.pos
        while True:
            try:
                obj, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError:
                if self.more(max(_CHUNK, len(self.buf) - self.mark)):
                    continue
                raise
            # A number ending at the end of buf may go on in the next chunk.
            if end < len(self.buf) or not self.more(max(_CHUNK, len(self.buf) - self.mark)):
                self.pos = end
                return obj


# ---------------------------------------------------------------------------
# gold index entries

# An entry's first character is its flag: "A" answerable, "U" not. The join
# marks an entry it has matched by turning the flag to lower case.


def pack_gold(raws: Iterable[str], answerable: bool) -> str:
    """The gold index entry of a record's raw answers and answerable flag.

    One str: the flag character, then each distinct normalized answer, in
    first-occurrence order, behind a "\n", then a closing "\n". No
    normalized answer holds a "\n", as normalize_answer splits on all
    whitespace, so an empty answer is an empty line and an exact match is
    one substring test (gold_has).
    """
    flag = "A" if answerable else "U"
    return flag + "".join("\n" + answer for answer in distinct_normalized(raws)) + "\n"


def gold_entry(record: GoldRecord) -> str:
    """The gold index entry of a GoldRecord."""
    return pack_gold((a.answer for a in record.annotations), record.answerable)


def gold_answers(entry: str) -> tuple[str, ...]:
    """An entry's distinct normalized answers, in first-occurrence order."""
    return tuple(entry[2:-1].split("\n")) if len(entry) > 2 else ()


def gold_answerable(entry: str) -> bool:
    """Whether an entry's question is answerable, matched by the join or not."""
    return entry[0] in "Aa"


def gold_has(entry: str, answer: str) -> bool:
    """Whether a normalized answer is one of an entry's answers."""
    return f"\n{answer}\n" in entry


def gold_joined(entry: str) -> bool:
    """Whether the join has matched a prediction to the entry."""
    return entry[0].islower()


# ---------------------------------------------------------------------------
# joining

_P = TypeVar("_P")


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
    records: dict[str, GoldRecord] = {}
    for g in gold:
        if g.question_id in records:
            raise DuplicateKeyError(f"duplicate question_id in gold: {g.question_id!r}")
        records[g.question_id] = g
    # The join reads only whether an entry is marked, so one unmarked entry serves every id.
    index = dict.fromkeys(records, pack_gold((), False))
    summary = JoinSummary()
    matched = join_stream(predictions, index, summary)
    return [(p, records[p.question_id]) for p in matched], summary


def join_stream(
    predictions: Iterable[_P],
    index: dict[str, str],
    summary: JoinSummary,
    path: str | None = None,
) -> Iterator[_P]:
    """Yield each prediction the gold index holds, as the predictions arrive.

    A prediction is anything with a question_id and a line. Each match
    marks its entry in place (the flag character, so the entry keeps its
    size and answers), and a repeated id finds the mark; only unmatched
    prediction ids are kept in a set. An index is joined once. Fills
    summary as it goes; its unmatched gold ids, the entries left unmarked
    in index order, are complete once the predictions are exhausted. A
    repeated prediction id is fatal; given the dump's path, the error names
    it, the repeated line and the id.
    """
    unmatched: set[str] = set()
    for p in predictions:
        qid = p.question_id
        entry = index.get(qid)
        if entry is None:
            if qid in unmatched:
                raise _duplicate(p, path)
            unmatched.add(qid)
            summary.n_unmatched_predictions += 1
            if len(summary.unmatched_predictions) < JoinSummary.MAX_IDS:
                summary.unmatched_predictions.append(qid)
        elif gold_joined(entry):
            raise _duplicate(p, path)
        else:
            index[qid] = entry[0].lower() + entry[1:]
            summary.n_matched += 1
            yield p
    for qid, entry in index.items():
        if not entry[0].islower():
            summary.n_unmatched_gold += 1
            if len(summary.unmatched_gold) < JoinSummary.MAX_IDS:
                summary.unmatched_gold.append(qid)


def _duplicate(p: PredictionRecord, path: str | None) -> DuplicateKeyError:
    """The error of a prediction whose id an earlier one had; given the path, located."""
    if path is None:
        return DuplicateKeyError(f"duplicate question_id in predictions: {p.question_id!r}")
    return DuplicateKeyError(
        f"{path}: line {p.line}: question_id {p.question_id!r}: duplicate question_id"
    )


# ---------------------------------------------------------------------------
# report emission


def _fmt(value: float | None, undefined: str) -> str:
    return undefined if value is None else f"{value:.4f}"


def target_label(target: float) -> str:
    """An accuracy target as the report's key and column names print it."""
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
                "coverage_at": {target_label(t): v for t, v in row.coverage_at.items()},
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
    header = ["method", "auc", "ece"] + [f"c@{target_label(t)}" for t in targets]
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
    columns = ["method", "AUC", "ECE"] + [f"C@{target_label(t)}" for t in targets]
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


def emit_curve(points: Iterable[RiskCoveragePoint]) -> bytes:
    """Plot-ready risk-coverage data; csv columns coverage,accuracy."""
    return format_curve((p.coverage, p.accuracy) for p in points)


def format_curve(pairs: Iterable[tuple[float, float]]) -> bytes:
    """emit_curve over (coverage, accuracy) pairs, each line written into one buffer."""
    out = bytearray(b"coverage,accuracy\n")
    for coverage, accuracy in pairs:
        out += b"%.4f,%.4f\n" % (coverage, accuracy)
    return bytes(out)


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
