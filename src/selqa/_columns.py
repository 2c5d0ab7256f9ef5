"""A run's scored records held as columns, and the frames that carry them between processes.

evaluate, score and sweep keep one Columns table per run, in dump order:
the record ids, one byte per record for each of triggered, correct and
answerable, and one array('d') of scores per method. A record costs the
table its id string, three bytes and eight bytes a method, where a
ScoredPrediction with its scores and verdicts dicts held about 500 bytes.
Only this module builds the table; the metrics read its columns, and the
CLI's score output reads its records.

The CLI's scoring step yields one Scored item per dump record, with its
result as a plain tuple, and the loop appends the result to the table once
the join has passed the record. Forked workers (selqa._shards) send their
items in frames that encode_frame builds and decode_frame reads back: the
frame's ids, lines, one flag byte per item and each method's scores as
array bytes, in one marshal dump.
"""

from __future__ import annotations

import marshal
from array import array
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import AdapterError, DataError, SelqaError
from .records import ScoredPrediction

#: One scored record: (triggered, correct, answerable, scores in the table's
#: method order). correct is False for an abstained record.
Result = tuple[bool, bool, bool, Sequence[float]]


class Scored(NamedTuple):
    """One dump record after the scoring step, as the join and the loop take it.

    result is None for a record the gold index lacks, which is not scored;
    error is the located error scoring the record raised, which the loop
    raises once the join has passed the record.
    """

    question_id: str
    line: int
    result: Result | None
    error: SelqaError | None


class Columns:
    """Scored records, one column per field, in the order they were appended."""

    __slots__ = ("methods", "ids", "triggered", "correct", "answerable", "scores")

    def __init__(self, methods: Iterable[str]) -> None:
        self.methods = tuple(methods)
        self.ids: list[str] = []
        self.triggered = bytearray()
        self.correct = bytearray()
        self.answerable = bytearray()
        #: Each method's scores, keyed and ordered as methods.
        self.scores = {method: array("d") for method in self.methods}

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_triggered(self) -> int:
        return self.triggered.count(1)

    @property
    def n_correct(self) -> int:
        """Correct records; only a triggered record can be correct."""
        return self.correct.count(1)

    def append(self, question_id: str, result: Result) -> None:
        triggered, correct, answerable, scores = result
        self.ids.append(question_id)
        self.triggered.append(triggered)
        self.correct.append(correct)
        self.answerable.append(answerable)
        for column, score in zip(self.scores.values(), scores, strict=True):
            column.append(score)

    @classmethod
    def from_rows(
        cls, rows: Iterable[ScoredPrediction], methods: Sequence[str], classifier: str
    ) -> Columns:
        """The table of rows, reading each triggered row's verdict under classifier."""
        table = cls(methods)
        for row in rows:
            correct = False
            if row.triggered:
                try:
                    correct = row.correct[classifier]
                except KeyError:
                    raise ValueError(
                        f"record {row.question_id!r} has no verdict for classifier "
                        f"{classifier!r} (has: {list(row.correct)})"
                    ) from None
            scores = [row.scores[method] for method in table.methods]
            table.append(row.question_id, (row.triggered, correct, row.answerable, scores))
        return table

    def records(self) -> Iterator[tuple[str, bool, bool, bool, dict[str, float]]]:
        """Each record as (question_id, triggered, correct, answerable, scores by method)."""
        columns = self.scores.items()
        for i, question_id in enumerate(self.ids):
            yield (question_id, bool(self.triggered[i]), bool(self.correct[i]),
                   bool(self.answerable[i]), {method: column[i] for method, column in columns})


#: The errors a frame carries, by index: the classes main() maps to exit codes.
_KINDS = (DataError, AdapterError, OSError)

# An item's flag byte.
_SCORED = 1  # it has a result
_TRIGGERED = 2
_CORRECT = 4
_ANSWERABLE = 8
_FAILED = 16  # the frame's error is this item's


def encode_frame(items: Sequence[Scored], error: Exception | None = None) -> bytes:
    """items as one frame of columns; error, if given, follows the last item.

    Only the last item may carry an error, and then error must be None.
    """
    flags = bytearray()
    columns: list[array] = []  # the scored items' scores, one column per method
    for item in items:
        if item.error is not None:
            error = item.error
            flags.append(_FAILED)
        elif item.result is None:
            flags.append(0)
        else:
            triggered, correct, answerable, scores = item.result
            flags.append(_SCORED | triggered * _TRIGGERED | correct * _CORRECT
                         | answerable * _ANSWERABLE)
            columns = columns or [array("d") for _ in scores]
            for column, score in zip(columns, scores, strict=True):
                column.append(score)
    failure = None if error is None else (_kind(error), str(error))
    return marshal.dumps((
        [item.question_id for item in items],
        [item.line for item in items],
        bytes(flags),
        [column.tobytes() for column in columns],
        failure,
    ))


def decode_frame(frame: bytes) -> Iterator[Scored]:
    """The items of an encode_frame frame; an error that follows them is raised after them."""
    ids, lines, flags, raw, failure = marshal.loads(frame)
    error = None if failure is None else _KINDS[failure[0]](failure[1])
    columns = []
    for data in raw:
        column = array("d")
        column.frombytes(data)
        columns.append(column)
    scored = 0
    for question_id, line, flag in zip(ids, lines, flags):
        if flag & _FAILED:
            yield Scored(question_id, line, None, error)
            return
        result = None
        if flag & _SCORED:
            result = (bool(flag & _TRIGGERED), bool(flag & _CORRECT), bool(flag & _ANSWERABLE),
                      [column[scored] for column in columns])
            scored += 1
        yield Scored(question_id, line, result, None)
    if error is not None:
        raise error


def _kind(exc: Exception) -> int:
    """The index in _KINDS of the class the parent raises in place of exc."""
    return next(i for i, kind in enumerate(_KINDS) if isinstance(exc, kind))
