"""A run's scored records held as columns.

evaluate, score and sweep keep one Columns table per run, in dump order:
the record ids, one byte per record for each of triggered, correct and
answerable, and one array('d') of scores per method. A record costs the
table its id string, three bytes and eight bytes a method, where a
ScoredPrediction with its scores and verdicts dicts held about 500 bytes.
Only this module builds the table; the metrics read its columns, and the
CLI's score output reads its records.

The CLI's scoring step yields one Scored item per dump record: its trigger
decision, its normalized greedy text and its scores, or the error scoring
it raised. The loop decides the verdict and appends the row to the table
once the join has passed the record. Forked workers (selqa._shards) send
the same items to the loop as plain tuples.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import SelqaError
from .records import ScoredPrediction

#: One record of the table: (triggered, correct, answerable, scores in the
#: table's method order). correct is False for an abstained record.
Row = tuple[bool, bool, bool, Sequence[float]]

#: A record the step scored: (triggered, normalized greedy text if triggered
#: and a verdict will read it, else None, scores in the table's method order).
Result = tuple[bool, str | None, Sequence[float]]


class Scored(NamedTuple):
    """One dump record after the scoring step, as the join and the loop take it.

    result is None for a record the step did not score: one the gold ids
    lack, or one whose scoring failed. error is the located error scoring
    the record raised, which the loop raises once the join has passed the
    record; the join drops it with an unmatched record.
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

    def append(self, question_id: str, row: Row) -> None:
        triggered, correct, answerable, scores = row
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

