"""Domain types for prediction dumps, gold annotations, and reports.

The record types are immutable value types: two values are equal when they
are of the same class and their fields are equal, assigning or deleting a
field raises AttributeError, and values pickle and copy. They are plain
slotted classes, not dataclasses, so dataclasses.replace, asdict and fields
do not apply to them. Log-probabilities are natural logs, so sequence
probabilities are exp-of-sums; a logprob of exactly 0.0 (a probability-1
token) is legal.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

#: Literal substring that marks a refusal to answer, matched case-insensitively.
ABSTENTION_MARKER = "unanswerable"

#: Sets a slot from a value type's __init__, past its frozen __setattr__.
_set = object.__setattr__


class _Value:
    """Base of the value types: equality, hash and repr over ``_fields``.

    A subclass names its attributes in ``__slots__`` in constructor order and
    sets each one in ``__init__`` through ``_set``. ``_fields`` names the ones
    that take part in equality, hashing and repr. A value is equal only to a
    value of its own class. Pickle and copy rebuild a value through
    ``__init__`` from its slots, as assignment is refused.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])


class SampledAnswer(_Value):
    """One generated answer with its per-token log-probabilities."""

    __slots__ = _fields = __match_args__ = ("text", "logprobs")
    text: str
    logprobs: tuple[float, ...]

    def __init__(self, text: str, logprobs: Iterable[float] = ()) -> None:
        _set(self, "text", text)
        _set(self, "logprobs", tuple(logprobs))


class PredictionRecord(_Value):
    """A model's output for one question: the greedy answer plus K samples.

    K is not fixed; sampling-based scorers require at least one sample, while
    likelihood scoring only needs the greedy answer. Decoding settings (model
    name, temperature, ...) travel in ``meta`` as opaque strings. ``line`` is
    the record's line in the dump it was loaded from, for error messages; it
    takes no part in equality, hashing or repr and is never written out.
    """

    __slots__ = __match_args__ = ("question_id", "greedy", "samples", "meta", "line")
    _fields = __slots__[:-1]
    question_id: str
    greedy: SampledAnswer
    samples: tuple[SampledAnswer, ...]
    meta: Mapping[str, str] | None
    line: int | None

    def __init__(
        self,
        question_id: str,
        greedy: SampledAnswer,
        samples: Iterable[SampledAnswer] = (),
        meta: Mapping[str, str] | None = None,
        line: int | None = None,
    ) -> None:
        _set(self, "question_id", question_id)
        _set(self, "greedy", greedy)
        _set(self, "samples", tuple(samples))
        _set(self, "meta", meta)
        _set(self, "line", line)


class GoldAnnotation(_Value):
    """One crowd-worker annotation: an answer and its answerability flag."""

    __slots__ = _fields = __match_args__ = ("answer", "answerable", "answer_confidence")
    answer: str
    answerable: bool
    answer_confidence: str | None  # parsed and preserved, unused by metrics

    def __init__(
        self, answer: str, answerable: bool = True, answer_confidence: str | None = None
    ) -> None:
        _set(self, "answer", answer)
        _set(self, "answerable", answerable)
        _set(self, "answer_confidence", answer_confidence)


class GoldRecord(_Value):
    """Gold annotations for one question (1-10 crowd-worker answers)."""

    __slots__ = _fields = __match_args__ = ("question_id", "annotations")
    question_id: str
    annotations: tuple[GoldAnnotation, ...]

    def __init__(self, question_id: str, annotations: Iterable[GoldAnnotation]) -> None:
        _set(self, "question_id", question_id)
        _set(self, "annotations", tuple(annotations))
        if not self.annotations:
            raise ValueError(f"gold record {question_id!r} has no annotations")

    @property
    def answerable(self) -> bool:
        """True iff at least one annotator marked the question answerable."""
        return any(a.answerable for a in self.annotations)


class ScoredPrediction(_Value):
    """A prediction joined with its trigger decision, scores, and verdicts.

    ``correct`` is populated only for triggered records; abstentions carry
    scores but no correctness verdicts.
    """

    __slots__ = _fields = __match_args__ = (
        "question_id", "triggered", "scores", "correct", "answerable"
    )
    question_id: str
    triggered: bool
    scores: dict[str, float]
    correct: dict[str, bool]
    answerable: bool

    def __init__(
        self,
        question_id: str,
        triggered: bool,
        scores: dict[str, float],
        correct: dict[str, bool],
        answerable: bool,
    ) -> None:
        _set(self, "question_id", question_id)
        _set(self, "triggered", triggered)
        _set(self, "scores", scores)
        _set(self, "correct", correct)
        _set(self, "answerable", answerable)
        check_scored(triggered, scores, correct)


def check_scored(triggered: bool, scores: Mapping[str, float], correct: Mapping[str, bool]) -> None:
    """ScoredPrediction's checks, made without building one (score_all, the CLI's steps).

    Every score is finite and in [0, 1], and an abstained record has no verdicts.
    """
    for name, value in scores.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"score {name!r} out of [0, 1]: {value}")
    if not triggered and correct:
        raise ValueError("abstained records carry no correctness verdicts")


class MethodMetrics(_Value):
    """One report row: calibration metrics for a single scoring method.

    ``None`` is the explicit undefined marker (degenerate label sets, zero
    triggered records); it is never smuggled in as 0 or NaN.
    """

    __slots__ = _fields = __match_args__ = ("auc", "ece", "coverage_at")
    auc: float | None
    ece: float | None
    coverage_at: dict[float, float | None]

    def __init__(
        self, auc: float | None, ece: float | None, coverage_at: dict[float, float | None]
    ) -> None:
        _set(self, "auc", auc)
        _set(self, "ece", ece)
        _set(self, "coverage_at", coverage_at)


class CalibrationReport(_Value):
    """Per-method calibration metrics plus the accuracy@trigger-rate header.

    ``meta`` defaults to a new empty dict for each report.
    """

    __slots__ = _fields = __match_args__ = (
        "methods", "accuracy", "trigger_rate", "n_total", "n_triggered", "meta"
    )
    methods: dict[str, MethodMetrics]
    accuracy: float | None
    trigger_rate: float
    n_total: int
    n_triggered: int
    meta: dict[str, str]

    def __init__(
        self,
        methods: dict[str, MethodMetrics],
        accuracy: float | None,
        trigger_rate: float,
        n_total: int,
        n_triggered: int,
        meta: dict[str, str] | None = None,
    ) -> None:
        _set(self, "methods", methods)
        _set(self, "accuracy", accuracy)
        _set(self, "trigger_rate", trigger_rate)
        _set(self, "n_total", n_total)
        _set(self, "n_triggered", n_triggered)
        _set(self, "meta", {} if meta is None else meta)


def validate_record(record: PredictionRecord) -> list[str]:
    """Check a record against its invariants; empty result means ok."""
    violations: list[str] = []
    if not record.question_id:
        violations.append("empty question_id")
    _check_answer(record.greedy, "greedy", violations)
    for i, sample in enumerate(record.samples):
        _check_answer(sample, f"samples[{i}]", violations)
    return violations


def _check_answer(answer: SampledAnswer, where: str, out: list[str]) -> None:
    for j, lp in enumerate(answer.logprobs):
        if not math.isfinite(lp):
            out.append(f"{where}: logprob not finite at token {j}")
        elif lp > 0.0:
            out.append(f"{where}: logprob > 0 at token {j}")
    if answer.text and not answer.logprobs:
        out.append(f"{where}: non-empty text with empty logprobs")
    if not answer.text and answer.logprobs:
        out.append(f"{where}: empty text with non-empty logprobs")
