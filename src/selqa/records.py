"""Domain types for prediction dumps, gold annotations, and reports.

Everything here is immutable after construction. Log-probabilities are
natural logs, so sequence probabilities are exp-of-sums; a logprob of exactly
0.0 (a probability-1 token) is legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

#: Literal substring that marks a refusal to answer, matched case-insensitively.
ABSTENTION_MARKER = "unanswerable"


@dataclass(frozen=True)
class SampledAnswer:
    """One generated answer with its per-token log-probabilities."""

    text: str
    logprobs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "logprobs", tuple(self.logprobs))


@dataclass(frozen=True)
class PredictionRecord:
    """A model's output for one question: the greedy answer plus K samples.

    K is not fixed; sampling-based scorers require at least one sample, while
    likelihood scoring only needs the greedy answer. Decoding settings (model
    name, temperature, ...) travel in ``meta`` as opaque strings. ``line`` is
    the record's line in the dump it was loaded from, for error messages; it
    takes no part in equality and is never written out.
    """

    question_id: str
    greedy: SampledAnswer
    samples: tuple[SampledAnswer, ...] = ()
    meta: Mapping[str, str] | None = None
    line: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))


@dataclass(frozen=True)
class GoldAnnotation:
    """One crowd-worker annotation: an answer and its answerability flag."""

    answer: str
    answerable: bool = True
    answer_confidence: str | None = None  # parsed and preserved, unused by metrics


@dataclass(frozen=True)
class GoldRecord:
    """Gold annotations for one question (1-10 crowd-worker answers)."""

    question_id: str
    annotations: tuple[GoldAnnotation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "annotations", tuple(self.annotations))
        if not self.annotations:
            raise ValueError(f"gold record {self.question_id!r} has no annotations")

    @property
    def answerable(self) -> bool:
        """True iff at least one annotator marked the question answerable."""
        return any(a.answerable for a in self.annotations)


@dataclass(frozen=True)
class ScoredPrediction:
    """A prediction joined with its trigger decision, scores, and verdicts.

    ``correct`` is populated only for triggered records; abstentions carry
    scores but no correctness verdicts.
    """

    question_id: str
    triggered: bool
    scores: dict[str, float]
    correct: dict[str, bool]
    answerable: bool

    def __post_init__(self) -> None:
        check_scored(self.triggered, self.scores, self.correct)


def check_scored(triggered: bool, scores: Mapping[str, float], correct: Mapping[str, bool]) -> None:
    """ScoredPrediction's checks, which scoring.score_verdicts makes without building one.

    Every score is finite and in [0, 1], and an abstained record has no verdicts.
    """
    for name, value in scores.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"score {name!r} out of [0, 1]: {value}")
    if not triggered and correct:
        raise ValueError("abstained records carry no correctness verdicts")


@dataclass(frozen=True)
class MethodMetrics:
    """One report row: calibration metrics for a single scoring method.

    ``None`` is the explicit undefined marker (degenerate label sets, zero
    triggered records); it is never smuggled in as 0 or NaN.
    """

    auc: float | None
    ece: float | None
    coverage_at: dict[float, float | None]


@dataclass(frozen=True)
class CalibrationReport:
    """Per-method calibration metrics plus the accuracy@trigger-rate header."""

    methods: dict[str, MethodMetrics]
    accuracy: float | None
    trigger_rate: float
    n_total: int
    n_triggered: int
    meta: dict[str, str] = field(default_factory=dict)


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
