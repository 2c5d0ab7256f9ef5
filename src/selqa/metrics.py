"""Calibration metrics over the triggered subset.

All orderings are deterministic: points sort by descending score with ties
broken by ascending record id, so every metric is a pure, reproducible
function of its input set. Degenerate cases (no positives, no negatives,
nothing triggered) yield None, never 0 or NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .records import CalibrationReport, MethodMetrics, ScoredPrediction


@dataclass(frozen=True)
class EvalPoint:
    """One (confidence score, correctness) observation."""

    score: float
    correct: bool
    record_id: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score out of [0, 1]: {self.score}")


@dataclass(frozen=True)
class RiskCoveragePoint:
    """Accuracy of the top coverage% most-confident predictions."""

    coverage: float  # percent in (0, 100]
    accuracy: float  # percent in [0, 100]


def _ordered(points: Iterable[EvalPoint]) -> list[EvalPoint]:
    return sorted(points, key=lambda p: (-p.score, p.record_id))


def ece(points: Sequence[EvalPoint], n_bins: int = 10) -> float:
    """Expected calibration error with equal-count confidence bins.

    Points are ranked by confidence and split into n_bins same-sized bins;
    when N is not divisible, the highest-confidence bins take one extra point
    each. The result is the unweighted mean of |mean score - accuracy| over
    the non-empty bins (with N < n_bins that is a mean over N singletons).
    """
    if not points:
        raise ValueError("ece needs at least one point")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    ordered = _ordered(points)
    n = len(ordered)
    base, extra = divmod(n, n_bins)
    gaps = []
    start = 0
    for b in range(n_bins):
        size = base + (1 if b < extra else 0)
        if size == 0:
            continue
        chunk = ordered[start : start + size]
        start += size
        mean_score = math.fsum(p.score for p in chunk) / size
        accuracy = sum(p.correct for p in chunk) / size
        gaps.append(abs(mean_score - accuracy))
    return math.fsum(gaps) / len(gaps)


def roc_auc(points: Sequence[EvalPoint]) -> float | None:
    """Probability that a random correct point outscores a random incorrect one.

    Ties count 0.5. Grouping equal scores makes this O(N log N) while
    summing exactly the same pairwise comparison count as brute force
    (every term is a multiple of 0.5, so the accumulation is exact).
    Returns None when either class is empty.
    """
    n_pos = sum(p.correct for p in points)
    n_neg = len(points) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranked = sorted(points, key=lambda p: p.score)
    numerator = 0.0
    neg_below = 0
    for _, group in groupby(ranked, key=lambda p: p.score):
        members = list(group)
        group_pos = sum(p.correct for p in members)
        group_neg = len(members) - group_pos
        numerator += group_pos * neg_below + 0.5 * group_pos * group_neg
        neg_below += group_neg
    return numerator / (n_pos * n_neg)


def coverage_at_accuracy(points: Sequence[EvalPoint], acc_target: float) -> float:
    """Maximum coverage (percent) whose most-confident prefix meets the target.

    Scans every prefix of the confidence-ranked points and returns
    100 * m / N for the largest m whose prefix accuracy reaches
    acc_target percent, or 0 when no prefix qualifies. N counts the
    points given (the triggered subset), not the full dump.
    """
    if not points:
        raise ValueError("coverage_at_accuracy needs at least one point")
    if not 0.0 < acc_target <= 100.0:
        raise ValueError(f"acc_target must lie in (0, 100], got {acc_target}")
    ordered = _ordered(points)
    n = len(ordered)
    best = 0
    n_correct = 0
    for m, point in enumerate(ordered, start=1):
        n_correct += point.correct
        if n_correct / m >= acc_target / 100.0:
            best = m
    return 100.0 * best / n


def risk_coverage_curve(points: Sequence[EvalPoint]) -> list[RiskCoveragePoint]:
    """Prefix accuracy at every coverage step 100*m/N, m = 1..N."""
    if not points:
        raise ValueError("risk_coverage_curve needs at least one point")
    ordered = _ordered(points)
    n = len(ordered)
    curve = []
    n_correct = 0
    for m, point in enumerate(ordered, start=1):
        n_correct += point.correct
        curve.append(RiskCoveragePoint(100.0 * m / n, 100.0 * n_correct / m))
    return curve


@dataclass(frozen=True)
class SweepRow:
    """One operating point of a threshold sweep (answer when score > tau)."""

    tau: float
    coverage: float  # percent of the triggered subset retained
    accuracy: float  # percent correct among retained


def threshold_sweep(points: Sequence[EvalPoint]) -> list[SweepRow]:
    """One row per distinct score cut, in increasing coverage order.

    Row i retains every point scoring at least the i-th distinct score
    (descending); its tau is the midpoint to the next higher distinct score,
    or a sentinel one below the minimum for the retain-everything row, so
    that "answer when score > tau" reproduces the retained set exactly.
    """
    if not points:
        raise ValueError("threshold_sweep needs at least one point")
    ordered = _ordered(points)
    n = len(ordered)
    distinct: list[float] = []
    for p in ordered:
        if not distinct or p.score != distinct[-1]:
            distinct.append(p.score)
    rows = []
    m = 0
    n_correct = 0
    idx = 0
    for i, cut in enumerate(distinct):
        while idx < n and ordered[idx].score == cut:
            n_correct += ordered[idx].correct
            m += 1
            idx += 1
        if i + 1 < len(distinct):
            tau = (cut + distinct[i + 1]) / 2.0
            if tau >= cut:  # adjacent floats can round the midpoint up
                tau = distinct[i + 1]
        else:
            tau = cut - 1.0
        rows.append(SweepRow(tau=tau, coverage=100.0 * m / n, accuracy=100.0 * n_correct / m))
    return rows


def accuracy_at_trigger(
    scored: Sequence[ScoredPrediction], classifier: str = "em"
) -> tuple[float | None, float]:
    """(accuracy%, trigger rate%) of the raw abstention rule.

    Accuracy is None when nothing triggered.
    """
    if not scored:
        raise ValueError("accuracy_at_trigger needs at least one record")
    triggered = [s for s in scored if s.triggered]
    trigger_rate = 100.0 * len(triggered) / len(scored)
    if not triggered:
        return None, trigger_rate
    n_correct = sum(_verdict(s, classifier) for s in triggered)
    return 100.0 * n_correct / len(triggered), trigger_rate


def _verdict(scored: ScoredPrediction, classifier: str) -> bool:
    try:
        return scored.correct[classifier]
    except KeyError:
        raise ValueError(
            f"record {scored.question_id!r} has no verdict for classifier "
            f"{classifier!r} (has: {sorted(scored.correct)})"
        ) from None


def method_points(
    scored: Iterable[ScoredPrediction], method: str, classifier: str = "em"
) -> list[EvalPoint]:
    """One method's (score, verdict) point for every triggered record."""
    return [
        EvalPoint(score=s.scores[method], correct=_verdict(s, classifier), record_id=s.question_id)
        for s in scored
        if s.triggered
    ]


def build_report(
    scored: Sequence[ScoredPrediction],
    methods: Sequence[str],
    acc_targets: Sequence[float] = (60.0, 70.0, 80.0),
    classifier: str = "em",
    n_bins: int = 10,
    meta: dict[str, str] | None = None,
) -> CalibrationReport:
    """Assemble the calibration report over the triggered subset.

    With zero triggered records every metric cell is None.
    """
    if not scored:
        raise ValueError("build_report needs at least one record")
    accuracy, trigger_rate = accuracy_at_trigger(scored, classifier)
    triggered = [s for s in scored if s.triggered]
    rows: dict[str, MethodMetrics] = {}
    for method in methods:
        points = method_points(triggered, method, classifier)
        if points:
            rows[method] = MethodMetrics(
                auc=roc_auc(points),
                ece=ece(points, n_bins),
                coverage_at={float(t): coverage_at_accuracy(points, t) for t in acc_targets},
            )
        else:
            rows[method] = MethodMetrics(
                auc=None, ece=None, coverage_at={float(t): None for t in acc_targets}
            )
    return CalibrationReport(
        methods=rows,
        accuracy=accuracy,
        trigger_rate=trigger_rate,
        n_total=len(scored),
        n_triggered=len(triggered),
        meta=dict(meta or {}),
    )
