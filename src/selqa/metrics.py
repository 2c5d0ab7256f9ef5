"""Calibration metrics over the triggered subset.

Every metric reads one ranking (rank_methods): a method's scores of the
triggered records of a column table (selqa._columns), sorted once by
descending score, ties broken by ascending record id, and an integer count
of correct records in each prefix. AUC and coverage use exact integer
counts, ECE sums bin scores with fsum, so every metric is a pure,
reproducible function of its input set. The CLI ranks its run's table once
per method, and the report, the risk-coverage curves and the threshold
sweep read those rankings. build_report and the per-point metrics put their
rows or points in a table first and rank it the same way, so there is one
ranking path. Degenerate cases (no positives, no negatives, nothing
triggered) yield None, never 0 or NaN.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, compress, starmap
from typing import Iterable, Iterator, Sequence

from ._columns import Columns
from .records import CalibrationReport, MethodMetrics, ScoredPrediction, _set, _Value


class EvalPoint(_Value):
    """One (confidence score, correctness) observation."""

    __slots__ = _fields = __match_args__ = ("score", "correct", "record_id")
    score: float
    correct: bool
    record_id: str

    def __init__(self, score: float, correct: bool, record_id: str = "") -> None:
        if not (math.isfinite(score) and 0.0 <= score <= 1.0):
            raise ValueError(f"score out of [0, 1]: {score}")
        _set(self, "score", score)
        _set(self, "correct", correct)
        _set(self, "record_id", record_id)


class RiskCoveragePoint(_Value):
    """Accuracy of the top coverage% most-confident predictions."""

    __slots__ = _fields = __match_args__ = ("coverage", "accuracy")
    coverage: float  # percent in (0, 100]
    accuracy: float  # percent in [0, 100]

    def __init__(self, coverage: float, accuracy: float) -> None:
        _set(self, "coverage", coverage)
        _set(self, "accuracy", accuracy)


#: A ranking: the scores in ranked order and the prefix counts of correct points.
Ranking = tuple[Sequence[float], Sequence[int]]


def rank_methods(table: Columns) -> dict[str, Ranking]:
    """Each method's one ranking of the table's triggered records.

    A ranking is the scores in descending order, ties by ascending record
    id, and hits, where hits[m] is the number of correct records among the
    top m (so hits[0] == 0). Records with equal scores and ids keep their
    table order. The report, the curves and the sweep read these.
    """
    ids, correct = table.ids, table.correct
    # Sorted by id, then stably by score: the order of the key (-score, id).
    by_id = sorted(compress(range(len(table)), table.triggered), key=ids.__getitem__)
    rankings = {}
    for method, column in table.scores.items():
        order = sorted(by_id, key=column.__getitem__, reverse=True)
        rankings[method] = (
            array("d", map(column.__getitem__, order)),
            array("q", accumulate(map(correct.__getitem__, order), initial=0)),
        )
    return rankings


def _rank(points: Iterable[EvalPoint]) -> Ranking:
    """The ranking of points, as rank_methods ranks a method's column."""
    table = Columns(("score",))
    for p in points:
        table.append(p.record_id, (True, p.correct, True, (p.score,)))
    return rank_methods(table)["score"]


def _run_ends(scores: Sequence[float]) -> list[int]:
    """Prefix lengths at which a run of tied scores ends, the last being N."""
    return [m for m in range(1, len(scores)) if scores[m] != scores[m - 1]] + [len(scores)]


def ece(points: Sequence[EvalPoint], n_bins: int = 10) -> float:
    """Expected calibration error with equal-count confidence bins.

    Points are ranked by confidence and split into n_bins same-sized bins;
    when N is not divisible, the highest-confidence bins take one extra point
    each. The result is the unweighted mean of |mean score - accuracy| over
    the non-empty bins (with N < n_bins that is a mean over N singletons).
    """
    if not points:
        raise ValueError("ece needs at least one point")
    return _ece(*_rank(points), n_bins)


def _ece(scores: Sequence[float], hits: Sequence[int], n_bins: int) -> float:
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    base, extra = divmod(len(scores), n_bins)
    gaps = []
    start = 0
    for b in range(min(n_bins, len(scores))):  # later bins would be empty
        end = start + base + (b < extra)
        size = end - start
        accuracy = (hits[end] - hits[start]) / size
        gaps.append(abs(math.fsum(scores[start:end]) / size - accuracy))
        start = end
    return math.fsum(gaps) / len(gaps)


def roc_auc(points: Sequence[EvalPoint]) -> float | None:
    """Probability that a random correct point outscores a random incorrect one.

    Ties count 0.5. Walking runs of tied scores counts exactly the pairwise
    comparisons of brute force, as integers in half-units, with one division.
    Returns None when either class is empty.
    """
    return _auc(*_rank(points))


def _auc(scores: Sequence[float], hits: Sequence[int]) -> float | None:
    n_pos = hits[-1]
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    wins = 0  # twice the win count: each negative loses 2 to a higher positive, 1 to a tie
    start = 0
    for end in _run_ends(scores):
        run_pos = hits[end] - hits[start]
        wins += (end - start - run_pos) * (2 * hits[start] + run_pos)
        start = end
    return wins / (2 * n_pos * n_neg)


def coverage_at_accuracy(points: Sequence[EvalPoint], acc_target: float) -> float:
    """Maximum coverage (percent) whose most-confident prefix meets the target.

    Scans every prefix of the confidence-ranked points and returns
    100 * m / N for the largest m whose prefix accuracy reaches
    acc_target percent, or 0 when no prefix qualifies. N counts the
    points given (the triggered subset), not the full dump.
    """
    if not points:
        raise ValueError("coverage_at_accuracy needs at least one point")
    return _coverage(_rank(points)[1], acc_target)


def _coverage(hits: Sequence[int], acc_target: float) -> float:
    if not 0.0 < acc_target <= 100.0:
        raise ValueError(f"acc_target must lie in (0, 100], got {acc_target}")
    n = len(hits) - 1
    best = next((m for m in range(n, 0, -1) if hits[m] / m >= acc_target / 100.0), 0)
    return 100.0 * best / n


def risk_coverage_curve(points: Sequence[EvalPoint]) -> list[RiskCoveragePoint]:
    """Prefix accuracy at every coverage step 100*m/N, m = 1..N."""
    if not points:
        raise ValueError("risk_coverage_curve needs at least one point")
    return ranked_curve(_rank(points))


def ranked_curve(ranking: Ranking) -> list[RiskCoveragePoint]:
    """risk_coverage_curve read off a ranking; empty for an empty ranking."""
    return list(starmap(RiskCoveragePoint, curve_pairs(ranking)))


def curve_pairs(ranking: Ranking) -> Iterator[tuple[float, float]]:
    """The (coverage, accuracy) percentages of a ranking's curve, one prefix at a time."""
    hits = ranking[1]
    n = len(hits) - 1
    for m in range(1, n + 1):
        yield 100.0 * m / n, 100.0 * hits[m] / m


class SweepRow(_Value):
    """One operating point of a threshold sweep (answer when score > tau)."""

    __slots__ = _fields = __match_args__ = ("tau", "coverage", "accuracy")
    tau: float
    coverage: float  # percent of the triggered subset retained
    accuracy: float  # percent correct among retained

    def __init__(self, tau: float, coverage: float, accuracy: float) -> None:
        _set(self, "tau", tau)
        _set(self, "coverage", coverage)
        _set(self, "accuracy", accuracy)


def threshold_sweep(points: Sequence[EvalPoint]) -> list[SweepRow]:
    """One row per distinct score cut, in increasing coverage order.

    Row i retains every point scoring at least the i-th distinct score
    (descending); its tau is the midpoint to the next higher distinct score,
    or a sentinel one below the minimum for the retain-everything row, so
    that "answer when score > tau" reproduces the retained set exactly.
    """
    if not points:
        raise ValueError("threshold_sweep needs at least one point")
    return ranked_sweep(_rank(points))


def ranked_sweep(ranking: Ranking) -> list[SweepRow]:
    """threshold_sweep read off a ranking of at least one point."""
    scores, hits = ranking
    n = len(scores)
    rows = []
    for m in _run_ends(scores):
        cut = scores[m - 1]
        if m < n:
            tau = (cut + scores[m]) / 2.0
            if tau >= cut:  # adjacent floats can round the midpoint up
                tau = scores[m]
        else:
            tau = cut - 1.0
        rows.append(SweepRow(tau=tau, coverage=100.0 * m / n, accuracy=100.0 * hits[m] / m))
    return rows


def accuracy_at_trigger(
    scored: Sequence[ScoredPrediction], classifier: str = "em"
) -> tuple[float | None, float]:
    """(accuracy%, trigger rate%) of the raw abstention rule.

    Accuracy is None when nothing triggered.
    """
    if not scored:
        raise ValueError("accuracy_at_trigger needs at least one record")
    return _accuracy(Columns.from_rows(scored, (), classifier))


def _accuracy(table: Columns) -> tuple[float | None, float]:
    n_triggered = table.n_triggered
    trigger_rate = 100.0 * n_triggered / len(table)
    if not n_triggered:
        return None, trigger_rate
    return 100.0 * table.n_correct / n_triggered, trigger_rate


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
    table = Columns.from_rows(scored, methods, classifier)
    return report_from_rankings(table, rank_methods(table), acc_targets, n_bins, meta)


def report_from_rankings(
    table: Columns,
    rankings: dict[str, Ranking],
    acc_targets: Sequence[float],
    n_bins: int,
    meta: dict[str, str] | None,
) -> CalibrationReport:
    """build_report from a table and the rankings rank_methods returned for it."""
    if not table:
        raise ValueError("build_report needs at least one record")
    accuracy, trigger_rate = _accuracy(table)
    rows: dict[str, MethodMetrics] = {}
    for method, (scores, hits) in rankings.items():
        if scores:
            rows[method] = MethodMetrics(
                auc=_auc(scores, hits),
                ece=_ece(scores, hits, n_bins),
                coverage_at={float(t): _coverage(hits, t) for t in acc_targets},
            )
        else:
            rows[method] = MethodMetrics(
                auc=None, ece=None, coverage_at={float(t): None for t in acc_targets}
            )
    return CalibrationReport(
        methods=rows,
        accuracy=accuracy,
        trigger_rate=trigger_rate,
        n_total=len(table),
        n_triggered=table.n_triggered,
        meta=dict(meta or {}),
    )
