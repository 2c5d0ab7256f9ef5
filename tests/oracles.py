"""Brute-force reference implementations used to check the fast paths.

These deliberately recompute everything from the definitions: exhaustive
pairwise comparison for the ranking statistic, a full prefix rescan per
cut for coverage, a fresh sort and slice per calibration bin, a full
recount of the retained set per sweep cut, and per-pair normalization from
raw text for avg-bleu. Apart from normalize_answer and the similarity
function under test, they share no code with the package.
"""

from __future__ import annotations

import math
import random

from selqa import EvalPoint
from selqa.textnorm import normalize_answer


def pairwise_auc(points) -> float | None:
    positives = [p for p in points if p.correct]
    negatives = [p for p in points if not p.correct]
    if not positives or not negatives:
        return None
    total = 0.0
    for p in positives:
        for q in negatives:
            if p.score > q.score:
                total += 1.0
            elif p.score == q.score:
                total += 0.5
    return total / (len(positives) * len(negatives))


def prefix_coverage(points, acc_target: float) -> float:
    ordered = sorted(points, key=lambda p: (-p.score, p.record_id))
    n = len(ordered)
    best = 0
    for m in range(1, n + 1):
        prefix = ordered[:m]
        accuracy = sum(p.correct for p in prefix) / m
        if accuracy >= acc_target / 100.0:
            best = m
    return 100.0 * best / n


def prefix_curve(points) -> list[tuple[float, float]]:
    ordered = sorted(points, key=lambda p: (-p.score, p.record_id))
    n = len(ordered)
    curve = []
    for m in range(1, n + 1):
        prefix = ordered[:m]
        # same percent convention as the implementation (100*k then divide),
        # so equality checks compare identical-precision values
        curve.append((100.0 * m / n, 100.0 * sum(p.correct for p in prefix) / m))
    return curve


def binned_ece(points, n_bins: int) -> float:
    ordered = sorted(points, key=lambda p: (-p.score, p.record_id))
    n = len(ordered)
    gaps = []
    start = 0
    for b in range(n_bins):
        size = n // n_bins + (1 if b < n % n_bins else 0)
        chunk = ordered[start : start + size]
        start += size
        if chunk:
            mean_score = math.fsum(p.score for p in chunk) / len(chunk)
            accuracy = sum(1 for p in chunk if p.correct) / len(chunk)
            gaps.append(abs(mean_score - accuracy))
    return math.fsum(gaps) / len(gaps)


def cut_sweep(points) -> list[tuple[float, float, float]]:
    """(tau, coverage, accuracy) per distinct score, highest cut first."""
    cuts = sorted({p.score for p in points}, reverse=True)
    n = len(points)
    rows = []
    for i, cut in enumerate(cuts):
        retained = [p for p in points if p.score >= cut]
        if i + 1 < len(cuts):
            tau = (cut + cuts[i + 1]) / 2.0
            if tau >= cut:
                tau = cuts[i + 1]
        else:
            tau = cut - 1.0
        n_correct = sum(1 for p in retained if p.correct)
        rows.append((tau, 100.0 * len(retained) / n, 100.0 * n_correct / len(retained)))
    return rows


def brute_avg_bleu(samples, fn) -> float:
    """Avg-bleu from raw sample texts, normalizing both sides of every pair."""
    firsts = {}
    for sample in samples:
        firsts.setdefault(normalize_answer(sample.text), sample)
    raw = [(s.text, math.exp(math.fsum(s.logprobs))) for s in firsts.values()]
    terms = []
    for a, weight in raw:
        for b, _ in raw:
            norm_a, norm_b = normalize_answer(a), normalize_answer(b)
            a_abstains = "unanswerable" in norm_a
            b_abstains = "unanswerable" in norm_b
            if a_abstains or b_abstains:
                sim = 1.0 if a_abstains and b_abstains else 0.0
            else:
                sim = fn.similarity(norm_a, norm_b)
            terms.append(weight * sim)
    return min(math.fsum(terms) / len(raw), 1.0)


def random_points(rng: random.Random, max_n: int = 200, grid=None) -> list[EvalPoint]:
    """Random instances with deliberate score ties.

    The default grid is dyadic, so every sum of scores is exact; a decimal
    grid makes float rounding in sums show.
    """
    n = rng.randint(1, max_n)
    grid = grid or [i / 8 for i in range(9)]
    return [
        EvalPoint(score=rng.choice(grid), correct=rng.random() < 0.5, record_id=f"r{i:04d}")
        for i in range(n)
    ]
