"""Brute-force reference implementations used to check the fast paths.

These deliberately recompute everything from the definitions: exhaustive
pairwise comparison for the ranking statistic, a full prefix rescan per
cut for coverage, a fresh sort and slice per calibration bin, a full
recount of the retained set per sweep cut, per-pair normalization from
raw text for avg-bleu, fresh n-gram Counters per pair for BLEU, and a
per-character category test for answer normalization, and a dump reader
that checks one line at a time, field by field. Apart from normalize_answer,
the similarity function under test and the dump reader's per-line decoding
and per-field checks, they share no code with the package.
"""

from __future__ import annotations

import json
import math
import random
import unicodedata
from collections import Counter

from selqa import EvalPoint, ParseError
from selqa.io import _check_unicode, _checked_record, _json_limit
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


def brute_bleu(candidate, reference) -> float:
    """Smoothed 4-gram sentence BLEU with fresh n-gram Counters for every pair."""
    cand_len = len(candidate)
    ref_len = len(reference)
    if cand_len == 0:
        return 0.0
    order = min(4, cand_len)
    precisions = []
    for n in range(1, order + 1):
        cand_counts = _ngram_counts(tuple(candidate), n)
        ref_counts = _ngram_counts(tuple(reference), n)
        matches = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        total = cand_len - n + 1
        if n == 1:
            if matches == 0:
                return 0.0
            precisions.append(matches / total)
        else:
            precisions.append((matches + 1) / (total + 1))
    geo_mean = math.prod(precisions) ** (1.0 / order)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * geo_mean


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def brute_normalize(raw: str) -> str:
    """Answer normalization with one Unicode category lookup per character."""
    chars = []
    for ch in raw.lower():
        if unicodedata.category(ch).startswith("P"):
            chars.append(" ")
        else:
            chars.append(ch)
    words = "".join(chars).split()
    return " ".join(w for w in words if w not in {"a", "an", "the"})


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


def seen_join(ids, gold_ids, path: str):
    """A join that keeps a set of every prediction id seen, over ids on lines 1, 2, ...

    Returns (matched ids, summary fields, None), or (matched ids before the
    error, None, the duplicate error's message). The summary fields are
    (n_matched, n_unmatched_predictions, n_unmatched_gold, first ten
    unmatched prediction ids, first ten unmatched gold ids).
    """
    seen: set[str] = set()
    matched, unmatched = [], []
    gold = set(gold_ids)
    for line, qid in enumerate(ids, start=1):
        if qid in seen:
            return matched, None, f"{path}: line {line}: question_id {qid!r}: duplicate question_id"
        seen.add(qid)
        (matched if qid in gold else unmatched).append(qid)
    unmatched_gold = [qid for qid in gold_ids if qid not in seen]
    fields = (len(matched), len(unmatched), len(unmatched_gold), unmatched[:10], unmatched_gold[:10])
    return matched, fields, None


def formatted_curve(curve) -> bytes:
    """A curve's csv bytes, a line string per (coverage, accuracy) point."""
    lines = ["coverage,accuracy"] + [f"{c:.4f},{a:.4f}" for c, a in curve]
    return ("\n".join(lines) + "\n").encode("utf-8")


def line_at_a_time_predictions(path, start=0, end=None, first_line=1, *, samples=True):
    """iter_predictions as one loop that decodes, parses, checks and yields each line in turn.

    Each record takes the per-field path (_checked_record), which the
    accept passes agree with wherever they take a line.
    """
    with open(path, "rb") as f:
        f.seek(start)
        offset = start
        for lineno, raw in enumerate(f, start=first_line):
            if end is not None and offset >= end:
                return
            offset += len(raw)
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
            yield _checked_record(obj, lineno, path, where, samples)
