"""Sentence-level BLEU and the pluggable answer-pair similarity abstraction.

Everything here works on normalized text: the callers that hold raw answers
(scoring and correctness) normalize each answer once, and similarity
functions score a (candidate, reference) pair of normalized answers into
[0, 1]. ``SimilarityFn.pairwise`` scores every ordered pair of a list of
answers in one call, the seam a batching scorer overrides; its default asks
``similarity`` once per pair. The built-in scorer is smoothed sentence BLEU,
computed from per-answer n-gram tables, so its pairwise scoring tokenizes and
counts each answer once; it keeps no cache between calls. External
model-backed scorers plug in through :mod:`selqa.adapter` and are held to
the same output contract.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from typing import Sequence

from .errors import AdapterError
from .records import ABSTENTION_MARKER
from .textnorm import tokenize

#: One order's n-grams: a frozenset when none repeats, else their counts.
_Grams = frozenset | Counter
#: A token sequence's length and its n-gram tables, orders 1 to min(4, length).
_Table = tuple[int, tuple[_Grams, ...]]


def bleu(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Smoothed 4-gram sentence-level BLEU of a candidate against one reference.

    The effective order is capped at the candidate length, and precisions of
    order >= 2 get add-one smoothing ((matches+1)/(total+1)); p1 stays
    unsmoothed so a candidate sharing no unigram with the reference scores 0.
    Without both tweaks, one- and two-word answers (the common case in short
    QA) would score 0 against almost everything. The brevity penalty is
    exp(1 - |ref|/|cand|) for candidates shorter than the reference, else 1.
    Any change to this smoothing changes downstream average-similarity
    scores, so it is pinned by fixtures.
    """
    return _bleu_tables(_ngram_table(candidate), _ngram_table(reference))


def _bleu_tables(cand: _Table, ref: _Table) -> float:
    return _bleu(cand[0], ref[0], _overlaps(cand, ref))


def _ngram_table(tokens: Sequence[str]) -> _Table:
    """Count a token sequence's n-grams once, for every pair it will be in."""
    grams: list[_Grams] = []
    for n in range(1, min(4, len(tokens)) + 1):
        ngrams = list(tokens) if n == 1 else list(zip(*(tokens[i:] for i in range(n))))
        distinct = frozenset(ngrams)
        grams.append(distinct if len(distinct) == len(ngrams) else Counter(ngrams))
    return len(tokens), tuple(grams)


def _overlaps(a: _Table, b: _Table) -> list[int]:
    """Clipped n-gram overlaps of two tables, from order 1 up to the first zero.

    Symmetric in a and b. The overlap of one order is the sum over shared
    n-grams of the smaller count; a frozenset side holds each n-gram once, so
    there it is the number of shared n-grams. Orders past the list's end
    overlap 0: every shared (n+1)-gram holds a shared n-gram.
    """
    overlaps = []
    for x, y in zip(a[1], b[1]):
        if type(x) is frozenset:
            matches = len(x.intersection(y))
        elif type(y) is frozenset:
            matches = len(y.intersection(x))
        else:
            matches = sum(min(count, y[gram]) for gram, count in x.items() if gram in y)
        if not matches:
            break
        overlaps.append(matches)
    return overlaps


def _bleu(cand_len: int, ref_len: int, overlaps: list[int]) -> float:
    """BLEU of a candidate against a reference from their lengths and overlaps."""
    if cand_len == 0 or not overlaps:
        return 0.0
    order = min(4, cand_len)
    # The product of p_n = matches / total, smoothed from n = 2 on, where
    # total = cand_len - n + 1; left to right, as math.prod would take it.
    product = overlaps[0] / cand_len
    for n in range(2, order + 1):
        matches = overlaps[n - 1] if n <= len(overlaps) else 0
        product *= (matches + 1) / (cand_len - n + 2)
    geo_mean = product ** (1.0 / order)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * geo_mean


class SimilarityFn(ABC):
    """An answer-pair similarity scorer over normalized text.

    Implementations must return values in [0, 1] and score any non-empty
    answer against itself as 1.
    """

    name: str = "similarity"

    @abstractmethod
    def similarity(self, candidate: str, reference: str) -> float:
        """Score a normalized candidate against a normalized reference."""

    def pairwise(self, answers: Sequence[str]) -> list[list[float]]:
        """Raw similarity of every ordered pair of normalized answers, row-major.

        Row i holds similarity(answers[i], answers[j]) for every j, diagonal
        included. The default asks similarity once per pair in that order;
        a scorer that can batch overrides it.
        """
        return [[self.similarity(a, b) for b in answers] for a in answers]

    def close(self) -> None:
        """Release any held resources (no-op for pure scorers)."""

    def __enter__(self) -> "SimilarityFn":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BleuSimilarity(SimilarityFn):
    """Built-in BLEU similarity; pure and safe to share across threads."""

    name = "bleu"

    def __init__(self, mode: str = "word") -> None:
        if mode not in ("word", "char"):
            raise ValueError(f"unknown tokenization mode: {mode!r}")
        self.mode = mode

    def similarity(self, candidate: str, reference: str) -> float:
        return _bleu_tables(self._table(candidate), self._table(reference))

    def pairwise(self, answers: Sequence[str]) -> list[list[float]]:
        # Each answer is tokenized and counted once; each unordered pair's
        # overlaps are counted once and serve both of its directions.
        tables = [self._table(answer) for answer in answers]
        matrix = [[0.0] * len(tables) for _ in tables]
        for i, a in enumerate(tables):
            for j in range(i, len(tables)):
                b = tables[j]
                overlaps = _overlaps(a, b)
                matrix[i][j] = _bleu(a[0], b[0], overlaps)
                matrix[j][i] = _bleu(b[0], a[0], overlaps)
        return matrix

    def _table(self, answer: str) -> _Table:
        return _ngram_table(tokenize(answer, self.mode))


def answer_similarity(candidate: str, reference: str, fn: SimilarityFn) -> float:
    """Similarity of two normalized answers with the abstention override applied.

    Both sides must already be normalized (see textnorm.normalize_answer).
    An abstention (text containing "unanswerable") has similarity 0 to any
    proper answer and 1 to another abstention; only proper pairs reach the
    underlying similarity function, whose output is range-checked rather
    than trusted.
    """
    cand_abstains = ABSTENTION_MARKER in candidate
    ref_abstains = ABSTENTION_MARKER in reference
    if cand_abstains and ref_abstains:
        return 1.0
    if cand_abstains or ref_abstains:
        return 0.0
    return checked_score(fn.similarity(candidate, reference), fn)


def checked_score(score: object, fn: SimilarityFn) -> float:
    """A similarity score as a float, or AdapterError unless it is a real in [0, 1].

    bool is rejected although it subclasses int: True is not a score of 1.
    NaN and infinities fail the range test.
    """
    if isinstance(score, (int, float)) and not isinstance(score, bool) and 0.0 <= score <= 1.0:
        return float(score)
    raise AdapterError(f"similarity {fn.name!r} returned {score!r}, outside the [0, 1] contract")
