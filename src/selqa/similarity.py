"""Sentence-level BLEU and the pluggable answer-pair similarity abstraction.

Everything here works on normalized text: the callers that hold raw answers
(scoring and correctness) normalize each answer once, and similarity
functions score a (candidate, reference) pair of normalized answers into
[0, 1]. ``SimilarityFn.score_matrix`` scores candidates against references
in one call, the seam a batching scorer overrides. ``answer_similarities``,
the one checked entry point, applies the abstention override and checks
what score_matrix returns: its shape, then every score in one pass that
names the first one outside [0, 1] and accepts ints as well as floats.

The built-in scorer is smoothed sentence BLEU from per-answer n-gram
tables, built once per answer per call. A rectangle scores every pair. A
square scores only the pairs of answers that share a token, found by
testing their token sets; any other pair has no unigram overlap, so it is
0.0 both ways, and its diagonal is 1.0, or 0.0 for an answer with no
token, without scoring. Nothing is kept between calls. External
model-backed scorers plug in through :mod:`selqa.adapter` and are held to
the same output contract.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from itertools import chain
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
    cand, ref = _ngram_table(candidate), _ngram_table(reference)
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

    def score_matrix(
        self, candidates: Sequence[str], references: Sequence[str]
    ) -> list[list[float]]:
        """Raw similarity of each candidate (row) to each reference (column).

        The default asks similarity once per cell, row-major; a scorer that
        can batch overrides it.
        """
        return [[self.similarity(a, b) for b in references] for a in candidates]

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
        return bleu(tokenize(candidate, self.mode), tokenize(reference, self.mode))

    def score_matrix(
        self, candidates: Sequence[str], references: Sequence[str]
    ) -> list[list[float]]:
        if candidates != references:
            cands = [_ngram_table(tokenize(answer, self.mode)) for answer in candidates]
            refs = [_ngram_table(tokenize(answer, self.mode)) for answer in references]
            return [[_bleu(a[0], b[0], _overlaps(a, b)) for b in refs] for a in cands]
        # A square: an answer scores 1.0 against itself when it has a token.
        # A pair that shares no token has no unigram overlap, so its BLEU is
        # 0.0 both ways: only the pairs that share one are scored, each
        # unordered pair's overlaps serve both of its directions, and only
        # their answers get n-gram tables, one per answer per call.
        cands = [tokenize(answer, self.mode) for answer in candidates]
        cand_sets = [set(tokens) for tokens in cands]
        pairs = [(i, j) for i, a in enumerate(cand_sets)
                 for j in range(i) if not a.isdisjoint(cand_sets[j])]
        tables = {k: _ngram_table(cands[k]) for k in set(chain.from_iterable(pairs))}
        matrix = [[0.0] * len(cands) for _ in cands]
        for i, tokens in enumerate(cands):
            if tokens:
                matrix[i][i] = 1.0
        for i, j in pairs:
            a, b = tables[i], tables[j]
            overlaps = _overlaps(a, b)
            matrix[i][j] = _bleu(a[0], b[0], overlaps)
            matrix[j][i] = _bleu(b[0], a[0], overlaps)
        return matrix


def answer_similarity(candidate: str, reference: str, fn: SimilarityFn) -> float:
    """answer_similarities of one pair of normalized answers."""
    return answer_similarities([candidate], [reference], fn)[0][0]


def answer_similarities(
    candidates: Sequence[str], references: Sequence[str], fn: SimilarityFn
) -> list[list[float]]:
    """Similarity of each normalized candidate to each normalized reference.

    An abstention (text containing "unanswerable") scores 0 against a proper
    answer and 1 against another abstention. The proper answers go to one
    fn.score_matrix call, whose result is checked, not trusted: anything but
    a matrix of its shape holding reals in [0, 1], bool excluded, is an AdapterError.
    When nothing abstains, a list of lists of floats is returned as
    score_matrix gave it; any other result is copied into lists of floats.
    """
    cand_abstains = [ABSTENTION_MARKER in answer for answer in candidates]
    ref_abstains = [ABSTENTION_MARKER in answer for answer in references]
    proper_cands = [a for a, flag in zip(candidates, cand_abstains) if not flag]
    proper_refs = [b for b, flag in zip(references, ref_abstains) if not flag]
    raw = fn.score_matrix(proper_cands, proper_refs)
    m, n = len(proper_cands), len(proper_refs)
    try:
        shaped = len(raw) == m and all(len(row) == n for row in raw)
    except TypeError:  # None, a number, a generator, or such a row
        shaped = False
    if not shaped:
        raise AdapterError(f"similarity {fn.name!r} score_matrix result is not {m} x {n}")
    # One pass names the first bad score, row-major. A list of lists of
    # floats in [0, 1] is returned as it came when nothing abstains; ints
    # and float subclasses pass but send the rows through float().
    exact = type(raw) is list
    for row in raw:
        if type(row) is not list:
            exact = False
        for score in row:
            if type(score) is float and 0.0 <= score <= 1.0:
                continue
            if (type(score) is bool or not isinstance(score, (float, int))
                    or not 0.0 <= score <= 1.0):
                raise AdapterError(f"similarity {fn.name!r} returned {score!r}, "
                                   "outside the [0, 1] contract")
            exact = False
    if exact and m == len(candidates) and n == len(references):
        return raw
    rows = iter(raw)
    matrix = []
    for flag in cand_abstains:
        scores = map(float, () if flag else next(rows))
        matrix.append([float(flag) if other else 0.0 if flag else next(scores)
                       for other in ref_abstains])
    return matrix

