"""Sentence-level BLEU and the pluggable answer-pair similarity abstraction.

Everything here works on normalized text: the callers that hold raw answers
(scoring and correctness) normalize each answer once, and similarity
functions score a (candidate, reference) pair of normalized answers into
[0, 1]. The built-in scorer is smoothed sentence BLEU; external model-backed
scorers plug in through :mod:`selqa.adapter` and are held to the same output
contract.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from functools import lru_cache
from typing import Sequence

from .errors import AdapterError
from .records import ABSTENTION_MARKER
from .textnorm import tokenize


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


def _ngram_counts(tokens: tuple[str, ...], n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


class SimilarityFn(ABC):
    """An answer-pair similarity scorer over normalized text.

    Implementations must return values in [0, 1] and score any non-empty
    answer against itself as 1.
    """

    name: str = "similarity"

    @abstractmethod
    def similarity(self, candidate: str, reference: str) -> float:
        """Score a normalized candidate against a normalized reference."""

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
        return _bleu_text(candidate, reference, self.mode)


@lru_cache(maxsize=1 << 16)
def _bleu_text(candidate: str, reference: str, mode: str) -> float:
    return bleu(tokenize(candidate, mode), tokenize(reference, mode))


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
    score = fn.similarity(candidate, reference)
    if not (isinstance(score, (int, float)) and math.isfinite(score) and 0.0 <= score <= 1.0):
        raise AdapterError(
            f"similarity {fn.name!r} returned {score!r}, outside the [0, 1] contract"
        )
    return float(score)
