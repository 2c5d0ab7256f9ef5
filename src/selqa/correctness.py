"""Answer-correctness classification against gold annotations.

A prediction counts as correct when it matches at least one gold answer,
either exactly (after normalization) or by clearing a similarity threshold.
Text is normalized uniformly across all classifiers, so "A system restore"
matches gold "system restore". The similarity rule scores the prediction
against every distinct gold answer in one answer_similarities call.
"""

from __future__ import annotations

from .io import gold_answers, gold_entry, gold_has
from .records import GoldRecord, _set, _Value
from .similarity import BleuSimilarity, SimilarityFn, answer_similarities
from .textnorm import normalize_answer


class CorrectnessClassifier(_Value):
    """A named correctness rule: exact match or similarity-above-threshold.

    The default similarity threshold of 0.5 is exposed, not hidden; reports
    record the threshold actually used.
    """

    __slots__ = _fields = __match_args__ = ("name", "threshold", "similarity")
    name: str
    threshold: float
    similarity: SimilarityFn | None

    def __init__(
        self, name: str = "em", threshold: float = 0.5, similarity: SimilarityFn | None = None
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
        if name != "em" and similarity is None:
            raise ValueError(f"classifier {name!r} needs a similarity function")
        _set(self, "name", name)
        _set(self, "threshold", threshold)
        _set(self, "similarity", similarity)

    @classmethod
    def exact_match(cls) -> "CorrectnessClassifier":
        return cls(name="em")

    @classmethod
    def bleu_threshold(
        cls, threshold: float = 0.5, mode: str = "word"
    ) -> "CorrectnessClassifier":
        return cls(
            name="bleu-threshold", threshold=threshold, similarity=BleuSimilarity(mode=mode)
        )

    @classmethod
    def adapter_threshold(
        cls, fn: SimilarityFn, threshold: float = 0.5
    ) -> "CorrectnessClassifier":
        return cls(name=f"adapter-threshold:{fn.name}", threshold=threshold, similarity=fn)

    def verdict(self, prediction: str, gold: GoldRecord) -> bool:
        """True iff the prediction matches some gold answer under this rule.

        Exact match compares normalized texts; the similarity rule asks
        whether the best similarity against any gold answer reaches the
        threshold, scoring each distinct normalized gold answer once.
        """
        return self._verdict(normalize_answer(prediction), gold_entry(gold))

    def _verdict(self, prediction: str, entry: str) -> bool:
        """The rule over a normalized prediction and a gold index entry (selqa.io.pack_gold).

        Exact match tests the entry's text; only the similarity rule reads
        its answers out.
        """
        if self.name == "em":
            return gold_has(entry, prediction)
        assert self.similarity is not None
        golds = gold_answers(entry)
        return max(answer_similarities([prediction], golds, self.similarity)[0]) >= self.threshold
