"""The four answer-confidence scoring methods and the trigger decision.

All scores land in [0, 1] and rank "answer" over "abstain":

* likelihood  - the sequence probability exp(sum of token logprobs), no
  length normalization.
* repetition  - frequency of the modal normalized sample over the sample
  count (the probability of the mode of the empirical distribution).
* diversity   - 1 - (#unique normalized samples) / #samples.
* avg-bleu    - likelihood-weighted mean of pairwise similarities over the
  distinct sampled answers; generalizes to any similarity function and
  collapses to the likelihood score when all samples agree.

The sampling scores read one grouping of a record's samples by normalized
text; score_record builds it once per record, at its first sampling method.
score_record is plan_scores, which needs no similarity, then finish_scores,
which makes the similarity calls. The CLI calls these two itself, with the
method names it resolved once for the run, and its adapter runs hold a
window of records' plans while their pairs go to the scorer.
avg-bleu scores a record's distinct answers against each other with one
similarity.answer_similarities call, which applies the abstention override,
makes one score_matrix call and checks every returned score in one pass.
Built-in BLEU scores only the pairs of answers that share a token (any
other pair is 0.0) and sets each answer's diagonal cell to 1.0, or 0.0
when it has no token.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .correctness import CorrectnessClassifier
from .errors import JoinError
from .io import gold_entry
from .records import (
    ABSTENTION_MARKER,
    GoldRecord,
    PredictionRecord,
    SampledAnswer,
    ScoredPrediction,
    check_scored,
)
from .similarity import BleuSimilarity, SimilarityFn, answer_similarities
from .textnorm import normalize_answer

#: Names accepted by score requests; the avg method's report key follows the
#: similarity function in use ("avg-bleu" builtin, "avg-<name>" for adapters).
BUILTIN_METHODS = ("likelihood", "repetition", "diversity", "avg-bleu")


def likelihood_score(answer: SampledAnswer) -> float:
    """Sequence probability of one answer via the chain rule."""
    if not answer.logprobs:
        raise ValueError("likelihood needs at least one token logprob")
    try:
        total = math.fsum(answer.logprobs)
    except OverflowError:  # the sum left the float range; logprobs are <= 0, so toward -inf
        return 0.0
    return math.exp(total)


_Groups = dict[str, list[SampledAnswer]]
#: What the avg method needs of a record besides a similarity: its distinct
#: normalized answers and the weight of each.
AvgInputs = tuple[list[str], list[float]]


def _group_samples(samples: Sequence[SampledAnswer], method: str) -> _Groups:
    """Samples keyed by normalized text, keys in first-occurrence order."""
    if not samples:
        raise ValueError(f"{method} needs at least one sample")
    groups: _Groups = {}
    for sample in samples:
        groups.setdefault(normalize_answer(sample.text), []).append(sample)
    return groups


def repetition_score(samples: Sequence[SampledAnswer]) -> float:
    """Relative frequency of the most common normalized sample text."""
    return _repetition(_group_samples(samples, "repetition"))


def _repetition(groups: _Groups) -> float:
    return max(map(len, groups.values())) / sum(map(len, groups.values()))


def diversity_score(samples: Sequence[SampledAnswer]) -> float:
    """One minus the fraction of distinct normalized sample texts.

    Zero when all samples differ; 1 - 1/N when they all agree.
    """
    return _diversity(_group_samples(samples, "diversity"))


def _diversity(groups: _Groups) -> float:
    return 1.0 - len(groups) / sum(map(len, groups.values()))


def avg_bleu_score(samples: Sequence[SampledAnswer], fn: SimilarityFn | None = None) -> float:
    """Likelihood-weighted average similarity over distinct sampled answers.

    With k distinct normalized answers a_1..a_k, each weighted by the
    sequence probability of its first occurrence, the score is
    (1/k) * sum over all ordered pairs (i, j) of p(a_i) * sim(a_i, a_j),
    diagonal included, so a unanimous sample set reduces to the likelihood
    score of that answer. A record whose weights sum above 1 is rejected.
    """
    fn = fn if fn is not None else BleuSimilarity()
    return _avg_similarity(_group_samples(samples, f"avg-{fn.name}"), fn)


def _avg_similarity(groups: _Groups, fn: SimilarityFn) -> float:
    keys, weights = _avg_inputs(groups)
    return _avg_score(weights, answer_similarities(keys, keys, fn))


def _avg_inputs(groups: _Groups) -> AvgInputs:
    weights = [likelihood_score(group[0]) for group in groups.values()]
    # Weights are probabilities of distinct sequences, so a consistent dump
    # keeps their sum at or below 1; beyond float noise the dump lies.
    total = math.fsum(weights)
    if total > 1.0 + 1e-9:
        raise ValueError(f"distinct-sample probabilities sum above 1 ({total})")
    return list(groups), weights


def _avg_score(weights: list[float], rows: list[list[float]]) -> float:
    """The avg method's score from the weights and the similarity matrix of the answers."""
    # fsum is exact, so the result depends neither on the order of the terms
    # nor on the zero ones, which are most of a BLEU square and are left out.
    terms = [weight * score for weight, row in zip(weights, rows) for score in row if score]
    # With similarities in [0, 1] the score is at most the weight sum.
    return min(math.fsum(terms) / len(weights), 1.0)


def trigger_decision(greedy: SampledAnswer) -> bool:
    """Answer (True) unless the raw greedy text contains the abstention marker."""
    return ABSTENTION_MARKER not in greedy.text.lower()


def resolve_method_names(methods: Iterable[str], sim_name: str = "bleu") -> list[str]:
    """Validate requested method names and fix the avg method's report key.

    "avg-bleu" always requests the average-similarity method; its key in
    scores and reports is "avg-" plus the active similarity's name.
    """
    avg_key = f"avg-{sim_name}"
    resolved: list[str] = []
    for method in methods:
        if method in ("likelihood", "repetition", "diversity"):
            key = method
        elif method == "avg-bleu" or method == avg_key:
            key = avg_key
        else:
            raise ValueError(
                f"unknown scoring method {method!r}; expected one of "
                f"{', '.join(BUILTIN_METHODS)}"
            )
        if key not in resolved:
            resolved.append(key)
    if not resolved:
        raise ValueError("no scoring methods requested")
    return resolved


def score_record(
    record: PredictionRecord, methods: Iterable[str], fn: SimilarityFn | None = None
) -> dict[str, float]:
    """Compute the requested confidence scores for one record."""
    fn = fn if fn is not None else BleuSimilarity()
    names = resolve_method_names(methods, fn.name)
    parts, error = plan_scores(record, names)
    scores = finish_scores(names, parts, fn)
    if error is not None:
        raise error
    return scores


def plan_scores(
    record: PredictionRecord, methods: Sequence[str]
) -> tuple[list[float | AvgInputs], ValueError | None]:
    """What scoring a record takes besides a similarity, method by method.

    methods are resolved names. Each part is a method's score, or the avg
    method's AvgInputs, in methods' order up to the first method that
    cannot score the record; the error is that method's (None if every
    method can). Each sample is normalized once, so a caller can hold the
    parts instead of the record and score them later with finish_scores.
    """
    parts: list[float | AvgInputs] = []
    groups = None
    try:
        for name in methods:
            if name == "likelihood":
                parts.append(likelihood_score(record.greedy))
                continue
            groups = groups or _group_samples(record.samples, name)
            if name == "repetition":
                parts.append(_repetition(groups))
            elif name == "diversity":
                parts.append(_diversity(groups))
            else:
                parts.append(_avg_inputs(groups))
    except ValueError as exc:
        return parts, exc
    return parts, None


def finish_scores(
    methods: Sequence[str], parts: Sequence[float | AvgInputs], fn: SimilarityFn
) -> dict[str, float]:
    """The scores of plan_scores' parts, keyed by method, the avg method's through fn."""
    return {
        name: _avg_score(part[1], answer_similarities(part[0], part[0], fn))
        if type(part) is tuple else part
        for name, part in zip(methods, parts)
    }


def score_all(
    record: PredictionRecord,
    gold: GoldRecord,
    methods: Iterable[str] = BUILTIN_METHODS,
    fn: SimilarityFn | None = None,
    classifiers: Sequence[CorrectnessClassifier] | None = None,
) -> ScoredPrediction:
    """Join one record with its gold and produce the full scored row.

    Abstained records get scores but no correctness verdicts.
    """
    if record.question_id != gold.question_id:
        raise JoinError(
            f"question_id mismatch: prediction {record.question_id!r} "
            f"vs gold {gold.question_id!r}"
        )
    if classifiers is None:
        classifiers = (CorrectnessClassifier.exact_match(),)
    triggered = trigger_decision(record.greedy)
    scores = score_record(record, methods, fn)
    check_scored(triggered, scores, {})  # before any verdict
    correct: dict[str, bool] = {}
    if triggered:
        prediction, entry = normalize_answer(record.greedy.text), gold_entry(gold)
        for clf in classifiers:
            correct[clf.name] = clf._verdict(prediction, entry)
    return ScoredPrediction(record.question_id, triggered, scores, correct, gold.answerable)

