import pytest
from hypothesis import given
from hypothesis import strategies as st

from selqa import (
    BleuSimilarity,
    CorrectnessClassifier,
    GoldAnnotation,
    GoldRecord,
    answer_similarity,
)
from selqa.textnorm import normalize_answer


def gold(*answers, answerable=True, qid="q"):
    return GoldRecord(qid, tuple(GoldAnnotation(a, answerable) for a in answers))


EM = CorrectnessClassifier.exact_match()


def bleu_at(threshold):
    return CorrectnessClassifier.bleu_threshold(threshold)


def sim_at(fn, threshold):
    return CorrectnessClassifier.adapter_threshold(fn, threshold)


class TestExactMatch:
    def test_direct_match(self):
        assert EM.verdict("System Restore", gold("system restore", "system restore message"))

    def test_article_stripped(self):
        assert EM.verdict("A system restore", gold("system restore", "system restore pop up"))

    def test_no_match(self):
        assert not EM.verdict("blue", gold("right", "second"))

    def test_one_match_suffices(self):
        assert EM.verdict("right", gold("left", "left", "right"))


class TestSimilarityCorrect:
    def test_zero_threshold_accepts_proper_pairs(self):
        assert bleu_at(0.0).verdict("cat", gold("dog"))

    def test_full_threshold_needs_exact(self):
        assert bleu_at(1.0).verdict("Red Apple!", gold("red apple"))
        assert not bleu_at(1.0).verdict("red apple here", gold("red apple"))

    def test_hand_bleu_verdict(self):
        fn = BleuSimilarity()
        g = gold("system restore message")
        best = answer_similarity(
            normalize_answer("a system restore"), normalize_answer("system restore message"), fn
        )
        assert sim_at(fn, 0.5).verdict("a system restore", g) is (best >= 0.5)

    def test_normalizes_before_scoring(self, similarity_fn):
        assert sim_at(similarity_fn, 1.0).verdict("The Red Apple!", gold("red apple"))
        assert sim_at(similarity_fn, 1.0).verdict("red apple", gold("The Red-Apple."))

    def test_abstention_variants_match(self, similarity_fn):
        # normalized, "Unanswerable." is an abstention like "unanswerable"
        assert sim_at(similarity_fn, 1.0).verdict("Unanswerable.", gold("unanswerable"))
        assert sim_at(similarity_fn, 1.0).verdict("unanswerable", gold("Unanswerable."))

    def test_max_over_gold(self):
        fn = BleuSimilarity()
        g = gold("completely different", "red apple")
        assert sim_at(fn, 0.9).verdict("red apple", g)

    def test_each_distinct_normalized_gold_scored_once(self):
        class Counting(BleuSimilarity):
            calls = []

            def score_matrix(self, candidates, references):
                self.calls.append((list(candidates), list(references)))
                return super().score_matrix(candidates, references)

        fn = Counting()
        g = gold("Red apple", "red apple", "The red apple.", "apple", "unanswerable", "red apple")
        assert not sim_at(fn, 0.9).verdict("red car", g)
        # one call for the whole row, abstentions left out
        assert fn.calls == [(["red car"], ["red apple", "apple"])]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            sim_at(BleuSimilarity(), 1.5)  # checked once, when the rule is built

    def test_abstention_prediction_never_matches_proper_gold(self):
        # the override pins similarity to 0, so any positive threshold fails
        assert not bleu_at(0.01).verdict("unanswerable", gold("red apple"))
        assert not bleu_at(1.0).verdict("unanswerable", gold("red apple"))


thresholds = st.floats(min_value=0.0, max_value=1.0)
answers = st.lists(
    st.sampled_from(["red apple", "apple", "system restore", "blue car"]),
    min_size=1,
    max_size=4,
)


class TestProperties:
    @given(answers)
    def test_em_implies_similarity_correct(self, gold_answers):
        g = gold(*gold_answers)
        prediction = gold_answers[0]
        assert EM.verdict(prediction, g)
        assert bleu_at(1.0).verdict(prediction, g)

    @given(answers, thresholds, thresholds)
    def test_monotone_in_threshold(self, gold_answers, t1, t2):
        low, high = min(t1, t2), max(t1, t2)
        g = gold(*gold_answers)
        if bleu_at(high).verdict("red apple", g):
            assert bleu_at(low).verdict("red apple", g)

    @given(answers, st.sampled_from(["red apple", "cat"]))
    def test_monotone_in_gold_set(self, gold_answers, extra):
        g_small = gold(*gold_answers)
        g_big = gold(*gold_answers, extra)
        for clf in (CorrectnessClassifier.exact_match(), CorrectnessClassifier.bleu_threshold(0.5)):
            if clf.verdict("red apple", g_small):
                assert clf.verdict("red apple", g_big)


class TestAnswerable:
    def test_empty_rejected(self):
        # the answerable OR needs at least one annotation to be defined
        with pytest.raises(ValueError, match="no annotations"):
            GoldRecord("q", ())


class TestClassifier:
    def test_em_factory(self):
        clf = CorrectnessClassifier.exact_match()
        assert clf.name == "em"
        assert clf.verdict("A system restore", gold("system restore"))

    def test_bleu_factory(self):
        clf = CorrectnessClassifier.bleu_threshold(0.5)
        assert clf.name == "bleu-threshold"
        assert clf.threshold == 0.5

    def test_adapter_factory_names_the_adapter(self):
        clf = CorrectnessClassifier.adapter_threshold(BleuSimilarity(), 0.7)
        assert clf.name == "adapter-threshold:bleu"

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            CorrectnessClassifier.bleu_threshold(1.2)

    def test_non_em_needs_similarity(self):
        with pytest.raises(ValueError):
            CorrectnessClassifier(name="bleu-threshold", threshold=0.5, similarity=None)
