import pytest
from hypothesis import given
from hypothesis import strategies as st

from selqa import (
    BleuSimilarity,
    CorrectnessClassifier,
    GoldAnnotation,
    GoldRecord,
    answer_similarity,
    exact_match_correct,
    similarity_correct,
)
from selqa.textnorm import normalize_answer


def gold(*answers, answerable=True, qid="q"):
    return GoldRecord(qid, tuple(GoldAnnotation(a, answerable) for a in answers))


class TestExactMatch:
    def test_direct_match(self):
        assert exact_match_correct("System Restore", gold("system restore", "system restore message"))

    def test_article_stripped(self):
        assert exact_match_correct("A system restore", gold("system restore", "system restore pop up"))

    def test_no_match(self):
        assert not exact_match_correct("blue", gold("right", "second"))

    def test_one_match_suffices(self):
        assert exact_match_correct("right", gold("left", "left", "right"))


class TestSimilarityCorrect:
    def test_zero_threshold_accepts_proper_pairs(self):
        assert similarity_correct("cat", gold("dog"), BleuSimilarity(), 0.0)

    def test_full_threshold_needs_exact(self):
        assert similarity_correct("Red Apple!", gold("red apple"), BleuSimilarity(), 1.0)
        assert not similarity_correct("red apple here", gold("red apple"), BleuSimilarity(), 1.0)

    def test_hand_bleu_verdict(self):
        fn = BleuSimilarity()
        g = gold("system restore message")
        best = answer_similarity(
            normalize_answer("a system restore"), normalize_answer("system restore message"), fn
        )
        assert similarity_correct("a system restore", g, fn, 0.5) is (best >= 0.5)

    def test_normalizes_before_scoring(self, similarity_fn):
        assert similarity_correct("The Red Apple!", gold("red apple"), similarity_fn, 1.0)
        assert similarity_correct("red apple", gold("The Red-Apple."), similarity_fn, 1.0)

    def test_abstention_variants_match(self, similarity_fn):
        # normalized, "Unanswerable." is an abstention like "unanswerable"
        assert similarity_correct("Unanswerable.", gold("unanswerable"), similarity_fn, 1.0)
        assert similarity_correct("unanswerable", gold("Unanswerable."), similarity_fn, 1.0)

    def test_max_over_gold(self):
        fn = BleuSimilarity()
        g = gold("completely different", "red apple")
        assert similarity_correct("red apple", g, fn, 0.9)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            similarity_correct("x", gold("x"), BleuSimilarity(), 1.5)

    def test_abstention_prediction_never_matches_proper_gold(self):
        # the override pins similarity to 0, so any positive threshold fails
        assert not similarity_correct("unanswerable", gold("red apple"), BleuSimilarity(), 0.01)
        assert not similarity_correct("unanswerable", gold("red apple"), BleuSimilarity(), 1.0)


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
        assert exact_match_correct(prediction, g)
        assert similarity_correct(prediction, g, BleuSimilarity(), 1.0)

    @given(answers, thresholds, thresholds)
    def test_monotone_in_threshold(self, gold_answers, t1, t2):
        low, high = min(t1, t2), max(t1, t2)
        g = gold(*gold_answers)
        if similarity_correct("red apple", g, BleuSimilarity(), high):
            assert similarity_correct("red apple", g, BleuSimilarity(), low)

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
