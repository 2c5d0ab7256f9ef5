import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selqa import AdapterError, BleuSimilarity, SimilarityFn, answer_similarity, bleu

tokens = st.lists(st.sampled_from("red apple on table cat dog blue car".split()), max_size=8)
nonempty_tokens = tokens.filter(lambda t: len(t) > 0)


class TestBleu:
    def test_identical(self):
        assert bleu(["red", "apple"], ["red", "apple"]) == 1.0

    def test_empty_candidate(self):
        assert bleu([], ["red"]) == 0.0

    def test_hand_value_brevity(self):
        # p1 = p2 = 1 after clipping, BP = exp(1 - 4/2)
        got = bleu(["red", "apple"], ["red", "apple", "on", "table"])
        assert got == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_hand_value_smoothed(self):
        # p1 = 1/2, smoothed p2 = 1/2, BP = 1
        assert bleu(["red", "apple"], ["apple"]) == pytest.approx(0.5, abs=1e-9)

    def test_no_overlap(self):
        assert bleu(["cat"], ["dog"]) == 0.0

    @given(tokens, tokens)
    def test_bounds(self, cand, ref):
        assert 0.0 <= bleu(cand, ref) <= 1.0

    @given(nonempty_tokens)
    def test_self_similarity(self, seq):
        assert bleu(seq, seq) == 1.0

    def test_brevity_monotone(self):
        # every clipped precision is 1 (prefixes of ref), shorter candidate -> smaller BP
        ref = ["a", "b", "c", "d", "e"]
        scores = [bleu(ref[:k], ref) for k in range(1, 6)]
        assert scores == sorted(scores)
        assert all(x < y for x, y in zip(scores, scores[1:]))


class ConstSimilarity(SimilarityFn):
    name = "const"

    def __init__(self, value):
        self.value = value

    def similarity(self, candidate, reference):
        return self.value


class TestAnswerSimilarity:
    def test_abstention_vs_proper(self):
        assert answer_similarity("yes", "unanswerable", BleuSimilarity()) == 0.0
        assert answer_similarity("unanswerable", "yes", BleuSimilarity()) == 0.0

    def test_both_abstentions(self):
        assert answer_similarity("unanswerable", "unanswerable", BleuSimilarity()) == 1.0
        assert answer_similarity("that is unanswerable", "unanswerable", BleuSimilarity()) == 1.0

    def test_abstention_substring(self):
        assert answer_similarity("that is unanswerable sorry", "red", BleuSimilarity()) == 0.0

    def test_identity(self):
        assert answer_similarity("red apple", "red apple", BleuSimilarity()) == 1.0

    def test_out_of_range_similarity_rejected(self):
        with pytest.raises(AdapterError):
            answer_similarity("a", "b", ConstSimilarity(1.5))
        with pytest.raises(AdapterError):
            answer_similarity("a", "b", ConstSimilarity(-0.1))
        with pytest.raises(AdapterError):
            answer_similarity("a", "b", ConstSimilarity(float("nan")))

    def test_in_range_similarity_passes(self):
        assert answer_similarity("a b", "c d", ConstSimilarity(0.25)) == 0.25

    def test_asymmetric_pair_in_both_orders(self):
        fn = BleuSimilarity()
        assert answer_similarity("red apple", "apple", fn) == pytest.approx(0.5, abs=1e-9)
        assert answer_similarity("apple", "red apple", fn) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_diagonal_all_ones_without_abstentions(self):
        for answer in ["yes", "red apple", "blue car", "cat on table"]:
            assert answer_similarity(answer, answer, BleuSimilarity()) == 1.0


class TestCharMode:
    def test_char_ngrams_see_overlap(self):
        word = BleuSimilarity(mode="word")
        char = BleuSimilarity(mode="char")
        assert word.similarity("cats", "cat") == 0.0
        assert char.similarity("cats", "cat") > 0.0

    def test_char_self_similarity(self):
        assert BleuSimilarity(mode="char").similarity("cat", "cat") == 1.0
