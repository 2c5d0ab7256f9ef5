import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selqa import (
    BleuSimilarity,
    CorrectnessClassifier,
    GoldAnnotation,
    GoldRecord,
    JoinError,
    PredictionRecord,
    SampledAnswer,
    answer_similarity,
    avg_bleu_score,
    diversity_score,
    likelihood_score,
    repetition_score,
    resolve_method_names,
    score_all,
    trigger_decision,
)
from selqa.textnorm import normalize_answer

from conftest import ans


class TestLikelihood:
    def test_probability_one_token(self):
        assert likelihood_score(ans("x", 0.0)) == 1.0

    def test_exp_of_sum(self):
        assert likelihood_score(ans("x", -0.5, -0.5)) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_product_of_probabilities(self):
        got = likelihood_score(ans("x", math.log(0.9), math.log(0.5)))
        assert got == pytest.approx(0.45, abs=1e-12)

    def test_empty_logprobs_rejected(self):
        with pytest.raises(ValueError):
            likelihood_score(SampledAnswer("", ()))


class TestRepetition:
    def test_unanimous(self):
        assert repetition_score([ans("yes")] * 10) == 1.0

    def test_all_distinct(self):
        assert repetition_score([ans(f"a{i}") for i in range(10)]) == pytest.approx(0.1)

    def test_normalization_merges(self):
        samples = [ans("yes"), ans("yes"), ans("no"), ans("Yes.")]
        # brute-force count over the normalized multiset
        counts = Counter(normalize_answer(s.text) for s in samples)
        assert repetition_score(samples) == max(counts.values()) / len(samples) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            repetition_score([])


class TestDiversity:
    def test_all_distinct_is_zero(self):
        assert diversity_score([ans(f"a{i}") for i in range(10)]) == 0.0

    def test_unanimous(self):
        assert diversity_score([ans("yes")] * 10) == pytest.approx(0.9)

    def test_two_of_four_unique(self):
        assert diversity_score([ans("a"), ans("a"), ans("b"), ans("b")]) == 0.5

    def test_complement_identity(self):
        samples = [ans(t) for t in ["a", "b", "a", "c", "a"]]
        unique = len({normalize_answer(s.text) for s in samples})
        assert diversity_score(samples) + unique / len(samples) == 1.0


class TestAvgBleu:
    def test_unanimous_reduces_to_likelihood(self):
        samples = [ans("red apple", math.log(0.3))] * 10
        got = avg_bleu_score(samples)
        assert got == pytest.approx(likelihood_score(samples[0]), abs=1e-9)

    def test_zero_cross_similarity(self):
        # only the diagonal survives: (p1 + p2) / 2
        samples = [ans("cat", math.log(0.4)), ans("dog", math.log(0.2))]
        assert avg_bleu_score(samples) == pytest.approx((0.4 + 0.2) / 2, abs=1e-9)

    def test_hand_matrix_case(self):
        samples = [ans("red apple", math.log(0.4)), ans("apple", math.log(0.2))]
        expected = 0.5 * (0.4 * 1.0 + 0.4 * 0.5 + 0.2 * math.exp(-1) + 0.2 * 1.0)
        assert avg_bleu_score(samples) == pytest.approx(expected, abs=1e-4)
        assert avg_bleu_score(samples) == pytest.approx(0.4368, abs=1e-4)

    def test_brute_force_oracle(self):
        rng = random.Random(5)
        vocab = ["red apple", "apple", "red car", "blue car", "cat"]
        fn = BleuSimilarity()
        for _ in range(25):
            texts = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            probs = {t: rng.uniform(0.01, 1.0 / len(vocab)) for t in set(texts)}
            samples = [ans(t, math.log(probs[t])) for t in texts]
            distinct = list(dict.fromkeys(normalize_answer(t) for t in texts))
            expected = sum(
                math.exp(math.log(probs[a])) * answer_similarity(a, b, fn)
                for a in distinct
                for b in distinct
            ) / len(distinct)
            assert avg_bleu_score(samples, fn) == pytest.approx(expected, abs=1e-12)

    def test_first_occurrence_weight_wins(self):
        samples = [ans("cat", math.log(0.5)), ans("cat", math.log(0.1))]
        assert avg_bleu_score(samples) == pytest.approx(0.5, abs=1e-12)

    def test_inconsistent_probabilities_rejected(self):
        # two near-identical answers both claiming p=0.95 pushes the weighted
        # average above 1, which only a lying dump can do
        samples = [ans("red apple", math.log(0.95)), ans("red apple here", math.log(0.95))]
        with pytest.raises(ValueError, match="sum above 1"):
            avg_bleu_score(samples)

    def test_probabilities_summing_above_1_rejected_before_scoring(self):
        # the pair loop would score this (0.9 + 0.9) / 2 = 0.9, inside [0, 1]
        samples = [ans("cat", math.log(0.9)), ans("dog", math.log(0.9))]
        with pytest.raises(ValueError, match="sum above 1"):
            avg_bleu_score(samples)

    def test_probabilities_summing_to_1_within_noise_accepted(self):
        samples = [ans("cat", math.log(0.5)), ans("dog", math.log(0.5 + 5e-10))]
        assert avg_bleu_score(samples) == pytest.approx(0.5, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            avg_bleu_score([])


class TestTrigger:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("The date is May 2024", True),
            ("unanswerable", False),
            ("This is Unanswerable, sorry", False),
            ("Unanswerable.", False),
            ("answerable", True),  # not a superstring match
            ("UNANSWERABLE", False),
        ],
    )
    def test_rule(self, text, expected):
        assert trigger_decision(ans(text)) is expected

    def test_depends_only_on_greedy(self):
        record_samples = [ans("unanswerable")] * 10
        assert trigger_decision(ans("yes")) is True
        assert all(not trigger_decision(s) for s in record_samples)


score_floats = st.floats(min_value=-3.0, max_value=0.0)
sample_lists = st.lists(
    st.tuples(st.sampled_from(["red apple", "apple", "cat", "dog house"]), score_floats),
    min_size=1,
    max_size=8,
)


class TestScoreInvariants:
    @given(sample_lists)
    def test_scores_in_unit_interval(self, raw):
        # equal texts must carry equal logprobs (fixed-model assumption)
        by_text = {}
        samples = []
        for text, lp in raw:
            lp = by_text.setdefault(text, lp)
            samples.append(ans(text, lp))
        # scale logprobs down so distinct probabilities stay consistent
        k = len({t for t, _ in raw})
        samples = [ans(s.text, s.logprobs[0] - math.log(k)) for s in samples]
        for score in (
            repetition_score(samples),
            diversity_score(samples),
            avg_bleu_score(samples),
            likelihood_score(samples[0]),
        ):
            assert 0.0 <= score <= 1.0

    @given(sample_lists, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, raw, rng):
        by_text = {}
        k = max(1, len({t for t, _ in raw}))
        samples = []
        for text, lp in raw:
            lp = by_text.setdefault(text, lp)
            samples.append(ans(text, lp - math.log(k)))
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert repetition_score(shuffled) == repetition_score(samples)
        assert diversity_score(shuffled) == diversity_score(samples)
        assert avg_bleu_score(shuffled) == avg_bleu_score(samples)

    def test_repetition_lower_bound(self):
        for n in (1, 3, 10):
            samples = [ans(f"t{i}") for i in range(n)]
            assert repetition_score(samples) >= 1.0 / n


def make_gold(qid="q1", answers=("yes",), answerable=True):
    return GoldRecord(
        qid, tuple(GoldAnnotation(a, answerable) for a in answers)
    )


class TestScoreAll:
    def test_abstention_contract(self):
        record = PredictionRecord("q1", ans("unanswerable"), (ans("yes"),))
        scored = score_all(record, make_gold())
        assert scored.triggered is False
        assert scored.correct == {}
        assert set(scored.scores) == {"likelihood", "repetition", "diversity", "avg-bleu"}

    def test_composition(self):
        record = PredictionRecord("q1", ans("yes", math.log(0.8)), tuple([ans("yes", math.log(0.8))] * 10))
        scored = score_all(record, make_gold(answers=("yes", "yeah")))
        assert scored.triggered is True
        assert scored.scores["repetition"] == 1.0
        assert scored.correct["em"] is True
        assert scored.answerable is True

    def test_mixed_fixture_matches_oracles(self):
        samples = (
            ans("red apple", math.log(0.3)),
            ans("red apple", math.log(0.3)),
            ans("apple", math.log(0.1)),
            ans("blue car", math.log(0.05)),
        )
        record = PredictionRecord("q1", ans("red apple", math.log(0.3)), samples)
        scored = score_all(record, make_gold(answers=("red apple",)))
        assert scored.scores["likelihood"] == pytest.approx(0.3, abs=1e-12)
        assert scored.scores["repetition"] == pytest.approx(2 / 4)
        assert scored.scores["diversity"] == pytest.approx(1 - 3 / 4)
        assert scored.scores["avg-bleu"] == pytest.approx(avg_bleu_score(samples), abs=0)

    def test_id_mismatch(self):
        record = PredictionRecord("q1", ans("yes"), (ans("yes"),))
        with pytest.raises(JoinError):
            score_all(record, make_gold(qid="q2"))

    def test_multiple_classifiers(self):
        record = PredictionRecord("q1", ans("a red apple", math.log(0.5)), (ans("red apple", math.log(0.5)),))
        classifiers = (
            CorrectnessClassifier.exact_match(),
            CorrectnessClassifier.bleu_threshold(0.5),
        )
        scored = score_all(record, make_gold(answers=("red apple",)), classifiers=classifiers)
        assert scored.correct == {"em": True, "bleu-threshold": True}


class TestResolveMethodNames:
    def test_builtin_passthrough(self):
        assert resolve_method_names(["likelihood", "avg-bleu"]) == ["likelihood", "avg-bleu"]

    def test_avg_follows_similarity_name(self):
        assert resolve_method_names(["avg-bleu"], "bem") == ["avg-bem"]
        assert resolve_method_names(["avg-bem"], "bem") == ["avg-bem"]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown scoring method"):
            resolve_method_names(["entropy"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no scoring methods"):
            resolve_method_names([])
