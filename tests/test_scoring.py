import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import selqa.scoring
from selqa import (
    BUILTIN_METHODS,
    BleuSimilarity,
    CorrectnessClassifier,
    GoldAnnotation,
    GoldRecord,
    PredictionRecord,
    SampledAnswer,
    SimilarityFn,
    answer_similarity,
    score_all,
    score_record,
)
from selqa.adapter import ExternalSimilarity
from selqa.errors import AdapterError, JoinError
from selqa.scoring import (
    avg_bleu_score,
    diversity_score,
    likelihood_score,
    repetition_score,
    resolve_method_names,
    trigger_decision,
)
from selqa.textnorm import normalize_answer

from conftest import adapter_cmd, ans, logged_requests
from oracles import brute_avg_bleu

# Abstentions, case and punctuation variants, paraphrases, and texts that
# normalize to "".
_VARIANT_TEXTS = [
    "Unanswerable.", "unanswerable", "that is unanswerable", "The", "?!", "",
    "red apple", "Red Apple!", "the red apple", "apple", "an apple",
    "red car", "a red car", "car that is red", "blue car on the table",
    "cat", "Cat.", "the-cat", "cats",
]
_sample_texts = st.one_of(
    st.sampled_from(_VARIANT_TEXTS), st.text(alphabet="ab .!-A", max_size=8)
)


class JaccardSimilarity(SimilarityFn):
    """In-process word-set Jaccard, as tests/adapters/line_scorer.py computes it."""

    name = "jaccard"

    def similarity(self, candidate, reference):
        wa, wb = set(candidate.split()), set(reference.split())
        return len(wa & wb) / len(wa | wb) if wa | wb else 0.0


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

    def test_sum_past_the_float_range_is_probability_zero(self):
        # each logprob is finite, but fsum overflows on their sum
        assert likelihood_score(ans("x", -1e308, -1e308)) == 0.0
        assert avg_bleu_score([ans("x", -1e308, -1e308), ans("y", -1.0)]) == pytest.approx(
            math.exp(-1) / 2, abs=1e-12
        )


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

    @pytest.mark.parametrize("mode", ["word", "char"])
    @given(data=st.data())
    def test_matches_per_pair_oracle_bitwise(self, mode, data):
        texts = data.draw(st.lists(_sample_texts, min_size=1, max_size=10))
        # Every sample's probability is at most 1/len(texts), so the
        # distinct-answer weights never sum above 1.
        units = data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=len(texts), max_size=len(texts)
        ))
        samples = [ans(t, math.log(u / len(texts))) for t, u in zip(texts, units)]
        fn = BleuSimilarity(mode=mode)
        assert avg_bleu_score(samples, fn) == brute_avg_bleu(samples, fn)
        # score_record reads all three sampling scores from one grouping
        counts = Counter(normalize_answer(t) for t in texts)
        record = PredictionRecord("q", samples[0], tuple(samples))
        assert score_record(record, BUILTIN_METHODS, fn) == {
            "likelihood": likelihood_score(samples[0]),
            "repetition": max(counts.values()) / len(texts),
            "diversity": 1.0 - len(counts) / len(texts),
            "avg-bleu": brute_avg_bleu(samples, fn),
        }

    def test_normalizes_before_scoring(self, similarity_fn):
        # "The Red Apple!" and "red car" share "red" only once normalized:
        # 1/2 under BLEU both ways, 1/3 under word-set jaccard
        samples = [ans("The Red Apple!", math.log(0.4)), ans("red car", math.log(0.2))]
        cross = 0.5 if similarity_fn.name == "bleu" else 1 / 3
        expected = (0.4 * 1.0 + 0.4 * cross + 0.2 * cross + 0.2 * 1.0) / 2
        assert avg_bleu_score(samples, similarity_fn) == pytest.approx(expected, abs=1e-12)

    def test_abstention_variants_agree(self, similarity_fn):
        # "Unanswerable." normalizes to an abstention, so every pair scores 1
        samples = [ans("Unanswerable.", math.log(0.3)), ans("that is unanswerable", math.log(0.2))]
        assert avg_bleu_score(samples, similarity_fn) == pytest.approx(0.5, abs=1e-12)

    def test_adapter_sends_each_ordered_pair_of_proper_answers_once_per_run(self, tmp_path):
        # Counted on the far side of the pipe. Only proper distinct answers
        # reach the scorer, each ordered pair once, diagonal included.
        log = tmp_path / "requests.jsonl"
        texts = ["red apple", "Red Apple!", "unanswerable", "apple", "that is unanswerable",
                 "The", "apple", "?!"]
        samples = [ans(t, math.log(0.1)) for t in texts]
        proper = ["red apple", "apple", ""]
        with ExternalSimilarity(adapter_cmd("jaccard", log), name="jaccard") as fn:
            # a first record: 3 proper answers, so 3^2 requests
            score = avg_bleu_score(samples, fn)
            assert logged_requests(log) == [(a, b) for a in proper for b in proper]
            assert score == brute_avg_bleu(samples, JaccardSimilarity())
            # the same answers in a later record, reordered: every pair is known
            again = [ans(t, math.log(0.2)) for t in ["?!", "Apple", "red apple", "unanswerable"]]
            assert avg_bleu_score(again, fn) == brute_avg_bleu(again, JaccardSimilarity())
            assert len(logged_requests(log)) == 9
            # one new answer: only its 2k+1 pairs with the k = 3 known ones,
            # in row-major first-occurrence order
            more = [ans(t, math.log(0.1)) for t in ["apple", "red car", "red apple", "?!"]]
            assert avg_bleu_score(more, fn) == brute_avg_bleu(more, JaccardSimilarity())
            assert logged_requests(log)[9:] == [
                ("apple", "red car"), ("red car", "apple"), ("red car", "red car"),
                ("red car", "red apple"), ("red car", ""), ("red apple", "red car"),
                ("", "red car"),
            ]

    @pytest.mark.parametrize("matrix", [
        [[1.0]], [[1.0, 0.5], [0.5]], [[1.0, True], [0.5, 1.0]],
        [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]],  # 2 x 3 for a square of two
    ])
    def test_pairwise_result_is_checked(self, matrix):
        class Fixed(JaccardSimilarity):
            def score_matrix(self, candidates, references):
                return matrix

        with pytest.raises(AdapterError, match="'jaccard'"):
            avg_bleu_score([ans("red apple", math.log(0.4)), ans("cat", math.log(0.2))], Fixed())

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


class TestScoreRecord:
    @pytest.mark.parametrize("methods,sampled", [(BUILTIN_METHODS, True), (["likelihood"], False)])
    def test_normalizes_each_sample_once(self, monkeypatch, methods, sampled):
        # likelihood reads only the greedy answer, so alone it normalizes nothing
        calls = Counter()

        def counting(text):
            calls[text] += 1
            return normalize_answer(text)

        monkeypatch.setattr(selqa.scoring, "normalize_answer", counting)
        samples = tuple(ans(t, math.log(0.1)) for t in ["a", "A.", "b", "a", "c d"])
        score_record(PredictionRecord("q", ans("a"), samples), methods)
        assert calls == (Counter(s.text for s in samples) if sampled else Counter())

    def test_weights_are_lazy(self):
        # a sample without logprobs has no likelihood weight; only avg-bleu needs one
        record = PredictionRecord("q", ans("cat"), (SampledAnswer("", ()), ans("cat")))
        scores = score_record(record, ["repetition", "diversity"])
        assert scores == {"repetition": 0.5, "diversity": 0.0}
        with pytest.raises(ValueError, match="likelihood needs at least one token logprob"):
            score_record(record, ["avg-bleu"])

    @pytest.mark.parametrize("methods,first", [
        (BUILTIN_METHODS, "repetition"),
        (["diversity", "repetition"], "diversity"),
        (["likelihood", "avg-bleu", "repetition"], "avg-bleu"),
    ])
    def test_empty_samples_error_names_first_sampling_method(self, methods, first):
        record = PredictionRecord("q", ans("a"), ())
        with pytest.raises(ValueError, match=f"^{first} needs at least one sample$"):
            score_record(record, methods)


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
