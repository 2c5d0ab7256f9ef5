import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selqa import AdapterError, BleuSimilarity, SimilarityFn, answer_similarity, bleu
from selqa import similarity
from selqa.similarity import answer_similarities
from selqa.textnorm import normalize_answer

from oracles import brute_bleu

tokens = st.lists(st.sampled_from("red apple on table cat dog blue car".split()), max_size=8)
nonempty_tokens = tokens.filter(lambda t: len(t) > 0)

# Repeated n-grams, one- to three-token answers, answers longer than others,
# and raw texts that normalize to "".
_ORACLE_TEXTS = [
    "no no no", "no", "no no", "la la land", "la land", "la la la la land",
    "red apple", "apple red", "red", "the red apple on the table next to the red car",
    "red apple on table", "The", "?!", "", "an", "aaa", "abab abab",
]
_oracle_answers = st.one_of(
    st.sampled_from(_ORACLE_TEXTS),
    st.lists(st.sampled_from(["no", "la", "land", "red", "apple", "the"]), max_size=9)
    .map(" ".join),
    st.text(alphabet="ab .", max_size=10),
).map(normalize_answer)
_repeating_tokens = st.lists(st.sampled_from(["no", "la", "land", "x y"]), max_size=9)


def _oracle_tokens(answer, mode):
    return answer.split() if mode == "word" else [ch for ch in answer if ch != " "]


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


class TestBleuOracle:
    """Bitwise agreement with fresh per-pair n-gram Counters (oracles.brute_bleu)."""

    @given(_repeating_tokens, _repeating_tokens)
    def test_bleu(self, cand, ref):
        assert bleu(cand, ref) == brute_bleu(cand, ref)

    @pytest.mark.parametrize("mode", ["word", "char"])
    @given(candidate=_oracle_answers, reference=_oracle_answers)
    def test_similarity(self, mode, candidate, reference):
        expected = brute_bleu(_oracle_tokens(candidate, mode), _oracle_tokens(reference, mode))
        assert BleuSimilarity(mode).similarity(candidate, reference) == expected

    @pytest.mark.parametrize("mode", ["word", "char"])
    @given(answers=st.lists(_oracle_answers, max_size=6), data=st.data())
    def test_pairwise(self, mode, answers, data):
        # the square case: each unordered pair's overlaps serve both directions
        if answers:  # duplicates score as distinct answers
            answers = answers + data.draw(st.lists(st.sampled_from(answers), max_size=3))
        tokens = [_oracle_tokens(answer, mode) for answer in answers]
        expected = [[brute_bleu(cand, ref) for ref in tokens] for cand in tokens]
        assert BleuSimilarity(mode).score_matrix(answers, answers) == expected
        assert BleuSimilarity(mode).score_matrix(answers, list(answers)) == expected
        assert [expected[i][i] for i in range(len(tokens))] == [bleu(t, t) for t in tokens]

    @pytest.mark.parametrize("mode", ["word", "char"])
    @given(candidates=st.lists(_oracle_answers, max_size=5),
           references=st.lists(_oracle_answers, max_size=5))
    def test_score_matrix_rectangle(self, mode, candidates, references):
        expected = [[brute_bleu(_oracle_tokens(a, mode), _oracle_tokens(b, mode))
                     for b in references] for a in candidates]
        assert BleuSimilarity(mode).score_matrix(candidates, references) == expected

    @pytest.mark.parametrize("mode", ["word", "char"])
    @pytest.mark.parametrize("answers", [
        ["no", "yes", "no", "no no"],  # duplicates
        ["red apple", "", "apple", ""],  # empty answers
        ["no no no", "la la land", "no la", "abab abab"],  # repeated tokens: Counter tables
        ["red", "cat", "dog on"],  # no shared word
        ["xy", "zw", "q"],  # no shared word or character
    ])
    def test_square_and_rectangle_cases(self, mode, answers):
        tokens = [_oracle_tokens(answer, mode) for answer in answers]
        fn = BleuSimilarity(mode)
        square = fn.score_matrix(answers, answers)
        assert square == [[brute_bleu(a, b) for b in tokens] for a in tokens]
        for i, t in enumerate(tokens):
            assert square[i][i] == bleu(t, t) == (1.0 if t else 0.0)
            for j, u in enumerate(tokens):
                if not set(t) & set(u):
                    assert square[i][j] == square[j][i] == 0.0
        # every rectangle cut from the list agrees with the square's cells
        for k in range(len(answers) + 1):
            rows, columns = answers[:k], answers[k:]
            assert fn.score_matrix(rows, columns) == [
                square_row[k:] for square_row in square[:k]
            ]

    @pytest.mark.parametrize("mode", ["word", "char"])
    @given(answers=st.lists(_oracle_answers, max_size=6))
    def test_square_overlaps_each_sharing_pair_once(self, mode, answers):
        calls = []
        overlaps = similarity._overlaps

        def counting(a, b):
            calls.append((a, b))
            return overlaps(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(similarity, "_overlaps", counting)
            BleuSimilarity(mode).score_matrix(answers, answers)
        tokens = [set(_oracle_tokens(answer, mode)) for answer in answers]
        sharing = sum(1 for i in range(len(tokens)) for j in range(i)
                      if tokens[i] & tokens[j])
        assert len(calls) == sharing
        assert not any(a is b for a, b in calls)  # no diagonal


class CountingSimilarity(SimilarityFn):
    """Records every similarity call; scores by candidate length."""

    name = "counting"

    def __init__(self):
        self.calls = []

    def similarity(self, candidate, reference):
        self.calls.append((candidate, reference))
        return 1.0 / (1 + len(candidate))


class TestPairwiseDefault:
    """The default score_matrix: one similarity call per cell, row-major."""

    def test_one_call_per_ordered_pair_row_major(self):
        fn = CountingSimilarity()
        answers = ["red apple", "", "cat", "red apple"]
        matrix = fn.score_matrix(answers, answers)
        assert fn.calls == [(a, b) for a in answers for b in answers]
        assert matrix == [[1.0 / (1 + len(a))] * len(answers) for a in answers]

    def test_one_call_per_cell_of_a_rectangle(self):
        fn = CountingSimilarity()
        candidates, references = ["red apple", "cat"], ["cat", "", "dog"]
        matrix = fn.score_matrix(candidates, references)
        assert fn.calls == [(a, b) for a in candidates for b in references]
        assert matrix == [[1.0 / (1 + len(a))] * 3 for a in candidates]

    def test_no_answers_no_calls(self):
        fn = CountingSimilarity()
        assert fn.score_matrix([], []) == []
        assert fn.score_matrix([], ["cat"]) == []
        assert fn.score_matrix(["cat", "dog"], []) == [[], []]
        assert fn.calls == []


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

    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_non_number_similarity_rejected(self, value):
        # bool is an int subclass, but True is not a similarity of 1.0
        with pytest.raises(AdapterError, match=r"\[0, 1\] contract"):
            answer_similarity("a", "b", ConstSimilarity(value))

    def test_in_range_similarity_passes(self):
        assert answer_similarity("a b", "c d", ConstSimilarity(0.25)) == 0.25

    def test_asymmetric_pair_in_both_orders(self):
        fn = BleuSimilarity()
        assert answer_similarity("red apple", "apple", fn) == pytest.approx(0.5, abs=1e-9)
        assert answer_similarity("apple", "red apple", fn) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_diagonal_all_ones_without_abstentions(self):
        for answer in ["yes", "red apple", "blue car", "cat on table"]:
            assert answer_similarity(answer, answer, BleuSimilarity()) == 1.0


class FixedMatrix(SimilarityFn):
    """Returns one fixed score_matrix result and records what it was asked."""

    name = "fixed"

    def __init__(self, matrix):
        self.matrix = matrix
        self.calls = []

    def similarity(self, candidate, reference):
        raise AssertionError("only score_matrix is called")

    def score_matrix(self, candidates, references):
        self.calls.append((list(candidates), list(references)))
        return self.matrix


#: One score of each kind the range check must tell apart; only "int" is valid.
_SCORE_KINDS = {
    "bool": True, "str": "0.5", "none": None, "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "negative": -0.1, "above-one": 1.5, "huge-int": 10**400, "int": 1,
}


def _valid_score(score):
    """The per-score rule, written out: a real in [0, 1], bool excluded."""
    return type(score) in (int, float) and 0 <= score <= 1


class TestAnswerSimilarities:
    def test_abstentions_scored_without_the_function(self):
        candidates = ["red apple", "unanswerable", "cat"]
        references = ["that is unanswerable", "cat", "red car"]
        fn = FixedMatrix([[0.25, 0.5], [0.75, 1.0]])
        assert answer_similarities(candidates, references, fn) == [
            [0.0, 0.25, 0.5],
            [1.0, 0.0, 0.0],
            [0.0, 0.75, 1.0],
        ]
        # one call, over the proper answers only
        assert fn.calls == [(["red apple", "cat"], ["cat", "red car"])]

    def test_a_square_is_filtered_once(self):
        answers = ["red apple", "unanswerable", "cat"]
        fn = FixedMatrix([[1.0, 0.0], [0.0, 1.0]])
        fn.score_matrix = lambda candidates, references: (
            fn.calls.append((candidates, references)) or fn.matrix)
        assert answer_similarities(answers, answers, fn) == [
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        ]
        [(candidates, references)] = fn.calls
        assert candidates is references and candidates == ["red apple", "cat"]

    @pytest.mark.parametrize("mode", ["word", "char"])
    @given(candidates=st.lists(_oracle_answers | st.just("that is unanswerable"), max_size=5),
           references=st.lists(_oracle_answers | st.just("unanswerable"), max_size=5))
    def test_matches_the_rule_pair_by_pair(self, mode, candidates, references):
        fn = BleuSimilarity(mode)

        def expected(a, b):
            if "unanswerable" in a or "unanswerable" in b:
                return float("unanswerable" in a and "unanswerable" in b)
            return fn.similarity(a, b)

        for refs in (references, candidates):  # a rectangle, then a square
            assert answer_similarities(candidates, refs, fn) == [
                [expected(a, b) for b in refs] for a in candidates
            ]

    def test_scores_are_floats(self):
        fn = FixedMatrix([[1, 0]])
        rows = answer_similarities(["a"], ["b", "c"], fn)
        assert rows == [[1.0, 0.0]] and all(type(x) is float for x in rows[0])

    @pytest.mark.parametrize("matrix", [
        ((0.25, 1.0),),  # tuples
        ([0.25, 1.0],),  # a tuple of lists
        [(0.25, 1.0)],  # a tuple row
        [[0.25, type("Unit", (float,), {})(1.0)]],  # a float subclass
    ])
    def test_other_results_come_back_as_lists_of_floats(self, matrix):
        rows = answer_similarities(["a"], ["b", "c"], FixedMatrix(matrix))
        assert rows == [[0.25, 1.0]]
        assert type(rows) is list and type(rows[0]) is list
        assert all(type(score) is float for score in rows[0])

    def test_a_list_of_float_lists_comes_back_as_it_came(self):
        matrix = [[0.25, 1.0], [0.0, 0.5]]
        assert answer_similarities(["a", "b"], ["c", "d"], FixedMatrix(matrix)) is matrix

    @pytest.mark.parametrize("matrix", [
        [],
        [[0.5, 0.5, 0.5]],  # a row too few
        [[0.5, 0.5, 0.5], [0.5, 0.5]],  # a row too short
        [[0.5, 0.5]] * 3,  # transposed
        [[0.5, 0.5, 0.5]] * 3,  # the square of all three candidates
        None,
        2,
        [[0.5, 0.5, 0.5], None],
        [[0.5, 0.5, 0.5], (x for x in [0.5, 0.5, 0.5])],
        (row for row in [[0.5, 0.5, 0.5]] * 2),
    ])
    def test_shape_is_checked(self, matrix):
        # two proper candidates against three proper references
        with pytest.raises(AdapterError, match=r"'fixed' score_matrix result is not 2 x 3"):
            answer_similarities(["a", "b", "unanswerable"], ["c", "d", "e"], FixedMatrix(matrix))

    @pytest.mark.parametrize("score", [1.5, -0.1, float("nan"), float("inf"), True, "1", None])
    def test_range_is_checked(self, score):
        with pytest.raises(AdapterError, match=r"\[0, 1\] contract"):
            answer_similarities(["a"], ["b", "c"], FixedMatrix([[0.5, score]]))

    @pytest.mark.parametrize("kind", sorted(_SCORE_KINDS))
    @settings(max_examples=20, deadline=None)
    @given(matrix=st.integers(1, 4).flatmap(
               lambda n: st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                                  min_size=1, max_size=4)),
           more=st.lists(st.sampled_from(sorted(_SCORE_KINDS)), max_size=2),
           data=st.data())
    def test_whole_matrix_check_agrees_with_the_per_score_loop(self, kind, matrix, more, data):
        for name in [kind, *more]:
            row = data.draw(st.sampled_from(matrix))
            row[data.draw(st.integers(0, len(row) - 1))] = _SCORE_KINDS[name]
        bad = [score for row in matrix for score in row if not _valid_score(score)]
        fn = FixedMatrix(matrix)
        candidates = [f"c{i}" for i in range(len(matrix))]
        references = [f"r{j}" for j in range(len(matrix[0]))]
        if bad:
            with pytest.raises(AdapterError) as error:
                answer_similarities(candidates, references, fn)
            assert str(error.value) == (
                f"similarity 'fixed' returned {bad[0]!r}, outside the [0, 1] contract")
            return
        rows = answer_similarities(candidates, references, fn)
        assert rows == [[float(score) for score in row] for row in matrix]
        assert all(type(score) is float for row in rows for score in row)


class TestCharMode:
    def test_char_ngrams_see_overlap(self):
        word = BleuSimilarity(mode="word")
        char = BleuSimilarity(mode="char")
        assert word.similarity("cats", "cat") == 0.0
        assert char.similarity("cats", "cat") > 0.0

    def test_char_self_similarity(self):
        assert BleuSimilarity(mode="char").similarity("cat", "cat") == 1.0
