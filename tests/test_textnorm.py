import string
import sys
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selqa.textnorm import distinct_normalized, normalize_answer, tokenize

from oracles import brute_normalize


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("A System Restore", "system restore"),
            ("  unanswerable. ", "unanswerable"),
            ("", ""),
            ("THE cat, the hat!", "cat hat"),
            ("well-known fact", "well known fact"),
            ("May 2024", "may 2024"),  # digits survive
            ("an an an", ""),
            ("a1 the1", "a1 the1"),  # articles only as standalone words
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_answer(raw) == expected

    @given(st.text())
    def test_idempotent(self, raw):
        once = normalize_answer(raw)
        assert normalize_answer(once) == once

    @given(st.text())
    def test_shape(self, raw):
        out = normalize_answer(raw)
        assert out == out.strip()
        assert "  " not in out
        assert out == out.lower()

    def test_every_code_point_matches_oracle(self):
        # built from UTF-32 bytes, so no per-character str objects are made
        points = array("I", range(0xD800)) + array("I", range(0xE000, sys.maxunicode + 1))
        every = points.tobytes().decode(f"utf-32-{sys.byteorder[0]}e")
        assert normalize_answer(every) == brute_normalize(every)

    @given(st.text())
    def test_matches_oracle(self, raw):
        assert normalize_answer(raw) == brute_normalize(raw)

    def test_case_article_punctuation_insensitive(self):
        variants = ["the red apple.", "Red Apple", "red, apple", "a red apple!"]
        assert len({normalize_answer(v) for v in variants}) == 1


class TestDistinctNormalized:
    def test_first_occurrence_order(self):
        raws = ["The cat", "dog", "cat.", "A dog", "bird", "the cat"]
        assert distinct_normalized(raws) == ("cat", "dog", "bird")

    @given(st.lists(st.sampled_from(["A cat", "cat", "Cat!", "dog", "", "the Dog"])))
    def test_matches_normalizing_every_answer(self, raws):
        expected = tuple(dict.fromkeys(normalize_answer(r) for r in raws))
        assert distinct_normalized(raws) == expected


class TestTokenize:
    def test_word_mode(self):
        assert tokenize("system restore", "word") == ["system", "restore"]

    def test_char_mode(self):
        assert tokenize("cat", "char") == ["c", "a", "t"]
        assert tokenize("a b", "char") == ["a", "b"]  # spaces dropped

    def test_empty(self):
        assert tokenize("", "word") == []
        assert tokenize("", "char") == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("x", "subword")

    @given(st.text(alphabet=string.ascii_lowercase + string.digits + " "))
    def test_word_tokens_rejoin(self, raw):
        normalized = normalize_answer(raw)
        assert " ".join(tokenize(normalized, "word")) == normalized

    @given(st.text())
    def test_word_tokens_contain_no_space(self, raw):
        for token in tokenize(normalize_answer(raw), "word"):
            assert " " not in token and token
