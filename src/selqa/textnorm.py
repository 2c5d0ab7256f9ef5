"""Answer normalization and tokenization.

One deterministic pipeline shared by uniqueness counting, exact match, and
n-gram similarity: lowercase, Unicode punctuation to spaces (so hyphenated
words split), English articles dropped as standalone words, whitespace
collapsed. Digits are preserved; "two" and "2" stay distinct.
"""

from __future__ import annotations

import unicodedata
from typing import Iterable

_ARTICLES = frozenset({"a", "an", "the"})


class _PunctuationToSpace(dict):
    """str.translate table: any Unicode punctuation (Pd, Ps, Po, ...) to a space.

    Filled on first sight of each code point. Other code points map to their
    own ordinal, which translate reads as "keep the character" and which
    costs no extra object beyond the key.
    """

    def __missing__(self, code: int) -> int:
        value = ord(" ") if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = value
        return value


_PUNCTUATION_TO_SPACE = _PunctuationToSpace()


def normalize_answer(raw: str) -> str:
    """Normalize a raw answer string; idempotent."""
    words = raw.lower().translate(_PUNCTUATION_TO_SPACE).split()
    return " ".join(w for w in words if w not in _ARTICLES)


def distinct_normalized(raws: Iterable[str]) -> tuple[str, ...]:
    """Distinct normalized forms of raw answers, in first-occurrence order.

    Each distinct raw answer is normalized once, however often it repeats.
    """
    return tuple(dict.fromkeys(map(normalize_answer, dict.fromkeys(raws))))


def tokenize(answer: str, mode: str = "word") -> list[str]:
    """Split a normalized answer into word or character tokens.

    Word mode splits on spaces; char mode emits every non-space character.
    """
    if mode == "word":
        return answer.split()
    if mode == "char":
        return [ch for ch in answer if ch != " "]
    raise ValueError(f"unknown tokenization mode: {mode!r}")
