"""Text cleaning and lemmatised token streams for feature extraction."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self) -> None:
        for tok in self.tokens:
            if tok.split() != [tok]:
                raise ValueError(f"invalid token in stream: {tok!r}")


# code points below this (Latin, Greek, Cyrillic, general punctuation,
# currency and mathematical symbols) are kept in the clean table once seen;
# rarer ones are looked up on every use, so the table stays under 12,288
# entries whatever text is cleaned
_CACHED_BELOW = 0x3000


class _CleanTable(dict):
    """str.translate table for clean: a character of category P* or C*
    maps to a space, any other to itself. A character's category is looked
    up on its first miss, and again on every miss above _CACHED_BELOW."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        mapped = " " if unicodedata.category(ch)[0] in "CP" else ch
        if code < _CACHED_BELOW:
            self[code] = mapped
        return mapped


_CLEAN_TABLE = _CleanTable()


def clean(text: str) -> str:
    """Lowercase text with URLs, control characters, punctuation and
    redundant spaces removed. Idempotent and total.

    URL = maximal non-space run starting with http://, https:// or www.
    Punctuation/control = Unicode categories P* and C*; ordinal signs
    (category Lo) survive as letters.
    """
    text = _URL.sub(" ", text)
    return " ".join(text.translate(_CLEAN_TABLE).lower().split())


def tokenize(text: str) -> list[str]:
    return text.split()


def remove_stopwords(tokens: list[str], stoplist) -> list[str]:
    return [t for t in tokens if t not in stoplist]


def to_token_stream(
    doc_id: str,
    raw_text: str,
    stopwords,
    lemma_lexicon: dict[str, str],
) -> TokenStream:
    """Full pipeline: clean, tokenize, drop stop-words, lemmatise.

    The stop-word filter is re-applied after lemmatisation so a lemma that
    lands on a stop-word never reaches the vectorizer.
    """
    toks = remove_stopwords(tokenize(clean(raw_text)), stopwords)
    lemmas = [lemma_lexicon.get(t, t) for t in toks]
    return TokenStream(tuple(remove_stopwords(lemmas, stopwords)), doc_id)
