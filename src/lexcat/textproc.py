"""Text cleaning and lemmatised token streams for feature extraction.

A text is cleaned in one pass over its code points: NFC-normalised, its
URLs removed, each code point of category P* or C* turned into a space,
then lower-cased and split at whitespace.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

import numpy as np

_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)

# code points below this (Latin, Greek, Cyrillic, general punctuation,
# currency and mathematical symbols) are classified by one table lookup;
# each distinct rarer one is classified once per text
_TABLED_BELOW = 0x3000
_DROP = np.fromiter(
    (unicodedata.category(chr(c))[0] in "CP" for c in range(_TABLED_BELOW)), bool, _TABLED_BELOW
)


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[str, ...]
    source_id: str = ""


def _words(text: str) -> list[str]:
    """The lower-cased words of the NFC form of text once its URLs and its
    characters of Unicode category P* or C* are spaces."""
    text = unicodedata.normalize("NFC", text)
    # _URL matches only at "://" or at "www." in any case
    if "://" in text or ("w" in text or "W" in text) and "www." in text.lower():
        text = _URL.sub(" ", text)
    # lone surrogates are code points of category Cs, so they become spaces
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4").copy()
    drop = _DROP.take(codes, mode="clip")
    if codes.max(initial=0) >= _TABLED_BELOW:
        rare = codes >= _TABLED_BELOW
        distinct, which = np.unique(codes[rare], return_inverse=True)
        cats = [unicodedata.category(chr(c))[0] in "CP" for c in distinct.tolist()]
        drop[rare] = np.array(cats, bool)[which]
    codes[drop] = 32
    return codes.tobytes().decode("utf-32-le").lower().split()


def clean(text: str) -> str:
    """Lowercase NFC text with URLs, control characters, punctuation and
    redundant spaces removed. Idempotent and total.

    URL = maximal non-space run starting with http://, https:// or www.
    Punctuation/control = Unicode categories P* and C*; ordinal signs
    (category Lo) survive as letters.
    """
    return " ".join(_words(text))


def to_token_stream(
    doc_id: str,
    raw_text: str,
    stopwords,
    lemma_lexicon: dict[str, str],
) -> TokenStream:
    """Full pipeline: clean, split, drop stop-words, lemmatise.

    The stop-word filter is re-applied after lemmatisation so a lemma that
    lands on a stop-word never reaches the vectorizer.
    """
    tokens = [
        lemma
        for word in _words(raw_text)
        if word not in stopwords
        if (lemma := lemma_lexicon.get(word, word)) not in stopwords
    ]
    return TokenStream(tuple(tokens), doc_id)
