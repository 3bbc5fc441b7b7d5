import re
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat import textproc
from lexcat.textproc import TokenStream, clean, remove_stopwords, to_token_stream, tokenize


def reference_clean(text):
    """clean as one category lookup per character, no table."""
    text = re.sub(r"(?:https?://|www\.)\S+", " ", text, flags=re.IGNORECASE)
    chars = [" " if unicodedata.category(ch)[0] in "CP" else ch for ch in text]
    return " ".join("".join(chars).lower().split())


# control characters, lone surrogates, the ordinal signs and their
# neighbours, and punctuation, mixed into arbitrary Unicode text
_EDGE_CHARS = st.sampled_from(
    ["\x00", "\x1f", "\x7f", "\x85", "\u200b", "\ud800", "\udfff", "\ufeff", "º", "ª",
     "°", "Nº", "¿", "¡", "«", "»", "—", "·", " ", "\t", "\n", "www.", "http://"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.characters(), _EDGE_CHARS, st.text(max_size=5)), max_size=60))
def test_clean_matches_per_character_reference(pieces):
    text = "".join(pieces)
    assert clean(text) == reference_clean(text)
    # a second call answers from the filled table
    assert clean(text) == reference_clean(text)


def test_clean_table_stays_bounded():
    # the table keeps only code points below a fixed limit, so cleaning
    # every code point once leaves it small, and the rest still clean right
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert len(everything) == 1_114_112
    assert clean(everything) == reference_clean(everything)
    assert len(textproc._CLEAN_TABLE) <= textproc._CACHED_BELOW == 0x3000
    assert clean(everything) == reference_clean(everything)


def test_clean_empty():
    assert clean("") == ""


def test_clean_url_tab_punctuation():
    assert clean("Ver  https://x.y/z.\tFin.") == "ver fin"


def test_clean_page_breaks_and_ordinals():
    assert clean("JUZGADO\n\nNº 3") == "juzgado nº 3"


def test_clean_www_urls():
    assert clean("ver www.ejemplo.es/caso ya") == "ver ya"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_clean_idempotent(text):
    once = clean(text)
    assert clean(once) == once


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_clean_postconditions(text):
    import unicodedata

    out = clean(text)
    assert "  " not in out
    assert out == out.lower()
    for ch in out:
        if ch != " ":
            assert unicodedata.category(ch)[0] not in "CP"


def test_tokenize():
    assert tokenize("a b c") == ["a", "b", "c"]
    assert tokenize("") == []
    assert tokenize("recurso de suplicación") == ["recurso", "de", "suplicación"]


def test_remove_stopwords():
    assert remove_stopwords(["recurso", "de", "suplicación"], {"de"}) == [
        "recurso",
        "suplicación",
    ]
    assert remove_stopwords([], {"de"}) == []
    assert remove_stopwords(["de", "la"], {"de", "la"}) == []


def test_lemmatize():
    lexicon = {"trabajadores": "trabajador"}
    assert to_token_stream("", "trabajadores", set(), lexicon).tokens == ("trabajador",)
    assert to_token_stream("", "inédito", set(), lexicon).tokens == ("inédito",)
    assert to_token_stream("", "", set(), lexicon).tokens == ()


def test_token_stream_rejects_whitespace_tokens():
    with pytest.raises(ValueError):
        TokenStream(("a b",))
    with pytest.raises(ValueError):
        TokenStream(("",))
    for tok in ("a\u2003b", " a", "a\n"):
        with pytest.raises(ValueError, match="invalid token in stream"):
            TokenStream(("ok", tok))


def test_full_pipeline_order_and_stopwords(lexica):
    stream = to_token_stream(
        "d1",
        "Los trabajadores de la EMPRESA presentaron recursos.",
        lexica.text.stopwords,
        lexica.text.lemmas,
    )
    assert stream.tokens == ("trabajador", "empresa", "presentaron", "recurso")
    assert stream.source_id == "d1"
    assert all(t not in lexica.text.stopwords for t in stream.tokens)


def test_pipeline_only_introduces_lemma_substitutions(lexica):
    text = "Sentencias y leyes nuevas"
    cleaned_tokens = set(tokenize(clean(text)))
    stream = to_token_stream("d", text, lexica.text.stopwords, lexica.text.lemmas)
    for tok in stream.tokens:
        assert tok in cleaned_tokens or tok in lexica.text.lemmas.values()


def test_missing_stoplist_is_configuration_error(tmp_path):
    from lexcat.lexica import ConfigurationError, load_text_resources

    with pytest.raises(ConfigurationError, match="stopwords"):
        load_text_resources(tmp_path)
