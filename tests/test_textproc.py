import importlib
import re
import shutil
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat.anonymiser import anonymize
from lexcat.corpus import Judgement, LabelAssignment
from lexcat.entities import extract_entities
from lexcat.lexica import ConfigurationError, default_data_dir, load_lexica, load_text_resources
from lexcat.textproc import clean, to_token_stream

# The oracle: clean as one str.translate over a table that maps each
# character of category P* or C* to a space, as the library did before its
# code-point array pass, plus the NFC normalisation both now start with.

_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)


class _CleanTable(dict):
    """str.translate table: a character of category P* or C* maps to a
    space, any other to itself, looked up on its first miss."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        self[code] = " " if unicodedata.category(ch)[0] in "CP" else ch
        return self[code]


_CLEAN_TABLE = _CleanTable()


def reference_clean(text):
    text = _URL.sub(" ", unicodedata.normalize("NFC", text))
    return " ".join(text.translate(_CLEAN_TABLE).lower().split())


def tokenize(text):
    return text.split()


def remove_stopwords(tokens, stoplist):
    return [t for t in tokens if t not in stoplist]


def reference_tokens(text, stopwords, lemmas):
    """clean, split, drop stop-words, lemmatise, drop stop-words again."""
    toks = remove_stopwords(tokenize(reference_clean(text)), stopwords)
    return tuple(remove_stopwords([lemmas.get(t, t) for t in toks], stopwords))


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
    # nothing is kept between calls: a second call gives the same words
    assert clean(text) == reference_clean(text)


def test_clean_matches_the_oracle_on_every_code_point():
    # each code point, lone surrogates included, between two letters, in
    # chunks: both below and above the table's limit, and each rare one
    # once among many other distinct ones
    for lo in range(0, 0x110000, 0x10000):
        text = "".join(f"a{chr(code)}b" for code in range(lo, lo + 0x10000))
        assert clean(text) == reference_clean(text), hex(lo)


def test_clean_classifies_each_distinct_rare_code_point_once(monkeypatch):
    rare = ["\u3001", "\ue000", "\U0001f600", "\u4e00"]  # P, Co, So, Lo
    text = "Ñandú, " * 50 + "".join(rare) * 1000
    expected = reference_clean(text)
    calls = []
    category = unicodedata.category
    monkeypatch.setattr(unicodedata, "category", lambda ch: calls.append(ch) or category(ch))
    assert clean(text) == expected
    # code points below U+3000 are read from the table built at import; each
    # distinct one at or above it is looked up once, whatever its count
    assert sorted(calls) == sorted(rare)


def test_clean_empty():
    assert clean("") == ""


def test_clean_url_tab_punctuation():
    assert clean("Ver  https://x.y/z.\tFin.") == "ver fin"


def test_clean_page_breaks_and_ordinals():
    assert clean("JUZGADO\n\nNº 3") == "juzgado nº 3"


def test_clean_www_urls():
    assert clean("ver www.ejemplo.es/caso ya") == "ver ya"
    assert clean("ver WwW.Ejemplo.es ya, HTTP://X.es o httpſ://y") == "ver ya o"
    assert clean("VER WWW.EJEMPLO.ES") == "ver"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_clean_idempotent(text):
    once = clean(text)
    assert clean(once) == once


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_clean_postconditions(text):
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


_LEXICA = load_lexica()
_ACCENTED = st.sampled_from(["José", "Núñez", "según", "también", "María", "Ibáñez"])
_PIECES = st.one_of(
    st.sampled_from(sorted(_LEXICA.text.stopwords) + sorted(_LEXICA.text.lemmas)),
    _ACCENTED,
    _ACCENTED.map(lambda w: unicodedata.normalize("NFD", w)),
    st.sampled_from(["HTTPS://Ejemplo.ES/a", "wWw.x.es", "Www.", "http:/", "\xa0", "\u2028",
                     "\U0001f600", "\U00010400", "\ue000", "\U000f0000", "\u3002", "."]),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=40), st.sampled_from(["", " ", "\u2028", "\xa0", "."]))
def test_token_stream_matches_the_oracle_pipeline(pieces, sep):
    text = sep.join(pieces)
    stop, lemmas = _LEXICA.text.stopwords, _LEXICA.text.lemmas
    assert to_token_stream("d", text, stop, lemmas).tokens == reference_tokens(text, stop, lemmas)


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


_LABELS = (LabelAssignment("social", ("a", "b", "c")),)


def test_nfd_and_nfc_judgements_are_read_alike(lexica, monkeypatch):
    from test_acceptance import LISTING_DOC

    # the ingest benchmark's generator of legal-style judgements
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    legal = importlib.import_module("legal")

    sentence = "Según consta, también comparece D. José Núñez Ibáñez, letrado, y Dña. María Pérez."
    texts = [sentence, LISTING_DOC, *(doc.text for doc in legal.generate(30, seed=11))]
    for text in texts:
        out = {}
        for form in ("NFC", "NFD"):
            anonymised, report = anonymize(unicodedata.normalize(form, text), lexica.anonymiser)
            stream = to_token_stream("d", anonymised, lexica.text.stopwords, lexica.text.lemmas)
            record = extract_entities(Judgement("d", anonymised, _LABELS), lexica.entities)
            out[form] = (anonymised, report, stream, record)
        assert out["NFD"] == out["NFC"]
        if text == sentence:
            anonymised, _, stream, _ = out["NFD"]
            assert anonymised == "Según consta, también comparece @Person Ibáñez, letrado, y @Lawyer."
            assert stream.tokens == ("consta", "comparece", "person", "ibáñez", "letrado", "lawyer")


def _lexica_with(tmp_path, name, line):
    """tmp_path holding the bundled lexica, with line appended to file name."""
    shutil.copytree(default_data_dir(), tmp_path, dirs_exist_ok=True)
    with open(tmp_path / name, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return tmp_path


@pytest.mark.parametrize(
    "name, line, entry",
    [
        ("stopwords.txt", "El", "El"),
        ("stopwords.txt", "art.", "art."),
        ("stopwords.txt", "de la", "de la"),
        ("stopwords.txt", "a\u2003b", "a\u2003b"),
        ("stopwords.txt", "¿qué", "¿qué"),
        ("lemmas.tsv", "Trabajadores\ttrabajador", "Trabajadores"),
        ("lemmas.tsv", "art.\tartículo", "art."),
    ],
)
def test_loader_refuses_entries_that_are_not_one_clean_token(name, line, entry, tmp_path):
    # a stop-word or lemma form is compared with clean's tokens, so one that
    # is no such token could never match; the loader refuses it
    with pytest.raises(ConfigurationError) as err:
        load_text_resources(_lexica_with(tmp_path, name, line))
    assert str(err.value) == f"{tmp_path / name}: entry is not one clean token: {entry!r}"


def test_loader_refuses_lemma_entries_that_hold_whitespace(tmp_path):
    # no token holds whitespace, so a lemma form or lemma that does is refused
    for line in ["a b\tx", "a\u2003b\tx", "x\ta b", "x\ta\xa0b"]:
        with pytest.raises(ConfigurationError, match="lemma entries must be single tokens"):
            load_text_resources(_lexica_with(tmp_path, "lemmas.tsv", line))


def test_missing_stoplist_is_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="stopwords"):
        load_text_resources(tmp_path)
