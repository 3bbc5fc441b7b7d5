import re
import sys
import unicodedata
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat import entities
from lexcat.corpus import Judgement, LabelAssignment
from lexcat.entities import (
    DECISION_TYPES,
    EntityRecord,
    GinParseError,
    MULTIPLE_DECISION,
    RESOLUTION_TYPES,
    UNKNOWN,
    _first_match,
    _fold,
    derive_instance_type,
    detect_case_type,
    detect_court,
    detect_decision,
    detect_jurisdiction,
    detect_resolution_type,
    extract_entities,
    parse_gin,
    split_sections,
)
from lexcat.lexica import CaseTypeEntry, EntityLexica, load_lexica


def test_parse_gin_positions():
    fields = parse_gin("3605742120190001234")
    assert fields.province == "36057"
    assert fields.court_code == "42"
    assert fields.jurisdiction_digit == "1"
    assert fields.year == "2019"
    assert fields.sequence == "0001234"


def test_parse_gin_zeros_and_errors():
    fields = parse_gin("0" * 19)
    assert "".join(astuple(fields)) == "0" * 19
    with pytest.raises(GinParseError):
        parse_gin("0" * 18)
    with pytest.raises(GinParseError):
        parse_gin("0" * 18 + "x")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789", min_size=19, max_size=19))
def test_parse_gin_round_trip(gin):
    assert "".join(astuple(parse_gin(gin))) == gin


def test_detect_case_type(lexica):
    lx = lexica.entities.case_types
    assert (
        detect_case_type("RECURSO DE SUPLICACIÓN 123/2019", lx)
        == "recurso de suplicación"
    )
    two = "Se inició un juicio ordinario, luego recurso de apelación"
    assert detect_case_type(two, lx) == "juicio ordinario"
    assert detect_case_type("sin tipo reconocible", lx) == UNKNOWN


def test_detect_case_type_longest_at_position():
    lx = (
        CaseTypeEntry("recurso de casación"),
        CaseTypeEntry("recurso de casación para la unificación de doctrina"),
    )
    text = "RECURSO DE CASACIÓN PARA LA UNIFICACIÓN DE DOCTRINA 7/2020"
    assert detect_case_type(text, lx) == "recurso de casación para la unificación de doctrina"


def test_detect_court(lexica):
    lx = lexica.entities.courts
    assert (
        detect_court("TRIBUNAL SUPERIOR DE JUSTICIA DE GALICIA", lx)
        == "Tribunal Superior de Justicia"
    )
    assert detect_court("sin órgano", lx) == UNKNOWN
    two = "ante el Juzgado de lo Social y luego el Tribunal Supremo"
    assert detect_court(two, lx) == "Juzgado de lo Social"


def test_phrase_led_by_punctuation_is_found_after_a_space_and_at_a_line_start():
    courts = ("(Juzgado Decano", "Tribunal Supremo")
    for text in ("ante el (JUZGADO DECANO de Vigo", "(juzgado decano de Vigo",
                 "auto\n(Juzgado  Decano", "auto(Juzgado Decano"):
        assert detect_court(text, courts) == "(Juzgado Decano", text
    # an end that is a word character still ends a whole word
    assert detect_court("(Juzgado Decanos", courts) == UNKNOWN


def test_detect_decision(lexica):
    lx = lexica.entities.decisions
    assert detect_decision("el fallo es desestimatorio", lx) == "desestimatorio"
    both = "parcialmente estimatorio y en lo demás desestimatorio"
    assert detect_decision(both, lx) == MULTIPLE_DECISION
    assert detect_decision("", lx) == UNKNOWN


@pytest.mark.parametrize(
    "case_type,expected",
    [
        ("recurso de casación", "third"),
        ("recurso de unificación de doctrina", "third"),
        ("recurso de suplicación", "second"),
        ("recurso de apelación", "second"),
        ("recurso contencioso-administrativo", "first"),
        ("juicio ordinario", "higher"),
        ("", "higher"),
    ],
)
def test_derive_instance_type(case_type, expected):
    assert derive_instance_type(case_type) == expected


def test_detect_jurisdiction_route_order(lexica):
    lx = lexica.entities

    def jurisdiction(text, gin):
        return detect_jurisdiction(text, gin, lx, detect_case_type(text, lx.case_types))

    assert jurisdiction("la Sala de lo Social del tribunal", None) == "social"
    # no division phrase: the GIN digit decides (2 -> penal in the bundled map)
    assert jurisdiction("texto neutro", "0000000" + "2" + "20190000001") == "penal"
    # division beats the GIN
    assert jurisdiction("Sala de lo Civil", "0000000" + "2" + "20190000001") == "civil"
    # case-type lexicon as the last resort
    assert jurisdiction("visto el recurso de suplicación 1/1", None) == "social"
    assert jurisdiction("nada", None) == UNKNOWN
    # the case type is the caller's: it is mapped, never searched again
    assert detect_jurisdiction("nada", None, lx, "recurso de suplicación") == "social"
    assert detect_jurisdiction("recurso de suplicación", None, lx, UNKNOWN) == UNKNOWN


def test_detect_resolution_type():
    assert detect_resolution_type("En Vigo se dicta la presente S E N T E N C I A") == "sentencia"
    assert detect_resolution_type("DECRETO") == "decreto"
    assert detect_resolution_type("texto sin resolución") == UNKNOWN
    assert detect_resolution_type("se acuerda mediante ORDEN") == "orden"


def test_split_sections():
    text = "CABECERA datos ANTECEDENTES DE HECHO los hechos FALLO se desestima"
    heading, decision = split_sections(text)
    assert heading == "CABECERA datos "
    assert decision == " se desestima"
    heading2, decision2 = split_sections("sin marcadores")
    assert heading2 == "sin marcadores"
    assert decision2 == ""


def _doc(text, gin=None):
    return Judgement(
        id="d",
        raw_text=text,
        annotations=(LabelAssignment("social", ("a", "b", "c")),),
        gin=gin,
    )


LISTING_DOC = """TRIBUNAL SUPERIOR DE JUSTICIA DE GALICIA Sala de lo Social
RECURSO DE SUPLICACIÓN 123/2019
S E N T E N C I A
ANTECEDENTES DE HECHO
Primero. La parte actora prestó servicios para la empresa.
FUNDAMENTOS DE DERECHO
Se aplican los artículos del Estatuto de los Trabajadores.
FALLO
Que desestimamos el recurso interpuesto. Fallo desestimatorio."""


def test_extract_entities_reference_document(lexica):
    record = extract_entities(_doc(LISTING_DOC), lexica.entities)
    assert record.values() == (
        "recurso de suplicación",
        "Tribunal Superior de Justicia",
        "desestimatorio",
        "substantive",
        "second",
        "social",
        "sentencia",
    )
    assert record.display_values() == (
        "recurso de suplicación",
        "Tribunal Superior de Justicia",
        "desestimatorio",
        "sustantivo",
        "segunda",
        "social",
        "sentencia",
    )


def test_extract_entities_empty_text(lexica):
    record = extract_entities(_doc(""), lexica.entities)
    assert record.values() == (UNKNOWN,) * 7


def test_extract_entities_decision_type_coupling(lexica):
    record = extract_entities(_doc(LISTING_DOC), lexica.entities)
    assert record.resolution_type == "sentencia"
    assert record.decision_type == "substantive"
    decreto = _doc("DECRETO\nANTECEDENTES DE HECHO\nFALLO archivo")
    record2 = extract_entities(decreto, lexica.entities)
    assert record2.resolution_type == "decreto"
    assert record2.decision_type == "procedural"


def test_extract_entities_searches_case_type_once(lexica, monkeypatch):
    calls = []

    def counting_detect_case_type(text, lexicon):
        calls.append(text)
        return detect_case_type(text, lexicon)

    monkeypatch.setattr(entities, "detect_case_type", counting_detect_case_type)
    # no division phrase and no GIN: jurisdiction falls to the case type
    record = extract_entities(_doc("visto el recurso de suplicación 1/1"), lexica.entities)
    assert record.case_type == "recurso de suplicación"
    assert record.jurisdiction == "social"
    assert len(calls) == 1


def test_detectors_deterministic(lexica):
    r1 = extract_entities(_doc(LISTING_DOC), lexica.entities)
    r2 = extract_entities(_doc(LISTING_DOC), lexica.entities)
    assert r1 == r2


def test_entity_record_rejects_contradicting_decision_type():
    fields = dict(case_type=UNKNOWN, court=UNKNOWN, decision=UNKNOWN, instance_type=UNKNOWN,
                  jurisdiction=UNKNOWN)
    for resolution, wrong in (("sentencia", "procedural"), ("orden", "substantive"),
                              ("decreto", UNKNOWN)):
        with pytest.raises(ValueError, match=f"{resolution} resolutions"):
            EntityRecord(**fields, decision_type=wrong, resolution_type=resolution)
    # an unknown resolution type implies no decision type
    EntityRecord(**fields, decision_type="procedural", resolution_type=UNKNOWN)


# The matchers as they were when every call compiled one regex per phrase,
# kept only as an oracle for the compiled-once versions.
def _ref_phrase_pattern(phrase):
    words = phrase.split()
    # no word character right before a phrase that starts with one, or right
    # after a phrase that ends with one
    head = r"(?<!\w)" if words and re.match(r"\w", words[0][0]) else ""
    tail = r"(?!\w)" if words and re.match(r"\w", words[-1][-1]) else ""
    return re.compile(head + r"\s+".join(map(re.escape, words)) + tail, re.IGNORECASE)


def _ref_first_match(text, phrases):
    best = None
    best_phrase = None
    for order, phrase in enumerate(phrases):
        m = _ref_phrase_pattern(phrase).search(text)
        if m is None:
            continue
        rank = (m.start(), -(m.end() - m.start()), order)
        if best is None or rank < best:
            best = rank
            best_phrase = phrase
    return best_phrase


def _ref_detect_decision(decision_section, decision_lexicon):
    text = unicodedata.normalize("NFC", decision_section)
    found = [kw for kw in decision_lexicon if _ref_phrase_pattern(kw).search(text)]
    if not found:
        return UNKNOWN
    if len(set(found)) > 1:
        return MULTIPLE_DECISION
    return found[0]


def _ref_detect_resolution_type(heading_tail):
    text = unicodedata.normalize("NFC", heading_tail)
    best_end = -1
    best = None
    for kw in RESOLUTION_TYPES:
        matches = list(re.finditer(r"\b" + kw + r"\b", text, re.IGNORECASE))
        if matches and matches[-1].end() > best_end:
            best_end = matches[-1].end()
            best = kw
    if best is not None:
        return best
    compact = re.sub(r"\s+", "", text).casefold()
    for kw in RESOLUTION_TYPES:
        pos = compact.rfind(kw)
        if pos >= 0 and pos + len(kw) > best_end:
            best_end = pos + len(kw)
            best = kw
    return best if best is not None else UNKNOWN


def _ref_split_sections(text):
    nfc_text = unicodedata.normalize("NFC", text)
    m = re.search(r"ANTECEDENTES\s+DE\s+HECHO", nfc_text, re.IGNORECASE)
    heading = nfc_text[: m.start()] if m else nfc_text
    ruling = r"\b(?:FALLAMOS|FALLO|PARTE\s+DISPOSITIVA)\b"
    starts = [m.end() for m in re.finditer(ruling, nfc_text, re.IGNORECASE)]
    decision = nfc_text[starts[-1] :] if starts else ""
    return heading, decision


def _ref_extract_entities(text, lexica):
    """extract_entities of a document without GIN, composed of the oracles
    above; each detector normalised its own text."""
    heading, decision_section = _ref_split_sections(text)
    heading = unicodedata.normalize("NFC", heading)

    def first(phrases):
        hit = _ref_first_match(heading, list(phrases))
        return UNKNOWN if hit is None else hit

    case_type = first(e.name for e in lexica.case_types)
    division = _ref_first_match(heading, list(lexica.divisions))
    mapped = [e.jurisdiction for e in lexica.case_types if e.name == case_type and e.jurisdiction]
    if division is not None:
        jurisdiction = lexica.divisions[division]
    elif case_type != UNKNOWN and mapped:
        jurisdiction = mapped[0]
    else:
        jurisdiction = UNKNOWN
    resolution = _ref_detect_resolution_type(heading)
    return EntityRecord(
        case_type,
        first(lexica.courts),
        _ref_detect_decision(decision_section, lexica.decisions),
        DECISION_TYPES.get(resolution, UNKNOWN),
        UNKNOWN if case_type == UNKNOWN else derive_instance_type(case_type),
        jurisdiction,
        resolution,
    )


_BUNDLED = load_lexica().entities
_PHRASES = sorted(
    {e.name for e in _BUNDLED.case_types}
    | set(_BUNDLED.courts)
    | set(_BUNDLED.decisions)
    | set(_BUNDLED.divisions)
    | {"parcialmente estimatorio", "sala", "de lo"}
    # the section markers, and words holding the letters of _SPECIAL
    | {"antecedentes de hecho", "fallamos", "fallo", "parte dispositiva", "kılıç", "straße"}
    | {"ångström", "sakkara"}
)
_WORDS = sorted({w for p in _PHRASES for w in re.split(r"[\s-]+", p)} | set(RESOLUTION_TYPES))
# letters re.IGNORECASE equates with a lowercase one that str.casefold,
# str.upper or a Latin-1 fold keeps apart: the Kelvin and Angstrom signs,
# capital sharp s, dotless i and long s
_SPECIAL = str.maketrans({"k": "\u212a", "å": "\u212b", "ß": "\u1e9e", "i": "ı", "s": "ſ"})
_CASES = (
    str.lower,
    str.upper,
    str.title,
    str.swapcase,
    lambda w: w,
    lambda w: w.translate(_SPECIAL),
    lambda w: w.upper().replace("I", "\u0130"),  # dotted capital I, two characters lowercased
    lambda w: unicodedata.normalize("NFD", w),  # accents as combining marks
)
_SEPARATORS = (" ", "  ", "\n", "\t", "-", "", ", ", ". ", "ſ", " ſ", "s ", "\u00a0", "\u2028",
               " (", "(", ") ")

_cased = st.builds(lambda f, w: f(w), st.sampled_from(_CASES), st.sampled_from(_WORDS))
_spaced = st.builds(
    lambda kw, sep: sep.join(kw.upper()),
    st.sampled_from(RESOLUTION_TYPES),
    st.sampled_from((" ", "\u00a0", "\u2028", "\t ")),
)
_texts = st.lists(
    st.tuples(st.one_of(_cased, _cased, _spaced), st.sampled_from(_SEPARATORS)), max_size=30
).map(lambda parts: "".join(w + sep for w, sep in parts))
_heading_words = RESOLUTION_TYPES + ("la", "presente", "sentencias", "ordenes", "ordenado")
_headings = st.lists(
    st.tuples(
        st.one_of(
            st.builds(lambda f, w: f(w), st.sampled_from(_CASES), st.sampled_from(_heading_words)),
            _spaced,
        ),
        st.sampled_from(_SEPARATORS),
    ),
    max_size=12,
).map(lambda parts: "".join(w + sep for w, sep in parts))
# phrases as a user lexicon may hold them: any case, and some starting with
# punctuation, a hyphen or a hyphen-only word
_lexicons = st.lists(
    st.builds(
        lambda prefix, f, p: prefix + f(p),
        st.sampled_from(("", "", "", "(", "-", "- ", "¿")),
        st.sampled_from(_CASES),
        st.sampled_from(_PHRASES),
    ),
    max_size=8,
).map(tuple)


def _texts_holding(lexicon):
    """(text, lexicon): _texts whose words may also be whole phrases of the
    lexicon, in any of _CASES."""
    held = st.builds(lambda f, p: f(p), st.sampled_from(_CASES), st.sampled_from(lexicon or ("",)))
    return st.tuples(
        st.lists(
            st.tuples(st.one_of(_cased, _spaced, held), st.sampled_from(_SEPARATORS)), max_size=30
        ).map(lambda parts: "".join(w + sep for w, sep in parts)),
        st.just(lexicon),
    )


_lexicon_texts = _lexicons.flatmap(_texts_holding)


@settings(max_examples=400, deadline=None)
@given(_lexicon_texts)
def test_first_match_equals_per_phrase_search(text_lexicon):
    text, lexicon = text_lexicon
    assert _first_match(text, lexicon) == _ref_first_match(unicodedata.normalize("NFC", text), lexicon)


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_split_sections_equals_marker_scan(text):
    assert split_sections(text) == _ref_split_sections(text)


@settings(max_examples=150, deadline=None)
@given(_lexicon_texts, _lexicons)
def test_extract_entities_equals_per_phrase_search(text_phrases, keywords):
    text, phrases = text_phrases
    lexica = EntityLexica(
        case_types=tuple(CaseTypeEntry(p, "civil" if len(p) % 2 else None) for p in phrases),
        courts=phrases[::-1],
        decisions=keywords,
        divisions={p: f"j{len(p)}" for p in keywords},
        gin_jurisdiction={},
    )
    for lx in (lexica, _BUNDLED):
        assert extract_entities(_doc(text), lx) == _ref_extract_entities(text, lx)


def test_fold_equates_what_ignorecase_equates():
    """_fold keeps every offset and gives one value to any two characters
    re.IGNORECASE matches to each other, over all of Unicode, so a search of
    the fold for a phrase's first word finds every place its pattern can
    match. Also: str.split splits at exactly the characters \\s matches."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    folded = _fold(every)
    assert len(folded) == len(every)
    # only cased characters and their lowercase forms match another character
    cased = {c for c in every if c.lower() != c or c.upper() != c}
    text = "".join(sorted(cased | {c.lower()[0] for c in cased}))
    for y in text:
        for m in re.finditer(re.escape(y), text, re.IGNORECASE):
            assert folded[ord(m.group())] == folded[ord(y)], (y, m.group())
    assert "".join(every.split()) == re.sub(r"\s", "", every)


@settings(max_examples=300, deadline=None)
@given(_lexicon_texts)
def test_detect_decision_equals_per_keyword_search(text_lexicon):
    text, lexicon = text_lexicon
    assert detect_decision(text, lexicon) == _ref_detect_decision(text, lexicon)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_texts, _headings))
def test_detect_resolution_type_equals_per_keyword_scan(text):
    assert detect_resolution_type(text) == _ref_detect_resolution_type(text)


def test_detect_resolution_type_last_keyword_wins():
    assert detect_resolution_type("ORDEN de la presente SENTENCIA") == "sentencia"
    assert detect_resolution_type("sentencia, decreto y orden.") == "orden"
    assert detect_resolution_type("sentencia, orden-decreto") == "decreto"
    assert detect_resolution_type("S E N T E N C I A y D E C R E T O") == "decreto"


@pytest.mark.parametrize(
    "text,lexicon",
    [
        # a phrase that is a prefix of a longer one at the same position
        ("ante la Sala de lo Contencioso-Administrativo del TSJ",
         ("sala de lo contencioso", "sala de lo contencioso-administrativo")),
        ("ante la sala de lo contencioso\nadministrativo", ("sala de lo contencioso",
                                                             "sala de lo contencioso-administrativo")),
        # entries that differ only in case: lexicon order decides
        ("JUZGADO DE LO SOCIAL", ("Juzgado de lo Social", "juzgado de lo social")),
        ("JUZGADO DE LO SOCIAL", ("juzgado de lo social", "Juzgado de lo Social")),
        # a later entry that matches earlier in the text
        ("juzgado de lo penal y tribunal supremo", ("Tribunal Supremo", "Juzgado de lo Penal")),
        # an empty lexicon, and an empty text
        ("Tribunal Supremo", ()),
        ("", ("Tribunal Supremo",)),
    ],
)
def test_first_match_cases(text, lexicon):
    assert _first_match(text, lexicon) == _ref_first_match(text, lexicon)


def test_first_match_hits():
    both = ("sala de lo contencioso", "sala de lo contencioso-administrativo")
    assert _first_match("la Sala de lo Contencioso-Administrativo", both) == both[1]
    assert _first_match("la Sala de lo Contencioso y otra", both) == both[0]
    cased = ("Juzgado de lo Social", "juzgado de lo social")
    assert _first_match("JUZGADO DE LO SOCIAL", cased) == "Juzgado de lo Social"
    assert _first_match("Tribunal Supremo", ()) is None
    # a decision keyword inside a longer one still counts
    nested = ("estimatorio", "parcialmente estimatorio")
    assert detect_decision("parcialmente estimatorio", nested) == MULTIPLE_DECISION
    assert detect_decision("ESTIMATORIO", ("estimatorio", "Estimatorio")) == MULTIPLE_DECISION
    assert detect_decision("estimatorio", ()) == UNKNOWN
