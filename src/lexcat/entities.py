"""Rule-based extraction of the seven judicial features from raw judgement text.

Detectors operate on NFC-normalised text, match case-insensitively and are
pure functions of (text, lexica), compiling each lexicon's patterns once. A
pattern is tried only where the text's case fold holds that of its first word.
Section markers: the heading ends at the first pleas-of-fact marker, the
decision section starts after the last ruling marker.
"""

from __future__ import annotations

import functools
import operator
import re
import unicodedata
from dataclasses import dataclass, fields

from . import DataError
from .lexica import EntityLexica

UNKNOWN = "unknown"
MULTIPLE_DECISION = "multiple decision"

JURISDICTIONS = ("civil", "contentious-administrative", "penal", "social")
RESOLUTION_TYPES = ("sentencia", "orden", "decreto")
# the decision type each resolution type implies
DECISION_TYPES = {"sentencia": "substantive", "orden": "procedural", "decreto": "procedural"}

_HEADING_END = re.compile(r"ANTECEDENTES\s+DE\s+HECHO", re.IGNORECASE)
_DECISION_START = re.compile(r"\b(?:FALLAMOS|FALLO|PARTE\s+DISPOSITIVA)\b", re.IGNORECASE)
# one group per resolution keyword; whole keywords never overlap
_RESOLUTION = re.compile(r"\b(?:(" + ")|(".join(RESOLUTION_TYPES) + r"))\b", re.IGNORECASE)
# the fold of the word each marker match starts with
_HEADING_KEY, _DECISION_KEYS = "antecedentes", ("fallamos", "fallo", "parte")

# Spanish display forms shown in the rendered explanation.
SPANISH_DISPLAY = {
    "substantive": "sustantivo",
    "procedural": "procesal",
    "first": "primera",
    "second": "segunda",
    "third": "tercera",
    "higher": "superior",
    "contentious-administrative": "contencioso-administrativo",
}


class GinParseError(DataError):
    pass


@dataclass(frozen=True)
class GinFields:
    province: str
    court_code: str
    jurisdiction_digit: str
    year: str
    sequence: str


def parse_gin(gin: str) -> GinFields:
    """Slice a 19-digit General Identification Number into its fixed fields."""
    if not isinstance(gin, str) or not re.fullmatch(r"[0-9]{19}", gin):
        raise GinParseError(f"gin must be exactly 19 decimal digits: {gin!r}")
    return GinFields(gin[0:5], gin[5:7], gin[7:8], gin[8:12], gin[12:19])


@dataclass(frozen=True)
class EntityRecord:
    case_type: str
    court: str
    decision: str
    decision_type: str
    instance_type: str
    jurisdiction: str
    resolution_type: str

    def __post_init__(self) -> None:
        implied = DECISION_TYPES.get(self.resolution_type)
        if implied is not None and self.decision_type != implied:
            raise ValueError(f"{self.resolution_type} resolutions must be {implied} decisions")

    def values(self) -> tuple[str, ...]:
        """The field values, in CATEGORICAL_FIELDS order."""
        return _field_values(self)

    def display_values(self) -> tuple[str, ...]:
        return tuple(SPANISH_DISPLAY.get(v, v) for v in self.values())


# the seven entity fields, in declaration order: the categorical feature
# columns, the entities report's columns and the explanation's entity lines
CATEGORICAL_FIELDS = tuple(f.name for f in fields(EntityRecord))
_field_values = operator.attrgetter(*CATEGORICAL_FIELDS)


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


# Sets of lowercase letters that re.IGNORECASE equates though str.lower keeps
# them apart (those of one uppercase; CPython's re/_casefix.py). _fold writes
# each set's first letter for all of it.
_SAME_UPPER = ("iı sſ µμ ι\u0345\u1fbe \u0390\u1fd3 \u03b0\u1fe3 βϐ εϵ θϑ κϰ πϖ ρϱ ςσ φϕ вᲀ дᲁ оᲂ"
               " сᲃ тᲄᲅ ъᲆ ѣᲇ ꙋᲈ ṡẛ ﬅﬆ").split()
_LEADS = tuple((odd, group[0]) for group in _SAME_UPPER for odd in group[1:])


def _fold(text: str) -> str:
    """text with each character replaced by one that stands for every
    character re.IGNORECASE equates with it, at the same offset: str.lower
    keeps the length of every character but 'İ', which re lowercases to 'i'."""
    folded = text.replace("\u0130", "i").lower()
    for odd, lead in _LEADS:
        folded = folded.replace(odd, lead)
    return folded


class _Folded(str):
    """NFC text that carries its fold. split_sections returns these, so the
    detectors extract_entities hands them normalise and fold a text once."""

    folded: str

    def __new__(cls, nfc: str, folded: str) -> _Folded:
        doc = super().__new__(cls, nfc)
        doc.folded = folded
        return doc


def _prepare(text: str) -> _Folded:
    if isinstance(text, _Folded):
        return text
    nfc = _nfc(text)
    return _Folded(nfc, _fold(nfc))


def _search(pattern: re.Pattern, key: str, doc: _Folded) -> re.Match | None:
    """pattern.search(doc), tried only where doc's fold holds key, which the
    fold of every match starts with."""
    pos = doc.folded.find(key)
    while pos >= 0 and not (m := pattern.match(doc, pos)):
        pos = doc.folded.find(key, pos + 1)
    return m if pos >= 0 else None


def _last(pattern: re.Pattern, keys: tuple[str, ...], doc: _Folded) -> re.Match | None:
    """The match of pattern that starts last, which is finditer's last as no
    two of its matches overlap: the latest of each key's last match, tried
    from the end where doc's fold holds the key."""
    lasts = []
    for key in keys:
        pos = doc.folded.rfind(key)
        while pos >= 0 and not (m := pattern.match(doc, pos)):
            pos = doc.folded.rfind(key, 0, pos + len(key) - 1)
        if pos >= 0:
            lasts.append(m)
    return max(lasts, key=re.Match.start, default=None)


@functools.cache
def _patterns(phrases: tuple[str, ...]) -> tuple[tuple[re.Pattern, ...], dict[str, list[int]]]:
    """One pattern per phrase (its words apart by any whitespace, whole words,
    any case) and the first-word index: the fold of a phrase's first word ->
    the positions of the phrases that start with it."""
    patterns, index = [], {}
    for i, words in enumerate(p.split() for p in phrases):
        source = r"\b" + r"\s+".join(map(re.escape, words)) + r"\b"
        patterns.append(re.compile(source, re.IGNORECASE))
        index.setdefault(_fold(words[0]) if words else "", []).append(i)
    return tuple(patterns), index


def _hits(doc: _Folded, phrases: tuple[str, ...]) -> list[tuple[int, re.Match]]:
    """(position, earliest match) of each phrase found in doc."""
    patterns, index = _patterns(phrases)
    return [(i, m) for key, members in index.items() if key in doc.folded
            for i in members if (m := _search(patterns[i], key, doc))]


def _first_match(text: str, phrases: tuple[str, ...]) -> str | None:
    """Earliest occurrence wins; at equal position the longest phrase wins;
    remaining ties go to lexicon order."""
    hits = [(m.start(), -m.end(), i) for i, m in _hits(_prepare(text), phrases)]
    return phrases[min(hits)[2]] if hits else None


def detect_case_type(text: str, lexicon) -> str:
    """First case-type lexicon hit in the given (heading) text.

    The case number pattern that usually trails the type name (digits and a
    /year suffix) is irrelevant to the match and simply ignored.
    """
    hit = _first_match(text, tuple(e.name for e in lexicon))
    return hit if hit is not None else UNKNOWN


def detect_court(text: str, court_lexicon) -> str:
    hit = _first_match(text, tuple(court_lexicon))
    return hit if hit is not None else UNKNOWN


def detect_decision(decision_section: str, decision_lexicon) -> str:
    """Exactly one keyword in the ruling section names the decision; two or
    more distinct keywords make it a multiple decision."""
    keywords = tuple(decision_lexicon)
    found = {keywords[i] for i, _ in _hits(_prepare(decision_section), keywords)}
    if not found:
        return UNKNOWN
    if len(found) > 1:
        return MULTIPLE_DECISION
    return found.pop()


def derive_instance_type(case_type: str) -> str:
    """Instance level from the case-type string; checks run from the most
    specific keyword down so 'recurso de casación' lands on third."""
    s = _nfc(case_type or "").casefold()
    if "casación" in s or "unificación" in s:
        return "third"
    if "apelación" in s or "suplicación" in s:
        return "second"
    if "recurso" in s:
        return "first"
    return "higher"


def detect_jurisdiction(text: str, gin: str | None, lexica: EntityLexica, case_type: str) -> str:
    """Three detection routes in decreasing reliability: judicial-division
    phrase, GIN jurisdiction digit, case-type lexicon mapping. The last
    route maps case_type, the case type detect_case_type found in text."""
    hit = _first_match(text, tuple(lexica.divisions))
    if hit is not None:
        return lexica.divisions[hit]
    if gin is not None:
        digit = parse_gin(gin).jurisdiction_digit
        if digit in lexica.gin_jurisdiction:
            return lexica.gin_jurisdiction[digit]
    if case_type != UNKNOWN:
        for entry in lexica.case_types:
            if entry.name == case_type and entry.jurisdiction:
                return entry.jurisdiction
    return UNKNOWN


def detect_resolution_type(heading_tail: str) -> str:
    """Resolution keyword closest to the end of the heading.

    A second pass on the whitespace-collapsed tail catches the letter-spaced
    style used in judgement headings (S E N T E N C I A).
    """
    text = _prepare(heading_tail)
    m = _last(_RESOLUTION, RESOLUTION_TYPES, text)
    if m:
        return RESOLUTION_TYPES[m.lastindex - 1]
    # str.split drops exactly the characters \s matches; no keyword ends
    # another, so no two end at one place
    compact = "".join(text.split()).casefold()
    ends = {compact.rfind(kw) + len(kw): kw for kw in RESOLUTION_TYPES if kw in compact}
    return ends[max(ends)] if ends else UNKNOWN


def split_sections(text: str) -> tuple[str, str]:
    """(heading, decision_section) of a judgement text.

    Heading: everything before the first pleas-of-fact marker (whole text if
    absent). Decision section: everything after the last ruling marker
    (empty if absent).
    """
    doc = _prepare(text)
    end = m.start() if (m := _search(_HEADING_END, _HEADING_KEY, doc)) else len(doc)
    start = m.end() if (m := _last(_DECISION_START, _DECISION_KEYS, doc)) else len(doc)
    return _Folded(doc[:end], doc.folded[:end]), _Folded(doc[start:], doc.folded[start:])


def extract_entities(judgement, lexica: EntityLexica) -> EntityRecord:
    """Compose the six detectors plus the decision-type derivation."""
    heading, decision_section = split_sections(judgement.raw_text)
    case_type = detect_case_type(heading, lexica.case_types)
    court = detect_court(heading, lexica.courts)
    decision = detect_decision(decision_section, lexica.decisions)
    resolution = detect_resolution_type(heading)
    decision_type = DECISION_TYPES.get(resolution, UNKNOWN)
    instance = UNKNOWN if case_type == UNKNOWN else derive_instance_type(case_type)
    jurisdiction = detect_jurisdiction(heading, judgement.gin, lexica, case_type)
    return EntityRecord(
        case_type, court, decision, decision_type, instance, jurisdiction, resolution
    )
