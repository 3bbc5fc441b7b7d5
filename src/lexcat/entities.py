"""Rule-based extraction of the seven judicial features from raw judgement text.

Detectors operate on NFC-normalised text, match case-insensitively and are
pure functions of (text, lexica), compiling each lexicon's patterns once.
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


@functools.cache
def _patterns(phrases: tuple[str, ...]) -> tuple[tuple[re.Pattern, ...], re.Pattern]:
    """One pattern per phrase (its words apart by any whitespace, whole words,
    any case) and their alternation, which finds where the first one starts;
    for an empty lexicon that is "(?!)", which never matches."""
    sources = [r"\b" + r"\s+".join(map(re.escape, p.split())) + r"\b" for p in phrases]
    patterns = tuple(re.compile(s, re.IGNORECASE) for s in sources)
    return patterns, re.compile("|".join(sources) or "(?!)", re.IGNORECASE)


def _first_match(text: str, phrases: tuple[str, ...]) -> str | None:
    """Earliest occurrence wins; at equal position the longest phrase wins;
    remaining ties go to lexicon order."""
    patterns, any_phrase = _patterns(phrases)
    first = any_phrase.search(text)
    if first is None:
        return None
    best_end, best = -1, None
    for phrase, pattern in zip(phrases, patterns):
        m = pattern.match(text, first.start())
        if m is not None and m.end() > best_end:
            best_end, best = m.end(), phrase
    return best


def detect_case_type(text: str, lexicon) -> str:
    """First case-type lexicon hit in the given (heading) text.

    The case number pattern that usually trails the type name (digits and a
    /year suffix) is irrelevant to the match and simply ignored.
    """
    hit = _first_match(_nfc(text), tuple(e.name for e in lexicon))
    return hit if hit is not None else UNKNOWN


def detect_court(text: str, court_lexicon) -> str:
    hit = _first_match(_nfc(text), tuple(court_lexicon))
    return hit if hit is not None else UNKNOWN


def detect_decision(decision_section: str, decision_lexicon) -> str:
    """Exactly one keyword in the ruling section names the decision; two or
    more distinct keywords make it a multiple decision."""
    text = _nfc(decision_section)
    keywords = tuple(decision_lexicon)
    found = {kw for kw, p in zip(keywords, _patterns(keywords)[0]) if p.search(text)}
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
    hit = _first_match(_nfc(text), tuple(lexica.divisions))
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
    text = _nfc(heading_tail)
    matches = list(_RESOLUTION.finditer(text))
    if matches:
        return RESOLUTION_TYPES[matches[-1].lastindex - 1]
    best_end, best = -1, None
    compact = re.sub(r"\s+", "", text).casefold()
    for kw in RESOLUTION_TYPES:
        pos = compact.rfind(kw)
        if pos >= 0 and pos + len(kw) > best_end:
            best_end = pos + len(kw)
            best = kw
    return best if best is not None else UNKNOWN


def split_sections(text: str) -> tuple[str, str]:
    """(heading, decision_section) of a judgement text.

    Heading: everything before the first pleas-of-fact marker (whole text if
    absent). Decision section: everything after the last ruling marker
    (empty if absent).
    """
    nfc_text = _nfc(text)
    m = _HEADING_END.search(nfc_text)
    heading = nfc_text[: m.start()] if m else nfc_text
    starts = [m.end() for m in _DECISION_START.finditer(nfc_text)]
    decision = nfc_text[starts[-1] :] if starts else ""
    return heading, decision


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
