"""Seeded generator of legal-style judgements for the `ingest` workload.

Every variable piece of text comes from lexcat's bundled lexica: courts,
judicial divisions, case types, decisions, honorific and role titles,
implicit references, corporate forms, first names, surnames, lemma forms
and stop-words. The fixed template words around them (section markers,
ordinals, "e Hijos") are constants of this file.

The generator varies the three input properties the ingest costs depend on:

* text length: filler sentences per paragraph (`SENTENCES_PER_PARAGRAPH`);
  `clean`, `to_token_stream` and every anonymiser scan are linear in it;
* references per document (`REFERENCES_PER_DOC`) drawn from a cast of
  distinct people; `unify_names` compares every pair of distinct names,
  so its cost is quadratic in the cast size. Document i gets
  lo + i mod (hi - lo + 1), so every value is used equally often whatever
  the seed, and the quadratic cost does not swing with the seed;
* the share of name mentions written in their unaccented lexicon variant
  (`VARIANT_SHARE`, e.g. "Garcia" for "García"); variants add distinct
  names that Jaro unification must merge back.

The same number of documents and seed always give the same documents.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lexcat.lexica import default_data_dir


# Inclusive ranges of the three dimensions. The text length is set so that
# the documents (about 360-1900 characters, median about 1000) span the
# legal-style documents lexcat's own anonymiser timings were taken on, of
# 400 and 930 characters. The references per document and the variant
# share are assumptions, not measured on a real corpus.
SENTENCES_PER_PARAGRAPH = (0, 2)
REFERENCES_PER_DOC = (1, 10)
VARIANT_SHARE = 0.3


@dataclass(frozen=True)
class LegalDoc:
    """One generated judgement plus what the generator put into it."""

    id: str
    text: str
    gin: str
    names: tuple[str, ...]  # every first name and surname written into the text
    court: str
    case_type: str
    decision: str
    resolution_type: str

    def record(self) -> dict:
        """The corpus JSONL record: the only part the program sees."""
        return {
            "id": self.id,
            "text": self.text,
            "gin": self.gin,
            "labels": [{"order": "civil", "categories": ["a", "b", "c"]}],
        }


_RESOLUTION_HEADINGS = (
    ("S E N T E N C I A", "sentencia"),
    ("SENTENCIA", "sentencia"),
    ("ORDEN", "orden"),
    ("DECRETO", "decreto"),
)
_ORDINALS = ("Primero", "Segundo", "Tercero", "Cuarto", "Quinto")

# {role} is a role noun from titles.tsv, {hon} an honorific, {name} a person,
# {corp} a company name, {ref} an implicit reference.
_PERSON_TEMPLATES = (
    "el {role} {hon} {name} dictó la resolución",
    "compareció la parte representada por el {role} {hon} {name}",
    "{name} declaró como testigo en la vista",
    "ante {hon} {name} se ratificó el convenio",
    "el {ref} solicitó la nulidad, asistido por {hon} {name}",
    "consta el escrito firmado por {name}",
)
_CORPORATE_TEMPLATES = (
    "la empresa {corp} resultó condenada en costas",
    "contra la mercantil {corp} se dirige la demanda",
)


def _read(name: str) -> list[str]:
    path = default_data_dir() / name
    lines = path.read_text(encoding="utf-8").splitlines()
    return [unicodedata.normalize("NFC", ln.strip()) for ln in lines if ln.strip()]


def _strip_accents(s: str) -> str:
    return "".join(
        ch for ch in unicodedata.normalize("NFD", s) if not unicodedata.combining(ch)
    )


class _Lexicon:
    def __init__(self) -> None:
        self.courts = _read("courts.txt")
        self.case_types = [ln.split("\t")[0] for ln in _read("case_types.tsv")]
        self.decisions = _read("decisions.txt")
        self.divisions = [ln.split("\t")[0] for ln in _read("divisions.tsv")
                          if ln.startswith("sala")]
        titles = [ln.split("\t") for ln in _read("titles.tsv")]
        self.honorifics = [t for t, tag in titles if tag == "@Person" and t.endswith(".")]
        self.roles = [t for t, tag in titles if tag != "@Person" and " " not in t]
        self.implicit = [ln.split("\t")[0] for ln in _read("implicit_refs.tsv")]
        self.forms = [f for f in _read("corporate_forms.txt") if "." in f]
        self.lemma_forms = [ln.split("\t")[0] for ln in _read("lemmas.tsv")]
        self.stopwords = _read("stopwords.txt")[:40]  # the file lists the commonest first
        first = _read("first_names.txt")
        last = _read("surnames.txt")
        # accented names whose unaccented spelling is also a lexicon entry;
        # that spelling is their variant and is not drawn on its own
        names = set(first) | set(last)
        self.variant = {
            n: _strip_accents(n)
            for n in names
            if _strip_accents(n) != n and _strip_accents(n) in names
        }
        spellings = set(self.variant.values())
        self.first = [n for n in first if n not in spellings]
        self.last = [n for n in last if n not in spellings]


def _pick(rng: np.random.Generator, items):
    return items[int(rng.integers(len(items)))]


def _cap(s: str) -> str:
    return s[:1].upper() + s[1:]


def _filler(rng: np.random.Generator, lex: _Lexicon) -> str:
    words = []
    for _ in range(int(rng.integers(6, 15))):
        words.append(_pick(rng, lex.stopwords if rng.random() < 0.4 else lex.lemma_forms))
    return _cap(" ".join(words)) + "."


def _person(rng: np.random.Generator, lex: _Lexicon) -> tuple[str, ...]:
    parts = [_pick(rng, lex.first), _pick(rng, lex.last)]
    if rng.random() < 0.5:
        parts.append(_pick(rng, lex.last))
    return tuple(parts)


def _generate_one(i: int, rng: np.random.Generator, lex: _Lexicon) -> LegalDoc:
    court = _pick(rng, lex.courts)
    case_type = _pick(rng, lex.case_types)
    decision = _pick(rng, lex.decisions)
    heading, resolution = _pick(rng, _RESOLUTION_HEADINGS)
    division = _pick(rng, lex.divisions) if rng.random() < 0.5 else None

    lo, hi = REFERENCES_PER_DOC
    n_refs = lo + i % (hi - lo + 1)
    cast = [_person(rng, lex) for _ in range(max(1, (n_refs + 1) // 2))]
    names: list[str] = []
    mentions = []
    for _ in range(n_refs):
        person = _pick(rng, cast)
        written = tuple(
            lex.variant.get(p, p) if rng.random() < VARIANT_SHARE else p
            for p in person
        )
        if rng.random() < 0.2:
            names.append(written[-1])
            corp = f"{written[-1]} e Hijos, {_pick(rng, lex.forms)}"
            mentions.append(_pick(rng, _CORPORATE_TEMPLATES).format(corp=corp))
        else:
            names.extend(written)
            mentions.append(
                _pick(rng, _PERSON_TEMPLATES).format(
                    role=_cap(_pick(rng, lex.roles)),
                    hon=_cap(_pick(rng, lex.honorifics)),
                    name=" ".join(written),
                    ref=_pick(rng, lex.implicit),
                )
            )

    def paragraphs(count: int, refs: list[str]) -> list[str]:
        out = []
        for j in range(count):
            k = int(rng.integers(SENTENCES_PER_PARAGRAPH[0], SENTENCES_PER_PARAGRAPH[1] + 1))
            sentences = [_filler(rng, lex) for _ in range(k)]
            for ref in refs[j::count]:
                sentences.insert(int(rng.integers(len(sentences) + 1)), _cap(ref) + ".")
            out.append(f"{_ORDINALS[j]}. " + " ".join(sentences))
        return out

    half = (len(mentions) + 1) // 2
    lines = [court.upper() + (f" {_cap(division)}" if division else "")]
    lines.append(f"{case_type.upper()} {int(rng.integers(1, 2000))}/{int(rng.integers(2000, 2024))}")
    lines.append(heading)
    lines.append("ANTECEDENTES DE HECHO")
    lines += paragraphs(int(rng.integers(2, len(_ORDINALS) + 1)), mentions[:half])
    lines.append("FUNDAMENTOS DE DERECHO")
    lines += paragraphs(int(rng.integers(1, 4)), mentions[half:])
    lines.append("FALLO")
    lines.append(f"{_filler(rng, lex)} Fallo {decision}.")
    gin = "".join(str(int(d)) for d in rng.integers(0, 10, size=19))
    return LegalDoc(
        id=f"legal-{i:05d}",
        text="\n".join(lines),
        gin=gin,
        names=tuple(names),
        court=court,
        case_type=case_type,
        decision=decision,
        resolution_type=resolution,
    )


def generate(n_docs: int, seed: int) -> list[LegalDoc]:
    rng = np.random.default_rng(seed)
    lex = _Lexicon()
    return [_generate_one(i, rng, lex) for i in range(n_docs)]


def write_jsonl(docs: list[LegalDoc], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.record(), ensure_ascii=False) + "\n")
