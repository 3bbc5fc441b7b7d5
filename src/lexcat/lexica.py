"""Loading of the lexica and lookup tables the detectors run on.

All files are plain UTF-8, one entry per line. Two-column files are
tab-separated. A bundled default set lives in the package's data/
directory; any directory with the same file names can replace it. Each
stop-word and lemma form must be one token of textproc.clean.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import DataError, read_text
from .textproc import clean


# replacement tags of the anonymiser, in precedence order
TAGS = ("@Judge", "@Attorney", "@Lawyer", "@Corporate", "@Person")


class ConfigurationError(DataError):
    """A required lexicon or resource file is missing or malformed."""


def default_data_dir() -> Path:
    return Path(str(resources.files("lexcat").joinpath("data")))


def _lines(path: Path, strip: bool = True) -> list[str]:
    """The file's NFC-normalised lines that hold more than whitespace,
    stripped unless strip is False."""
    if not path.is_file():
        raise ConfigurationError(f"missing lexicon file: {path}")
    out = []
    for line in read_text(path, ConfigurationError, f"lexicon file {path}").splitlines():
        if line.strip():
            out.append(unicodedata.normalize("NFC", line.strip() if strip else line))
    return out


def _pairs(path: Path) -> list[tuple[str, str]]:
    entries = []
    for line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ConfigurationError(f"{path}: expected 'key<TAB>value', got {line!r}")
        entries.append((parts[0], parts[1]))
    return entries


def _tagged(path: Path) -> dict[str, str]:
    """Casefolded key, its whitespace runs collapsed to single spaces (the
    anonymiser joins a phrase's words with one space) -> anonymiser tag,
    rejecting tags outside TAGS. Of two lines with the same key, the last
    wins."""
    table = {}
    for key, tag in _pairs(path):
        if tag not in TAGS:
            raise ConfigurationError(f"{path}: unknown tag {tag!r} for {key!r}; tags: {TAGS}")
        table[" ".join(key.casefold().split())] = tag
    return table


def _optional_pairs(path: Path) -> list[tuple[str, str | None]]:
    entries = []
    # split before stripping: a line that starts with a tab has an empty name
    for line in _lines(path, strip=False):
        parts = line.split("\t")
        name = parts[0].strip()
        value = parts[1].strip() if len(parts) > 1 and parts[1].strip() else None
        if not name:
            raise ConfigurationError(f"{path}: empty entry name in {line!r}")
        entries.append((name, value))
    return entries


@dataclass(frozen=True)
class TextResources:
    stopwords: frozenset[str]
    lemmas: dict[str, str]


@dataclass(frozen=True)
class CaseTypeEntry:
    name: str
    jurisdiction: str | None = None


@dataclass(frozen=True)
class EntityLexica:
    case_types: tuple[CaseTypeEntry, ...]
    courts: tuple[str, ...]
    decisions: tuple[str, ...]
    divisions: dict[str, str]
    gin_jurisdiction: dict[str, str]


@dataclass(frozen=True)
class AnonymiserLexica:
    titles: dict[str, str]
    implicit_refs: dict[str, str]
    corporate_forms: tuple[str, ...]
    first_names: frozenset[str]
    surnames: frozenset[str]
    role_registry: dict[str, str]
    # built from the fields above, once: for each first word, the width in
    # tokens (single-space pieces) of the widest title or implicit-reference
    # phrase that starts with it; the name lexicon; every folded word that
    # can start a trigger or be a name (the first words, the names and the
    # casefolded corporate forms) without its trailing periods, mapped to
    # whether a corporate form folds to it so
    widest_for: dict[str, int] = field(init=False, repr=False, compare=False)
    names: frozenset[str] = field(init=False, repr=False, compare=False)
    candidates: dict[str, bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        widest_for: dict[str, int] = {}
        for key in (*self.titles, *self.implicit_refs):
            words = key.split(" ")
            widest_for[words[0]] = max(widest_for.get(words[0], 0), len(words))
        object.__setattr__(self, "widest_for", widest_for)
        object.__setattr__(self, "names", self.first_names | self.surnames)
        candidates = dict.fromkeys((word.rstrip(".") for word in (*self.names, *widest_for)), False)
        candidates.update((form.casefold().rstrip("."), True) for form in self.corporate_forms)
        object.__setattr__(self, "candidates", candidates)


@dataclass(frozen=True)
class Lexica:
    text: TextResources
    entities: EntityLexica
    anonymiser: AnonymiserLexica


def _one_token(path: Path, entry: str) -> str:
    """entry, refused unless clean turns it into itself as one token: no
    other entry could ever match a token of a cleaned text."""
    if clean(entry).split() != [entry]:
        raise ConfigurationError(f"{path}: entry is not one clean token: {entry!r}")
    return entry


def load_text_resources(data_dir: Path) -> TextResources:
    stop_path, lemma_path = data_dir / "stopwords.txt", data_dir / "lemmas.tsv"
    stop = frozenset(_one_token(stop_path, word) for word in _lines(stop_path))
    lemmas = {}
    for form, lemma in _pairs(lemma_path):
        if any(ch.isspace() for ch in form + lemma):
            message = f"lemma entries must be single tokens: {form!r}"
            raise ConfigurationError(f"{lemma_path}: {message}")
        lemmas[_one_token(lemma_path, form)] = lemma
    return TextResources(stop, lemmas)


def load_entity_lexica(data_dir: Path) -> EntityLexica:
    case_types = tuple(
        CaseTypeEntry(name, juris) for name, juris in _optional_pairs(data_dir / "case_types.tsv")
    )
    courts = tuple(_lines(data_dir / "courts.txt"))
    decisions = tuple(_lines(data_dir / "decisions.txt"))
    divisions = dict(_pairs(data_dir / "divisions.tsv"))
    gin_map = dict(_pairs(data_dir / "gin_jurisdiction.tsv"))
    searched = {"case_types.tsv": [e.name for e in case_types], "courts.txt": courts,
                "decisions.txt": decisions, "divisions.tsv": divisions}
    # the detectors match a phrase as whole words only at an end that is a
    # word character, so one of punctuation alone ('-') would match inside words
    for name, phrases in searched.items():
        for phrase in phrases:
            if not re.search(r"\w", phrase):
                path = data_dir / name
                raise ConfigurationError(f"{path}: entry without a word character: {phrase!r}")
    return EntityLexica(case_types, courts, decisions, divisions, gin_map)


def load_anonymiser_lexica(data_dir: Path) -> AnonymiserLexica:
    titles = _tagged(data_dir / "titles.tsv")
    implicit = _tagged(data_dir / "implicit_refs.tsv")
    forms = tuple(_lines(data_dir / "corporate_forms.txt"))
    first = frozenset(n.casefold() for n in _lines(data_dir / "first_names.txt"))
    last = frozenset(n.casefold() for n in _lines(data_dir / "surnames.txt"))
    registry_path = data_dir / "roles.tsv"
    registry = _tagged(registry_path) if registry_path.is_file() else {}
    return AnonymiserLexica(titles, implicit, forms, first, last, registry)


def load_lexica(data_dir: Path | None = None) -> Lexica:
    """The lexica in data_dir, else the bundled set."""
    d = Path(data_dir) if data_dir else default_data_dir()
    return Lexica(
        text=load_text_resources(d),
        entities=load_entity_lexica(d),
        anonymiser=load_anonymiser_lexica(d),
    )
