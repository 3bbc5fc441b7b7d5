"""Document and annotation data model plus line-delimited corpus I/O."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from . import DataError, parse_json, read_text

SUBSTANTIVE_ORDERS = (
    "penal",
    "civil",
    "social",
    "administrative",
    "civil/mercantile",
    "mercantile",
    "tributary",
)


class CorpusError(DataError):
    """Invalid corpus file, record or annotation."""


def _norm(part: str) -> str:
    return " ".join(part.split()).casefold()


def is_gin(value) -> bool:
    """Whether value is a General Identification Number: 19 ASCII digits."""
    return isinstance(value, str) and len(value) == 19 and value.isascii() and value.isdigit()


@dataclass(frozen=True)
class LabelAssignment:
    """One annotated class: a substantive order plus exactly three law categories."""

    substantive_order: str
    law_categories: tuple[str, str, str]

    def __post_init__(self) -> None:
        if self.substantive_order not in SUBSTANTIVE_ORDERS:
            raise CorpusError(
                f"unknown substantive order: {self.substantive_order!r}"
            )
        cats = tuple(self.law_categories)
        if len(cats) != 3 or any(not isinstance(c, str) or not c.strip() for c in cats):
            raise CorpusError("law_categories must be exactly 3 nonempty strings")
        object.__setattr__(self, "law_categories", cats)
        # computed once; an instance attribute, not a field, so equality,
        # hashing and repr are the fields' alone
        key = "|".join(_norm(p) for p in (self.substantive_order, *cats))
        object.__setattr__(self, "_key", key)

    def key(self) -> str:
        """Case-folded, whitespace-normalised class identity string."""
        return self._key


@dataclass(frozen=True)
class Judgement:
    id: str
    raw_text: str
    annotations: tuple[LabelAssignment, ...]
    gin: str | None = None

    def __post_init__(self) -> None:
        anns = tuple(self.annotations)
        if not 1 <= len(anns) <= 3:
            raise CorpusError("label set size out of [1,3]")
        keys = [a.key() for a in anns]
        if len(set(keys)) != len(keys):
            raise CorpusError(f"duplicate annotation in document {self.id!r}")
        if self.gin is not None and not is_gin(self.gin):
            raise CorpusError(f"gin must be exactly 19 decimal digits: {self.gin!r}")
        object.__setattr__(self, "annotations", anns)


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Judgement, ...]

    def __post_init__(self) -> None:
        docs = tuple(self.documents)
        if not docs:
            raise CorpusError("corpus has no documents")
        counts = Counter(d.id for d in docs)
        dupes = [i for i, c in counts.items() if c > 1]
        if dupes:
            raise CorpusError(f"duplicate document id: {dupes[0]!r}")
        object.__setattr__(self, "documents", docs)

    @property
    def n(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class CorpusStats:
    label_set_size_histogram: dict[int, int]
    label_cardinality: float
    class_count: int


def _check_utf8(name: str, *values: str) -> None:
    """The field's strings can be written back out: a JSON escape can spell
    a lone surrogate, which no UTF-8 file can hold."""
    try:
        for value in values:
            value.encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusError(f"field {name!r} holds a lone surrogate escape") from None


def _assignment_from_record(entry: object) -> LabelAssignment:
    if not isinstance(entry, dict):
        raise CorpusError("label entry must be an object with order/categories")
    order = entry.get("order")
    cats = entry.get("categories")
    if not isinstance(order, str):
        raise CorpusError("label entry missing string field 'order'")
    if not isinstance(cats, list) or len(cats) != 3:
        raise CorpusError("label entry 'categories' must be a 3-element array")
    assignment = LabelAssignment(order.strip().lower(), tuple(cats))
    # LabelAssignment refuses an order outside SUBSTANTIVE_ORDERS
    _check_utf8("categories", *assignment.law_categories)
    return assignment


def _judgement_from_record(record: object) -> Judgement:
    if not isinstance(record, dict):
        raise CorpusError("record must be an object")
    doc_id = record.get("id")
    text = record.get("text")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError("record missing string field 'id'")
    if not isinstance(text, str):
        raise CorpusError("record missing string field 'text'")
    _check_utf8("id", doc_id)
    _check_utf8("text", text)
    labels = record.get("labels")
    if not isinstance(labels, list) or not labels:
        raise CorpusError("record missing nonempty array field 'labels'")
    gin = record.get("gin")
    if gin is not None and not isinstance(gin, str):
        raise CorpusError("field 'gin' must be a string when present")
    anns = tuple(_assignment_from_record(e) for e in labels)
    return Judgement(id=doc_id, raw_text=text, annotations=anns, gin=gin)


def load_corpus(path) -> Corpus:
    """Load a corpus from a UTF-8 line-delimited record file (one document per line).

    Raises CorpusError naming the offending line number and the violated
    invariant (malformed record, duplicate id) or on an empty file.
    """
    docs: list[Judgement] = []
    seen: set[str] = set()
    # not splitlines(), which would also split at a raw U+2028 in a string
    for lineno, line in enumerate(read_text(path, CorpusError, "corpus file").split("\n"), 1):
        if not line.strip():
            continue
        raw = parse_json(line, CorpusError, f"line {lineno}: not a valid record")
        try:
            doc = _judgement_from_record(raw)
        except CorpusError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from None
        if doc.id in seen:
            raise CorpusError(f"line {lineno}: duplicate document id: {doc.id!r}")
        seen.add(doc.id)
        docs.append(doc)
    if not docs:
        raise CorpusError(f"{path}: empty corpus file")
    return Corpus(tuple(docs))


def _record_of(doc: Judgement) -> dict:
    record: dict = {"id": doc.id, "text": doc.raw_text}
    if doc.gin is not None:
        record["gin"] = doc.gin
    record["labels"] = [
        {"order": a.substantive_order, "categories": list(a.law_categories)}
        for a in doc.annotations
    ]
    return record


def corpus_to_text(corpus: Corpus) -> str:
    return "".join(
        json.dumps(_record_of(doc), ensure_ascii=False) + "\n" for doc in corpus.documents
    )


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Label-set size histogram, mean label cardinality and distinct class count."""
    sizes = [len(d.annotations) for d in corpus.documents]
    histogram = dict(sorted(Counter(sizes).items()))
    cardinality = sum(sizes) / corpus.n
    classes = {a.key() for d in corpus.documents for a in d.annotations}
    return CorpusStats(histogram, cardinality, len(classes))
