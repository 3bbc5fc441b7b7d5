"""Binary (one classifier per class) and multi-class (one class per distinct
label combination) transformations of the multi-label target."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DataError
from .corpus import Corpus, LabelAssignment


class LabelError(DataError):
    pass


def canonicalize(label_set) -> tuple[LabelAssignment, ...]:
    """Members sorted by their serialized class identity; permutation invariant."""
    members = tuple(label_set)
    if not 1 <= len(members) <= 3:
        raise LabelError(f"label set size out of [1,3]: {len(members)}")
    return tuple(sorted(members, key=lambda a: a.key()))


@dataclass(frozen=True)
class ClassCatalog:
    classes: tuple[LabelAssignment, ...]

    def __post_init__(self) -> None:
        keys = [c.key() for c in self.classes]
        if len(set(keys)) != len(keys):
            raise LabelError("catalog classes must be distinct")
        if keys != sorted(keys):
            raise LabelError("catalog classes must be sorted")
        object.__setattr__(self, "_index", {k: i for i, k in enumerate(keys)})

    @property
    def m(self) -> int:
        return len(self.classes)

    def index(self, assignment: LabelAssignment) -> int:
        try:
            return self._index[assignment.key()]
        except KeyError:
            raise LabelError(f"label not in catalog: {assignment.key()!r}") from None


@dataclass(frozen=True)
class MtsCatalog:
    combos: tuple[tuple[LabelAssignment, ...], ...]

    def __post_init__(self) -> None:
        keys = [tuple(a.key() for a in combo) for combo in self.combos]
        if len(set(keys)) != len(keys):
            raise LabelError("combos must be pairwise distinct")

    @property
    def p(self) -> int:
        return len(self.combos)


def _label_sets(source) -> list[tuple[LabelAssignment, ...]]:
    if isinstance(source, Corpus):
        return [tuple(d.annotations) for d in source.documents]
    return [tuple(s) for s in source]


def build_class_catalog(source) -> ClassCatalog:
    """Catalog of all distinct classes in a corpus (or list of label sets)."""
    seen: dict[str, LabelAssignment] = {}
    for label_set in _label_sets(source):
        for a in label_set:
            seen.setdefault(a.key(), a)
    return ClassCatalog(tuple(seen[k] for k in sorted(seen)))


def bts_encode(label_sets, catalog: ClassCatalog) -> np.ndarray:
    """n x m binary indicator matrix: cell (i, j) is 1 iff class j is in the
    i-th label set."""
    sets = _label_sets(label_sets)
    beta = np.zeros((len(sets), catalog.m), dtype=np.uint8)
    for i, label_set in enumerate(sets):
        for a in label_set:
            beta[i, catalog.index(a)] = 1
    return beta


def bts_decode(row, catalog: ClassCatalog, threshold: float) -> tuple[LabelAssignment, ...]:
    """Classes whose score exceeds the threshold, as a canonical label set.

    Repairs: an all-abstaining row decodes to the single highest-scoring
    class; more than three positives keep the three highest scores (ties to
    the lowest class index).
    """
    scores = np.asarray(row, dtype=float)
    if scores.shape != (catalog.m,):
        raise LabelError(f"row length {scores.shape} != catalog size {catalog.m}")
    chosen = [j for j in range(catalog.m) if scores[j] > threshold]
    if not chosen:
        chosen = [int(np.argmax(scores))]
    elif len(chosen) > 3:
        chosen = sorted(chosen, key=lambda j: (-scores[j], j))[:3]
    return tuple(catalog.classes[j] for j in sorted(chosen))


def mts_encode(label_sets) -> tuple[MtsCatalog, list[int]]:
    """Catalog of distinct canonical combinations plus the 1-based integer
    class of every input label set."""
    sets = [canonicalize(s) for s in _label_sets(label_sets)]
    keys = [tuple(a.key() for a in combo) for combo in sets]
    first = dict(zip(keys[::-1], sets[::-1]))  # each key's first-seen combination
    alpha = {key: i + 1 for i, key in enumerate(sorted(first))}
    return MtsCatalog(tuple(first[k] for k in alpha)), [alpha[k] for k in keys]


def mts_decode(alpha: int, catalog: MtsCatalog) -> tuple[LabelAssignment, ...]:
    if not 1 <= alpha <= catalog.p:
        raise LabelError(f"alpha out of range [1,{catalog.p}]: {alpha}")
    return catalog.combos[alpha - 1]
