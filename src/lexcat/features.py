"""Document-feature matrix construction (n-gram counts plus categorical
codes) and the two-stage feature selection."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import DataError, has_type
from .entities import CATEGORICAL_FIELDS, EntityRecord, UNKNOWN
from .trees import Hyperparams, feature_importances, fit_ensemble


class FeatureError(DataError):
    pass


@dataclass(frozen=True)
class VectorizerModel:
    """An n-gram vocabulary numbered 0..n-1 in column order, as fit_vectorizer
    builds it and FittedPipeline.vectorizer derives it from a model."""

    vocabulary: dict[str, int]
    ngram_range: tuple[int, int]

    @property
    def names(self) -> list[str]:
        return sorted(self.vocabulary, key=self.vocabulary.get)


def _ngram_bounds(ngram_range) -> tuple[int, int]:
    """The n-gram range as (lo, hi): two integers (not booleans) with
    1 <= lo <= hi."""
    bounds = tuple(ngram_range)
    integers = all(has_type(b, int) for b in bounds)
    if not (len(bounds) == 2 and integers and 1 <= bounds[0] <= bounds[1]):
        raise FeatureError(f"need two integers 1 <= lo <= hi in ngram_range, got {bounds}")
    return bounds


def _df_bounds(min_df, max_df) -> None:
    """Document-frequency bounds are two numbers with 0 <= min_df < max_df <= 1."""
    numbers = has_type(min_df, float) and has_type(max_df, float)
    if not (numbers and 0 <= min_df < max_df <= 1):
        raise FeatureError(f"need numbers 0 <= min_df < max_df <= 1, got ({min_df!r}, {max_df!r})")


def _ngrams(tokens, lo: int, hi: int):
    # no n-gram is longer than the stream, however large hi is
    for size in range(lo, min(hi, len(tokens)) + 1):
        yield from map(" ".join, zip(*(tokens[k:] for k in range(size))))


@dataclass(frozen=True)
class NgramCounts:
    """Documents' contiguous word n-grams of one range, interned: `names`
    holds the distinct n-grams in sorted() order, and document i's distinct
    n-grams are the ids ids[indptr[i]:indptr[i + 1]] (int32) with their
    occurrence counts (int32)."""

    ngram_range: tuple[int, int]
    names: list[str]
    indptr: np.ndarray
    ids: np.ndarray
    counts: np.ndarray


def count_ngrams(token_streams, ngram_range) -> NgramCounts:
    """Intern every n-gram of the streams once, numbering them in sorted()
    order, and count each document's n-grams by id."""
    lo, hi = _ngram_bounds(ngram_range)
    index: dict[str, int] = {}  # n-gram -> id in order of first occurrence
    # one array per document, after an empty one that starts indptr at 0
    first_ids, counts = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    for stream in token_streams:
        doc = Counter(_ngrams(stream.tokens, lo, hi))
        ids = (index.setdefault(g, len(index)) for g in doc)
        first_ids.append(np.fromiter(ids, np.int32, len(doc)))
        counts.append(np.fromiter(doc.values(), np.int32, len(doc)))
    names = sorted(index)
    sorted_id = np.empty(len(names), dtype=np.int32)
    sorted_id[[index[g] for g in names]] = np.arange(len(names))
    indptr = np.cumsum([len(c) for c in counts])
    ids = sorted_id[np.concatenate(first_ids)]
    return NgramCounts((lo, hi), names, indptr, ids, np.concatenate(counts))


def _entries(grams: NgramCounts, rows) -> tuple[np.ndarray, np.ndarray]:
    """(position in `rows`, offset into grams.ids) of each entry of the
    given documents, in row order; a document listed twice counts twice."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = grams.indptr[rows]
    lengths = grams.indptr[rows + 1] - starts
    at = np.repeat(np.arange(len(rows)), lengths)
    # entry p of row r sits at offset starts[r] + (p - first entry of r)
    offsets = np.arange(len(at)) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)
    return at, offsets


def fit_vectorizer(grams: NgramCounts, rows, max_df: float, min_df: float) -> VectorizerModel:
    """Vocabulary of the n-grams of the documents `rows` whose
    document-frequency proportion lies in [min_df, max_df]; strictly higher
    frequencies are corpus-specific stop words, strictly lower ones fall to
    the cut-off, and n-grams absent from these documents are never kept. An
    n-gram spelled like a CATEGORICAL_FIELDS name is left out, since columns
    are known by name. Columns are ordered lexicographically.
    """
    _df_bounds(min_df, max_df)
    n = len(rows)
    if not n:
        raise FeatureError("no documents to fit on")
    _, offsets = _entries(grams, rows)
    df = np.bincount(grams.ids[offsets], minlength=len(grams.names))
    share = df / n
    in_bounds = np.flatnonzero((df > 0) & (min_df <= share) & (share <= max_df))
    names = [grams.names[j] for j in in_bounds]
    kept = [g for g in names if g not in CATEGORICAL_FIELDS]
    if not kept:
        raise FeatureError("vocabulary is empty after document-frequency pruning")
    return VectorizerModel({g: i for i, g in enumerate(kept)}, grams.ngram_range)


def transform(
    vectorizer: VectorizerModel, grams: NgramCounts, rows, codes: np.ndarray
) -> np.ndarray:
    """The feature matrix of the documents `rows`: the occurrence count of
    each vocabulary n-gram (n-grams outside the vocabulary are ignored),
    then the columns of `codes`, one row of codes per document."""
    vocabulary = vectorizer.vocabulary
    column = np.fromiter(
        (vocabulary.get(g, -1) for g in grams.names), dtype=np.int64, count=len(grams.names)
    )
    at, offsets = _entries(grams, rows)
    cols = column[grams.ids[offsets]]
    hit = cols >= 0
    n_text = len(vocabulary)
    X = np.zeros((len(rows), n_text + codes.shape[1]))
    X[at[hit], cols[hit]] = grams.counts[offsets[hit]]
    X[:, n_text:] = codes
    return X


@dataclass
class CategoricalEncoder:
    """Integer codes per entity field; code 0 is reserved for unknown and
    unseen categories, known categories get 1..K in descending frequency
    (ties alphabetical)."""

    tables: dict[str, dict[str, int]] = field(default_factory=dict)

    def fit(self, records: list[EntityRecord]) -> "CategoricalEncoder":
        self.tables = {}
        for col, name in enumerate(CATEGORICAL_FIELDS):
            values = [r.values()[col] for r in records]
            freq = Counter(v for v in values if v != UNKNOWN)
            ordered = sorted(freq, key=lambda v: (-freq[v], v))
            self.tables[name] = {v: i + 1 for i, v in enumerate(ordered)}
        return self

    def transform(self, records: list[EntityRecord]) -> np.ndarray:
        X = np.zeros((len(records), len(CATEGORICAL_FIELDS)))
        for i, rec in enumerate(records):
            for col, (name, value) in enumerate(zip(CATEGORICAL_FIELDS, rec.values())):
                X[i, col] = self.tables[name].get(value, 0)
        return X


def feature_matrix_to_text(textual_names: list[str], X: np.ndarray, doc_ids) -> str:
    """Tab-separated export of a `transform` matrix: a header of kind:name
    cells, the textual columns then the entity fields, and one row per
    document."""
    header = ["id"] + [f"textual:{n}" for n in textual_names]
    header += [f"categorical:{n}" for n in CATEGORICAL_FIELDS]
    lines = ["\t".join(header)]
    for doc_id, row in zip(doc_ids, X):
        lines.append("\t".join([doc_id] + [f"{v:g}" for v in row]))
    return "\n".join(lines) + "\n"


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties sharing their mean rank; NaNs never tie."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="mergesort")
    sv = v[order]
    # a tie group starts wherever the sorted value changes; NaN != NaN
    start = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    last = np.append(start[1:], len(v)) - 1
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((start + last) / 2.0 + 1.0, last - start + 1)
    return ranks


def discretize_ranks(values) -> np.ndarray:
    """Average ranks binned into 10 equal-width bins, numbered in inverse
    order of magnitude: the largest values land in bin 1."""
    ranks = _ranks(values)
    lo, hi = ranks.min(), ranks.max()
    if hi == lo:
        warnings.warn("constant column collapses to a single bin", stacklevel=2)
        return np.ones(len(ranks), dtype=np.int64)
    width = (hi - lo) / 10.0
    bins = np.minimum(np.floor((ranks - lo) / width), 9).astype(np.int64)
    return 10 - bins


def spearman(x, y) -> float:
    """Rank correlation: covariance of the average-tie rank variables over
    the product of their standard deviations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise FeatureError("spearman needs two equally long columns with >= 2 values")
    rx, ry = _ranks(x), _ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0:
        raise FeatureError("spearman is undefined for constant input")
    return float((dx * dy).sum() / denom)


def select_by_correlation(
    X: np.ndarray, target, threshold: float
) -> tuple[list[int], dict[int, float]]:
    """Positions of the columns whose 10-step-discretised ranks correlate
    with the target at |r_s| >= threshold, and r_s by position of every
    column scored. Constant columns are always dropped."""
    target = np.asarray(target, dtype=float)
    kept, correlations = [], {}
    for i, col in enumerate(X.T):
        if np.all(col == col[0]):
            continue
        # a varying column's discretised ranks hold bins 10 and 1, never one bin
        r = spearman(discretize_ranks(col), target)
        correlations[i] = r
        if abs(r) >= threshold:
            kept.append(i)
    return kept, correlations


def select_by_importance(
    X: np.ndarray, label_sets, n_estimators: int, seed: int
) -> tuple[list[int], np.ndarray]:
    """Positions of the columns whose impurity-decrease importance under a
    small mts random forest reaches the mean importance, and the
    importances."""
    hp = Hyperparams(n_estimators=n_estimators, seed=seed)
    model = fit_ensemble(X, label_sets, hp, "rf", "mts")
    if model.mts_catalog.p < 2:
        raise FeatureError("importance selection needs at least two label classes")
    importances = feature_importances(model)
    kept = [i for i, imp in enumerate(importances) if imp >= importances.mean()]
    return kept, importances
