"""Document-feature matrix construction (n-gram counts plus categorical
codes) and the two-stage feature selection."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .entities import CATEGORICAL_FIELDS, EntityRecord, UNKNOWN
from .trees import Hyperparams, feature_importances, fit_ensemble


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class VectorizerModel:
    vocabulary: dict[str, int]
    max_df: float
    min_df: float
    ngram_range: tuple[int, int]

    def __post_init__(self) -> None:
        _ngram_bounds(self.ngram_range)
        _df_bounds(self.min_df, self.max_df)
        indices = sorted(i for i in self.vocabulary.values() if isinstance(i, int))
        if indices != list(range(len(self.vocabulary))):
            raise FeatureError("vocabulary indices must be 0..n-1, each used once")

    @property
    def names(self) -> list[str]:
        return sorted(self.vocabulary, key=self.vocabulary.get)


def _ngram_bounds(ngram_range) -> tuple[int, int]:
    """The n-gram range as (lo, hi): two integers (not booleans) with
    1 <= lo <= hi."""
    bounds = tuple(ngram_range)
    integers = all(isinstance(b, int) and not isinstance(b, bool) for b in bounds)
    if not (len(bounds) == 2 and integers and 1 <= bounds[0] <= bounds[1]):
        raise FeatureError(f"need two integers 1 <= lo <= hi in ngram_range, got {bounds}")
    return bounds


def _df_bounds(min_df, max_df) -> None:
    """Document-frequency bounds are two numbers with 0 <= min_df < max_df <= 1."""
    numbers = all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in (min_df, max_df))
    if not (numbers and 0 <= min_df < max_df <= 1):
        raise FeatureError(f"need numbers 0 <= min_df < max_df <= 1, got ({min_df!r}, {max_df!r})")


def _ngrams(tokens, lo: int, hi: int):
    for size in range(lo, hi + 1):
        for i in range(len(tokens) - size + 1):
            yield " ".join(tokens[i : i + size])


def fit_vectorizer(token_streams, max_df: float, min_df: float, ngram_range) -> VectorizerModel:
    """Vocabulary of contiguous word n-grams whose document-frequency
    proportion lies in [min_df, max_df]; strictly higher frequencies are
    corpus-specific stop words, strictly lower ones fall to the cut-off.
    An n-gram spelled like a CATEGORICAL_FIELDS name is left out, since
    columns are known by name. Columns are ordered lexicographically.
    """
    lo, hi = _ngram_bounds(ngram_range)
    _df_bounds(min_df, max_df)
    streams = list(token_streams)
    if not streams:
        raise FeatureError("no documents to fit on")
    df: Counter = Counter()
    for stream in streams:
        df.update(set(_ngrams(stream.tokens, lo, hi)))
    n = len(streams)
    kept = sorted(
        g for g, c in df.items() if min_df <= c / n <= max_df and g not in CATEGORICAL_FIELDS
    )
    if not kept:
        raise FeatureError("vocabulary is empty after document-frequency pruning")
    return VectorizerModel({g: i for i, g in enumerate(kept)}, max_df, min_df, (lo, hi))


def transform(vectorizer: VectorizerModel, token_streams) -> np.ndarray:
    """Occurrence counts of each vocabulary n-gram per document; n-grams
    outside the vocabulary are ignored."""
    streams = list(token_streams)
    lo, hi = vectorizer.ngram_range
    X = np.zeros((len(streams), len(vectorizer.vocabulary)))
    for i, stream in enumerate(streams):
        for gram in _ngrams(stream.tokens, lo, hi):
            j = vectorizer.vocabulary.get(gram)
            if j is not None:
                X[i, j] += 1.0
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
        if not self.tables:
            raise FeatureError("encoder not fitted")
        X = np.zeros((len(records), len(CATEGORICAL_FIELDS)))
        for i, rec in enumerate(records):
            for col, (name, value) in enumerate(zip(CATEGORICAL_FIELDS, rec.values())):
                X[i, col] = self.tables[name].get(value, 0)
        return X


@dataclass
class FeatureMatrix:
    names: list[str]
    kinds: list[str]  # "textual" | "categorical"
    X: np.ndarray

    def __post_init__(self) -> None:
        if len(self.names) != len(set(self.names)):
            dupe = next(n for n in self.names if self.names.count(n) > 1)
            raise FeatureError(f"duplicate column name: {dupe!r}")
        if not (len(self.names) == len(self.kinds) == self.X.shape[1]):
            raise FeatureError("names, kinds and matrix width must agree")

    def subset(self, names: list[str]) -> "FeatureMatrix":
        pos = {n: i for i, n in enumerate(self.names)}
        idx = [pos[n] for n in names]
        return FeatureMatrix(
            [self.names[i] for i in idx],
            [self.kinds[i] for i in idx],
            self.X[:, idx],
        )


def build_feature_matrix(
    counts: np.ndarray, textual_names: list[str], categorical_codes: np.ndarray
) -> FeatureMatrix:
    names = list(textual_names) + list(CATEGORICAL_FIELDS)
    kinds = ["textual"] * len(textual_names) + ["categorical"] * len(CATEGORICAL_FIELDS)
    return FeatureMatrix(names, kinds, np.hstack([counts, categorical_codes]))


def feature_matrix_to_text(matrix: FeatureMatrix, doc_ids) -> str:
    """Tab-separated export: header of kind:name cells, one row per document."""
    header = ["id"] + [f"{k}:{n}" for k, n in zip(matrix.kinds, matrix.names)]
    lines = ["\t".join(header)]
    for doc_id, row in zip(doc_ids, matrix.X):
        lines.append("\t".join([doc_id] + [f"{v:g}" for v in row]))
    return "\n".join(lines) + "\n"


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="mergesort")
    ranks = np.empty(len(v))
    sv = v[order]
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
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


@dataclass
class SpearmanReport:
    correlations: dict[str, float] = field(default_factory=dict)


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
    matrix: FeatureMatrix, target, threshold: float
) -> tuple[list[str], SpearmanReport]:
    """Columns whose 10-step-discretised ranks correlate with the target at
    |r_s| >= threshold. Constant columns are always dropped."""
    target = np.asarray(target, dtype=float)
    report = SpearmanReport()
    kept = []
    for i, name in enumerate(matrix.names):
        col = matrix.X[:, i]
        if np.all(col == col[0]):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            disc = discretize_ranks(col)
        if np.all(disc == disc[0]):
            continue
        r = spearman(disc, target)
        report.correlations[name] = r
        if abs(r) >= threshold:
            kept.append(name)
    return kept, report


def select_by_importance(
    matrix: FeatureMatrix,
    label_sets,
    n_estimators: int = 20,
    seed: int = 0,
) -> tuple[list[str], np.ndarray]:
    """Columns whose impurity-decrease importance under a small mts random
    forest reaches the mean importance."""
    hp = Hyperparams(n_estimators=n_estimators, seed=seed)
    model = fit_ensemble(matrix.X, label_sets, hp, "rf", "mts")
    if model.mts_catalog.p < 2:
        raise FeatureError("importance selection needs at least two label classes")
    importances = feature_importances(model)
    kept = [n for n, imp in zip(matrix.names, importances) if imp >= importances.mean()]
    return kept, importances
