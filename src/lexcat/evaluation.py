"""Example-based multi-label metrics, micro/macro averages, stratified
k-fold cross-validation and grid search."""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import DataError, pipeline as pl
from .corpus import Corpus
from .labels import build_class_catalog, mts_encode


class EvaluationError(DataError):
    pass


def _key(label) -> str:
    return label.key() if hasattr(label, "key") else label


def _key_sets(sets) -> list[frozenset]:
    return [frozenset(_key(x) for x in s) for s in sets]


def _check_lengths(L, Z) -> tuple[list[frozenset], list[frozenset]]:
    ls, zs = _key_sets(L), _key_sets(Z)
    if len(ls) != len(zs) or not ls:
        raise EvaluationError(f"annotation/prediction length mismatch: {len(ls)} vs {len(zs)}")
    return ls, zs


def exact_match(L, Z) -> float:
    ls, zs = _check_lengths(L, Z)
    return sum(1.0 for a, b in zip(ls, zs) if a == b) / len(ls)


def ml_accuracy(L, Z) -> float:
    ls, zs = _check_lengths(L, Z)
    total = 0.0
    for a, b in zip(ls, zs):
        union = a | b
        if not union:
            raise EvaluationError("accuracy undefined when both sets are empty")
        total += len(a & b) / len(union)
    return total / len(ls)


def ml_precision(L, Z) -> float:
    ls, zs = _check_lengths(L, Z)
    total = 0.0
    for a, b in zip(ls, zs):
        if not b:
            raise EvaluationError("precision undefined for an empty prediction set")
        total += len(a & b) / len(b)
    return total / len(ls)


def ml_recall(L, Z) -> float:
    ls, zs = _check_lengths(L, Z)
    total = 0.0
    for a, b in zip(ls, zs):
        if not a:
            raise EvaluationError("recall undefined for an empty annotation set")
        total += len(a & b) / len(a)
    return total / len(ls)


def _catalog_keys(catalog, ls, zs) -> list:
    """The catalog's class keys, after checking that it is nonempty and
    holds every annotated and predicted label."""
    classes = [_key(c) for c in (catalog.classes if hasattr(catalog, "classes") else catalog)]
    if not classes:
        raise EvaluationError("catalog must contain at least one class")
    outside = set().union(*ls, *zs).difference(classes)
    if outside:
        raise EvaluationError(f"label outside catalog: {sorted(outside)[0]!r}")
    return classes


def hamming_loss(L, Z, catalog) -> float:
    """Symmetric-difference errors over the indicator view, normalised by
    catalog size times document count."""
    ls, zs = _check_lengths(L, Z)
    m = len(_catalog_keys(catalog, ls, zs))
    errors = sum(len(a ^ b) for a, b in zip(ls, zs))
    return errors / (m * len(ls))


@dataclass(frozen=True)
class MicroMacro:
    micro_precision: float
    micro_recall: float
    micro_f: float
    macro_precision: float
    macro_recall: float
    macro_f: float


def micro_macro_prf(L, Z, catalog) -> MicroMacro:
    """Per-class TP/FP/FN aggregation. Micro pools the counts before the
    ratio; macro averages per-class ratios. Classes that appear in neither
    annotations nor predictions are skipped; per-class ratios with an empty
    denominator count as 0.
    """
    ls, zs = _check_lengths(L, Z)
    classes = _catalog_keys(catalog, ls, zs)
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for a, b in zip(ls, zs):
        for c in b:
            if c in a:
                tp[c] += 1
            else:
                fp[c] += 1
        for c in a - b:
            fn[c] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    tps, fps, fns = sum(tp.values()), sum(fp.values()), sum(fn.values())
    micro_p = ratio(tps, tps + fps)
    micro_r = ratio(tps, tps + fns)
    micro_f = ratio(2 * micro_p * micro_r, micro_p + micro_r)

    per_p, per_r, per_f = [], [], []
    for c in classes:
        if tp[c] + fp[c] + fn[c] == 0:
            continue
        p = ratio(tp[c], tp[c] + fp[c])
        r = ratio(tp[c], tp[c] + fn[c])
        per_p.append(p)
        per_r.append(r)
        per_f.append(ratio(2 * p * r, p + r))
    macro_p = float(np.mean(per_p)) if per_p else 0.0
    macro_r = float(np.mean(per_r)) if per_r else 0.0
    macro_f = float(np.mean(per_f)) if per_f else 0.0
    return MicroMacro(micro_p, micro_r, micro_f, macro_p, macro_r, macro_f)


@dataclass(frozen=True)
class FoldMetrics:
    exact_match: float
    accuracy: float
    precision: float
    recall: float
    hamming_loss: float
    micro_precision: float
    micro_recall: float
    micro_f: float
    macro_precision: float
    macro_recall: float
    macro_f: float


def compute_fold_metrics(L, Z, catalog) -> FoldMetrics:
    return FoldMetrics(
        exact_match=exact_match(L, Z),
        accuracy=ml_accuracy(L, Z),
        precision=ml_precision(L, Z),
        recall=ml_recall(L, Z),
        hamming_loss=hamming_loss(L, Z, catalog),
        **asdict(micro_macro_prf(L, Z, catalog)),
    )


@dataclass
class MetricsReport:
    per_fold: list[FoldMetrics]
    train_seconds: float

    @property
    def means(self) -> FoldMetrics:
        return FoldMetrics(
            **{
                f.name: float(np.mean([getattr(fm, f.name) for fm in self.per_fold]))
                for f in fields(FoldMetrics)
            }
        )


def stratified_folds(alphas: list[int], k: int, seed: int) -> list[int]:
    """Fold id per document: members of each class are shuffled and dealt
    round-robin from a random starting fold, so every class spreads as
    evenly as its support allows."""
    if k < 2:
        raise EvaluationError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = [0] * len(alphas)
    by_class: dict[int, list[int]] = {}
    for i, a in enumerate(alphas):
        by_class.setdefault(a, []).append(i)
    for a in sorted(by_class):
        members = np.array(by_class[a])
        rng.shuffle(members)
        start = int(rng.integers(0, k))
        for j, doc in enumerate(members):
            fold_of[int(doc)] = (start + j) % k
    return fold_of


def cross_validate(corpus: Corpus, config, lexica, k: int, seed: int, prep=None) -> MetricsReport:
    """Stratified k-fold cross-validation of the full pipeline.

    Vectorizer, selection and model are fitted per fold on the training
    split only; cleaning, lemmatisation and entity extraction are
    deterministic per document and computed once, unless `prep` holds
    them already. Metrics use the whole-corpus class catalog so test
    labels are always in range.
    """
    if corpus.n < k:
        raise EvaluationError(f"need at least k={k} documents, corpus has {corpus.n}")
    if prep is None:
        prep = pl.preprocess_corpus(corpus, lexica)
    label_sets = prep.label_sets
    _, alphas = mts_encode(label_sets)
    catalog = build_class_catalog(corpus)
    fold_of = np.array(stratified_folds(alphas, k, seed))

    per_fold = []
    train_seconds = 0.0
    for fold in range(k):
        test_idx = np.nonzero(fold_of == fold)[0]
        train_idx = np.nonzero(fold_of != fold)[0]
        if len(test_idx) == 0:
            continue
        train_classes = {alphas[i] for i in train_idx}
        missing = {alphas[i] for i in test_idx} - train_classes
        if missing:
            warnings.warn(
                f"fold {fold}: {len(missing)} test class(es) absent from training split",
                stacklevel=2,
            )
        t0 = time.perf_counter()
        fitted = pl.fit_pipeline(corpus, config, lexica, prep=prep, doc_indices=train_idx)
        train_seconds += time.perf_counter() - t0
        Z = fitted.predict_prepared(prep, test_idx)
        L = [label_sets[i] for i in test_idx]
        per_fold.append(compute_fold_metrics(L, Z, catalog))
    return MetricsReport(per_fold, train_seconds)


@dataclass
class GridSearchResult:
    best_params: dict
    best_score: float
    scores: list[tuple[dict, float]]


# config fields cross-validation never reads: the search's own arguments
# fix the corpus, folds and lexica, and a grid over the others would score
# every point alike
_UNREAD_BY_CV = ("corpus", "folds", "lexica_dir", "out", "relevance_samples", "synth", "grid")
# what a grid can vary
_GRID_KEYS = {f.name for f in fields(pl.PipelineConfig)} - set(_UNREAD_BY_CV)


def grid_search(
    corpus: Corpus, param_grid: dict, k: int, base_config, lexica, seed: int
) -> GridSearchResult:
    """Exhaustive cross-validated evaluation of the grid's cartesian
    product, scored on the mean micro F1; the best combination is the
    maximal score, ties resolved by grid order. The corpus is preprocessed
    once, and a grid key must be a config field that cross-validation
    reads."""
    if not param_grid:
        raise EvaluationError(
            "empty parameter grid: config field 'grid' must map parameter names to value lists"
        )
    for name, values in param_grid.items():
        if name not in _GRID_KEYS:
            raise EvaluationError(
                f"grid cannot vary {name!r}: not a config field cross-validation reads"
            )
        if not (isinstance(values, (list, tuple)) and values):
            raise EvaluationError(f"grid values of {name!r} must be a nonempty list: {values!r}")
    points = [dict(zip(param_grid, values)) for values in itertools.product(*param_grid.values())]
    # every point's config is built, and so checked, before the first fold
    configs = [base_config.with_overrides(params) for params in points]
    prep = pl.preprocess_corpus(corpus, lexica)
    scores = [
        (params, cross_validate(corpus, config, lexica, k, seed, prep).means.micro_f)
        for params, config in zip(points, configs)
    ]
    best = max(scores, key=lambda point: point[1])  # the first of the best
    return GridSearchResult(best[0], best[1], scores)


# the report's metric columns, each a FoldMetrics field shown in percent
_REPORT_METRICS = (
    "exact_match",
    "accuracy",
    "macro_precision",
    "micro_precision",
    "macro_recall",
    "micro_recall",
    "macro_f",
    "micro_f",
    "hamming_loss",
)
REPORT_HEADER = "\t".join(["strategy", "model", *_REPORT_METRICS, "train_seconds"])


def report_row(strategy: str, model: str, report: MetricsReport) -> str:
    """One tab-separated result row under REPORT_HEADER: strategy, model,
    the metric columns (percent) and training time in seconds."""
    m = report.means
    cells = [
        strategy.upper(),
        model.upper(),
        *(f"{100 * getattr(m, name):.2f}" for name in _REPORT_METRICS),
        f"{report.train_seconds:.2f}",
    ]
    return "\t".join(cells)
