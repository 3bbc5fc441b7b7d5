"""Per-decision explanations: decision-path extraction, perturbation-based
term relevance, natural-language rendering and tree-graph export."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import DataError
from .corpus import LabelAssignment
from .entities import CATEGORICAL_FIELDS, extract_entities
from .textproc import to_token_stream
from .trees import EnsembleModel, Tree, decode_row, predict_proba_batch, split_counts


class ExplainError(DataError):
    pass


class _PathStepFields(NamedTuple):
    feature: str
    value: float
    direction: str  # "less" | "more"
    threshold: float


class PathStep(_PathStepFields):
    """One split of a decision path; a tuple, so building one is cheap."""

    __slots__ = ()

    def __new__(cls, feature: str, value: float, direction: str, threshold: float):
        if direction not in ("less", "more"):
            raise ExplainError(f"bad direction: {direction!r}")
        if (value <= threshold) != (direction == "less"):
            raise ExplainError("direction contradicts the value/threshold comparison")
        return tuple.__new__(cls, (feature, value, direction, threshold))


def extract_path(tree: Tree, row, feature_names) -> list[PathStep]:
    """Root-to-leaf walk recording (feature, value, direction, threshold) at
    every split: value <= threshold goes left as 'less', otherwise right as
    'more'."""
    row = np.asarray(row, dtype=float).tolist()
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
    steps: list[PathStep] = []
    node = 0
    seen = set()
    while feature[node] >= 0:
        if node in seen:
            raise ExplainError("malformed tree: cycle in decision path")
        seen.add(node)
        f = feature[node]
        thr = threshold[node]
        value = row[f]
        if value <= thr:
            steps.append(PathStep(feature_names[f], value, "less", thr))
            node = left[node]
        else:
            steps.append(PathStep(feature_names[f], value, "more", thr))
            node = right[node]
        if not 0 <= node < len(feature):
            raise ExplainError("malformed tree: missing child node")
    return steps


class Decision(NamedTuple):
    """One row's prediction: class probabilities, decoded label set and the
    explained class indices (the MTS argmax, or the BTS positives)."""

    probs: np.ndarray
    assignments: tuple[LabelAssignment, ...]
    class_indices: list[int]

    @property
    def confidence(self) -> int:
        """Rounded percentage of the mean probability of the explained classes."""
        return int(round(100 * float(np.mean(self.probs[self.class_indices]))))


def decide(model: EnsembleModel, row: np.ndarray, threshold: float) -> Decision:
    """The model's decision on one row, from one probability evaluation."""
    probs = predict_proba_batch(model, row[None, :])[0]
    assignments = decode_row(model, probs, threshold)
    if model.strategy == "mts":
        return Decision(probs, assignments, [int(np.argmax(probs))])
    return Decision(probs, assignments, [model.class_catalog.index(a) for a in assignments])


def _surrogate_coefficients(
    model: EnsembleModel,
    row: np.ndarray,
    active: np.ndarray,
    class_indices: list[int],
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Proximity-weighted least-squares fit of each explained class
    probability on term-presence indicators, averaged over the classes.
    The perturbed rows are drawn once for all classes, and only the
    distinct ones are predicted, for the explained classes alone: a row's
    probabilities do not depend on the batch it is predicted in."""
    k = len(active)
    rng = np.random.default_rng(seed)
    keep = rng.random((n_samples, k)) >= 0.5
    # one byte string per keep mask, whatever the number of active terms
    packed = np.packbits(keep, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    X = np.tile(row, (len(first), 1))
    X[:, active] = row[active] * keep[first]
    probs = predict_proba_batch(model, X, class_indices)[inverse]
    distances = k - keep.sum(axis=1)
    sigma = 0.75 * np.sqrt(k)
    w = np.exp(-(distances.astype(float) ** 2) / sigma**2)
    sqrt_w = np.sqrt(w)[:, None]
    A = np.hstack([np.ones((n_samples, 1)), keep.astype(float)]) * sqrt_w
    coefs = np.zeros(k)
    for column in probs.T:  # one per explained class
        coef, *_ = np.linalg.lstsq(A, column * sqrt_w[:, 0], rcond=None)
        coefs += coef[1:]
    return coefs / len(class_indices)


# the fewest and the most perturbed copies a surrogate is fitted on;
# PipelineConfig bounds relevance_samples by them, the most keeping the
# copies' matrices in memory
MIN_RELEVANCE_SAMPLES, MAX_RELEVANCE_SAMPLES = 10, 10_000


def signed_relevance(
    model: EnsembleModel,
    row,
    n_text: int,
    n_samples: int,
    seed: int,
    threshold: float,
) -> tuple[dict[str, float], Decision]:
    """Term relevance from random perturbations of the document's n-gram
    counts, the row's first n_text columns: each nonzero count is zeroed
    with probability 0.5, the explained class probability of every
    perturbed copy is queried, and a proximity-weighted linear surrogate is
    fitted on presence indicators.

    Returns the signed surrogate coefficients of the row's active terms, and
    the decision they explain. Under BTS each predicted class is explained
    separately and the coefficients are averaged.
    """
    if n_samples < MIN_RELEVANCE_SAMPLES:
        raise ExplainError(f"n_samples must be >= {MIN_RELEVANCE_SAMPLES}")
    row = np.asarray(row, dtype=float)
    active = np.flatnonzero(row[:n_text])
    decision = decide(model, row, threshold)
    if len(active) == 0:
        return {}, decision
    coefs = _surrogate_coefficients(
        model, row, active, decision.class_indices, n_samples, seed
    )
    names = [model.feature_names[i] for i in active]
    return dict(zip(names, coefs)), decision


# an explanation names at most this many terms
_TOP_TERMS = 7


def select_top_terms(freq_ordered, relevances) -> list[tuple[str, float]]:
    """First _TOP_TERMS frequency-ordered terms that carry a relevance, then
    sorted by relevance descending."""
    chosen = [t for t in freq_ordered if t in relevances][:_TOP_TERMS]
    return sorted(((t, relevances[t]) for t in chosen), key=lambda kv: (-kv[1], kv[0]))


@dataclass(frozen=True)
class Explanation:
    sample_id: str
    entities: tuple[str, ...]  # display values, in CATEGORICAL_FIELDS order
    assignments: tuple[LabelAssignment, ...]
    confidence: int
    top_terms: tuple[tuple[str, float], ...]
    signed_relevance: dict

    def __post_init__(self) -> None:
        if len(self.entities) != len(CATEGORICAL_FIELDS):
            raise ExplainError(f"need {len(CATEGORICAL_FIELDS)} entity values")
        if not 0 <= self.confidence <= 100:
            raise ExplainError("confidence must be a percentage")


def render_explanation(explanation: Explanation) -> str:
    """Deterministic natural-language rendering in the paper's fixed
    format; identical explanations produce identical bytes."""
    e = explanation
    parts = [f"For sample {e.sample_id} the features' values and model decision are:\n\n"]
    # "resolution_type" is shown as "Resolution type"
    for name, value in zip(CATEGORICAL_FIELDS, e.entities):
        parts.append(f"- {name.replace('_', ' ').capitalize()}: {value}\n")
    parts.append("\n")
    blocks = [
        "- Substantive order: {}\n- Law categories: {}, {} y {}\n".format(
            a.substantive_order, *a.law_categories
        )
        for a in e.assignments
    ]
    parts.append("\n".join(blocks))
    parts.append(f"\nThis decision has a confidence of {e.confidence}\n\n")
    parts.append("The most representative terms (ngrams) and their relevance are:\n")
    for term, rel in e.top_terms:
        parts.append(f"- {term} -- {rel:.3f}\n")
    return "".join(parts)


def build_explanation(fitted, doc, lexica) -> Explanation:
    """Assemble the full explanation of one document under a fitted
    pipeline: entities, prediction, confidence and the top relevance-bearing
    terms. Terms are ranked by how often the document's decision paths
    split on them across all trees (ties alphabetical)."""
    stream = to_token_stream(doc.id, doc.raw_text, lexica.text.stopwords, lexica.text.lemmas)
    record = extract_entities(doc, lexica.entities)
    row = fitted.row_for(stream, record)
    model = fitted.model
    n_text = len(fitted.vectorizer.vocabulary)

    signed, decision = signed_relevance(
        model, row, n_text, fitted.relevance_samples, model.hyperparams.seed, fitted.bts_threshold
    )
    relevances = {t: abs(v) for t, v in signed.items()}
    # n-grams split on along the row's decision paths, most often first
    counts = split_counts(model, row)[:n_text].tolist()
    ranked = sorted((-c, model.feature_names[i]) for i, c in enumerate(counts) if c)
    top = select_top_terms([name for _, name in ranked], relevances)
    return Explanation(
        sample_id=doc.id,
        entities=record.display_values(),
        assignments=tuple(decision.assignments),
        confidence=decision.confidence,
        top_terms=tuple(top),
        signed_relevance=signed,
    )


def class_display_names(model: EnsembleModel, forest_index: int) -> list[str]:
    """Human-readable class labels for a tree's leaves."""
    if model.strategy == "mts":
        return [
            " | ".join(
                "; ".join((a.substantive_order, *a.law_categories)) for a in combo
            )
            for combo in model.mts_catalog.combos
        ]
    target = model.class_catalog.classes[forest_index]
    name = "; ".join((target.substantive_order, *target.law_categories))
    return [f"not {name}", name]


def export_tree_graph(tree: Tree, max_depth: int | None, feature_names, class_names) -> str:
    """DOT description of the tree truncated at max_depth; split nodes are
    labelled 'feature ≤ threshold', leaves with their decoded class."""

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = [
        "digraph decision_tree {",
        '  node [shape=box, fontname="helvetica"];',
    ]
    stack = [0]
    while stack:
        node = stack.pop()
        depth = int(tree.depth[node])
        truncated = max_depth is not None and depth >= max_depth
        if tree.feature[node] < 0:
            label = class_names[int(np.argmax(tree.counts[node]))]
            lines.append(f'  n{node} [label="{esc(label)}"];')
        elif truncated:
            lines.append(f'  n{node} [label="..." shape=plaintext];')
        else:
            name = feature_names[int(tree.feature[node])]
            label = f"{name} ≤ {float(tree.threshold[node]):g}"
            lines.append(f'  n{node} [label="{esc(label)}"];')
            left, right = int(tree.left[node]), int(tree.right[node])
            lines.append(f'  n{node} -> n{left} [label="true"];')
            lines.append(f'  n{node} -> n{right} [label="false"];')
            stack.append(right)
            stack.append(left)
    lines.append("}")
    return "\n".join(lines) + "\n"
