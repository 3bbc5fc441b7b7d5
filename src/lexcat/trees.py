"""Decision-tree and tree-ensemble learners built directly on numpy arrays.

Trees are stored as flat parallel arrays (feature, threshold, children,
depth, class counts) so decision paths can be replayed and models can be
serialized without touching live objects. Split semantics are fixed
everywhere: value <= threshold goes left, value > threshold goes right.

Splits are searched on binned columns: each ensemble fit maps every column
to its distinct values once (bin_columns, codes stored column-major so a node
gathers its candidate columns as contiguous rows, and each column's offset
into the values, so a node reads only its candidates' values), and each node
scores its candidate columns from one histogram of (column, bin, class)
counts, the only count a searched node takes. Each column takes as many bins
as it has values: a layout padded to the widest column measured 1.14x on
cv_headline's split search against this ragged one's 1.09x. Thresholds are
midpoints between present values, as a sorted search would place them, or
the lower value where the midpoint of two adjacent floats rounds up to the
upper. A child's class counts are carried from its parent's split, a node's
rows are split on their bin codes, and a child its counts make a leaf gets
no rows. A bootstrap sample is grown as (distinct row, multiplicity) pairs,
so the histograms are weighted counts of whole samples, and the 'best'
splitter gives up at once on a node too small to split. What is the same for
every tree of a forest is built and checked once per forest, as its Grower:
the matrix's bins, the labels, the class weights and the weight table of
their sums. fit_ensemble checks the matrix itself, where it enters, and is
the only way to grow a tree: fit_tree grows each tree of a forest from its
Grower, and find_split searches each node.

A model stores each forest once, as one flat node table (ForestTable) that
_pack_forest builds and checks, from a fit's trees or a model file's arrays;
model.trees are views of it. Prediction first
settles on the table every split that all rows of the batch take the same
way, so all rows of a tree start on one node. It takes the first step from
those shared starts for every tree at once, with one gather of the split
columns, then walks only the trees where some row is not yet on a leaf, one
unsettled split per step, and sums the trees' leaf distributions in tree
order, one block of rows at a time. A caller that reads only some classes
gets only those summed: the MTS forest's columns, or the BTS class forests.
numpy would sum the gather of one row and one output pairwise, so a 1-row
batch sums every output and picks its columns after. split_counts walks one
row through the same tables to count the columns its decision paths split on.

Randomness comes from numpy's default PCG64 generator; every tree in an
ensemble owns a generator seeded with base_seed + tree_index, so ensembles
are reproducible and trees could be grown in parallel.

Variant behaviour:
  rf    bootstrap resampling, sqrt(d) feature subsampling, best splits
  eetc  full sample, sqrt(d) feature subsampling, random splits
  etc   one extremely randomised tree: eetc with a single tree
  dt    single tree, all features, splitter from the hyperparameters
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, astuple, dataclass, fields, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import DataError, check_fields, parse_json
from .corpus import LabelAssignment
from .labels import (
    ClassCatalog,
    MtsCatalog,
    bts_decode,
    bts_encode,
    build_class_catalog,
    mts_decode,
    mts_encode,
)

VARIANTS = ("dt", "etc", "eetc", "rf")
CRITERIA = ("gini", "entropy")
SPLITTERS = ("best", "random")
STRATEGIES = ("bts", "mts")
# the most trees a forest may ask for: a mistyped count is refused, not run for days
MAX_ESTIMATORS = 10_000


class ModelError(DataError):
    pass


@dataclass(frozen=True)
class Hyperparams:
    class_weight: str | None = None
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    criterion: str = "gini"
    splitter: str = "best"
    n_estimators: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        # every message starts with the quoted field name
        check_fields(self, ModelError, lambda hp: {
            "class_weight": (hp.class_weight in (None, "balanced"), "one of (None, 'balanced')"),
            "criterion": (hp.criterion in CRITERIA, f"one of {CRITERIA}"),
            "splitter": (hp.splitter in SPLITTERS, f"one of {SPLITTERS}"),
            "max_depth": (hp.max_depth is None or hp.max_depth >= 0, ">= 0"),
            "min_samples_split": (hp.min_samples_split >= 2, ">= 2"),
            "min_samples_leaf": (hp.min_samples_leaf >= 1, ">= 1"),
            "n_estimators": (1 <= hp.n_estimators <= MAX_ESTIMATORS, f"in [1, {MAX_ESTIMATORS}]"),
            "seed": (hp.seed >= 0, ">= 0"),
        })


def impurity(class_counts, criterion: str) -> float:
    """Impurity of one node's class counts: gini 1 - sum(p_k^2), entropy
    -sum(p_k log2 p_k) with 0 log 0 = 0."""
    counts = np.asarray(class_counts, dtype=float)
    if criterion not in CRITERIA:
        raise ModelError(f"criterion must be one of {CRITERIA}: {criterion!r}")
    if counts.sum() <= 0:
        raise ModelError("impurity of an empty node is undefined")
    return float(_impurity_rows(counts[None, :], criterion)[0])


def _impurity_rows(counts: np.ndarray, criterion: str, totals=None) -> np.ndarray:
    """Impurity of each row of a (k, n_classes) weighted count matrix, whose
    row sums are totals when the caller has them."""
    totals = counts.sum(axis=1) if totals is None else totals
    p = counts / totals[:, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -(p * logs).sum(axis=1)


def compute_class_weights(y: np.ndarray, n_classes: int, mode: str | None) -> np.ndarray:
    """Per-class weights; 'balanced' gives total / (present_classes * count)."""
    weights = np.ones(n_classes, dtype=float)
    if mode == "balanced":
        counts = np.bincount(y, minlength=n_classes).astype(float)
        present = counts > 0
        weights[present] = len(y) / (present.sum() * counts[present])
        weights[~present] = 0.0
    return weights


class Bins(NamedTuple):
    """A finite training matrix binned once for every tree grown on it."""

    codes: np.ndarray  # column-major: codes[j, i] indexes X[i, j] among column j's values
    values: np.ndarray  # each column's distinct values, ascending, one column after the other
    widths: np.ndarray  # how many distinct values each column has
    starts: np.ndarray  # the offset of each column's first value in values


def bin_columns(X: np.ndarray) -> Bins:
    """X binned by its columns' distinct values. The codes take the narrowest
    unsigned dtype that holds every index. Columns are binned one at a time,
    so no temporary spans the whole matrix."""
    if not np.isfinite(X).all():
        raise ModelError("training matrix must be finite: it holds NaN or infinity")
    uniques = [np.unique(col) for col in X.T]
    widths = np.array([len(u) for u in uniques], dtype=np.intp)
    codes = np.empty(X.shape[::-1], dtype=np.min_scalar_type(int(max(widths, default=1)) - 1))
    for j, u in enumerate(uniques):
        codes[j] = np.searchsorted(u, X[:, j])
    values = np.concatenate(uniques or [np.empty(0)])
    return Bins(codes, values, widths, np.cumsum(widths) - widths)


def _checked_class_weights(class_weights, y: np.ndarray, n_classes: int) -> np.ndarray:
    """class_weights as floats, refused unless find_split can score them:
    one finite, nonnegative weight per class, positive for every class in y
    (or a child holding only that class would weigh 0)."""
    class_weights = np.asarray(class_weights, dtype=float)
    if class_weights.shape != (n_classes,):
        raise ModelError(f"need {n_classes} class weights, one per class, got {class_weights.size}")
    finite = np.isfinite(class_weights).all()
    if not finite or class_weights.min() < 0 or class_weights[y].min() <= 0:
        raise ModelError("class weights must be finite, nonnegative and positive for each class in y")
    return class_weights


def weight_table(class_weights: np.ndarray, n: int) -> np.ndarray:
    """table[c, k] is the weight of k samples of class c, added one at a
    time, so a node's class weights are exact lookups by class count."""
    table = np.zeros((len(class_weights), n + 1))
    table[:, 1:] = np.cumsum(np.repeat(class_weights[:, None], n, axis=1), axis=1)
    return table


class Grower(NamedTuple):
    """What every tree of one forest grows from, built and checked once by
    Grower.build: fit_tree grows each tree from it, find_split searches each
    node with it."""

    bins: Bins  # bin_columns of the training matrix
    y: np.ndarray  # int32 labels, one per row of the matrix
    n_classes: int
    weights: np.ndarray  # the checked class weights
    table: np.ndarray  # weight_table(weights, len(y)): every tree's sample holds len(y) samples
    hp: Hyperparams
    max_features: int | None  # candidate columns drawn per node; None for every column

    @classmethod
    def build(cls, bins, y, n_classes, class_weights, hp, max_features) -> Grower:
        """The state of a forest grown on a matrix binned as bins, and labels
        y in 0..n_classes-1, one per row; refused unless
        _checked_class_weights accepts the class weights."""
        y = np.asarray(y, dtype=np.int32)
        weights = _checked_class_weights(class_weights, y, n_classes)
        return cls(bins, y, n_classes, weights, weight_table(weights, len(y)), hp, max_features)


def find_split(
    grower: Grower,
    cands: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
):
    """Best (column, threshold, code, left counts) over the candidate columns
    of one node, or None.

    grower is the forest's state; cands the sorted candidate columns; rows
    the node's distinct rows, weight their multiplicities (how often a
    bootstrap sample drew each row) and counts the node's class counts, so
    the node holds counts.sum() samples. Each candidate gets as many bins as
    it has distinct values, so one weighted bincount over (column, bin,
    class) gives every column's class histogram in whole sample counts, and
    its running sums the left child's class counts after each bin. A split
    may fall after any bin present in the node when both children keep
    min_samples_leaf samples; the 'best' splitter returns None at once when
    the node holds fewer than 2 * min_samples_leaf. 'best' scores every
    feasible split at the midpoint to the next present value (the lower
    value when that rounds up to the next); 'random' draws one uniform
    threshold per non-constant column, in column order (also in nodes too
    small to split, so the draws never depend on the leaf size), and scores
    only the split after the last present value at or below it. Both
    splitters share one scoring step; ties break on the lowest column, then
    the lowest threshold. The left child holds the rows whose code in the
    column is at most code, which are those whose value is at most the
    threshold, as no value of the node lies between them; left counts are
    its class counts, as floats.
    """
    bins, n_classes, table, hp = grower.bins, grower.n_classes, grower.table, grower.hp
    n = int(counts.sum())
    leaf = hp.min_samples_leaf
    if hp.splitter == "best" and n < 2 * leaf:
        return None
    widths = bins.widths.take(cands)
    starts = widths.cumsum() - widths  # of each candidate's bins in the histogram
    n_bins = int(widths.sum())
    key = bins.codes.take(cands, 0).take(rows, 1) + starts.astype(np.int32)[:, None]
    key = key * n_classes + grower.y.take(rows)
    tiled = np.empty(key.shape)
    tiled[:] = weight
    hist = np.bincount(key.ravel(), tiled.ravel(), n_bins * n_classes)
    hist = hist.astype(np.intp).reshape(n_bins, n_classes)
    # every column holds the node's counts, so taking them off the first bin
    # of each column but the first restarts the running counts there: cum
    # holds the left child's class counts after each bin, sizes its samples
    node = counts.astype(np.intp)
    np.subtract.at(hist, starts[1:], node)
    cum = hist.cumsum(axis=0)
    sizes = cum.sum(axis=1)
    # a bin absent from the node repeats the split after the present bin
    # before it, which the argmax below takes first, so it is scored as well
    feasible = (sizes >= leaf) & (sizes <= n - leaf)
    if hp.splitter == "random":
        # a bin is present where its column's running size grows
        present = np.diff(sizes, prepend=0) > 0
        present[starts] = sizes.take(starts) > 0
        column = np.repeat(np.arange(len(cands)), widths)  # candidate of each bin
        # histogram bin i of candidate k holds the value bins.values[i + shift[k]]
        shift = bins.starts.take(cands) - starts
        values = bins.values.take(np.arange(n_bins) + shift.repeat(widths))
        lo = np.minimum.reduceat(np.where(present, values, np.inf), starts)
        hi = np.maximum.reduceat(np.where(present, values, -np.inf), starts)
        varies = lo != hi
        thr = lo.copy()
        thr[varies] = rng.uniform(lo[varies], hi[varies])
        below = np.maximum.reduceat(np.where(values <= thr[column], sizes, 0), starts)
        feasible &= sizes == below[column]
    (at,) = feasible.nonzero()  # lowest column, then lowest threshold
    if at.size == 0:
        return None

    lc = cum.take(at, 0)  # the left child's class counts at each feasible split
    k = len(at)
    # the parent, the left and the right children, weighed by lookups in the
    # flattened weight table and scored by one impurity call
    row_of = np.arange(0, table.size, table.shape[1])
    scored = np.empty((2 * k + 1, n_classes))
    base, left, right = scored[0], scored[1 : k + 1], scored[k + 1 :]
    base[:] = table.take(node + row_of)
    left[:] = table.take(lc + row_of)
    np.subtract(base, left, out=right)
    weights = scored.sum(axis=1)
    imp = _impurity_rows(scored, hp.criterion, weights)
    # each child's impurity times its share of the node's weight, the right's
    # taken as the node's less the left's; both > 0: each child keeps >= 1 sample,
    # and _checked_class_weights refuses weights that leave a class in y at 0
    np.subtract(weights[0], weights[1 : k + 1], out=weights[k + 1 :])
    imp *= weights / weights[0]
    i = int((imp[0] - imp[1 : k + 1] - imp[k + 1 :]).argmax())
    b = int(at[i])
    f = int(starts.searchsorted(b, "right")) - 1
    code, left_counts = b - int(starts[f]), lc[i].astype(float)
    if hp.splitter == "random":
        return int(cands[f]), float(thr[f]), code, left_counts
    # b is feasible, so a later present bin of the same column exists
    gap = 1 + int((sizes[b + 1 :] > sizes[b]).argmax())  # to the next present bin
    at_b = int(bins.starts[cands[f]]) + code  # b's value in bins.values
    below, above = bins.values[at_b], bins.values[at_b + gap]
    mid = (below + above) / 2.0
    # the midpoint of two adjacent floats can round up to above, a split that
    # sends every row left and is found again in that child, without end
    return int(cands[f]), float(mid if mid < above else below), code, left_counts


@dataclass
class Tree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth: np.ndarray
    counts: np.ndarray  # raw per-class sample counts at each node

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def fit_tree(grower: Grower, rng: np.random.Generator, rows: np.ndarray | None) -> Tree:
    """Grow one tree of grower's forest over the given rows of its matrix
    (repeats allowed, as in a bootstrap sample; None for every row once),
    drawing its candidate columns and random thresholds from rng.

    The sample is carried as its distinct rows, sorted, with how often each
    was drawn: node sizes, min_samples_split, min_samples_leaf and the class
    counts stored in Tree.counts all count a row as often as it was drawn.
    Only the root's class counts are counted: find_split gives the left
    child's and the bin code its rows are split at, the right's are the
    node's less the left's. A child its counts make a leaf (pure, at
    max_depth, below min_samples_split) gets no rows.
    Nodes are created in preorder, which fixes both the node ids and the
    order of random draws, so the same seed always yields the same tree.
    """
    y, n_classes, max_features = grower.y, grower.n_classes, grower.max_features
    n_rows, d = len(y), len(grower.bins.widths)
    drawn = np.ones(n_rows) if rows is None else np.bincount(rows, minlength=n_rows).astype(float)
    (root,) = np.nonzero(drawn)
    every = np.arange(d)
    sampled = max_features is not None and max_features < d
    max_depth = math.inf if grower.hp.max_depth is None else grower.hp.max_depth
    min_split = grower.hp.min_samples_split

    def is_leaf(counts: np.ndarray, depth: int) -> bool:
        # a node holding two classes holds at least 2 samples, so its size
        # needs summing only for a min_samples_split above 2
        small = min_split > 2 and counts.sum() < min_split
        return small or depth >= max_depth or np.count_nonzero(counts) <= 1

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    depth_arr: list[int] = []
    counts_arr: list[np.ndarray] = []

    # frames: (class counts, depth, the node whose right child this is, else -1,
    # (distinct rows, multiplicities) or None at a leaf); a left child is the next node
    counts = np.bincount(y.take(root), drawn[root], n_classes)
    stack = [(counts, 0, -1, None if is_leaf(counts, 0) else (root, drawn[root]))]
    while stack:
        counts, depth, parent, sample = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            right[parent] = node_id
        feature.append(-1)
        threshold.append(float("nan"))
        left.append(-1)
        right.append(-1)
        depth_arr.append(depth)
        counts_arr.append(counts)
        if sample is None:
            continue
        idx, weight = sample
        cands = np.sort(rng.choice(d, size=max_features, replace=False)) if sampled else every
        split = find_split(grower, cands, idx, weight, counts, rng)
        if split is None:
            continue
        f, threshold[node_id], code, left_counts = split
        feature[node_id] = f
        left[node_id] = node_id + 1
        goes_left = None
        # right pushed first so the left subtree is built (and numbered) first
        for child, right_of in ((counts - left_counts, node_id), (left_counts, -1)):
            sample = None
            if not is_leaf(child, depth + 1):
                if goes_left is None:
                    goes_left = grower.bins.codes[f].take(idx) <= code
                keep = goes_left if right_of < 0 else ~goes_left
                sample = idx.compress(keep), weight.compress(keep)
            stack.append((child, depth + 1, right_of, sample))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        depth=np.asarray(depth_arr, dtype=np.int32),
        counts=np.vstack(counts_arr),
    )


class ForestTable(NamedTuple):
    """One forest's Tree arrays, concatenated tree after tree, and walk arrays
    derived from them once, in which a leaf splits on column 0 at +inf into itself."""

    feature: np.ndarray  # -1 at a leaf
    threshold: np.ndarray  # NaN at a leaf
    left: np.ndarray  # numbered within the node's tree, as model files store it; -1 at a leaf
    right: np.ndarray
    depth: np.ndarray
    counts: np.ndarray  # (nodes, outputs) raw per-class sample counts
    roots: np.ndarray  # table offset of each tree's root
    weights: np.ndarray  # the forest's class weights
    leaf: np.ndarray  # True at a leaf
    walk_feature: np.ndarray  # intp, 0 at a leaf
    walk_threshold: np.ndarray  # +inf at a leaf
    children: np.ndarray  # table offsets: node i's right child at 2i, left at 2i + 1
    dist: np.ndarray  # (nodes, outputs) normalised class-weighted counts

    def tree(self, i: int) -> Tree:
        """Tree i of the forest, its arrays views of the table's."""
        span = slice(self.roots[i], self.roots[i + 1] if i + 1 < len(self.roots) else None)
        return Tree(self.feature[span], self.threshold[span], self.left[span], self.right[span],
                    self.depth[span], self.counts[span])

    def trees(self) -> list[Tree]:
        return [self.tree(i) for i in range(len(self.roots))]


def _pack_forest(sizes, nodes, weights, n_features: int) -> ForestTable:
    """One forest's node table from its trees' node counts (sizes) and the
    six Tree arrays of all its nodes, tree after tree (nodes), refusing any
    node value fit_tree could not produce on n_features columns. Ids are
    checked before the int32 cast."""
    roots = np.cumsum(sizes) - sizes
    feature, threshold, left, right, depth, counts = nodes
    leaf = feature < 0
    own = np.arange(len(feature))
    offset = np.repeat(roots, sizes)  # of each node's tree root
    n = np.repeat(sizes, sizes)  # each node's tree size
    children = np.where(leaf, own, np.array([right, left]) + offset)  # table offsets
    # so every walk ends
    if not (leaf | ((own < children) & (children < offset + n)).all(axis=0)).all():
        raise ModelError("malformed tree: each child must follow its node in preorder")
    # the ids a fitted tree holds, where -1 marks a leaf's feature and children
    ids = np.array([feature, left, right, depth])
    if ((ids < [[-1], [-1], [-1], [0]]) | (ids >= [np.full_like(n, n_features), n, n, n])).any():
        raise ModelError("malformed tree: a feature, child or depth id is out of range")
    feature, left, right, depth = ids.astype(np.int32)
    if (depth[roots] != 0).any():
        raise ModelError("malformed tree: the root must have depth 0")
    if not (leaf | (depth[children] == depth + 1).all(axis=0)).all():
        raise ModelError("malformed tree: a child's depth must be its node's plus 1")
    if not (leaf | np.isfinite(threshold)).all():
        raise ModelError("malformed tree: split thresholds must be finite")
    if not all((np.isfinite(a) & (a >= 0)).all() for a in (counts, weights)):
        raise ModelError("counts and class weights must be finite and nonnegative")
    weighted = counts * weights
    totals = weighted.sum(axis=1, keepdims=True)
    if not (totals > 0).all():
        raise ModelError("every node needs a positive class-weighted sample count")
    return ForestTable(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        depth=depth,
        counts=counts,
        roots=roots.astype(np.intp),
        weights=weights,
        leaf=leaf,
        walk_feature=np.where(leaf, 0, feature).astype(np.intp),
        walk_threshold=np.where(leaf, np.inf, threshold),
        children=children.T.ravel().astype(np.intp, copy=False),
        dist=weighted / totals,
    )


@dataclass
class EnsembleModel:
    variant: str
    strategy: str
    hyperparams: Hyperparams
    feature_names: tuple[str, ...]
    class_catalog: ClassCatalog
    mts_catalog: MtsCatalog
    forests: list[ForestTable]  # one per class under bts, one under mts

    def __post_init__(self) -> None:
        # a leaf is walked as a split on column 0, so prediction needs one
        if not self.feature_names:
            raise ModelError("a model needs at least one feature column")

    @functools.cached_property
    def trees(self) -> list[Tree]:
        return [tree for table in self.forests for tree in table.trees()]


# variant -> (splitter it forces, None to keep the hyperparameter; bootstrap;
# sqrt(d) candidate features; n_estimators trees, else one)
_VARIANT_KNOBS = {
    "dt": (None, False, False, False),
    "etc": ("random", False, True, False),
    "eetc": ("random", False, True, True),
    "rf": ("best", True, True, True),
}


def _variant_knobs(variant: str, hp: Hyperparams, d: int):
    if variant not in VARIANTS:
        raise ModelError(f"unknown variant: {variant!r}")
    splitter, bootstrap, sqrt_features, ensemble = _VARIANT_KNOBS[variant]
    if splitter is not None:
        hp = replace(hp, splitter=splitter)
    max_features = max(1, int(math.sqrt(d))) if sqrt_features else None
    return hp, bootstrap, max_features, hp.n_estimators if ensemble else 1


def _fit_forest(grower: Grower, n_trees: int, bootstrap: bool, tree_offset: int) -> ForestTable:
    n = len(grower.y)
    forest = []
    for t in range(n_trees):
        rng = np.random.default_rng(grower.hp.seed + tree_offset + t)
        # a bootstrap sample is grown as rows of the matrix, which is never copied
        rows = rng.integers(0, n, size=n) if bootstrap else None
        forest.append(fit_tree(grower, rng, rows))
    nodes = [np.concatenate([getattr(tree, f.name) for tree in forest]) for f in fields(Tree)]
    sizes = np.array([tree.n_nodes for tree in forest])
    return _pack_forest(sizes, nodes, grower.weights, len(grower.bins.widths))


def fit_ensemble(
    X: np.ndarray,
    label_sets,
    hyperparams: Hyperparams,
    variant: str,
    strategy: str,
    feature_names=None,
) -> EnsembleModel:
    """Fit the requested model variant under the BTS or MTS strategy.

    BTS trains one forest per catalog class on its binary indicator column;
    MTS trains a single forest on the integer combination labels. Per-tree
    seeds are hyperparams.seed + global tree index. A matrix that is not 2-D
    and nonempty, with one label set per row, or that holds NaN or infinity,
    is refused with ModelError.
    """
    X = np.asarray(X, dtype=float)
    if strategy not in STRATEGIES:
        raise ModelError(f"unknown strategy: {strategy!r}")
    class_catalog = build_class_catalog(label_sets)
    mts_catalog, alphas = mts_encode(label_sets)
    if X.ndim != 2 or len(X) == 0 or len(X) != len(alphas):
        raise ModelError("training data must be a nonempty matrix with one label set per row")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    feature_names = tuple(feature_names)
    if len(feature_names) != X.shape[1]:
        raise ModelError("feature_names length must match the matrix width")

    hp, boot, mf, n_trees = _variant_knobs(variant, hyperparams, X.shape[1])

    # (labels, output width) of each forest; bts labels are views of beta,
    # which Grower.build copies to int32 only while that forest grows
    if strategy == "mts":
        targets = [(np.asarray(alphas, dtype=np.int32) - 1, mts_catalog.p)]
    else:
        beta = bts_encode(label_sets, class_catalog)
        targets = [(beta[:, j], 2) for j in range(class_catalog.m)]
    # every forest grows on the same matrix, so it is binned once
    bins = bin_columns(X)
    growers = (
        Grower.build(bins, y, n, compute_class_weights(y, n, hp.class_weight), hp, mf)
        for y, n in targets
    )
    return EnsembleModel(
        variant=variant,
        strategy=strategy,
        hyperparams=hp,
        feature_names=feature_names,
        class_catalog=class_catalog,
        mts_catalog=mts_catalog,
        forests=[_fit_forest(g, n_trees, boot, j * n_trees) for j, g in enumerate(growers)],
    )


def _settle(table: ForestTable, X: np.ndarray) -> np.ndarray:
    """Each table node mapped to the child every row of X takes there (its
    column's largest value is at most the threshold, or its smallest above
    it), else to itself. NaN propagates through min and max, so a column
    holding NaN settles no split; an empty batch settles every split left."""
    lo = X.min(axis=0, initial=np.inf).take(table.walk_feature)
    hi = X.max(axis=0, initial=-np.inf).take(table.walk_feature)
    all_left = hi <= table.walk_threshold
    settled = all_left | (lo > table.walk_threshold)
    own = np.arange(len(table.leaf))
    return np.where(settled, table.children.take(2 * own + all_left), own)


def _forest_mean(table: ForestTable, X: np.ndarray, columns) -> np.ndarray:
    """Mean leaf distribution of one forest's trees, restricted to the given
    output columns, for every row of a C-contiguous X; value <= threshold
    goes left and NaN goes right.

    A split every row takes the same way is settled once on the table:
    each node maps to the node a walk reaches after skipping settled
    splits, by pointer jumping, so every row of a tree starts on the same
    node. From there the first step is taken for all trees at once, and
    only the trees where some row is not yet on a leaf are walked further,
    one unsettled split per step, until every pair sits on a leaf."""
    nxt = _settle(table, X)
    while True:
        jumped = nxt.take(nxt)
        if (jumped == nxt).all():
            break
        nxt = jumped
    children = nxt.take(table.children)
    start = nxt.take(table.roots)
    feature, threshold = table.walk_feature, table.walk_threshold
    # a walk only reaches leaves and unsettled splits, whose children follow
    # them, so every step moves each pair not yet on a leaf; a leaf's
    # children are the leaf itself, so a step from a leaf stays on it
    go_left = X.take(feature.take(start), axis=1) <= threshold.take(start)
    node = children.take(2 * start + go_left)
    (walked,) = np.nonzero(~table.leaf.take(node).all(axis=0))
    values = X.ravel()
    row_start = np.arange(0, X.size, X.shape[1])[:, None]
    sub = node.take(walked, axis=1)
    while not table.leaf.take(sub).all():
        go_left = values.take(row_start + feature.take(sub)) <= threshold.take(sub)
        sub = children.take(2 * sub + go_left)
    node[:, walked] = sub
    # numpy reduces over a leading axis one slice at a time, so adding the
    # trees to 0.0 equals a loop's sums in tree order, except for a gather
    # of one row and one output, which it sums pairwise; so a 1-row batch
    # sums every output (a 1-output forest's distributions are all 1.0,
    # whose pairwise sum is exact) and picks its columns after. Blocks of
    # rows keep the (trees, rows, outputs) gather no larger than node
    n_rows = len(X)
    dist = table.dist if n_rows == 1 else table.dist[:, columns]
    acc = np.empty((n_rows, dist.shape[1]))
    block = max(1, n_rows // dist.shape[1])
    for s in range(0, n_rows, block):
        leaves = node[s : s + block].T
        np.add.reduce(dist.take(leaves, axis=0), axis=0, out=acc[s : s + block], initial=0.0)
    mean = acc / node.shape[1]
    return mean[:, columns] if n_rows == 1 else mean


def split_counts(model: EnsembleModel, row) -> np.ndarray:
    """How often each column is split on along the paths one row takes
    through every tree of the model; value <= threshold goes left and NaN
    goes right, as in prediction. All trees of a forest advance together,
    one split per step, and a tree drops out when it reaches a leaf."""
    row = np.asarray(row, dtype=float)
    features = []
    for table in model.forests:
        node = table.roots
        while node.size:
            node = node[~table.leaf.take(node)]
            features.append(table.walk_feature.take(node))
            go_left = row.take(features[-1]) <= table.walk_threshold.take(node)
            node = table.children.take(2 * node + go_left)
    return np.bincount(np.concatenate(features), minlength=len(model.feature_names))


def predict_proba_batch(model: EnsembleModel, X: np.ndarray, classes=None) -> np.ndarray:
    """MTS: (n, p) class probabilities (rows sum to 1). BTS: (n, m) per-class
    positive probabilities. Mean of the trees' leaf distributions.

    With classes, a nonempty list of output columns, each in 0..n_outputs-1,
    returns the same bytes as predict_proba_batch(model, X)[:, classes],
    summing only those columns of the MTS forest, or walking only those BTS
    class forests."""
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ModelError(
            f"matrix has shape {X.shape}, model expects {len(model.feature_names)} columns"
        )
    n_outputs = model.forests[0].dist.shape[1] if model.strategy == "mts" else len(model.forests)
    if classes is not None and not (len(classes) and all(0 <= c < n_outputs for c in classes)):
        raise ModelError(
            f"classes {list(classes)} must be a nonempty list of output columns below {n_outputs}"
        )
    if model.strategy == "mts":
        return _forest_mean(model.forests[0], X, slice(None) if classes is None else classes)
    forests = model.forests if classes is None else [model.forests[c] for c in classes]
    return np.column_stack([_forest_mean(table, X, [1])[:, 0] for table in forests])


def decode_row(
    model: EnsembleModel, probs: np.ndarray, threshold: float
) -> tuple[LabelAssignment, ...]:
    """Label set of one row of predict_proba_batch: MTS argmax decoded
    through the combination catalog, BTS positives above the threshold
    with abstention repair."""
    if model.strategy == "mts":
        return mts_decode(int(np.argmax(probs)) + 1, model.mts_catalog)
    return bts_decode(probs, model.class_catalog, threshold)


def predict_batch(model: EnsembleModel, X: np.ndarray, threshold: float):
    return [decode_row(model, p, threshold) for p in predict_proba_batch(model, X)]


def feature_importances(model: EnsembleModel) -> np.ndarray:
    """Normalized total impurity decrease per feature, averaged over trees."""
    d = len(model.feature_names)
    per_tree = []
    for table in model.forests:
        weighted = table.counts * table.weights
        # positive at every node, or _pack_forest would have refused the model
        node_w = weighted.sum(axis=1)
        imp = node_w * _impurity_rows(weighted, model.hyperparams.criterion, node_w)
        (split,) = np.nonzero(~table.leaf)
        gain = imp[split] - imp[table.children[2 * split + 1]] - imp[table.children[2 * split]]
        # one bincount adds each (tree, feature)'s gains in node order
        key = (np.searchsorted(table.roots, split, side="right") - 1) * d + table.feature[split]
        contrib = np.bincount(key, gain, len(table.roots) * d).reshape(-1, d)
        total = contrib.sum(axis=1, keepdims=True)
        per_tree.append(contrib / np.where(total > 0, total, 1.0))
    mean = np.concatenate(per_tree).mean(axis=0)
    total = mean.sum()
    return mean / total if total > 0 else mean


# --- serialization ---------------------------------------------------------

_FORMAT = "lexcat-model-v2"


def _assignment_from_obj(obj) -> LabelAssignment:
    if not (isinstance(obj, list) and len(obj) == 2 and isinstance(obj[1], list)):
        raise ModelError(f"malformed class: expected [order, [categories]], got {obj!r}")
    return LabelAssignment(obj[0], tuple(obj[1]))


def _numbers(value, what: str, integral: bool = False) -> np.ndarray:
    """value as a numeric array, floats unless integral; anything else a JSON
    array may hold (strings, nulls, booleans, ragged nesting) is a ModelError."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise ModelError(f"malformed {what}: a ragged array") from None
    # numpy reads a boolean among numbers as 0 or 1
    rows = value if array.ndim == 2 else [value] if array.ndim == 1 else []
    numeric = not array.size or array.dtype.kind in ("iu" if integral else "iuf")
    if not numeric or bool in set(map(type, chain.from_iterable(rows))):
        raise ModelError(f"malformed {what}: {'integers' if integral else 'numbers'} expected")
    return array if integral else array.astype(float)


def _forest_from_obj(obj, n_outputs: int, n_features: int) -> ForestTable:
    """One forest as a model file stores it, checked for its JSON shape;
    _pack_forest checks the values. Each size is checked to lie in [1, node
    count] before they are summed, so no sum can overflow."""
    if not isinstance(obj, dict):
        raise ModelError("malformed forest: an object of node arrays expected")
    keys = ("feature", "left", "right", "depth")
    ids = _numbers([obj.get(key) for key in keys], "forest node ids", integral=True)
    threshold = _numbers(obj.get("threshold"), "forest threshold")
    counts = _numbers(obj.get("counts"), "forest counts")
    sizes = _numbers(obj.get("sizes"), "forest sizes", integral=True)
    weights = _numbers(obj.get("weights"), "class-weight vector")
    n = ids.shape[1] if ids.ndim == 2 else 0
    if n == 0 or threshold.shape != (n,):
        raise ModelError("malformed forest: node arrays must be nonempty and of equal length")
    if counts.shape != (n, n_outputs) or weights.shape != (n_outputs,):
        raise ModelError(f"malformed forest: need ({n}, {n_outputs}) counts, {n_outputs} weights")
    if sizes.ndim != 1 or not ((1 <= sizes) & (sizes <= n)).all() or sizes.sum() != n:
        raise ModelError(f"malformed forest: sizes must be tree node counts adding up to {n}")
    feature, left, right, depth = ids
    return _pack_forest(sizes, (feature, threshold, left, right, depth, counts), weights, n_features)


def model_to_json(model: EnsembleModel) -> str:
    """The JSON text of a model, as a pipeline file's model line holds it:
    each forest as its table's node arrays, its trees' node counts (sizes)
    and its class weights."""
    obj = {
        "format": _FORMAT,
        "variant": model.variant,
        "strategy": model.strategy,
        "hyperparams": asdict(model.hyperparams),
        "feature_names": list(model.feature_names),
        "classes": [astuple(a) for a in model.class_catalog.classes],
        "combos": [[model.class_catalog.index(a) for a in c] for c in model.mts_catalog.combos],
        "forests": [
            {
                **{f.name: getattr(table, f.name).tolist() for f in fields(Tree)},
                "sizes": np.diff(table.roots, append=len(table.leaf)).tolist(),
                "weights": table.weights.tolist(),
            }
            for table in model.forests
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def model_from_json(text: str) -> EnsembleModel:
    obj = parse_json(text, ModelError, "model file is not JSON")
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != _FORMAT:
        raise ModelError(f"unsupported model format: {fmt!r}")
    for key in ("feature_names", "classes", "combos", "forests"):
        if not isinstance(obj.get(key), list):
            raise ModelError(f"model field {key!r} must be a list")
    if not all(isinstance(name, str) for name in obj["feature_names"]):
        raise ModelError("feature_names must be strings")
    classes = tuple(_assignment_from_obj(o) for o in obj["classes"])
    class_catalog = ClassCatalog(classes)
    if not all(
        isinstance(combo, list) and all(type(i) is int and 0 <= i < len(classes) for i in combo)
        for combo in obj["combos"]
    ):
        raise ModelError(f"combos must index the model's {len(classes)} classes")
    combos = tuple(tuple(classes[i] for i in combo) for combo in obj["combos"])
    variant, strategy = obj.get("variant"), obj.get("strategy")
    if variant not in VARIANTS or strategy not in STRATEGIES:
        raise ModelError(f"unknown variant or strategy: {variant!r}, {strategy!r}")
    try:
        hyperparams = Hyperparams(**obj.get("hyperparams"))
    except TypeError as exc:
        raise ModelError(f"malformed hyperparams: {exc}") from None
    # mts: one forest over the combinations; bts: one 2-output forest per class
    widths = [len(combos)] if strategy == "mts" else [2] * len(classes)
    forests = obj["forests"]
    if not forests or not all(widths) or len(forests) != len(widths):
        raise ModelError(f"a {strategy} model needs nonempty forests of output widths {widths}")
    n_features = len(obj["feature_names"])
    return EnsembleModel(
        variant=variant,
        strategy=strategy,
        hyperparams=hyperparams,
        feature_names=tuple(obj["feature_names"]),
        class_catalog=class_catalog,
        mts_catalog=MtsCatalog(combos),
        forests=[_forest_from_obj(f, k, n_features) for f, k in zip(forests, widths)],
    )
