import dataclasses
import functools
import itertools
import json
import math
import operator
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat import trees
from lexcat.corpus import LabelAssignment
from lexcat.labels import ClassCatalog, MtsCatalog, mts_decode
from lexcat.trees import (
    CRITERIA,
    STRATEGIES,
    VARIANTS,
    EnsembleModel,
    Grower,
    Hyperparams,
    ModelError,
    Tree,
    _impurity_rows,
    bin_columns,
    compute_class_weights,
    feature_importances,
    find_split,
    fit_ensemble,
    fit_tree,
    impurity,
    model_from_json,
    model_to_json,
    predict_batch,
    predict_proba_batch,
    weight_table,
)


def las(n):
    return [LabelAssignment("civil", (f"cat{i}", "x", "y")) for i in range(n)]


def test_gini_values():
    assert impurity([4, 0], "gini") == 0.0
    assert impurity([5, 5], "gini") == 0.5
    assert math.isclose(impurity([2, 1, 1], "gini"), 0.625, abs_tol=1e-15)
    with pytest.raises(ModelError):
        impurity([0, 0], "gini")


def test_impurity_unknown_criterion():
    with pytest.raises(ModelError):
        impurity([1, 1], "mse")


def test_entropy_values():
    assert impurity([4, 0], "entropy") == 0.0
    assert impurity([5, 5], "entropy") == 1.0
    assert math.isclose(impurity([2, 1, 1], "entropy"), 1.5, abs_tol=1e-15)
    with pytest.raises(ModelError):
        impurity([], "entropy")


def test_hyperparams_validation():
    with pytest.raises(ModelError):
        Hyperparams(min_samples_split=1)
    with pytest.raises(ModelError):
        Hyperparams(min_samples_leaf=0)
    with pytest.raises(ModelError):
        Hyperparams(criterion="mse")
    with pytest.raises(ModelError):
        Hyperparams(n_estimators=0)
    with pytest.raises(ModelError):
        Hyperparams(class_weight="auto")


def grower_of(X, y, hyperparams, n_classes=None, class_weights=None, max_features=None):
    """The state fit_ensemble builds for a forest on X and y, with the class
    count taken from y and the class weights from the hyperparameters unless
    given."""
    X = np.asarray(X, dtype=float)
    if n_classes is None:
        n_classes = int(np.max(y)) + 1
    if class_weights is None:
        class_weights = compute_class_weights(np.asarray(y), n_classes, hyperparams.class_weight)
    return Grower.build(X, bin_columns(X), y, n_classes, class_weights, hyperparams, max_features)


def binned_find_split(X, y, hyperparams, rng, class_weights=None, n_classes=None, weight=None):
    """(column, threshold) of find_split over every column of X at a node
    holding every row once, or weight[i] times; the class weights are 1
    unless given. The split's code and left counts are checked against the
    rows whose value is at most the threshold."""
    if class_weights is None:
        class_weights = np.ones(int(np.max(y)) + 1 if n_classes is None else n_classes)
    grower = grower_of(X, y, hyperparams, n_classes, class_weights)
    weight = np.ones(len(y)) if weight is None else np.asarray(weight, dtype=float)
    grower = grower._replace(table=weight_table(grower.weights, int(weight.sum())))
    counts = np.bincount(grower.y, weight, grower.n_classes)
    every = np.arange(grower.X.shape[1]), np.arange(len(y))
    split = find_split(grower, *every, weight, counts, rng)
    if split is None:
        return None
    f, thr, code, left_counts = split
    goes_left = grower.X[:, f] <= thr
    assert ((grower.bins.codes[f] <= code) == goes_left).all()
    recount = np.bincount(grower.y[goes_left], weight[goes_left], grower.n_classes)
    assert (left_counts.dtype, left_counts.tobytes()) == (recount.dtype, recount.tobytes())
    return f, thr


def grown_tree(X, y, hyperparams):
    """The one tree fit_tree grows on every row of X, its generator seeded
    from the hyperparameters."""
    rng = np.random.default_rng(hyperparams.seed)
    return fit_tree(grower_of(X, y, hyperparams), rng, None)


def test_find_split_separable():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    f, thr = binned_find_split(X, y, Hyperparams(), np.random.default_rng(0))
    assert f == 0
    assert 2.0 < thr < 3.0
    left = y[X[:, 0] <= thr]
    right = y[X[:, 0] > thr]
    assert impurity(np.bincount(left), "gini") == 0.0
    assert impurity(np.bincount(right, minlength=2), "gini") == 0.0


def test_find_split_none_cases():
    rng = np.random.default_rng(0)
    pure = binned_find_split(np.array([[1.0], [2.0]]), np.array([1, 1]), Hyperparams(), rng)
    # pure nodes are filtered before find_split in fit_tree; a zero-gain split
    # may still be reported, so only the constant-feature case must be None
    constant = binned_find_split(
        np.array([[3.0], [3.0]]), np.array([0, 1]), Hyperparams(), rng
    )
    assert constant is None
    infeasible = binned_find_split(
        np.array([[1.0], [2.0]]),
        np.array([0, 1]),
        Hyperparams(min_samples_leaf=2),
        rng,
    )
    assert infeasible is None
    assert pure is None or pure[0] == 0


def test_find_split_tie_breaks_lowest_feature():
    # both features separate the classes perfectly; feature 0 must win
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    f, thr = binned_find_split(X, y, Hyperparams(), np.random.default_rng(0))
    assert f == 0
    assert thr == 0.5


def reference_find_split(X, y, hyperparams, rng, sample_weight=None, n_classes=None):
    """The per-feature split search find_split replaced, kept as an oracle:
    each column is sorted and scored on its own, and the random splitter
    sums the left child's weights in sample order."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n_classes is None:
        n_classes = int(y.max()) + 1
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    leaf = hyperparams.min_samples_leaf
    criterion = hyperparams.criterion

    base = np.zeros(n_classes)
    np.add.at(base, y, w)
    total_w = base.sum()
    parent_imp = _impurity_rows(base[None, :], criterion)[0]

    best_dec = -1.0
    best = None
    for f in range(d):
        v = X[:, f]
        if hyperparams.splitter == "best":
            order = np.argsort(v, kind="mergesort")
            sv = v[order]
            if sv[0] == sv[-1]:
                continue
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), y[order]] = w[order]
            cum = np.cumsum(onehot, axis=0)
            pos = np.nonzero(sv[:-1] != sv[1:])[0]
            sizes = pos + 1
            pos = pos[(sizes >= leaf) & (n - sizes >= leaf)]
            if pos.size == 0:
                continue
            left_counts = cum[pos]
            right_counts = base - left_counts
            wl = left_counts.sum(axis=1)
            wr = total_w - wl
            ok = (wl > 0) & (wr > 0)
            if not ok.any():
                continue
            dec = np.full(pos.size, -np.inf)
            dec[ok] = (
                parent_imp
                - (wl[ok] / total_w) * _impurity_rows(left_counts[ok], criterion)
                - (wr[ok] / total_w) * _impurity_rows(right_counts[ok], criterion)
            )
            k = int(np.argmax(dec))
            if dec[k] > best_dec:
                best_dec = float(dec[k])
                mid = (sv[pos[k]] + sv[pos[k] + 1]) / 2.0
                best = (f, float(mid if mid < sv[pos[k] + 1] else sv[pos[k]]))
        else:
            lo, hi = v.min(), v.max()
            if lo == hi:
                continue
            thr = float(rng.uniform(lo, hi))
            left_mask = v <= thr
            nl = int(left_mask.sum())
            if nl < leaf or n - nl < leaf:
                continue
            lc = np.zeros(n_classes)
            np.add.at(lc, y[left_mask], w[left_mask])
            rc = base - lc
            wl, wr = lc.sum(), rc.sum()
            if wl <= 0 or wr <= 0:
                continue
            dec = (
                parent_imp
                - (wl / total_w) * _impurity_rows(lc[None, :], criterion)[0]
                - (wr / total_w) * _impurity_rows(rc[None, :], criterion)[0]
            )
            if dec > best_dec:
                best_dec = float(dec)
                best = (f, thr)
    return best


def reference_apply(tree, X):
    """Leaf index each row of X reaches in one tree, walked one tree at a
    time and one level at a time; kept as the oracle of predict_proba_batch's
    packed walk. value <= threshold goes left, so NaN goes right."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    idx = np.zeros(len(X), dtype=np.int64)
    active = tree.feature[idx] >= 0
    while active.any():
        rows = np.nonzero(active)[0]
        nid = idx[rows]
        go_left = X[rows, tree.feature[nid]] <= tree.threshold[nid]
        idx[rows] = np.where(go_left, tree.left[nid], tree.right[nid])
        active[rows] = tree.feature[idx[rows]] >= 0
    return idx


def reference_predict_proba(model, X):
    """The per-tree loop predict_proba_batch replaced: each tree's weighted
    leaf distribution, added in tree order and divided by the tree count."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    means = []
    for table in model.forests:
        acc = np.zeros((len(X), len(table.weights)))
        for tree in table.trees():
            weighted = tree.counts[reference_apply(tree, X)] * table.weights
            acc += weighted / weighted.sum(axis=1, keepdims=True)
        means.append(acc / len(table.roots))
    if model.strategy == "mts":
        return means[0]
    return np.column_stack([m[:, 1] for m in means])


def _split_decrease(X, y, w, n_classes, split, criterion):
    f, thr = split
    go_left = X[:, f] <= thr
    counts = [np.bincount(y[m], weights=w[m], minlength=n_classes) for m in (go_left, ~go_left)]
    parent = sum(counts)
    return impurity(parent, criterion) - sum(
        c.sum() / parent.sum() * impurity(c, criterion) for c in counts
    )


def _oracle_case(seed):
    rng = np.random.default_rng(seed)
    n, d, n_classes = int(rng.integers(2, 60)), int(rng.integers(1, 8)), int(rng.integers(2, 6))
    if seed % 2:
        X = rng.integers(0, 4, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    return X, rng.integers(0, n_classes, size=n), n_classes


def _compare_with_reference(cases):
    """(case, criterion, leaf) of each random-splitter, balanced-weight
    result that differs from the reference by an exact tie; every other
    result must equal the reference's."""
    flips = []
    for case, (X, y, n_classes) in cases:
        for splitter, criterion, leaf, class_weight in itertools.product(
            ("best", "random"), ("gini", "entropy"), (1, 2, 3), (None, "balanced")
        ):
            hp = Hyperparams(splitter=splitter, criterion=criterion, min_samples_leaf=leaf)
            weights = compute_class_weights(y, n_classes, class_weight)
            w = weights[y]
            got = binned_find_split(X, y, hp, np.random.default_rng(case), weights, n_classes)
            want = reference_find_split(X, y, hp, np.random.default_rng(case), w, n_classes)
            if splitter == "random" and class_weight == "balanced" and got != want:
                # find_split takes the right child's weight as the total
                # minus the left's, the reference sums it over classes; the
                # last-bit difference can flip an exact tie between two
                # equally good splits
                assert abs(
                    _split_decrease(X, y, w, n_classes, got, criterion)
                    - _split_decrease(X, y, w, n_classes, want, criterion)
                ) <= 1e-12
                flips.append((case, criterion, leaf))
            else:
                assert got == want, (case, splitter, criterion, leaf, class_weight)
    return flips


def test_find_split_matches_per_feature_reference():
    flips = _compare_with_reference((seed, _oracle_case(seed)) for seed in range(150))
    assert flips == [(148, "gini", 1), (148, "gini", 2), (148, "entropy", 1), (148, "entropy", 2)]


def _count_case(seed):
    """Heavily tied count columns of very different widths, as n-gram
    counts and entity codes are: a constant column, rare and common
    Poisson counts, and one real-valued column as wide as the node."""
    rng = np.random.default_rng(seed)
    n, n_classes = int(rng.integers(2, 80)), int(rng.integers(2, 6))
    y = rng.integers(0, n_classes, size=n)
    X = np.column_stack(
        [
            np.full(n, 2.0),
            rng.poisson(0.1, size=n),
            rng.poisson(0.7, size=n) + y * (seed % 3 == 0),
            rng.poisson(6.0, size=n),
            rng.integers(0, 3, size=n),
            rng.normal(size=n),
        ]
    ).astype(float)
    return X, y, n_classes


def test_find_split_matches_reference_on_tied_counts():
    flips = _compare_with_reference((seed, _count_case(seed)) for seed in range(80))
    assert flips == [(42, "entropy", 3)]


def test_weight_table_is_sequential_sum_of_class_weights():
    y = np.random.default_rng(4).integers(0, 5, size=97)
    weights = compute_class_weights(y, 6, "balanced")  # class 5 absent: weight 0
    table = weight_table(weights, len(y))
    assert table.shape == (6, len(y) + 1)
    for c, w_c in enumerate(weights):
        total = 0.0
        assert table[c, 0] == 0.0
        for k in range(1, len(y) + 1):
            total += w_c
            assert table[c, k] == total, (c, k)


def test_bin_columns_codes_and_widths():
    rng = np.random.default_rng(0)
    for width, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16)):
        wide = rng.permutation(width).astype(float) / 7.0
        X = np.column_stack([np.resize(wide, 300), np.full(300, -1.5), np.resize(wide[:3], 300)])
        codes, values, widths, starts = bin_columns(X)
        # column-major: one contiguous row of codes per column of X
        assert codes.dtype == dtype and codes.shape == X.T.shape and codes.flags.c_contiguous
        # each column takes only as many bins as it has distinct values
        assert widths.tolist() == [width, 1, min(width, 3)]
        assert len(values) == widths.sum()
        assert starts.tolist() == [0, width, width + 1]
        for j, start in enumerate(starts):
            column = values[start : start + widths[j]]
            assert column.tolist() == np.unique(X[:, j]).tolist()
            assert (column[codes[j]] == X[:, j]).all()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_training_matrix_rejected(bad):
    # (1 + inf) / 2 = inf would send every row left and split the same node
    # forever, so a non-finite matrix must be refused before any split
    X = np.tile([0.0, 1.0, bad, bad], 5)[:, None]
    y = np.arange(20) % 2
    with within_seconds(5), pytest.raises(ModelError, match="finite"):
        fit_ensemble(X, _label_sets_for(y, las(2)), Hyperparams(), "dt", "mts")
    with within_seconds(5), pytest.raises(ModelError, match="finite"):
        bin_columns(X)


@pytest.mark.parametrize("variant", ["rf", "eetc"])
def test_fit_tree_passes_only_candidate_columns(variant, monkeypatch):
    widths = []

    def counting_find_split(grower, cands, *args, **kwargs):
        widths.append(len(cands))
        return find_split(grower, cands, *args, **kwargs)

    monkeypatch.setattr(trees, "find_split", counting_find_split)
    rng = np.random.default_rng(1)
    X = rng.integers(0, 5, size=(90, 16)).astype(float)
    y = (X[:, 3] + X[:, 11] > 4).astype(int) + (X[:, 7] > 2)
    fit_ensemble(X, _label_sets_for(y, las(3)), Hyperparams(n_estimators=3, seed=2), variant, "mts")
    assert len(widths) > 3 and set(widths) == {4}


def _separable_data(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.where(X[:, 0] < 0, 0, np.where(X[:, 1] < 0, 1, 2))
    return X, y


def test_fit_tree_fits_separable_data():
    X, y = _separable_data()
    tree = grown_tree(X, y, Hyperparams(max_depth=None, seed=1))
    leaves = reference_apply(tree, X)
    preds = tree.counts[leaves].argmax(axis=1)
    assert (preds == y).all()


def test_fit_tree_depth_zero_is_majority_leaf():
    X, y = _separable_data()
    tree = grown_tree(X, y, Hyperparams(max_depth=0))
    assert tree.n_nodes == 1
    assert tree.feature[0] == -1
    assert tree.counts[0].argmax() == np.bincount(y).argmax()


def test_fit_tree_deterministic():
    X, y = _separable_data()
    hp = Hyperparams(splitter="random", seed=9)
    t1 = fit_tree(grower_of(X, y, hp), np.random.default_rng(9), None)
    t2 = fit_tree(grower_of(X, y, hp), np.random.default_rng(9), None)
    assert (t1.feature == t2.feature).all()
    assert (t1.threshold[t1.feature >= 0] == t2.threshold[t2.feature >= 0]).all()


def test_fit_tree_invariant_to_document_order():
    X, y = _separable_data()
    perm = np.random.default_rng(3).permutation(len(y))
    t1 = grown_tree(X, y, Hyperparams(seed=0))
    t2 = grown_tree(X[perm], y[perm], Hyperparams(seed=0))
    assert (t1.feature == t2.feature).all()
    assert np.array_equal(t1.threshold, t2.threshold, equal_nan=True)
    assert (t1.counts == t2.counts).all()


@pytest.mark.parametrize("splitter", ["best", "random"])
def test_fit_tree_on_rows_equals_fit_on_copied_rows(splitter):
    # a sample grown as (distinct row, multiplicity) pairs must count every
    # drawn copy in node sizes, min_samples_split, min_samples_leaf and the
    # stored class counts
    X, y = _separable_data()
    X = np.column_stack([X, np.round(X * 3)])  # two heavily tied columns
    draw = np.random.default_rng(5)
    samples = {
        "bootstrap": draw.integers(0, len(y), size=len(y)),
        "12 rows drawn 10 times each on average": draw.choice(len(y), 12)[
            draw.integers(0, 12, size=len(y))
        ],
    }
    for criterion, class_weight, (name, rows), leaf in itertools.product(
        trees.CRITERIA, (None, "balanced"), samples.items(), range(1, 6)
    ):
        case = (criterion, class_weight, name, leaf)
        hp = Hyperparams(
            splitter=splitter,
            criterion=criterion,
            class_weight=class_weight,
            min_samples_leaf=leaf,
            min_samples_split=3 * leaf,
        )
        weights = compute_class_weights(y, 3, class_weight)
        on_rows, on_copy = (
            fit_tree(grower_of(*data, hp, 3, weights, max_features=2), np.random.default_rng(2), r)
            for data, r in (((X, y), rows), ((X[rows], y[rows]), None))
        )
        assert on_rows.n_nodes > 1, case
        assert json.dumps(tree_lists(on_rows)) == json.dumps(tree_lists(on_copy)), case


def test_random_splitter_draws_in_nodes_too_small_to_split():
    # the best splitter may give up on a node of fewer than 2 *
    # min_samples_leaf samples before searching; the random one must still
    # draw its thresholds there, or every later draw of the tree moves
    X = np.array([[0.0, 5.0, 1.0], [1.0, 6.0, 1.0], [2.0, 5.5, 1.0], [3.0, 7.0, 1.0]])
    y = np.array([0, 1, 0, 1])
    for weight in (None, [1, 2, 1, 1]):
        hp = Hyperparams(splitter="random", min_samples_leaf=3)
        rng = np.random.default_rng(7)
        assert binned_find_split(X, y, hp, rng, weight=weight) is None
        expected = np.random.default_rng(7)
        expected.uniform([0.0, 5.0], [3.0, 7.0])  # the constant column draws nothing
        assert rng.bit_generator.state == expected.bit_generator.state
        best, hp = np.random.default_rng(7), dataclasses.replace(hp, splitter="best")
        assert binned_find_split(X, y, hp, best, weight=weight) is None
        assert best.bit_generator.state == np.random.default_rng(7).bit_generator.state


def test_find_split_counts_multiplicities():
    # a node of distinct rows with multiplicities splits as the node that
    # holds each row that many times
    X, y = _separable_data(n=40, seed=3)
    X = np.round(X * 4)
    weight = np.random.default_rng(8).integers(1, 5, size=len(y))
    copies = np.repeat(np.arange(len(y)), weight)
    for splitter, criterion, leaf, class_weight in itertools.product(
        trees.SPLITTERS, trees.CRITERIA, (1, 3, 6, 60, 100), (None, "balanced")
    ):
        hp = Hyperparams(
            splitter=splitter, criterion=criterion, min_samples_leaf=leaf, class_weight=class_weight
        )
        weights = compute_class_weights(y[copies], 3, class_weight)
        got = binned_find_split(X, y, hp, np.random.default_rng(leaf), weights, 3, weight)
        want = binned_find_split(X[copies], y[copies], hp, np.random.default_rng(leaf), weights, 3)
        assert got == want, (splitter, criterion, leaf, class_weight)


def reference_fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    hyperparams: Hyperparams,
    rng: np.random.Generator | None = None,
    n_classes: int | None = None,
    class_weights: np.ndarray | None = None,
    max_features: int | None = None,
    rows: np.ndarray | None = None,
    bins: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Tree:
    """The grower fit_tree replaced, kept verbatim as its oracle: it builds
    the class-weight check and the weight table per tree, links children
    through an is_left flag and sums each node's multiplicities.

    Grow one tree on integer class labels, over the given rows of X and
    y (repeats allowed, as in a bootstrap sample; every row once by default).

    The sample is carried as its distinct rows, sorted, with how often each
    was drawn: node sizes, min_samples_split, min_samples_leaf and the class
    counts stored in Tree.counts all count a row as often as it was drawn.
    bins is bin_columns(X), built here when not given, so an ensemble bins
    its matrix once for all its trees and forests.
    Nodes are created in preorder, which fixes both the node ids and the
    order of random draws, so the same seed always yields the same tree.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int32)
    if X.ndim != 2 or len(X) == 0 or len(X) != len(y):
        raise ModelError("training data must be a nonempty matrix with one label per row")
    if rng is None:
        rng = np.random.default_rng(hyperparams.seed)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    if class_weights is None:
        class_weights = compute_class_weights(y, n_classes, hyperparams.class_weight)
    class_weights = np.asarray(class_weights, dtype=float)
    if class_weights.shape != (n_classes,):
        raise ModelError(f"need {n_classes} class weights, one per class, got {class_weights.size}")
    # find_split needs every class that holds a sample to weigh more than 0
    finite = np.isfinite(class_weights).all()
    if not finite or class_weights.min() < 0 or class_weights[y].min() <= 0:
        raise ModelError("class weights must be finite, nonnegative and positive for each class in y")
    drawn = np.ones(len(X)) if rows is None else np.bincount(rows, minlength=len(X)).astype(float)
    (root,) = np.nonzero(drawn)
    bins = bin_columns(X) if bins is None else bins
    table = weight_table(class_weights, int(drawn.sum()))
    state = Grower(X, bins, y, n_classes, class_weights, table, hyperparams, max_features)
    d = X.shape[1]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    depth_arr: list[int] = []
    counts_arr: list[np.ndarray] = []

    # frames: (distinct rows, their multiplicities, depth, parent id, is_left_child)
    stack = [(root, drawn[root], 0, -1, False)]
    while stack:
        idx, weight, depth, parent, is_left = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = node_id
            else:
                right[parent] = node_id
        y_node = y[idx]
        counts = np.bincount(y_node, weights=weight, minlength=n_classes)
        feature.append(-1)
        threshold.append(float("nan"))
        left.append(-1)
        right.append(-1)
        depth_arr.append(depth)
        counts_arr.append(counts)

        if weight.sum() < hyperparams.min_samples_split:
            continue
        if hyperparams.max_depth is not None and depth >= hyperparams.max_depth:
            continue
        if (counts > 0).sum() <= 1:
            continue
        cands = np.arange(d)
        if max_features is not None and max_features < d:
            cands = np.sort(rng.choice(d, size=max_features, replace=False))
        split = find_split(state, cands, idx, weight, counts, rng)
        if split is None:
            continue
        f, thr, _, _ = split
        feature[node_id] = f
        threshold[node_id] = thr
        mask = X[idx, f] <= thr
        # right pushed first so the left subtree is built (and numbered) first
        stack.append((idx[~mask], weight[~mask], depth + 1, node_id, False))
        stack.append((idx[mask], weight[mask], depth + 1, node_id, True))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        depth=np.asarray(depth_arr, dtype=np.int32),
        counts=np.vstack(counts_arr),
    )


@st.composite
def grower_cases(draw):
    """(X, y, n_classes) of a small drawn training set: constant, binary,
    count-like and real-valued columns, so ties and single-value columns are
    common, and labels that may leave classes absent."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["constant", "binary", "counts", "real"]),
                              min_size=d, max_size=d)):
        if kind == "constant":
            columns.append([float(draw(st.integers(-2, 2)))] * n)
            continue
        values = {
            "binary": st.integers(0, 1),
            "counts": st.integers(0, 6),
            "real": st.floats(-100, 100, allow_nan=False),
        }[kind]
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    n_classes = draw(st.integers(2, 4))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    return np.array(columns, dtype=float).T, y, n_classes


@settings(max_examples=250, deadline=None)
@given(case=grower_cases(), data=st.data())
def test_fit_tree_equals_the_reference_grower(case, data):
    X, y, n_classes = case
    n, d = X.shape
    hp = Hyperparams(
        class_weight=data.draw(st.sampled_from([None, "balanced"])),
        max_depth=data.draw(st.one_of(st.none(), st.integers(0, 3))),
        min_samples_split=data.draw(st.integers(2, 4)),
        min_samples_leaf=data.draw(st.integers(1, 3)),
        criterion=data.draw(st.sampled_from(CRITERIA)),
        splitter=data.draw(st.sampled_from(trees.SPLITTERS)),
        seed=data.draw(st.integers(0, 2**32)),
    )
    max_features = data.draw(st.one_of(st.none(), st.integers(1, d)))
    # a sample with repeats, as a bootstrap draws it, or every row once
    rows = data.draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), min_size=1,
                                                   max_size=2 * n).map(np.array)))
    weights = compute_class_weights(y, n_classes, hp.class_weight)

    want = reference_fit_tree(
        X, y, hp, np.random.default_rng(hp.seed), n_classes, weights, max_features, rows
    )
    # as a forest grows it, from one state; a drawn sample may outgrow len(y)
    grower = grower_of(X, y, hp, n_classes, weights, max_features)
    grower = grower._replace(table=weight_table(weights, n if rows is None else len(rows)))
    got = fit_tree(grower, np.random.default_rng(hp.seed), rows)
    for f in dataclasses.fields(Tree):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


@settings(max_examples=150, deadline=None)
@given(case=grower_cases(), data=st.data())
def test_fit_tree_counts_are_recounts_of_the_rows_reaching_each_node(case, data):
    """fit_tree counts only the root and carries each child's class counts
    from its parent's split: every node's stored counts must still equal the
    multiplicity-weighted recount of the drawn rows whose path, value <=
    threshold going left, reaches it."""
    X, y, n_classes = case
    n, d = X.shape
    hp = Hyperparams(
        min_samples_split=data.draw(st.integers(2, 4)),
        min_samples_leaf=data.draw(st.integers(1, 3)),
        criterion=data.draw(st.sampled_from(CRITERIA)),
        splitter=data.draw(st.sampled_from(trees.SPLITTERS)),
    )
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    weights = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]),
                                          min_size=n_classes, max_size=n_classes)))
    grower = grower_of(X, y, hp, n_classes, weights, data.draw(st.integers(1, d)))
    grower = grower._replace(table=weight_table(weights, len(rows)))
    tree = fit_tree(grower, np.random.default_rng(data.draw(st.integers(0, 2**32))), rows)
    drawn = np.bincount(rows, minlength=n).astype(float)
    reaches = {0: drawn > 0}
    for node in range(tree.n_nodes):
        reach = reaches.pop(node)
        recount = np.bincount(y[reach], drawn[reach], n_classes)
        assert tree.counts[node].tobytes() == recount.tobytes(), node
        if tree.feature[node] >= 0:
            goes_left = X[:, tree.feature[node]] <= tree.threshold[node]
            reaches[tree.left[node]] = reach & goes_left
            reaches[tree.right[node]] = reach & ~goes_left
    assert not reaches


@settings(max_examples=150, deadline=None)
@given(case=grower_cases(), seed=st.integers(0, 2**32))
def test_find_split_equals_the_per_feature_reference(case, seed):
    # every splitter, criterion, leaf size and class weighting on drawn data;
    # the one exception _compare_with_reference allows is a random-splitter,
    # balanced-weight exact tie, and it asserts that tie within 1e-12
    _compare_with_reference([(seed, case)])


def test_fit_tree_empty_errors():
    X = np.zeros((0, 2))
    with pytest.raises(ModelError, match="nonempty matrix"):
        Grower.build(X, bin_columns(X), np.zeros(0, dtype=int), 2, np.ones(2), Hyperparams(), None)


@pytest.mark.parametrize(
    "weights",
    [[0.0, 1.0], [1.0, 0.0], [-1.0, 1.0], [np.nan, 1.0], [1.0, np.inf], [1.0, 1.0, -0.5]],
    ids=["zero_minority", "zero_majority", "negative", "nan", "inf", "negative_absent"],
)
def test_fit_tree_refuses_class_weights_find_split_cannot_score(weights):
    # a zero weight on class 0 gave its one-row child weight 0, a NaN
    # impurity decrease, and that split chosen through np.argmax
    X, y = np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 1, 1, 1])
    with pytest.raises(ModelError, match="class weights"):
        grower_of(X, y, Hyperparams(), len(weights), np.array(weights))


@pytest.mark.parametrize("n_classes,weights", [(3, [1.0, 1.0]), (2, [1.0, 1.0, 1.0])],
                         ids=["too_few", "too_many"])
def test_fit_tree_refuses_class_weights_not_one_per_class(n_classes, weights):
    # too few escaped as a bare IndexError, too many were accepted
    X, y = np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 1, 1, 1])
    with pytest.raises(ModelError, match=f"need {n_classes} class weights"):
        grower_of(X, y, Hyperparams(), n_classes, np.array(weights))


def test_fit_tree_accepts_zero_weight_for_an_absent_class():
    X, y = np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 1, 1, 1])
    grower = grower_of(X, y, Hyperparams(), 3, np.array([1.0, 1.0, 0.0]))
    tree = fit_tree(grower, np.random.default_rng(0), None)
    assert tree.counts[0].tolist() == [1.0, 3.0, 0.0]


def test_balanced_weights_invariant():
    y = np.array([0, 0, 0, 1, 2, 2])
    w = compute_class_weights(y, 3, "balanced")
    counts = np.bincount(y, minlength=3)
    assert math.isclose((w * counts).sum(), len(y), abs_tol=1e-12)
    assert compute_class_weights(y, 3, None).tolist() == [1.0, 1.0, 1.0]


def _label_sets_for(y, classes):
    return [(classes[v],) for v in y]


def test_fit_ensemble_rf_reduces_to_dt():
    X, y = _separable_data(80)
    classes = las(3)
    sets = _label_sets_for(y, classes)
    hp = Hyperparams(n_estimators=1, seed=4)
    dt = fit_ensemble(X, sets, hp, "dt", "mts")
    # rf's recipe with its bootstrap and column sampling switched off
    rf_hp, bootstrap, max_features, n_trees = trees._variant_knobs("rf", hp, X.shape[1])
    assert (bootstrap, max_features, n_trees) == (True, 1, 1)
    table = trees._fit_forest(grower_of(X, y, rf_hp, 3), n_trees, False, 0)
    rf = dataclasses.replace(dt, variant="rf", hyperparams=rf_hp, forests=[table])
    assert model_to_json(rf).replace('"variant":"rf"', '"variant":"dt"') == model_to_json(dt)


def test_fit_ensemble_etc_is_one_extra_tree():
    # etc is a single extremely randomised tree: eetc grown with one tree
    X, y = _separable_data(80)
    sets = _label_sets_for(y, las(3))
    hp = Hyperparams(n_estimators=1, seed=4)
    etc = fit_ensemble(X, sets, hp, "etc", "mts")
    eetc = fit_ensemble(X, sets, hp, "eetc", "mts")
    assert model_to_json(etc).replace('"variant":"etc"', '"variant":"eetc"') == model_to_json(eetc)
    dt = fit_ensemble(X, sets, hp, "dt", "mts")
    assert model_to_json(etc).replace('"variant":"etc"', '"variant":"dt"') != model_to_json(dt)


def test_fit_ensemble_bts_forest_count():
    X, y = _separable_data(60)
    classes = las(3)
    sets = _label_sets_for(y, classes)
    model = fit_ensemble(X, sets, Hyperparams(n_estimators=5, seed=0), "rf", "bts")
    assert len(model.forests) == 3
    assert len(model.trees) == 15


def test_fit_ensemble_bins_the_matrix_once(monkeypatch):
    # every class forest of a bts fit grows on the same matrix
    calls = []

    def counting(X, _original=trees.bin_columns):
        calls.append(X.shape)
        return _original(X)

    monkeypatch.setattr(trees, "bin_columns", counting)
    X, y = _separable_data(60)
    sets = _label_sets_for(y, las(3))
    for strategy in ("mts", "bts"):
        calls.clear()
        model = fit_ensemble(X, sets, Hyperparams(n_estimators=2, seed=0), "rf", strategy)
        assert calls == [X.shape], strategy
    assert len(model.forests) == 3


def test_single_tree_variants_ignore_estimators():
    X, y = _separable_data(60)
    sets = _label_sets_for(y, las(3))
    model = fit_ensemble(X, sets, Hyperparams(n_estimators=50, seed=0), "dt", "mts")
    assert len(model.trees) == 1


def _query_rows(model, X, n, rng):
    """n rows drawn from X, each with one value set exactly on one of the
    model's split thresholds (ties go left) and every third with one value
    set to NaN (NaN goes right)."""
    rows = X[rng.integers(0, len(X), size=n)].copy()
    splits = [
        (f, thr) for tree in model.trees for f, thr in zip(tree.feature, tree.threshold) if f >= 0
    ]
    for i in range(n):
        f, thr = splits[rng.integers(len(splits))]
        rows[i, f] = thr
        if i % 3 == 0:
            rows[i, rng.integers(X.shape[1])] = np.nan
    return rows


@pytest.mark.parametrize("strategy", ["mts", "bts"])
@pytest.mark.parametrize("variant", ["dt", "etc", "eetc", "rf"])
def test_predict_proba_batch_bytes_equal_reference(strategy, variant):
    rng = np.random.default_rng(8)
    X = rng.poisson(1.0, size=(150, 6)).astype(float)
    y = (X[:, 0] > 1).astype(int) + (X[:, 2] + X[:, 4] > 2)
    hp = Hyperparams(n_estimators=15, seed=3, class_weight="balanced")
    model = fit_ensemble(X, _label_sets_for(y, las(3)), hp, variant, strategy)
    for n in (1, 500):
        rows = _query_rows(model, X, n, rng)
        assert np.isnan(rows).any()
        got = predict_proba_batch(model, rows)
        assert got.tobytes() == reference_predict_proba(model, rows).tobytes()
        loaded = model_from_json(model_to_json(model))
        assert predict_proba_batch(loaded, rows).tobytes() == got.tobytes()


def _shared_column_batches(model, X, rng):
    """Batches tiled from one base row of X, each row with a random subset of
    columns taken from a random row of X, named by what the columns every
    row shares hold. Returns (name, batch, column or None), the column
    being one a random tree's root splits on."""
    d = X.shape[1]
    root = model.trees[rng.integers(len(model.trees))]  # a split every row reaches
    split_col, split_thr = int(root.feature[0]), float(root.threshold[0])
    assert split_col >= 0

    def tiled(base, n=50):  # n rows that share split_col, and maybe other columns
        rows = np.tile(base, (n, 1))
        others = [c for c in range(d) if c != split_col]
        varied = rng.choice(others, size=rng.integers(1, len(others) + 1), replace=False)
        rows[:, varied] = X[rng.integers(0, len(X), size=n)][:, varied]
        return rows

    base = X[rng.integers(len(X))].copy()
    signed_zero = tiled(base)
    signed_zero[:, split_col] = np.where(np.arange(50) % 2, 0.0, -0.0)
    # split_col varies, but every row is on one side of the root's threshold
    left_side, right_side, nan_mixed = tiled(base), tiled(base), tiled(base)
    left_side[:, split_col] = split_thr - rng.random(50)
    left_side[0, split_col] = split_thr
    right_side[:, split_col] = np.nextafter(split_thr, np.inf) + rng.random(50)
    # ...and one that must be walked: the first row ties, the rest go right
    from_threshold = right_side.copy()
    from_threshold[0, split_col] = split_thr
    nan_mixed[:, split_col] = np.where(np.arange(50) % 2, X[:50, split_col], np.nan)
    # an explained document's perturbed copies: its nonzero counts zeroed at random
    perturbed = np.tile(base, (500, 1))
    perturbed[:, base != 0] *= rng.random((500, int((base != 0).sum()))) >= 0.5
    cases = [
        ("identical_1", np.tile(base, (1, 1)), None),
        ("identical_50", np.tile(base, (50, 1)), None),
        ("none_shared", X[rng.integers(0, len(X), size=50)] + rng.random((50, d)), None),
        ("signed_zero", signed_zero, split_col),
        ("left_side", left_side, split_col),
        ("right_side", right_side, split_col),
        ("from_threshold", from_threshold, split_col),
        ("nan_mixed", nan_mixed, split_col),
        ("perturbed_500", perturbed, None),
        ("varied_500", tiled(base, 500), split_col),
        ("empty", np.empty((0, d)), None),
    ]
    # "inf" is an all-+inf column
    for name, value in (("nan", np.nan), ("inf", np.inf), ("at_threshold", split_thr)):
        row = base.copy()
        row[split_col] = value
        cases.append((name, tiled(row), split_col))
    return cases


@pytest.mark.parametrize("strategy", ["mts", "bts"])
@pytest.mark.parametrize("variant", ["dt", "etc", "eetc", "rf"])
def test_predict_proba_batch_with_shared_columns_bytes_equal_reference(strategy, variant):
    rng = np.random.default_rng(21)
    X = rng.poisson(1.5, size=(160, 8)).astype(float)
    y = (X[:, 0] > 1).astype(int) + (X[:, 3] + X[:, 5] > 3)
    hp = Hyperparams(n_estimators=15, seed=4, class_weight="balanced")
    sets = _label_sets_for(y, las(3))
    model = fit_ensemble(X, sets, hp, variant, strategy)
    for name, rows, col in _shared_column_batches(model, X, rng):
        shared = (rows == rows[:1]).all(axis=0)
        if name == "none_shared":
            assert not shared.any()
        elif name in ("left_side", "right_side", "from_threshold", "nan_mixed"):
            assert not shared[col], name
        elif col is not None:  # NaN != NaN, so a NaN column's splits are walked
            assert shared[col] != (name == "nan"), name
        got = predict_proba_batch(model, rows)
        want = reference_predict_proba(model, rows)
        assert got.shape == want.shape == (len(rows), want.shape[1]), name
        assert got.tobytes() == want.tobytes(), name
    # every document holds one label set: under mts a 1-output forest (the
    # one shape whose tree sums are pairwise), under bts one 2-output forest
    single = fit_ensemble(X, [sets[0]] * len(X), hp, variant, strategy)
    assert single.forests[0].dist.shape[1] == (1 if strategy == "mts" else 2)
    for m in (single, model):
        for n in (1, 500):
            rows = X[rng.integers(0, len(X), size=n)]
            got = predict_proba_batch(m, rows)
            assert got.tobytes() == reference_predict_proba(m, rows).tobytes(), n


def _settle_batches(table, X, rng):
    """Batches drawn from X whose columns are each as drawn, all on one of
    the column's split thresholds, on and below one, on and above one, or
    every other row NaN, so many splits settle and many ties sit on the
    range's ends."""
    d = X.shape[1]
    for n in (0, 1, 2, 5, 50):
        rows = X[rng.integers(0, len(X), size=n)].copy()
        for c in range(d):
            thresholds = table.walk_threshold[table.walk_feature == c]
            thresholds = thresholds[np.isfinite(thresholds)]
            kind = int(rng.integers(5))  # as drawn, on, on and below, on and above, NaN
            if kind == 4:
                rows[::2, c] = np.nan
            elif kind and len(thresholds):
                thr = rng.choice(thresholds)
                rows[:, c] = thr + (0, 0, -1, 1)[kind] * rng.random(n)
                rows[:1, c] = thr
        yield rows


@pytest.mark.parametrize("seed", range(4))
def test_settle_maps_each_split_to_the_child_every_row_takes(seed):
    rng = np.random.default_rng(seed)
    X = rng.poisson(1.5, size=(160, 6)).astype(float)
    y = (X[:, 0] > 1).astype(int) + (X[:, 3] + X[:, 5] > 3)
    hp = Hyperparams(n_estimators=10, seed=seed)
    model = fit_ensemble(X, _label_sets_for(y, las(3)), hp, "rf", "mts")
    table = model.forests[0]
    own = np.arange(len(table.leaf))
    for rows in _settle_batches(table, X, rng):
        # (rows, nodes); NaN goes right
        go_left = rows[:, table.walk_feature] <= table.walk_threshold
        same = go_left.all(axis=0) | (~go_left).all(axis=0)
        nan = np.isnan(rows).any(axis=0)[table.walk_feature]
        want = np.where(same & ~nan, table.children[2 * own + go_left.all(axis=0)], own)
        assert (trees._settle(table, np.ascontiguousarray(rows)) == want).all(), len(rows)
        got = predict_proba_batch(model, rows)
        assert got.tobytes() == reference_predict_proba(model, rows).tobytes(), len(rows)


@functools.lru_cache(maxsize=None)
def small_model(kind: str):
    """A 12-tree rf model on 120 rows of 6 Poisson count columns: "mts",
    "bts", or "mts_one_label", an mts model whose documents all hold one
    label set, so its forest has a single output."""
    rng = np.random.default_rng(5)
    X = rng.poisson(1.5, size=(120, 6)).astype(float)
    y = (X[:, 0] > 1).astype(int) + (X[:, 3] + X[:, 5] > 3)
    sets = _label_sets_for(y, las(3))
    if kind == "mts_one_label":
        sets = [sets[0]] * len(sets)
    hp = Hyperparams(n_estimators=12, seed=5)
    return fit_ensemble(X, sets, hp, "rf", "bts" if kind == "bts" else "mts")


def column_values(model):
    """Values for one column of a drawn row: NaN, infinities, signed zeros,
    the model's split thresholds (ties go left) and small counts."""
    thresholds = sorted(
        {float(thr) for tree in model.trees for f, thr in zip(tree.feature, tree.threshold) if f >= 0}
    )
    return st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, *thresholds]),
        st.integers(0, 6).map(float),
    )


@pytest.mark.parametrize("kind", ["mts", "bts", "mts_one_label"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_predict_proba_batch_rows_do_not_depend_on_their_batch(kind, data):
    # an explanation predicts only the distinct perturbed rows and indexes
    # the result back, so any subset or reordering of a batch must give the
    # same bytes per row as the whole batch
    model = small_model(kind)
    d = len(model.feature_names)
    n = data.draw(st.integers(1, 30))
    rows = np.array(data.draw(st.lists(column_values(model), min_size=n * d, max_size=n * d)))
    rows = rows.reshape(n, d)
    idx = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    whole = predict_proba_batch(model, rows)
    got = predict_proba_batch(model, rows[idx])
    assert got.shape == (len(idx), whole.shape[1])
    assert got.tobytes() == whole[idx].tobytes()


def pack_trees(forest, weights, n_features):
    """One forest's node table packed from hand-built trees, concatenated
    tree after tree as a fit's are."""
    nodes = [np.concatenate([getattr(t, f.name) for t in forest]) for f in dataclasses.fields(Tree)]
    return trees._pack_forest([t.n_nodes for t in forest], nodes, weights, n_features)


def _forest_model(forest, n_features=None):
    """An mts dt model of the given trees, with unit class weights and, by
    default, as many columns as the trees split on."""
    classes = las(forest[0].counts.shape[1])
    if n_features is None:
        n_features = max(1, max(int(tree.feature.max()) + 1 for tree in forest))
    return EnsembleModel(
        variant="dt",
        strategy="mts",
        hyperparams=Hyperparams(),
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        class_catalog=ClassCatalog(tuple(sorted(classes, key=lambda a: a.key()))),
        mts_catalog=MtsCatalog(tuple((c,) for c in classes)),
        forests=[pack_trees(forest, np.ones(len(classes)), n_features)],
    )


def _one_tree_model(tree):
    return _forest_model([tree])


@st.composite
def fitted_models(draw):
    """A model fitted on small drawn data: tied and constant columns, labels
    that leave classes absent, every variant, strategy and hyperparameter in
    range. Half are loaded back with every zero count written as -0.0, which
    a model file may hold and a loop adds to 0.0 as 0.0."""
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    hp = Hyperparams(
        class_weight=draw(st.sampled_from([None, "balanced"])),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 4))),
        min_samples_split=draw(st.integers(2, 5)),
        min_samples_leaf=draw(st.integers(1, 3)),
        criterion=draw(st.sampled_from(CRITERIA)),
        splitter=draw(st.sampled_from(trees.SPLITTERS)),
        n_estimators=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32)),
    )
    variant, strategy = draw(st.sampled_from(VARIANTS)), draw(st.sampled_from(STRATEGIES))
    model = fit_ensemble(X.reshape(n, d), _label_sets_for(y, las(4)), hp, variant, strategy)
    if draw(st.booleans()):
        obj = json.loads(model_to_json(model))
        for forest in obj["forests"]:
            forest["counts"] = [[-0.0 if c == 0 else c for c in row] for row in forest["counts"]]
        model = model_from_json(json.dumps(obj))
    return model


def perturbed_copies(model, data, n):
    """n copies of one drawn row, each with drawn columns zeroed, as an
    explanation perturbs a document: most splits settle, every row of a
    tree starts on one node, and some trees reach their leaves in one step
    while others walk on."""
    d = len(model.feature_names)
    base = np.array(data.draw(st.lists(column_values(model), min_size=d, max_size=d)))
    zeroed = np.array(data.draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)))
    return np.where(zeroed.reshape(n, d), 0.0, base)


@settings(max_examples=80, deadline=None)
@given(model=fitted_models(), data=st.data())
def test_predict_proba_batch_equals_the_loop_on_fitted_models(model, data):
    d = len(model.feature_names)
    n = data.draw(st.integers(0, 12))
    if data.draw(st.booleans()):
        rows = perturbed_copies(model, data, n)
    else:
        rows = data.draw(st.lists(column_values(model), min_size=n * d, max_size=n * d))
        rows = np.array(rows, dtype=float).reshape(n, d)
    got = predict_proba_batch(model, rows)
    want = reference_predict_proba(model, rows)
    assert got.shape == want.shape == (n, want.shape[1])
    assert got.tobytes() == want.tobytes()
    # an explanation asks only for the classes it explains
    width = want.shape[1]
    classes = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
    got = predict_proba_batch(model, rows, classes)
    assert got.shape == (n, len(classes))
    assert got.tobytes() == want[:, classes].tobytes()


def test_one_row_of_one_class_sums_the_trees_in_order():
    # numpy sums a gather of one row and one output pairwise, which from 8
    # trees on differs from adding in tree order; the property's models
    # have at most 4 trees, so this case is fixed
    rng = np.random.default_rng(3)
    X = rng.poisson(1.5, size=(150, 6)).astype(float)
    y = (X[:, 0] > 1).astype(int) + (X[:, 3] + X[:, 5] > 3)
    y = np.where(rng.random(150) < 0.3, rng.integers(0, 3, 150), y)  # impure leaves
    hp = Hyperparams(n_estimators=24, seed=3, min_samples_leaf=5, class_weight="balanced")
    model = fit_ensemble(X, _label_sets_for(y, las(3)), hp, "rf", "mts")
    table = model.forests[0]
    row = X[:1]
    dists = []
    for tree in table.trees():
        weighted = tree.counts[reference_apply(tree, row)[0]] * table.weights
        dists.append(weighted / weighted.sum())
    in_order = functools.reduce(operator.add, dists, np.zeros(len(table.weights)))
    pairwise = np.add.reduce(np.array(dists).T.copy(), axis=1)  # each class's trees inner
    # the classes on which the two orders differ
    (differ,) = np.nonzero(in_order != pairwise)
    assert differ.size and len(table.roots) >= 16
    for c in range(len(table.weights)):
        got = predict_proba_batch(model, row, [c])
        assert got.tobytes() == reference_predict_proba(model, row)[:, [c]].tobytes(), c


@pytest.mark.parametrize("strategy", ["mts", "bts"])
@pytest.mark.parametrize("classes", [[], [3], [-1], [0, 3]], ids=["empty", "past", "negative", "one_past"])
def test_predict_proba_batch_refuses_classes_it_has_no_output_for(strategy, classes):
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    y = np.array([0, 1, 2, 0, 1, 2])
    model = fit_ensemble(X, _label_sets_for(y, las(3)), Hyperparams(), "dt", strategy)
    assert predict_proba_batch(model, X).shape == (6, 3)
    with pytest.raises(ModelError, match="output columns below 3"):
        predict_proba_batch(model, X, classes)


def test_predict_proba_nan_goes_right():
    X = np.array([[0.0], [1.0]])
    tree = grown_tree(X, np.array([0, 1]), Hyperparams(seed=0))
    probs = predict_proba_batch(_one_tree_model(tree), np.array([[np.nan], [0.0], [np.inf]]))
    assert probs.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_predict_proba_single_tree_one_hot():
    X, y = _separable_data(100)
    sets = _label_sets_for(y, las(3))
    model = fit_ensemble(X, sets, Hyperparams(seed=0), "dt", "mts")
    probs = predict_proba_batch(model, X[:1])[0]
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)
    assert probs.max() == 1.0  # separable data grows pure leaves


def test_predict_proba_two_trees_mean():
    # two handmade stumps voting for different classes -> (0.5, 0.5)
    leaf = dict(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        depth=np.array([0], dtype=np.int32),
    )
    t1 = Tree(counts=np.array([[3.0, 0.0]]), **leaf)
    t2 = Tree(counts=np.array([[0.0, 5.0]]), **leaf)
    classes = las(2)
    model = EnsembleModel(
        variant="rf",
        strategy="mts",
        hyperparams=Hyperparams(n_estimators=2),
        feature_names=("f0",),
        class_catalog=ClassCatalog(tuple(sorted(classes, key=lambda a: a.key()))),
        mts_catalog=MtsCatalog(((classes[0],), (classes[1],))),
        forests=[pack_trees([t1, t2], np.ones(2), 1)],
    )
    probs = predict_proba_batch(model, np.array([[0.0]]))[0]
    assert probs.tolist() == [0.5, 0.5]
    # argmax tie resolves to the lowest class index
    assert predict_batch(model, np.array([[0.0]]), 0.5)[0] == (classes[0],)


def test_predict_proba_negative_zero_counts_sum_as_the_loop():
    # the loop adds -0.0 to a zero accumulator and gets 0.0
    tree = Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        depth=np.array([0], dtype=np.int32),
        counts=np.array([[-0.0, 3.0]]),
    )
    model = _forest_model([tree, tree])
    rows = np.zeros((3, 1))
    got = predict_proba_batch(model, rows)
    assert got.tobytes() == reference_predict_proba(model, rows).tobytes()
    assert got.tobytes() == np.array([[0.0, 1.0]] * 3).tobytes()


def test_predict_consistency_with_decode():
    X, y = _separable_data(90)
    sets = _label_sets_for(y, las(3))
    model = fit_ensemble(X, sets, Hyperparams(n_estimators=7, seed=2), "rf", "mts")
    for row in X[:20]:
        probs = predict_proba_batch(model, row[None, :])[0]
        decoded = predict_batch(model, row[None, :], 0.5)[0]
        assert decoded == mts_decode(int(np.argmax(probs)) + 1, model.mts_catalog)


def test_predict_bts_fallback():
    X, y = _separable_data(80)
    sets = _label_sets_for(y, las(3))
    model = fit_ensemble(X, sets, Hyperparams(n_estimators=5, seed=0), "rf", "bts")
    row = X[0]
    probs = predict_proba_batch(model, row[None, :])[0]
    decoded = predict_batch(model, row[None, :], 0.5)[0]
    if (probs <= 0.5).all():
        assert len(decoded) == 1
    assert len(decoded) >= 1


def test_predict_row_shape_errors():
    X, y = _separable_data(40)
    model = fit_ensemble(X, _label_sets_for(y, las(3)), Hyperparams(seed=0), "dt", "mts")
    with pytest.raises(ModelError):
        predict_proba_batch(model, np.zeros((1, 5)))


def reference_feature_importances(model):
    """The per-tree loop feature_importances replaced: each tree's impurity
    decreases summed per feature with one bincount, normalised per tree,
    averaged over every tree of every forest and normalised again."""
    d = len(model.feature_names)
    per_tree = []
    for table in model.forests:
        for tree in table.trees():
            weighted = tree.counts * table.weights
            node_w = weighted.sum(axis=1)
            imp = _impurity_rows(weighted, model.hyperparams.criterion)
            (split,) = np.nonzero(tree.feature >= 0)
            left, right = tree.left[split], tree.right[split]
            gain = (
                node_w[split] * imp[split] - node_w[left] * imp[left] - node_w[right] * imp[right]
            )
            contrib = np.bincount(tree.feature[split], weights=gain, minlength=d)
            total = contrib.sum()
            per_tree.append(contrib / total if total > 0 else contrib)
    mean = np.mean(per_tree, axis=0)
    total = mean.sum()
    return mean / total if total > 0 else mean


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_feature_importances_equal_the_per_tree_loop(variant, strategy, criterion):
    # 150 columns, more than numpy's 128-value pairwise block, so each tree's
    # sum over its features takes the recursive pairwise path
    rng = np.random.default_rng(3)
    X = rng.poisson(1.5, size=(160, 150)).astype(float)
    y = (X[:, 0] > 1).astype(int) + (X[:, 3] + X[:, 5] > 3)
    hp = Hyperparams(n_estimators=8, seed=3, criterion=criterion, class_weight="balanced")
    model = fit_ensemble(X, _label_sets_for(y, las(3)), hp, variant, strategy)
    got = feature_importances(model)
    assert got.tobytes() == reference_feature_importances(model).tobytes()


def test_feature_importances():
    rng = np.random.default_rng(7)
    n = 150
    y = rng.integers(0, 2, size=n)
    X = np.column_stack([y.astype(float), rng.normal(size=n)])
    sets = _label_sets_for(y, las(2))
    model = fit_ensemble(X, sets, Hyperparams(n_estimators=10, seed=1), "rf", "mts")
    imp = feature_importances(model)
    assert math.isclose(imp.sum(), 1.0, abs_tol=1e-9)
    assert imp[0] > 0.9  # the determining feature carries the importance
    single = fit_ensemble(X[:, :1], sets, Hyperparams(seed=0), "dt", "mts")
    assert feature_importances(single).tolist() == [1.0]


def tree_lists(tree: Tree) -> dict:
    """A tree's node arrays as lists, keyed by field name."""
    return {f.name: getattr(tree, f.name).tolist() for f in dataclasses.fields(Tree)}


def v1_model_obj(model: EnsembleModel) -> dict:
    """The model as format lexcat-model-v1 wrote it, before a model file
    held each forest as one node table: every tree an object of its node
    arrays, and each forest's class weights in a list of their own. It is
    the oracle that the change of layout left every fit as it was."""
    return {
        "format": "lexcat-model-v1",
        "variant": model.variant,
        "strategy": model.strategy,
        "hyperparams": dataclasses.asdict(model.hyperparams),
        "feature_names": list(model.feature_names),
        "classes": [
            [a.substantive_order, list(a.law_categories)] for a in model.class_catalog.classes
        ],
        "combos": [
            [model.class_catalog.index(a) for a in combo] for combo in model.mts_catalog.combos
        ],
        "class_weight_vectors": [table.weights.tolist() for table in model.forests],
        "forests": [[tree_lists(t) for t in table.trees()] for table in model.forests],
    }


def v1_model_json(model: EnsembleModel) -> str:
    return json.dumps(v1_model_obj(model), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_serialization_round_trip(tmp_path, variant, strategy):
    X, y = _separable_data(70)
    sets = _label_sets_for(y, las(3))
    hp = Hyperparams(class_weight="balanced", n_estimators=3, seed=5)
    model = fit_ensemble(X, sets, hp, variant, strategy)
    text = model_to_json(model)
    assert [sorted(forest) for forest in json.loads(text)["forests"]] == [
        sorted([*(f.name for f in dataclasses.fields(Tree)), "sizes", "weights"])
    ] * len(model.forests)
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    loaded = model_from_json(path.read_text(encoding="utf-8"))
    assert model_to_json(loaded) == text
    for fitted, read in zip(model.forests, loaded.forests, strict=True):
        for name, a in fitted._asdict().items():
            b = getattr(read, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert np.isnan(model.forests[0].threshold).any()  # leaves' NaN thresholds kept as bytes
    assert predict_proba_batch(loaded, X).tobytes() == predict_proba_batch(model, X).tobytes()


def test_same_seed_same_serialized_model():
    X, y = _separable_data(70)
    sets = _label_sets_for(y, las(3))
    hp = Hyperparams(n_estimators=4, seed=11)
    m1 = fit_ensemble(X, sets, hp, "rf", "mts")
    m2 = fit_ensemble(X, sets, hp, "rf", "mts")
    assert model_to_json(m1) == model_to_json(m2)
    m3 = fit_ensemble(X, sets, Hyperparams(n_estimators=4, seed=12), "rf", "mts")
    assert model_to_json(m3) != model_to_json(m1)


def test_split_semantics_left_is_lte():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    tree = grown_tree(X, y, Hyperparams(seed=0))
    thr = tree.threshold[0]
    assert tree.feature[0] == 0
    left_leaf = tree.left[0]
    assert tree.counts[left_leaf].argmax() == 0  # value <= threshold goes left
    assert reference_apply(tree, np.array([[thr]]))[0] == left_leaf
    assert (predict_proba_batch(_one_tree_model(tree), np.array([[thr]])) == [[1.0, 0.0]]).all()


class DeadlineExceeded(BaseException):
    """Not an Exception, so no handler under test can swallow it."""


@pytest.mark.parametrize("below", [1.0000000000000002, 5e-324], ids=["normal", "subnormal"])
def test_best_split_between_adjacent_floats_separates_them(below):
    # the midpoint of these two values rounds up to the larger: as a
    # threshold it sent both rows left, and the same split was grown again
    # in that child, without end under max_depth None
    above = np.nextafter(below, np.inf)
    assert (below + above) / 2.0 == above
    X, y = np.array([[below], [above]]), np.array([0, 1])
    with within_seconds(5):
        tree = grown_tree(X, y, Hyperparams(max_depth=None, seed=0))
    assert tree.n_nodes == 3 and tree.threshold[0] == below
    assert tree.counts[tree.left[0]].tolist() == [1.0, 0.0]


@contextmanager
def within_seconds(seconds: float):
    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _set(path, value):
    """A mutation that sets the field at `path` of a parsed model or
    pipeline file."""

    def mutate(obj):
        *parents, last = path
        functools.reduce(operator.getitem, parents, obj)[last] = value

    return mutate


FOREST = ("forests", 0)  # the first forest of a parsed model


def _sizes(model) -> list:
    return model["forests"][0]["sizes"]


# Mutations of a serialized model. Left unchecked, "cycle" makes prediction
# loop forever, the out-of-range ids escape as IndexError, a null (NaN)
# threshold sends every row right and the strings and the non-list escape
# as ValueError or TypeError. Sizes that wrap around to the node count when
# summed, as four more of 2**62 do, would reach np.repeat.
MALFORMATIONS = {
    "cycle": _set((*FOREST, "left", 0), 0),
    "null_threshold": _set((*FOREST, "threshold", 0), None),
    "infinite_threshold": _set((*FOREST, "threshold", 0), float("inf")),
    "child_out_of_range": _set((*FOREST, "right", 0), 10_000),
    "feature_out_of_range": _set((*FOREST, "feature", 0), 99),
    "short_depth": lambda model: model["forests"][0]["depth"].pop(),
    "missing_counts_row": lambda model: model["forests"][0]["counts"].pop(),
    "counts_width": lambda model: [row.append(0.0) for row in model["forests"][0]["counts"]],
    "string_threshold": _set((*FOREST, "threshold", 0), "x"),
    "string_count": _set((*FOREST, "counts", 0, 0), "x"),
    "negative_count": _set((*FOREST, "counts", 0, 0), -1.0),
    "string_class_weight": _set((*FOREST, "weights", 0), "x"),
    "feature_names_not_a_list": _set(("feature_names",), 5),
    "wrong_model_format": _set(("format",), "lexcat-model-v0"),
    "forest_not_an_object": _set(FOREST, 5),
    "unequal_node_arrays": lambda model: model["forests"][0]["threshold"].pop(),
    "root_depth_not_zero": _set((*FOREST, "depth", 0), 1),
    "feature_name_not_a_string": _set(("feature_names", 0), 5),
    # numpy reads a boolean among numbers as 0 or 1, so these used to load
    "boolean_count": _set((*FOREST, "counts", 0, 0), True),
    "boolean_child_id": _set((*FOREST, "left", 0), True),  # node 1 is the root's left child
    "boolean_class_weight": _set((*FOREST, "weights", 0), True),
    # missing keys, which used to escape as KeyError
    "tree_without_counts": lambda model: model["forests"][0].pop("counts"),
    "model_without_variant": lambda model: model.pop("variant"),
    "model_without_forests": lambda model: model.pop("forests"),
    # a forest's trees are the node counts in its sizes, tree after tree
    "sizes_not_adding_up": lambda model: _sizes(model).append(1),
    "zero_size": lambda model: _sizes(model).insert(0, 0),
    "size_above_node_count": lambda model: model["forests"][0].update(
        sizes=[sum(_sizes(model)) + 1, -1]
    ),
    "huge_size": _set((*FOREST, "sizes", 0), 2**63),
    "wrapping_sizes": lambda model: _sizes(model).extend([2**62] * 4),
    "weights_of_wrong_length": lambda model: model["forests"][0]["weights"].append(1.0),
    # the format before each forest was stored as one node table; such a
    # model must be retrained
    "v1_model": lambda model: _to_v1(model),
}


def _to_v1(model: dict) -> None:
    """A parsed model, rewritten in place as the v1 oracle writes it."""
    v1 = v1_model_obj(model_from_json(json.dumps(model)))
    model.clear()
    model.update(v1)


def malformed_model_obj(obj: dict, name: str) -> dict:
    """`obj` (a parsed model) with MALFORMATIONS[name] applied."""
    MALFORMATIONS[name](obj)
    return obj


@pytest.mark.parametrize("name", sorted(MALFORMATIONS))
def test_malformed_model_rejected(name):
    X, y = _separable_data(60)
    model = fit_ensemble(X, _label_sets_for(y, las(3)), Hyperparams(seed=0), "dt", "mts")
    assert model.trees[0].n_nodes > 1
    bad = json.dumps(malformed_model_obj(json.loads(model_to_json(model)), name))
    with within_seconds(5), pytest.raises(ModelError):
        predict_proba_batch(model_from_json(bad), X)


def test_model_text_that_is_not_json_is_rejected():
    # used to escape as json.JSONDecodeError
    with pytest.raises(ModelError, match="not JSON"):
        model_from_json("{")


def _five_node_tree(left, right):
    """A tree splitting on f0 at 0.5 (node 0) and 0.25 (node 1), nodes 2, 3
    and 4 leaves, with the given child arrays. A row of 0.0 goes left at
    both splits, to node 2."""
    return Tree(
        feature=np.array([0, 0, -1, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.25, np.nan, np.nan, np.nan]),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        depth=np.array([0, 1, 2, 2, 1], dtype=np.int32),
        counts=np.array([[2.0, 2.0], [1.0, 2.0], [0.0, 2.0], [1.0, 0.0], [1.0, 0.0]]),
    )


GOOD_CHILDREN = ([1, 2, -1, -1, -1], [4, 3, -1, -1, -1])

# children that do not follow their node inside its own tree; unchecked, the
# first two make prediction loop forever and the third walks into the next
# tree of the forest
BAD_CHILDREN = {
    "child_before_its_node": ([1, 0, -1, -1, -1], [4, 3, -1, -1, -1]),
    "child_is_its_node": ([1, 1, -1, -1, -1], [4, 3, -1, -1, -1]),
    "child_past_its_tree": ([1, 5, -1, -1, -1], [4, 3, -1, -1, -1]),
}


@pytest.mark.parametrize("name", sorted(BAD_CHILDREN))
def test_hand_built_model_with_a_child_out_of_preorder_is_rejected(name):
    good = _one_tree_model(_five_node_tree(*GOOD_CHILDREN))
    assert predict_proba_batch(good, np.zeros((1, 1))).tolist() == [[0.0, 1.0]]
    bad = _five_node_tree(*BAD_CHILDREN[name])
    with within_seconds(5), pytest.raises(ModelError, match="follow its node in preorder"):
        predict_proba_batch(_one_tree_model(bad), np.zeros((1, 1)))
    with within_seconds(5), pytest.raises(ModelError, match="follow its node in preorder"):
        predict_proba_batch(_forest_model([bad, bad], n_features=1), np.zeros((1, 1)))


def test_model_without_feature_columns_is_rejected():
    # a leaf is packed as a split on column 0, so such a model loaded and
    # then raised IndexError on every prediction
    X, y = _separable_data(60)
    sets = _label_sets_for(y, las(3))
    model = fit_ensemble(X, sets, Hyperparams(seed=0), "dt", "mts")
    leaf = Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        depth=np.array([0], dtype=np.int32),
        counts=model.trees[0].counts[:1],
    )
    table = pack_trees([leaf], model.forests[0].weights, 0)
    obj = json.loads(model_to_json(dataclasses.replace(model, forests=[table])))
    obj["feature_names"] = []
    with pytest.raises(ModelError, match="at least one feature column"):
        model_from_json(json.dumps(obj))
    with pytest.raises(ModelError, match="at least one feature column"):
        dataclasses.replace(model, feature_names=(), forests=[table])
    with pytest.raises(ModelError, match="at least one feature column"):
        fit_ensemble(X[:, :0], sets, Hyperparams(seed=0), "rf", "bts")


def test_hand_built_model_with_a_feature_past_its_columns_is_rejected():
    # such a model used to be built and then escape as IndexError on every
    # prediction that reached the split
    for feature in (1, 2, 2**32):
        tree = _five_node_tree(*GOOD_CHILDREN)
        tree.feature = np.array([0, feature, -1, -1, -1])
        with pytest.raises(ModelError, match="out of range"):
            _forest_model([tree], n_features=1)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_tree_views_share_memory_with_their_table(strategy):
    X, y = _separable_data(60)
    model = fit_ensemble(X, _label_sets_for(y, las(3)), Hyperparams(n_estimators=3), "rf", strategy)
    for m in (model, model_from_json(model_to_json(model))):
        assert m.trees is m.trees  # built once per model
        views = iter(m.trees)
        for table in m.forests:
            for tree in itertools.islice(views, len(table.roots)):
                for f in dataclasses.fields(Tree):
                    assert np.shares_memory(getattr(tree, f.name), getattr(table, f.name)), f.name
        assert next(views, None) is None


def _numeric_paths(obj, path=()):
    """The path of every number (not boolean) in a parsed model file."""
    if isinstance(obj, dict):
        obj = obj.items()
    elif isinstance(obj, list):
        obj = enumerate(obj)
    else:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            yield path
        return
    for key, value in obj:
        yield from _numeric_paths(value, (*path, key))


@functools.lru_cache(maxsize=None)
def small_model_file(variant: str):
    """A small serialized dt or rf model, its numeric entries outside the
    combination catalog (which refuses with LabelError) and its training
    matrix."""
    X, y = _separable_data(40)
    hp = Hyperparams(n_estimators=3, seed=2, max_depth=4)
    text = model_to_json(fit_ensemble(X, _label_sets_for(y, las(3)), hp, variant, "mts"))
    paths = [p for p in _numeric_paths(json.loads(text)) if p[0] != "combos"]
    return text, paths, X


@pytest.mark.parametrize("variant", ["dt", "rf"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_model_file_with_one_corrupted_number_is_refused_or_predicts(variant, data):
    text, paths, X = small_model_file(variant)
    obj = json.loads(text)
    path = data.draw(st.sampled_from(paths))
    # n: the node count of the entry's forest, or the model's column count
    n = len(obj["forests"][path[1]]["feature"]) if path[0] == "forests" else X.shape[1]
    pool = [-1, 0, n, 2**31, 2**63, -0.0, math.nan, math.inf, -math.inf, "x", None, True, False]
    _set(path, data.draw(st.sampled_from(pool)))(obj)
    with within_seconds(5):
        try:
            model = model_from_json(json.dumps(obj))
        except ModelError:
            return
        probs = predict_proba_batch(model, X)
    assert np.isfinite(probs).all() and (probs >= 0).all() and (probs <= 1).all()
