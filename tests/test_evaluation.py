import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from lexcat import evaluation as ev
from lexcat import pipeline
from lexcat.pipeline import PipelineConfig
from lexcat.synth import SynthSpec, generate_corpus

# ---------------------------------------------------------------------------
# brute-force indicator-matrix oracle (independent of the library code)
# ---------------------------------------------------------------------------


def indicator(sets, classes):
    return [[1 if c in s else 0 for c in classes] for s in sets]


def oracle_all(L, Z, classes):
    IL, IZ = indicator(L, classes), indicator(Z, classes)
    n, m = len(IL), len(classes)
    exact = sum(1 for i in range(n) if IL[i] == IZ[i]) / n
    acc = prec = rec = 0.0
    for i in range(n):
        inter = sum(a and b for a, b in zip(IL[i], IZ[i]))
        union = sum(a or b for a, b in zip(IL[i], IZ[i]))
        acc += inter / union
        prec += inter / sum(IZ[i])
        rec += inter / sum(IL[i])
    acc, prec, rec = acc / n, prec / n, rec / n
    hl = sum(
        IL[i][j] != IZ[i][j] for i in range(n) for j in range(m)
    ) / (m * n)
    tp = [sum(IL[i][j] and IZ[i][j] for i in range(n)) for j in range(m)]
    fp = [sum(IZ[i][j] and not IL[i][j] for i in range(n)) for j in range(m)]
    fn = [sum(IL[i][j] and not IZ[i][j] for i in range(n)) for j in range(m)]

    def ratio(a, b):
        return a / b if b else 0.0

    micro_p = ratio(sum(tp), sum(tp) + sum(fp))
    micro_r = ratio(sum(tp), sum(tp) + sum(fn))
    micro_f = ratio(2 * micro_p * micro_r, micro_p + micro_r)
    ps, rs, fs = [], [], []
    for j in range(m):
        if tp[j] + fp[j] + fn[j] == 0:
            continue
        p = ratio(tp[j], tp[j] + fp[j])
        r = ratio(tp[j], tp[j] + fn[j])
        ps.append(p)
        rs.append(r)
        fs.append(ratio(2 * p * r, p + r))
    macro_p = sum(ps) / len(ps) if ps else 0.0
    macro_r = sum(rs) / len(rs) if rs else 0.0
    macro_f = sum(fs) / len(fs) if fs else 0.0
    return exact, acc, prec, rec, hl, micro_p, micro_r, micro_f, macro_p, macro_r, macro_f


def random_instance(rng, max_n=20, max_m=10):
    m = int(rng.integers(2, max_m + 1))
    classes = [f"c{j}" for j in range(m)]
    n = int(rng.integers(1, max_n + 1))
    top = min(3, m)
    L, Z = [], []
    for _ in range(n):
        L.append(set(rng.choice(classes, size=int(rng.integers(1, top + 1)), replace=False)))
        Z.append(set(rng.choice(classes, size=int(rng.integers(1, top + 1)), replace=False)))
    return L, Z, classes


# ---------------------------------------------------------------------------


def test_exact_match_examples():
    assert ev.exact_match([{"a", "b"}], [{"a", "b"}]) == 1.0
    assert ev.exact_match([{"a", "b"}, {"c"}], [{"a"}, {"c"}]) == 0.5
    assert ev.exact_match([{"a"}, {"b"}], [{"x"}, {"y"}]) == 0.0


def test_accuracy_precision_recall_examples():
    L = [{"a", "b"}, {"c"}]
    Z = [{"a"}, {"c"}]
    assert math.isclose(ev.ml_accuracy(L, Z), 0.75, abs_tol=1e-15)
    assert math.isclose(ev.ml_precision(L, Z), 1.0, abs_tol=1e-15)
    assert math.isclose(ev.ml_recall(L, Z), 0.75, abs_tol=1e-15)
    # one extra predicted label against a singleton truth halves precision
    assert math.isclose(ev.ml_precision([{"a"}], [{"a", "b"}]), 0.5, abs_tol=1e-15)


def test_metric_errors():
    with pytest.raises(ev.EvaluationError):
        ev.exact_match([{"a"}], [])
    with pytest.raises(ev.EvaluationError):
        ev.ml_precision([{"a"}], [set()])
    with pytest.raises(ev.EvaluationError):
        ev.ml_recall([set()], [{"a"}])


def test_hamming_loss_examples():
    classes = ["a", "b", "c"]
    assert ev.hamming_loss([{"a"}], [{"a"}], classes) == 0.0
    L = [{"a", "b"}, {"c"}]
    Z = [{"a"}, {"c"}]
    assert math.isclose(ev.hamming_loss(L, Z, classes), 1 / 6, abs_tol=1e-15)
    # full complement predictions hit the upper bound
    assert ev.hamming_loss([{"a"}], [{"b", "c"}], classes) == 1.0
    with pytest.raises(ev.EvaluationError, match="outside catalog"):
        ev.hamming_loss([{"z"}], [{"a"}], classes)


def test_micro_macro_rejects_labels_outside_catalog():
    # the catalog check hamming_loss makes, not a bare KeyError
    for L, Z in (([{"a"}], [{"z"}]), ([{"z"}], [{"a"}])):
        with pytest.raises(ev.EvaluationError, match="outside catalog: 'z'"):
            ev.micro_macro_prf(L, Z, ["a", "b"])
    with pytest.raises(ev.EvaluationError, match="at least one class"):
        ev.micro_macro_prf([{"a"}], [{"a"}], [])


def test_micro_macro_perfect_and_collapse():
    classes = ["a", "b"]
    mm = ev.micro_macro_prf([{"a"}, {"b"}], [{"a"}, {"b"}], classes)
    assert mm == ev.MicroMacro(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    single = ev.micro_macro_prf([{"a"}], [{"a"}], ["a"])
    assert single.micro_precision == single.macro_precision == 1.0


def test_micro_prf_collapse_single_label_case():
    # equal singleton sizes everywhere force FP count == FN count
    rng = np.random.default_rng(4)
    classes = ["a", "b", "c"]
    L = [{classes[int(rng.integers(3))]} for _ in range(30)]
    Z = [{classes[int(rng.integers(3))]} for _ in range(30)]
    mm = ev.micro_macro_prf(L, Z, classes)
    assert mm.micro_precision == mm.micro_recall
    assert math.isclose(mm.micro_f, mm.micro_precision, abs_tol=1e-12)


def test_macro_below_micro_when_class_never_predicted():
    classes = ["a", "b"]
    L = [{"a"}, {"a"}, {"b"}]
    Z = [{"a"}, {"a"}, {"a"}]
    mm = ev.micro_macro_prf(L, Z, classes)
    assert mm.macro_precision < mm.micro_precision


def test_metrics_match_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(300):
        L, Z, classes = random_instance(rng)
        oracle = oracle_all(L, Z, classes)
        mm = ev.micro_macro_prf(L, Z, classes)
        got = (
            ev.exact_match(L, Z),
            ev.ml_accuracy(L, Z),
            ev.ml_precision(L, Z),
            ev.ml_recall(L, Z),
            ev.hamming_loss(L, Z, classes),
            mm.micro_precision,
            mm.micro_recall,
            mm.micro_f,
            mm.macro_precision,
            mm.macro_recall,
            mm.macro_f,
        )
        for a, b in zip(got, oracle):
            assert math.isclose(a, b, abs_tol=1e-12)


def test_metric_inequalities_and_hl_zero_iff_exact():
    rng = np.random.default_rng(9)
    for _ in range(200):
        L, Z, classes = random_instance(rng)
        em = ev.exact_match(L, Z)
        acc = ev.ml_accuracy(L, Z)
        assert em <= acc + 1e-12
        assert acc <= min(ev.ml_precision(L, Z), ev.ml_recall(L, Z)) + 1e-12
        hl = ev.hamming_loss(L, Z, classes)
        assert (hl == 0.0) == (em == 1.0)


def test_stratified_folds():
    alphas = [1] * 10 + [2] * 5 + [3] * 2
    folds = ev.stratified_folds(alphas, 5, seed=0)
    assert len(folds) == len(alphas)
    assert set(folds) <= set(range(5))
    # the big class spreads evenly over the folds
    from collections import Counter

    big = Counter(f for a, f in zip(alphas, folds) if a == 1)
    assert max(big.values()) - min(big.values()) <= 1
    assert ev.stratified_folds(alphas, 5, seed=0) == folds
    assert ev.stratified_folds(alphas, 5, seed=1) != folds or True  # different seed may differ
    with pytest.raises(ev.EvaluationError):
        ev.stratified_folds(alphas, 1, seed=0)


def _fast_config(**overrides):
    base = dict(n_estimators=5, min_samples_leaf=1, max_depth=None, folds=3, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


def test_cross_validate_deterministic(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=2))
    config = _fast_config()
    r1 = ev.cross_validate(corpus, config, k=3, seed=5, lexica=lexica)
    r2 = ev.cross_validate(corpus, config, k=3, seed=5, lexica=lexica)
    assert r1.per_fold == r2.per_fold
    assert len(r1.per_fold) == 3


def test_cross_validate_leave_one_out_tiny(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=12, n_classes=2, seed=4))
    config = _fast_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = ev.cross_validate(corpus, config, k=12, seed=0, lexica=lexica)
    total_tested = sum(1 for _ in report.per_fold)
    assert 1 <= total_tested <= 12
    means = report.means
    assert 0.0 <= means.hamming_loss <= 1.0


def test_grid_search_matches_manual_loop(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=6))
    base = _fast_config()
    grid = {"criterion": ["gini", "entropy"], "n_estimators": [2, 4]}
    result = ev.grid_search(corpus, grid, k=3, base_config=base, seed=1, lexica=lexica)
    manual = []
    for criterion in grid["criterion"]:
        for n_est in grid["n_estimators"]:
            cfg = base.with_overrides({"criterion": criterion, "n_estimators": n_est})
            rep = ev.cross_validate(corpus, cfg, k=3, seed=1, lexica=lexica)
            manual.append(({"criterion": criterion, "n_estimators": n_est}, rep.means.micro_f))
    assert [s for _, s in result.scores] == [s for _, s in manual]
    best_manual = max(manual, key=lambda kv: kv[1])
    assert result.best_score == best_manual[1]
    assert result.scores[0][0] == {"criterion": "gini", "n_estimators": 2}


def test_cross_validate_bts_strategy(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=3))
    config = _fast_config(strategy="bts")
    report = ev.cross_validate(corpus, config, k=3, seed=2, lexica=lexica)
    means = report.means
    assert 0.0 <= means.hamming_loss <= 1.0
    assert means.micro_precision > 0.5  # separable synthetic data


def test_grid_search_vectorizer_ranges(lexica):
    # the classic 3x3x3 vectorizer search space is expressible and enumerates
    # all 27 combinations in grid order
    corpus = generate_corpus(SynthSpec(n_docs=30, n_classes=2, seed=9))
    base = _fast_config(model="dt", importance_selection=False, folds=2)
    grid = {
        "max_df": [0.9, 0.7, 0.5],
        "min_df": [0.1, 0.01, 0.001],
        "ngram_range": [(1, 1), (1, 2), (1, 3)],
    }
    result = ev.grid_search(corpus, grid, k=2, base_config=base, seed=0, lexica=lexica)
    assert len(result.scores) == 27
    assert result.scores[0][0] == {"max_df": 0.9, "min_df": 0.1, "ngram_range": (1, 1)}
    assert result.scores[-1][0] == {"max_df": 0.5, "min_df": 0.001, "ngram_range": (1, 3)}


def test_grid_search_single_combo(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=40, n_classes=2, seed=8))
    result = ev.grid_search(
        corpus, {"criterion": ["gini"]}, k=2, base_config=_fast_config(), seed=0, lexica=lexica
    )
    assert result.best_params == {"criterion": "gini"}
    with pytest.raises(ev.EvaluationError):
        ev.grid_search(corpus, {}, k=2, base_config=_fast_config(), seed=0, lexica=lexica)


def test_report_row_shape():
    # a distinct value per metric, so every cell is checked against its column
    names = [f.name for f in fields(ev.FoldMetrics)]
    fm = ev.FoldMetrics(*(i / 100 for i in range(1, len(names) + 1)))
    report = ev.MetricsReport([fm], train_seconds=1.23)
    cells = ev.report_row("mts", "rf", report).split("\t")
    header = ev.REPORT_HEADER.split("\t")
    assert header == [
        "strategy", "model", "exact_match", "accuracy", "macro_precision", "micro_precision",
        "macro_recall", "micro_recall", "macro_f", "micro_f", "hamming_loss", "train_seconds",
    ]
    assert len(cells) == len(header)
    assert cells[:2] == ["MTS", "RF"] and cells[-1] == "1.23"
    for column, cell in zip(header[2:-1], cells[2:-1]):
        assert cell == f"{names.index(column) + 1:.2f}", column


def test_grid_search_preprocesses_once(lexica, monkeypatch):
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=6))
    base = _fast_config()
    grid = {"criterion": ["gini", "entropy"]}
    manual = [
        ev.cross_validate(corpus, base.with_overrides({"criterion": c}), k=3, seed=1, lexica=lexica)
        .means.micro_f
        for c in grid["criterion"]
    ]
    calls = []
    original = pipeline.preprocess_corpus

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "preprocess_corpus", counting)
    result = ev.grid_search(corpus, grid, k=3, base_config=base, seed=1, lexica=lexica)
    assert len(calls) == 1
    assert [s for _, s in result.scores] == manual


@pytest.mark.parametrize(
    "key,values", [("folds", [2, 5]), ("lexica_dir", ["/nonexistent"]), ("corpus", ["x.jsonl"])]
)
def test_grid_search_rejects_keys_its_arguments_fix(lexica, key, values):
    # k, lexica and corpus are the search's arguments; a grid over them
    # used to be ignored, scoring every point alike
    corpus = generate_corpus(SynthSpec(n_docs=20, n_classes=2, seed=8))
    grid = {"criterion": ["gini"], key: values}
    with pytest.raises(ev.EvaluationError, match=repr(key)):
        ev.grid_search(corpus, grid, k=2, base_config=_fast_config(), seed=0, lexica=lexica)


@pytest.mark.parametrize(
    "key,values",
    [
        ("out", ["a.tsv", "b.tsv"]),
        ("relevance_samples", [10, 900]),
        ("synth", [{}, {"n_docs": 5}]),
        ("grid", [{}, {"criterion": ["gini"]}]),
        ("no_such_field", [1, 2]),
    ],
)
def test_grid_search_rejects_keys_cross_validation_never_reads(lexica, key, values):
    # each used to be accepted, every point scoring the same
    corpus = generate_corpus(SynthSpec(n_docs=20, n_classes=2, seed=8))
    grid = {"criterion": ["gini"], key: values}
    with pytest.raises(ev.EvaluationError, match=repr(key)):
        ev.grid_search(corpus, grid, k=2, base_config=_fast_config(), seed=0, lexica=lexica)


def test_grid_keys_are_the_fields_cross_validation_reads(lexica):
    # a grid can vary exactly what a cross-validation reads of its config:
    # recorded here on a config that logs every read
    names = {f.name for f in fields(PipelineConfig)}
    reads = set()

    class RecordingConfig(PipelineConfig):
        def __getattribute__(self, name):
            if name in names:
                reads.add(name)
            return super().__getattribute__(name)

    config = RecordingConfig(n_estimators=2, min_samples_leaf=1)
    reads.clear()
    corpus = generate_corpus(SynthSpec(n_docs=40, n_classes=3, seed=2))
    ev.cross_validate(corpus, config, k=2, seed=0, lexica=lexica)
    assert ev._GRID_KEYS == reads | {"ngram_range"}


def test_cv_and_grid_intern_each_range_once(lexica, monkeypatch):
    # the documents' n-grams are counted once per range, not once per fold
    # or grid point
    calls = []
    original = pipeline.count_ngrams

    def counting(streams, ngram_range):
        calls.append(tuple(ngram_range))
        return original(streams, ngram_range)

    monkeypatch.setattr(pipeline, "count_ngrams", counting)
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=6))
    ev.cross_validate(corpus, _fast_config(), k=3, seed=1, lexica=lexica)
    assert calls == [(1, 2)]
    calls.clear()
    grid = {"ngram_range": [[1, 1], [1, 2], [2, 3]], "criterion": ["gini", "entropy"]}
    ev.grid_search(corpus, grid, k=3, base_config=_fast_config(), seed=1, lexica=lexica)
    assert calls == [(1, 1), (1, 2), (2, 3)]
