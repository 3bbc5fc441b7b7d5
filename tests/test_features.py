import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat import pipeline
from lexcat.corpus import LabelAssignment
from lexcat.entities import EntityRecord, UNKNOWN
from lexcat.features import (
    CATEGORICAL_FIELDS,
    CategoricalEncoder,
    FeatureError,
    FeatureMatrix,
    build_feature_matrix,
    discretize_ranks,
    feature_matrix_to_text,
    fit_vectorizer,
    select_by_correlation,
    select_by_importance,
    spearman,
    transform,
)
from lexcat.synth import SynthSpec, generate_corpus
from lexcat.textproc import TokenStream


def ts(*tokens):
    return TokenStream(tuple(tokens))


def spearman_oracle(x, y):
    """Brute-force rank covariance: explicit average ranks, loop formulas."""

    def ranks(values):
        pairs = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(pairs):
            j = i
            while j + 1 < len(pairs) and values[pairs[j + 1]] == values[pairs[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[pairs[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in rx) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in ry) / n)
    return cov / (sx * sy)


def test_fit_vectorizer_uniwords_and_biwords():
    streams = [ts("a", "b"), ts("a", "c")]
    vec = fit_vectorizer(streams, max_df=1.0, min_df=0.0, ngram_range=(1, 2))
    assert set(vec.vocabulary) == {"a", "b", "c", "a b", "a c"}
    assert vec.names == sorted(vec.names)


def test_fit_vectorizer_df_bounds():
    streams = [ts("siempre", "x"), ts("siempre", "y"), ts("siempre", "x")]
    vec = fit_vectorizer(streams, max_df=0.5, min_df=0.0, ngram_range=(1, 1))
    assert "siempre" not in vec.vocabulary  # df 1.0 > 0.5
    vec2 = fit_vectorizer(streams, max_df=1.0, min_df=0.5, ngram_range=(1, 1))
    assert "y" not in vec2.vocabulary  # df 1/3 < 0.5
    assert "x" in vec2.vocabulary  # df 2/3 >= 0.5


def test_fit_vectorizer_errors():
    with pytest.raises(FeatureError):
        fit_vectorizer([ts("a")], max_df=0.5, min_df=0.5, ngram_range=(1, 1))
    with pytest.raises(FeatureError):
        fit_vectorizer([ts("a")], max_df=1.0, min_df=0.0, ngram_range=(2, 1))
    with pytest.raises(FeatureError, match="empty"):
        fit_vectorizer([ts("a"), ts("a")], max_df=0.4, min_df=0.0, ngram_range=(1, 1))
    with pytest.raises(FeatureError):  # a bool is not an n-gram size
        fit_vectorizer([ts("a")], max_df=1.0, min_df=0.0, ngram_range=(True, 2))


def test_fit_vectorizer_leaves_out_categorical_field_names():
    streams = [ts("court", "a", *CATEGORICAL_FIELDS), ts("decision", "a", "jurisdiction")]
    vec = fit_vectorizer(streams, max_df=1.0, min_df=0.0, ngram_range=(1, 2))
    assert not set(CATEGORICAL_FIELDS) & set(vec.vocabulary)
    assert {"a", "court a", "decision a", "a jurisdiction"} <= set(vec.vocabulary)
    # so the full matrix has one column per name
    counts = transform(vec, streams)
    records = [_record(), _record()]
    codes = CategoricalEncoder().fit(records).transform(records)
    build_feature_matrix(counts, vec.names, codes)


def test_transform_counts():
    streams = [ts("a", "b", "a")]
    vec = fit_vectorizer(streams, max_df=1.0, min_df=0.0, ngram_range=(1, 2))
    X = transform(vec, streams)
    assert X[0, vec.vocabulary["a"]] == 2
    assert X[0, vec.vocabulary["a b"]] == 1
    # a document of unseen tokens maps to the zero row
    assert transform(vec, [ts("zz")]).sum() == 0
    # re-transforming the fitting document reproduces the fit counts
    assert (transform(vec, streams) == X).all()


def test_transform_permutation_equivariant():
    streams = [ts("a", "b"), ts("b", "c"), ts("a", "c", "c")]
    vec = fit_vectorizer(streams, max_df=1.0, min_df=0.0, ngram_range=(1, 1))
    X = transform(vec, streams)
    perm = [2, 0, 1]
    Xp = transform(vec, [streams[i] for i in perm])
    assert (Xp == X[perm]).all()


def _record(**kwargs):
    base = dict(
        case_type=UNKNOWN,
        court=UNKNOWN,
        decision=UNKNOWN,
        decision_type=UNKNOWN,
        instance_type=UNKNOWN,
        jurisdiction=UNKNOWN,
        resolution_type=UNKNOWN,
    )
    base.update(kwargs)
    return EntityRecord(**base)


def test_encode_categoricals():
    records = [
        _record(court="Tribunal Supremo", decision="estimatorio"),
        _record(court="Tribunal Supremo", decision="desestimatorio"),
        _record(court="Audiencia Provincial", decision="nulidad"),
    ]
    encoder = CategoricalEncoder().fit(records)
    X = encoder.transform(records)
    assert X.shape == (3, 7)
    court_col = CATEGORICAL_FIELDS.index("court")
    assert X[0, court_col] == X[1, court_col]  # same court, same code
    juris_col = CATEGORICAL_FIELDS.index("jurisdiction")
    assert (X[:, juris_col] == 0).all()  # unknown -> reserved code 0
    decision_col = CATEGORICAL_FIELDS.index("decision")
    assert len(set(X[:, decision_col])) == 3
    # unseen category at transform time also falls back to 0
    X2 = encoder.transform([_record(court="Juzgado de lo Social")])
    assert X2[0, court_col] == 0


def test_discretize_ranks():
    assert discretize_ranks(list(range(1, 11))).tolist() == list(range(10, 0, -1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = discretize_ranks([5.0] * 4)
        assert len(caught) == 1
    assert len(set(out.tolist())) == 1
    twenty = discretize_ranks(list(range(20)))
    assert all((twenty == b).sum() == 2 for b in range(1, 11))


def test_spearman_examples():
    n = 10
    assert spearman(list(range(n)), list(range(n))) == 1.0
    assert spearman(list(range(n)), list(range(n, 0, -1))) == -1.0
    assert math.isclose(spearman([1, 2, 3, 4], [2, 1, 4, 3]), 0.6, abs_tol=1e-12)


def test_spearman_errors():
    with pytest.raises(FeatureError):
        spearman([1.0], [1.0])
    with pytest.raises(FeatureError):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(FeatureError):
        spearman([1, 2], [1, 2, 3])


def test_spearman_against_oracle_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert math.isclose(spearman(x, y), spearman_oracle(x, y), abs_tol=1e-12)
        assert math.isclose(spearman(x, y), spearman(y, x), abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=3, max_size=30))
def test_spearman_invariant_under_monotone_transform(xs):
    if len(set(xs)) < 2:
        return
    y = list(range(len(xs)))
    a = spearman(xs, y)
    b = spearman([3.0 * v + 7 for v in xs], y)
    assert math.isclose(a, b, abs_tol=1e-12)


def _matrix(cols: dict, kinds=None):
    names = list(cols)
    X = np.column_stack([np.asarray(cols[n], dtype=float) for n in names])
    kinds = kinds or ["categorical"] * len(names)
    return FeatureMatrix(names, kinds, X)


def test_select_by_correlation_thresholds():
    rng = np.random.default_rng(0)
    target = np.arange(40) % 5 + 1
    aligned = target * 2.0
    noise = rng.normal(size=40)
    constant = np.ones(40)
    matrix = _matrix({"aligned": aligned, "noise": noise, "constant": constant})
    kept_all, report = select_by_correlation(matrix, target, 0.0)
    assert "constant" not in kept_all
    assert set(kept_all) == {"aligned", "noise"}
    kept_none, _ = select_by_correlation(matrix, target, 1.01)
    assert kept_none == []
    assert abs(report.correlations["aligned"]) > abs(report.correlations["noise"])


def test_select_by_correlation_monotone_in_threshold():
    rng = np.random.default_rng(1)
    target = rng.integers(1, 4, size=60)
    cols = {f"c{i}": rng.normal(size=60) + (target if i % 2 else 0) for i in range(6)}
    matrix = _matrix(cols)
    kept_low, _ = select_by_correlation(matrix, target, 0.1)
    kept_high, _ = select_by_correlation(matrix, target, 0.5)
    assert set(kept_high) <= set(kept_low)


def _label_sets(labels):
    classes = [LabelAssignment("civil", (f"c{i}", "x", "y")) for i in range(2)]
    return [(classes[v],) for v in labels]


def test_select_by_importance_informative_feature():
    rng = np.random.default_rng(2)
    n = 200
    labels = rng.integers(0, 2, size=n)
    informative = labels.astype(float)  # fully determines the class
    noise_cols = {f"n{i}": rng.normal(size=n) for i in range(5)}
    matrix = _matrix(
        {"informative": informative, **noise_cols}, kinds=["textual"] * 6
    )
    kept, importances = select_by_importance(
        matrix, _label_sets(labels), n_estimators=20, seed=3
    )
    assert "informative" in kept
    by_name = dict(zip(matrix.names, importances))
    assert by_name["informative"] > importances.mean()


def test_select_by_importance_single_class_errors():
    matrix = _matrix({"a": [1.0, 2.0, 3.0]})
    with pytest.raises(FeatureError):
        select_by_importance(matrix, _label_sets([1, 1, 1]))


def test_feature_matrix_unique_names_and_export():
    with pytest.raises(FeatureError, match="duplicate column"):
        FeatureMatrix(["a", "a"], ["textual", "textual"], np.zeros((1, 2)))
    counts = np.array([[1.0, 0.0], [0.0, 2.0]])
    codes = np.zeros((2, 7))
    matrix = build_feature_matrix(counts, ["alfa", "beta"], codes)
    lines = feature_matrix_to_text(matrix, ["d1", "d2"]).splitlines()
    assert lines[0].split("\t")[:3] == ["id", "textual:alfa", "textual:beta"]
    assert lines[1].split("\t")[0] == "d1"
    assert len(lines) == 3


def test_fit_pipeline_selects_from_views_of_one_matrix(lexica, monkeypatch):
    # both selection stages read column views of the one feature matrix,
    # not copies of its textual and categorical columns
    seen = {}
    for name in ("select_by_correlation", "select_by_importance"):

        def capture(matrix, *args, _name=name, _original=getattr(pipeline, name), **kwargs):
            seen[_name] = matrix
            return _original(matrix, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, capture)
    corpus = generate_corpus(SynthSpec(n_docs=40, n_classes=3, seed=3))
    fitted = pipeline.fit_pipeline(corpus, pipeline.PipelineConfig(n_estimators=2), lexica)
    categorical, textual = seen["select_by_correlation"], seen["select_by_importance"]
    assert textual.X.base is not None
    assert categorical.X.base is textual.X.base
    assert set(textual.kinds) == {"textual"} and set(categorical.kinds) == {"categorical"}
    assert textual.names + categorical.names == [*fitted.vectorizer.names, *CATEGORICAL_FIELDS]
