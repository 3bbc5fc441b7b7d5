import json
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexcat
from lexcat import features, pipeline, trees
from lexcat.corpus import Corpus, LabelAssignment
from lexcat.entities import EntityRecord, UNKNOWN
from lexcat.features import (
    CATEGORICAL_FIELDS,
    CategoricalEncoder,
    FeatureError,
    VectorizerModel,
    count_ngrams,
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
from lexcat.trees import predict_batch

from test_trees import pipeline_obj, within_seconds


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


def reference_ngrams(tokens, lo, hi):
    for size in range(lo, hi + 1):
        for i in range(len(tokens) - size + 1):
            yield " ".join(tokens[i : i + size])


def reference_fit_vectorizer(streams, max_df, min_df, ngram_range):
    """The string-counting vectorizer fit: document frequencies in a
    Counter of n-gram strings."""
    lo, hi = ngram_range
    if not streams:
        raise FeatureError("no documents to fit on")
    df = Counter()
    for stream in streams:
        df.update(set(reference_ngrams(stream.tokens, lo, hi)))
    n = len(streams)
    kept = sorted(
        g for g, c in df.items() if min_df <= c / n <= max_df and g not in CATEGORICAL_FIELDS
    )
    if not kept:
        raise FeatureError("vocabulary is empty after document-frequency pruning")
    return VectorizerModel({g: i for i, g in enumerate(kept)}, (lo, hi))


def reference_transform(vectorizer, streams):
    """The string-counting transform: one vocabulary lookup per n-gram."""
    lo, hi = vectorizer.ngram_range
    X = np.zeros((len(streams), len(vectorizer.vocabulary)))
    for i, stream in enumerate(streams):
        for gram in reference_ngrams(stream.tokens, lo, hi):
            j = vectorizer.vocabulary.get(gram)
            if j is not None:
                X[i, j] += 1.0
    return X


def vectorize(streams, max_df, min_df, ngram_range):
    """Fit on every stream, as `lexcat featurize` does."""
    grams = count_ngrams(streams, ngram_range)
    return fit_vectorizer(grams, range(len(streams)), max_df, min_df)


def count_matrix(vectorizer, streams):
    """transform's n-gram columns for the streams, with no entity codes."""
    grams = count_ngrams(streams, vectorizer.ngram_range)
    return transform(vectorizer, grams, range(len(streams)), np.zeros((len(streams), 0)))


def _vocabulary_bytes(vectorizer):
    return json.dumps(list(vectorizer.vocabulary.items())).encode()


def assert_matches_reference(streams, train, max_df, min_df, ngram_range):
    """fit_vectorizer on the documents `train` and transform of every
    document equal the string oracles byte for byte: the vocabulary, the
    count columns and the codes after them."""
    fit_streams = [streams[i] for i in train]
    try:
        ref = reference_fit_vectorizer(fit_streams, max_df, min_df, ngram_range)
    except FeatureError as exc:
        with pytest.raises(FeatureError, match=str(exc)):
            fit_vectorizer(count_ngrams(streams, ngram_range), train, max_df, min_df)
        return None
    grams = count_ngrams(streams, ngram_range)
    vec = fit_vectorizer(grams, train, max_df, min_df)
    assert _vocabulary_bytes(vec) == _vocabulary_bytes(ref)
    assert vec == ref
    rng = np.random.default_rng(len(streams))
    codes = rng.integers(0, 5, size=(len(streams), len(CATEGORICAL_FIELDS))).astype(float)
    rows = list(range(len(streams)))[::-1]
    X = transform(vec, grams, rows, codes[rows])
    V = len(vec.vocabulary)
    assert X.shape == (len(rows), V + len(CATEGORICAL_FIELDS))
    assert X[:, :V].tobytes() == reference_transform(vec, [streams[i] for i in rows]).tobytes()
    assert X[:, V:].tobytes() == codes[rows].tobytes()
    return vec


@pytest.fixture(scope="module")
def synth_streams(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=150, n_classes=4, seed=9))
    return pipeline.preprocess_corpus(corpus, lexica).streams


@pytest.mark.parametrize("ngram_range", [(1, 1), (1, 2), (2, 3)])
@pytest.mark.parametrize("max_df,min_df", [(0.5, 0.01), (1.0, 0.0), (1.0, 0.05), (0.4, 0.0)])
def test_vectorizer_bytes_equal_string_reference(synth_streams, ngram_range, max_df, min_df):
    # fitted on 4 of every 5 documents, so the held-out ones, and a last
    # document of new words, bring n-grams the corpus interned but the fit
    # never saw; min_df = 0 must still keep only n-grams of fitted documents
    streams = [*synth_streams, ts("nunca", "visto", "antes", "hoy")]
    train = [i for i in range(len(synth_streams)) if i % 5]
    vec = assert_matches_reference(streams, train, max_df, min_df, ngram_range)
    fitted = {g for i in train for g in reference_ngrams(streams[i].tokens, *ngram_range)}
    assert set(count_ngrams(streams, ngram_range).names) - fitted
    assert set(vec.vocabulary) <= fitted


_TOKENS = st.sampled_from(["a", "b", "c", "court", "decision", "jurisdiction", "case_type"])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(_TOKENS, max_size=6), min_size=1, max_size=8),
    st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 3)]),
    st.sampled_from([(1.0, 0.0), (0.5, 0.0), (1.0, 0.3), (0.6, 0.2)]),
    st.data(),
)
def test_vectorizer_matches_string_reference_on_arbitrary_streams(docs, ngram_range, df, data):
    # short streams, often empty or shorter than the range, over tokens
    # that include entity field names; the fit may repeat a document
    streams = [ts(*tokens) for tokens in docs]
    train = data.draw(st.lists(st.integers(0, len(streams) - 1), min_size=1, max_size=10))
    max_df, min_df = df
    assert_matches_reference(streams, train, max_df, min_df, ngram_range)


def test_ngram_range_longer_than_every_stream_counts_in_bounded_time():
    streams = [ts("a", "b", "c"), ts(), ts("b", "c")]
    longest = count_ngrams(streams, (1, 3))
    for hi in (100_000, 10**12):
        with within_seconds(5):
            grams = count_ngrams(streams, (1, hi))
        assert grams.ngram_range == (1, hi)
        assert grams.names == longest.names
        for name in ("indptr", "ids", "counts"):
            assert getattr(grams, name).tobytes() == getattr(longest, name).tobytes()


def test_fit_vectorizer_uniwords_and_biwords():
    streams = [ts("a", "b"), ts("a", "c")]
    vec = vectorize(streams, max_df=1.0, min_df=0.0, ngram_range=(1, 2))
    assert set(vec.vocabulary) == {"a", "b", "c", "a b", "a c"}
    assert vec.names == sorted(vec.names)


def test_fit_vectorizer_df_bounds():
    streams = [ts("siempre", "x"), ts("siempre", "y"), ts("siempre", "x")]
    vec = vectorize(streams, max_df=0.5, min_df=0.0, ngram_range=(1, 1))
    assert "siempre" not in vec.vocabulary  # df 1.0 > 0.5
    vec2 = vectorize(streams, max_df=1.0, min_df=0.5, ngram_range=(1, 1))
    assert "y" not in vec2.vocabulary  # df 1/3 < 0.5
    assert "x" in vec2.vocabulary  # df 2/3 >= 0.5


def test_fit_vectorizer_errors():
    # equal df bounds and reversed or boolean n-gram bounds are refused by
    # PipelineConfig and the pipeline loader, before any count is taken
    with pytest.raises(FeatureError, match="empty"):
        vectorize([ts("a"), ts("a")], max_df=0.4, min_df=0.0, ngram_range=(1, 1))
    with pytest.raises(FeatureError, match="no documents"):
        fit_vectorizer(count_ngrams([ts("a")], (1, 1)), [], 1.0, 0.0)
    with pytest.raises(FeatureError, match="empty"):  # no document has a bigram
        vectorize([ts("a"), ts()], max_df=1.0, min_df=0.0, ngram_range=(2, 2))


def test_fit_vectorizer_leaves_out_categorical_field_names():
    streams = [ts("court", "a", *CATEGORICAL_FIELDS), ts("decision", "a", "jurisdiction")]
    vec = vectorize(streams, max_df=1.0, min_df=0.0, ngram_range=(1, 2))
    assert not set(CATEGORICAL_FIELDS) & set(vec.vocabulary)
    assert {"a", "court a", "decision a", "a jurisdiction"} <= set(vec.vocabulary)
    # so the full matrix has one column per name
    records = [_record(), _record()]
    codes = CategoricalEncoder().fit(records).transform(records)
    grams = count_ngrams(streams, (1, 2))
    X = transform(vec, grams, [0, 1], codes)
    header = feature_matrix_to_text(vec.names, X, ["d1", "d2"]).splitlines()[0].split("\t")
    names = [cell.split(":", 1)[1] for cell in header[1:]]
    assert len(names) == len(set(names)) == X.shape[1]


def test_count_ngrams_interns_in_sorted_order():
    grams = count_ngrams([ts("b", "a", "b"), ts(), ts("c")], (1, 2))
    assert grams.names == ["a", "a b", "b", "b a", "c"]
    assert grams.indptr.tolist() == [0, 4, 4, 5]
    assert grams.ids.dtype == grams.counts.dtype == np.int32
    per_doc = [
        {grams.names[j]: c for j, c in zip(grams.ids[a:b], grams.counts[a:b])}
        for a, b in zip(grams.indptr, grams.indptr[1:])
    ]
    assert per_doc == [{"a": 1, "a b": 1, "b": 2, "b a": 1}, {}, {"c": 1}]


def test_transform_counts():
    streams = [ts("a", "b", "a")]
    vec = vectorize(streams, max_df=1.0, min_df=0.0, ngram_range=(1, 2))
    X = count_matrix(vec, streams)
    assert X[0, vec.vocabulary["a"]] == 2
    assert X[0, vec.vocabulary["a b"]] == 1
    # a document of unseen tokens maps to the zero row
    assert count_matrix(vec, [ts("zz")]).sum() == 0
    # re-transforming the fitting document reproduces the fit counts
    assert (count_matrix(vec, streams) == X).all()


def test_transform_permutation_equivariant():
    streams = [ts("a", "b"), ts("b", "c"), ts("a", "c", "c")]
    grams = count_ngrams(streams, (1, 1))
    vec = fit_vectorizer(grams, range(3), max_df=1.0, min_df=0.0)
    codes = np.arange(21, dtype=float).reshape(3, 7)
    X = transform(vec, grams, [0, 1, 2], codes)
    perm = [2, 0, 1]
    Xp = transform(vec, grams, perm, codes[perm])
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


def reference_ranks(values):
    """The tie loop _ranks replaced, kept as an oracle: walk the stable
    sort, extend each group while the next value equals its first, and give
    the group its mean 1-based position."""
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


# few distinct values, so most draws hold ties, plus every special float
_RANK_VALUES = st.one_of(
    st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_RANK_VALUES, max_size=40), st.integers(0, 12))
@example([], 0)
@example([np.nan, np.nan, np.nan], 0)
def test_ranks_match_tie_loop_reference(values, n_tied):
    v = np.array(values, dtype=float)
    assert features._ranks(v).tobytes() == reference_ranks(v).tobytes()
    tied = np.full(n_tied, v[0] if len(v) else -0.0)
    assert features._ranks(tied).tobytes() == reference_ranks(tied).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=2, max_size=40))
def test_discretized_varying_column_holds_bins_10_and_1(values):
    # why select_by_correlation scores every column that is not constant
    if len(set(values)) < 2:
        return
    disc = discretize_ranks(values)
    assert disc.max() == 10 and disc.min() == 1


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


def _matrix(cols: dict):
    """(names, matrix) of named columns; the selections answer by position."""
    names = list(cols)
    return names, np.column_stack([np.asarray(cols[n], dtype=float) for n in names])


def test_select_by_correlation_thresholds():
    rng = np.random.default_rng(0)
    target = np.arange(40) % 5 + 1
    aligned = target * 2.0
    noise = rng.normal(size=40)
    constant = np.ones(40)
    names, X = _matrix({"aligned": aligned, "noise": noise, "constant": constant})
    kept_all, correlations = select_by_correlation(X, target, 0.0)
    assert names.index("constant") not in kept_all
    assert [names[i] for i in kept_all] == ["aligned", "noise"]
    kept_none, _ = select_by_correlation(X, target, 1.01)
    assert kept_none == []
    assert set(correlations) == {0, 1}
    assert abs(correlations[0]) > abs(correlations[1])


def test_select_by_correlation_monotone_in_threshold():
    rng = np.random.default_rng(1)
    target = rng.integers(1, 4, size=60)
    cols = {f"c{i}": rng.normal(size=60) + (target if i % 2 else 0) for i in range(6)}
    _, X = _matrix(cols)
    kept_low, _ = select_by_correlation(X, target, 0.1)
    kept_high, _ = select_by_correlation(X, target, 0.5)
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
    names, X = _matrix({"informative": informative, **noise_cols})
    kept, importances = select_by_importance(X, _label_sets(labels), n_estimators=20, seed=3)
    assert names.index("informative") in kept
    assert kept == [i for i, imp in enumerate(importances) if imp >= importances.mean()]
    by_name = dict(zip(names, importances))
    assert by_name["informative"] > importances.mean()


def test_select_by_importance_single_class_errors():
    _, X = _matrix({"a": [1.0, 2.0, 3.0]})
    with pytest.raises(FeatureError):
        select_by_importance(X, _label_sets([1, 1, 1]), n_estimators=20, seed=0)


def test_feature_matrix_unique_names_and_export():
    # a vocabulary never holds an entity field's name (see
    # test_fit_vectorizer_leaves_out_categorical_field_names), so the
    # header names each column once
    X = np.hstack([[[1.0, 0.0], [0.0, 2.0]], np.zeros((2, 7))])
    lines = feature_matrix_to_text(["alfa", "beta"], X, ["d1", "d2"]).splitlines()
    header = lines[0].split("\t")
    assert header == ["id", "textual:alfa", "textual:beta"] + [
        f"categorical:{name}" for name in CATEGORICAL_FIELDS
    ]
    assert len(header) == len(set(header))
    assert lines[1].split("\t") == ["d1", "1", "0"] + ["0"] * 7
    assert lines[1].split("\t")[0] == "d1"
    assert len(lines) == 3


def test_fit_pipeline_selects_from_views_of_one_matrix(lexica, monkeypatch):
    # both selection stages read column views of the one feature matrix,
    # not copies of its textual and categorical columns
    seen = {}
    for name in ("select_by_correlation", "select_by_importance"):

        def capture(X, *args, _name=name, _original=getattr(pipeline, name), **kwargs):
            seen[_name] = X
            return _original(X, *args, **kwargs)

        monkeypatch.setattr(pipeline, name, capture)
    corpus = generate_corpus(SynthSpec(n_docs=40, n_classes=3, seed=3))
    config = pipeline.PipelineConfig(n_estimators=2)
    fitted = pipeline.fit_pipeline(corpus, config, lexica)
    categorical, textual = seen["select_by_correlation"], seen["select_by_importance"]
    assert textual.base is not None
    assert categorical.base is textual.base
    # the one matrix is transform's: the vocabulary's n-gram columns, then
    # the entity fields'; the textual view spans the first, the
    # categorical view the second
    prep = pipeline.preprocess_corpus(corpus, lexica)
    codes = fitted.encoder.transform(prep.records)
    rows = range(corpus.n)
    vec, _, _ = pipeline.fit_features(prep, config, rows)
    full = transform(vec, prep.ngrams(vec.ngram_range), rows, codes)
    assert textual.base.shape == full.shape and textual.base.tobytes() == full.tobytes()
    n_text = len(vec.vocabulary)
    assert textual.tobytes() == full[:, :n_text].tobytes()
    assert categorical.tobytes() == full[:, n_text:].tobytes()
    n_kept_text = len(fitted.vectorizer.vocabulary)
    assert set(fitted.kept_names[:n_kept_text]) <= set(vec.names)
    assert set(fitted.kept_names[n_kept_text:]) <= set(CATEGORICAL_FIELDS)


def test_one_document_path_matches_batch_and_string_reference(lexica):
    # row_for counts one document's n-grams into the corpus form and goes
    # through the same transform: its rows equal the string oracle's, and
    # predict_document agrees with predict_prepared on every held-out doc
    corpus = generate_corpus(SynthSpec(n_docs=90, n_classes=3, seed=4))
    prep = pipeline.preprocess_corpus(corpus, lexica)
    config = pipeline.PipelineConfig(n_estimators=3, min_samples_leaf=1)
    fitted = pipeline.fit_pipeline(corpus, config, lexica, prep=prep, doc_indices=range(70))
    held_out = list(range(70, 90))
    vec, _, _ = pipeline.fit_features(prep, config, range(70))
    counts = reference_transform(vec, [prep.streams[i] for i in held_out])
    codes = fitted.encoder.transform([prep.records[i] for i in held_out])
    names = [*vec.names, *CATEGORICAL_FIELDS]
    X = np.hstack([counts, codes])[:, [names.index(n) for n in fitted.kept_names]]
    batch = fitted.predict_prepared(prep, held_out)
    assert batch == predict_batch(fitted.model, X, config.bts_threshold)
    for k, i in enumerate(held_out):
        row = fitted.row_for(prep.streams[i], prep.records[i])
        assert row.tobytes() == X[k].tobytes()
        assert fitted.predict_document(corpus.documents[i], lexica) == batch[k]


def test_loaded_pipeline_derives_the_fitted_columns(lexica):
    # a pipeline file holds the model's column names once; the vectorizer
    # of the kept n-grams is derived from them, with the settings' range
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=21))
    prep = pipeline.preprocess_corpus(corpus, lexica)
    config = pipeline.PipelineConfig(n_estimators=3, min_samples_leaf=1, ngram_range=(1, 3))
    fitted = pipeline.fit_pipeline(corpus, config, lexica, prep=prep, doc_indices=range(45))
    text = pipeline.pipeline_to_json(fitted)
    assert sorted(pipeline_obj(text)) == ["encoder", "format", "model", "settings"]
    loaded = pipeline.pipeline_from_json(text)
    assert loaded.vectorizer == fitted.vectorizer
    assert loaded.vectorizer.ngram_range == (1, 3)
    assert loaded.kept_names == fitted.kept_names == list(fitted.model.feature_names)
    n_text = len(loaded.vectorizer.vocabulary)
    assert 0 < n_text < len(loaded.kept_names)  # n-grams, then entity fields
    assert set(loaded.kept_names[n_text:]) <= set(CATEGORICAL_FIELDS)
    held_out = range(45, 60)
    assert loaded.predict_prepared(prep, held_out) == fitted.predict_prepared(prep, held_out)


def test_loading_a_pipeline_parses_each_byte_once(lexica, tmp_path, monkeypatch):
    # the loader used to write the parsed model back to JSON and parse it again
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=21))
    config = pipeline.PipelineConfig(n_estimators=3, min_samples_leaf=1)
    path = tmp_path / "p.json"
    pipeline.save_pipeline(pipeline.fit_pipeline(corpus, config, lexica), path)
    parsed, dumped = [], []
    parse_json, dumps = lexcat.parse_json, json.dumps

    def counted_parse(text, *args):
        parsed.append(len(text))
        return parse_json(text, *args)

    def counted_dumps(*args, **kwargs):
        dumped.append(args)
        return dumps(*args, **kwargs)

    for module in (pipeline, trees):
        monkeypatch.setattr(module, "parse_json", counted_parse)
        monkeypatch.setattr(module.json, "dumps", counted_dumps)
    pipeline.load_pipeline(path)
    assert dumped == []
    assert len(parsed) == 2
    assert sum(parsed) == len(path.read_text(encoding="utf-8")) - 1  # all but the newline


def test_fit_pipeline_on_one_label_set_warns_and_keeps_every_ngram(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=30, n_classes=3, seed=3))
    only = corpus.documents[0].annotations
    corpus = Corpus(tuple(replace(d, annotations=only) for d in corpus.documents))
    config = pipeline.PipelineConfig(n_estimators=2)
    with pytest.warns(UserWarning, match="single-class corpus: feature selection skipped"):
        fitted = pipeline.fit_pipeline(corpus, config, lexica)
    # neither selection stage runs: every n-gram stays, and no entity field
    vec, _, _ = pipeline.fit_features(pipeline.preprocess_corpus(corpus, lexica), config, range(30))
    assert fitted.kept_names == vec.names
    assert fitted.model.mts_catalog.combos == (only,)
