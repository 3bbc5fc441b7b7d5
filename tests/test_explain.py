import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat import explain, trees
from lexcat.corpus import LabelAssignment
from lexcat.entities import extract_entities
from lexcat.explain import (
    ExplainError,
    Explanation,
    PathStep,
    build_explanation,
    class_display_names,
    decide,
    export_tree_graph,
    extract_path,
    render_explanation,
    select_top_terms,
    signed_relevance,
)
from lexcat.labels import ClassCatalog, MtsCatalog
from lexcat.pipeline import ConfigError, PipelineConfig, fit_pipeline, load_pipeline, save_pipeline
from lexcat.synth import SynthSpec, generate_corpus
from lexcat.textproc import to_token_stream
from lexcat.trees import (
    EnsembleModel,
    Hyperparams,
    Tree,
    fit_ensemble,
    predict_proba_batch,
    split_counts,
)

from test_trees import (
    _label_sets_for,
    column_values,
    las,
    pack_trees,
    reference_apply,
    reference_predict_proba,
    small_model,
)


def make_tree(feature, threshold, left, right, depth, counts):
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        depth=np.asarray(depth, dtype=np.int32),
        counts=np.asarray(counts, dtype=float),
    )


def leaf_tree(counts):
    return make_tree([-1], [np.nan], [-1], [-1], [0], [counts])


NAMES = ("f0", "f1", "f2")


def test_extract_path_single_leaf():
    assert extract_path(leaf_tree([1.0, 0.0]), np.zeros(3), NAMES) == []


def test_extract_path_one_step():
    tree = make_tree(
        [0, -1, -1], [0.5, np.nan, np.nan], [1, -1, -1], [2, -1, -1], [0, 1, 1],
        [[2, 2], [2, 0], [0, 2]],
    )
    steps = extract_path(tree, np.array([0.3, 0, 0]), NAMES)
    assert steps == [PathStep("f0", 0.3, "less", 0.5)]


def test_extract_path_depth3_hand_trace():
    tree = make_tree(
        feature=[0, 1, -1, -1, 2, -1, -1],
        threshold=[0.5, 0.25, np.nan, np.nan, 0.75, np.nan, np.nan],
        left=[1, 3, -1, -1, 5, -1, -1],
        right=[2, 4, -1, -1, 6, -1, -1],
        depth=[0, 1, 1, 2, 2, 3, 3],
        counts=[[4, 4]] * 7,
    )
    row = np.array([0.3, 0.4, 0.9])
    steps = extract_path(tree, row, NAMES)
    assert steps == [
        PathStep("f0", 0.3, "less", 0.5),
        PathStep("f1", 0.4, "more", 0.25),
        PathStep("f2", 0.9, "more", 0.75),
    ]
    # the replayed walk ends at the same leaf the reference walk reaches
    assert int(reference_apply(tree, row[None, :])[0]) == 6


def test_extract_path_malformed_tree():
    cyclic = make_tree([0, 0], [0.5, 0.5], [1, 0], [1, 0], [0, 1], [[1, 1], [1, 1]])
    with pytest.raises(ExplainError, match="cycle"):
        extract_path(cyclic, np.array([0.0, 0.0, 0.0]), NAMES)


def test_path_step_invariant():
    with pytest.raises(ExplainError, match="direction contradicts"):
        PathStep("f", 1.0, "less", 0.5)
    with pytest.raises(ExplainError, match="bad direction: 'sideways'"):
        PathStep("f", 0.1, "sideways", 0.5)
    with pytest.raises(ExplainError, match="direction contradicts"):
        PathStep(feature="f", value=float("nan"), direction="less", threshold=0.5)
    step = PathStep(feature="f", value=0.5, direction="less", threshold=0.5)
    assert (step.feature, step.value, step.direction, step.threshold) == ("f", 0.5, "less", 0.5)
    assert step == ("f", 0.5, "less", 0.5)
    assert repr(step) == "PathStep(feature='f', value=0.5, direction='less', threshold=0.5)"
    with pytest.raises(AttributeError):
        step.value = 0.0


def aggregate_terms(paths, textual_names) -> list[str]:
    """N-gram features appearing in any path step, ordered by descending
    occurrence count across all trees (ties alphabetical): the ranking
    build_explanation reads from trees.split_counts, kept as its oracle."""
    textual = set(textual_names)
    counts = Counter(
        step.feature for path in paths for step in path if step.feature in textual
    )
    return sorted(counts, key=lambda t: (-counts[t], t))


def test_aggregate_terms():
    textual = {"alfa", "beta"}
    p = lambda *feats: [PathStep(f, 0.0, "less", 1.0) for f in feats]
    assert aggregate_terms([p("alfa")], textual) == ["alfa"]
    paths = [p("alfa"), p("alfa", "beta"), p("alfa"), p("beta"), p("alfa")]
    assert aggregate_terms(paths, textual) == ["alfa", "beta"]
    assert aggregate_terms([p("case_type")], textual) == []


@pytest.mark.parametrize("kind", ["mts", "bts"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_split_counts_equal_the_extracted_paths(kind, data):
    model = small_model(kind)
    d = len(model.feature_names)
    row = np.array(data.draw(st.lists(column_values(model), min_size=d, max_size=d)))
    steps = Counter(
        step.feature for tree in model.trees for step in extract_path(tree, row, model.feature_names)
    )
    got = split_counts(model, row)
    assert got.tolist() == [steps[name] for name in model.feature_names]


def _las(n):
    return [LabelAssignment("civil", (f"c{i}", "x", "y")) for i in range(n)]


def _relevance(model, row, n_samples, seed):
    """Absolute surrogate coefficients, as explanations rank terms."""
    signed, _ = signed_relevance(
        model, row, len(row), n_samples=n_samples, seed=seed, threshold=0.5
    )
    return {t: abs(v) for t, v in signed.items()}


def test_perturbation_relevance_dominant_term():
    rng = np.random.default_rng(0)
    n = 300
    X = (rng.random((n, 4)) < 0.5).astype(float)
    y = X[:, 1].astype(int)  # class fully determined by feature f1
    classes = _las(2)
    sets = [(classes[v],) for v in y]
    model = fit_ensemble(
        X, sets, Hyperparams(seed=0), "dt", "mts", feature_names=("f0", "f1", "f2", "f3")
    )
    row = np.array([1.0, 1.0, 1.0, 0.0])
    rel = _relevance(model, row, n_samples=400, seed=1)
    assert set(rel) == {"f0", "f1", "f2"}  # only active terms get a relevance
    assert rel["f1"] > 5 * max(rel["f0"], rel["f2"])
    again = _relevance(model, row, n_samples=400, seed=1)
    assert rel == again  # deterministic under a fixed seed


def test_perturbation_relevance_no_active_terms():
    classes = _las(2)
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    sets = [(classes[0],), (classes[1],), (classes[0],), (classes[1],)]
    model = fit_ensemble(X, sets, Hyperparams(seed=0), "dt", "mts")
    assert _relevance(model, np.zeros(2), n_samples=50, seed=0) == {}
    # too few perturbed copies are refused once, by the config that sets them
    with pytest.raises(ConfigError, match="relevance_samples"):
        PipelineConfig(relevance_samples=5)


def test_select_top_terms():
    freq = [f"t{i}" for i in range(10)]
    rel = {t: 0.01 * (10 - i) for i, t in enumerate(freq)}
    top = select_top_terms(freq, rel)
    assert len(top) == 7
    assert [t for t, _ in top] == freq[:7]  # already relevance-descending here
    assert select_top_terms(freq, {}) == []
    six = select_top_terms(freq[:6], rel)
    assert len(six) == 6
    # output is sorted by relevance, not frequency
    mixed = select_top_terms(["a", "b"], {"a": 0.1, "b": 0.9})
    assert mixed == [("b", 0.9), ("a", 0.1)]


def test_confidence_values():
    classes = _las(2)
    catalog = ClassCatalog(tuple(sorted(classes, key=lambda a: a.key())))
    combos = MtsCatalog(((classes[0],), (classes[1],)))

    def model_with(counts_list):
        return EnsembleModel(
            variant="rf",
            strategy="mts",
            hyperparams=Hyperparams(),
            feature_names=("f0",),
            class_catalog=catalog,
            mts_catalog=combos,
            forests=[pack_trees([leaf_tree(c) for c in counts_list], np.ones(2), 1)],
        )

    assert decide(model_with([[7.0, 0.0]]), np.zeros(1), 0.5).confidence == 100
    assert decide(model_with([[12.0, 88.0]]), np.zeros(1), 0.5).confidence == 88
    assert decide(model_with([[1.0, 1.0]]), np.zeros(1), 0.5).confidence == 50


LISTING_EXPECTED = """For sample 10 the features' values and model decision are:

- Case type: recurso de suplicación
- Court: Tribunal Superior de Justicia
- Decision: desestimatorio
- Decision type: sustantivo
- Instance type: segunda
- Jurisdiction: social
- Resolution type: sentencia

- Substantive order: social
- Law categories: derecho del trabajo, derecho de la contratacion laboral y derecho relativo al contrato de trabajo

This decision has a confidence of 88

The most representative terms (ngrams) and their relevance are:
- Estatuto Trabajadores -- 0.076
- recurso suplicación -- 0.070
- Jurisdicción Social -- 0.067
- suplicación -- 0.064
- trabajadores -- 0.051
- Estatuto -- 0.033
"""


def reference_explanation():
    return Explanation(
        sample_id="10",
        entities=(
            "recurso de suplicación",
            "Tribunal Superior de Justicia",
            "desestimatorio",
            "sustantivo",
            "segunda",
            "social",
            "sentencia",
        ),
        assignments=(
            LabelAssignment(
                "social",
                (
                    "derecho del trabajo",
                    "derecho de la contratacion laboral",
                    "derecho relativo al contrato de trabajo",
                ),
            ),
        ),
        confidence=88,
        top_terms=(
            ("Estatuto Trabajadores", 0.076),
            ("recurso suplicación", 0.070),
            ("Jurisdicción Social", 0.067),
            ("suplicación", 0.064),
            ("trabajadores", 0.051),
            ("Estatuto", 0.033),
        ),
        signed_relevance={},
    )


def test_render_reference_bytes():
    assert render_explanation(reference_explanation()) == LISTING_EXPECTED


def test_render_deterministic_and_empty_terms():
    e = reference_explanation()
    assert render_explanation(e) == render_explanation(e)
    bare = Explanation(
        sample_id="1", entities=("x",) * 7, assignments=e.assignments, confidence=50, top_terms=(),
        signed_relevance={},
    )
    text = render_explanation(bare)
    assert text.endswith("The most representative terms (ngrams) and their relevance are:\n")


def test_render_two_assignments_two_blocks():
    e = reference_explanation()
    second = LabelAssignment("mercantile", ("a", "b", "c"))
    two = dataclasses.replace(e, assignments=(e.assignments[0], second))
    text = render_explanation(two)
    assert text.count("- Substantive order:") == 2
    assert "- Substantive order: social\n- Law categories: derecho del trabajo" in text
    assert "\n\n- Substantive order: mercantile\n- Law categories: a, b y c\n" in text


def test_explanation_invariants():
    e = reference_explanation()
    with pytest.raises(ExplainError):
        dataclasses.replace(e, confidence=104)
    for entities in (e.entities[:6], e.entities + ("x",)):
        with pytest.raises(ExplainError):
            dataclasses.replace(e, entities=entities)


def test_export_tree_graph_single_leaf():
    dot = export_tree_graph(leaf_tree([3.0, 1.0]), None, NAMES, ["class a", "class b"])
    assert dot.count("[label=") == 1
    assert "class a" in dot
    assert "->" not in dot
    assert dot.startswith("digraph")


def test_export_tree_graph_depth2_counts():
    tree = make_tree(
        [0, -1, -1], [0.5, np.nan, np.nan], [1, -1, -1], [2, -1, -1], [0, 1, 1],
        [[4, 4], [4, 0], [0, 4]],
    )
    dot = export_tree_graph(tree, None, NAMES, ["a", "b"])
    assert dot.count("->") == 2
    assert dot.count("[label=") == 5  # 3 nodes + 2 edges
    assert "f0 ≤ 0.5" in dot


def test_export_tree_graph_truncation():
    tree = make_tree(
        feature=[0, 1, -1, -1, -1],
        threshold=[0.5, 0.25, np.nan, np.nan, np.nan],
        left=[1, 3, -1, -1, -1],
        right=[2, 4, -1, -1, -1],
        depth=[0, 1, 1, 2, 2],
        counts=[[4, 4], [2, 2], [0, 4], [2, 0], [0, 2]],
    )
    dot = export_tree_graph(tree, 1, NAMES, ["a", "b"])
    assert '"..."' in dot
    assert "f1" not in dot  # the depth-1 split is collapsed


def test_class_display_names_mts_semantics():
    penal = LabelAssignment(
        "penal", ("crimes against collective security", "tort law", "road traffic law")
    )
    catalog = MtsCatalog(((penal,),))
    model = EnsembleModel(
        variant="rf",
        strategy="mts",
        hyperparams=Hyperparams(),
        feature_names=("f0",),
        class_catalog=ClassCatalog((penal,)),
        mts_catalog=catalog,
        forests=[pack_trees([leaf_tree([1.0])], np.ones(1), 1)],
    )
    assert class_display_names(model, 0) == [
        "penal; crimes against collective security; tort law; road traffic law"
    ]


def test_build_explanation_end_to_end(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=80, n_classes=3, seed=1))
    config = PipelineConfig(n_estimators=5, min_samples_leaf=1, seed=1, relevance_samples=100)
    fitted = fit_pipeline(corpus, config, lexica)
    doc = corpus.documents[0]
    e1 = build_explanation(fitted, doc, lexica)
    e2 = build_explanation(fitted, doc, lexica)
    assert render_explanation(e1) == render_explanation(e2)
    assert e1.sample_id == doc.id
    assert 0 <= e1.confidence <= 100
    assert len(e1.top_terms) <= 7
    rels = [r for _, r in e1.top_terms]
    assert rels == sorted(rels, reverse=True)


@pytest.mark.parametrize("strategy", ["mts", "bts"])
def test_build_explanation_forest_evaluations(lexica, monkeypatch, strategy):
    # one evaluation of the explained row, plus one surrogate batch shared
    # by the explained classes: the MTS argmax, or each BTS positive
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=21))
    config = PipelineConfig(
        strategy=strategy, n_estimators=4, min_samples_leaf=1, seed=21, relevance_samples=60
    )
    fitted = fit_pipeline(corpus, config, lexica)
    calls = []

    def counting(model, X, classes=None):
        calls.append(len(X))
        return predict_proba_batch(model, X, classes)

    # explain may also reach the forest through the trees module's helpers
    monkeypatch.setattr(explain, "predict_proba_batch", counting)
    monkeypatch.setattr(trees, "predict_proba_batch", counting)
    doc = corpus.documents[4]
    e = build_explanation(fitted, doc, lexica)
    assert len(e.assignments) == 2 and e.signed_relevance
    # the surrogate batch holds each distinct perturbation of the row once
    stream = to_token_stream(doc.id, doc.raw_text, lexica.text.stopwords, lexica.text.lemmas)
    row = fitted.row_for(stream, extract_entities(doc, lexica.entities))
    k = np.count_nonzero(row[: len(fitted.vectorizer.vocabulary)])
    keep = np.random.default_rng(config.seed).random((60, k)) >= 0.5
    assert calls == [1, len(np.unique(keep, axis=0))]


@pytest.mark.parametrize("strategy", ["mts", "bts"])
def test_build_explanation_ranks_terms_as_the_decision_paths(lexica, strategy):
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=21))
    config = PipelineConfig(
        strategy=strategy, n_estimators=4, min_samples_leaf=1, seed=21, relevance_samples=60
    )
    fitted = fit_pipeline(corpus, config, lexica)
    model = fitted.model
    textual = fitted.kept_names[: len(fitted.vectorizer.vocabulary)]
    assert len(textual) < len(model.feature_names)  # entity columns are split on too
    for doc in corpus.documents[:6]:
        e = build_explanation(fitted, doc, lexica)
        stream = to_token_stream(doc.id, doc.raw_text, lexica.text.stopwords, lexica.text.lemmas)
        row = fitted.row_for(stream, extract_entities(doc, lexica.entities))
        paths = [extract_path(tree, row, model.feature_names) for tree in model.trees]
        relevances = {t: abs(v) for t, v in e.signed_relevance.items()}
        want = select_top_terms(aggregate_terms(paths, textual), relevances)
        assert list(e.top_terms) == want


def undeduplicated_relevance(model, row, n_samples, seed):
    """signed_relevance's coefficients with every perturbed row predicted,
    as before only the distinct ones were; every column is an n-gram."""
    active = np.flatnonzero(row)
    k = len(active)
    keep = np.random.default_rng(seed).random((n_samples, k)) >= 0.5
    X = np.tile(row, (n_samples, 1))
    X[:, active] = row[active] * keep
    probs = predict_proba_batch(model, X)
    sigma = 0.75 * np.sqrt(k)
    sqrt_w = np.sqrt(np.exp(-((k - keep.sum(axis=1)).astype(float) ** 2) / sigma**2))[:, None]
    A = np.hstack([np.ones((n_samples, 1)), keep.astype(float)]) * sqrt_w
    class_indices = decide(model, row, 0.5).class_indices
    coefs = np.zeros(k)
    for ci in class_indices:
        coef, *_ = np.linalg.lstsq(A, probs[:, ci] * sqrt_w[:, 0], rcond=None)
        coefs += coef[1:]
    return coefs / len(class_indices)


@pytest.mark.parametrize("strategy", ["mts", "bts"])
@pytest.mark.parametrize("k", [5, 64, 70])
def test_signed_relevance_equals_undeduplicated_prediction(strategy, k):
    # 5 active terms give at most 32 distinct masks in 500 draws; 64 and 70
    # active terms do not fit one 64-bit key per mask
    rng = np.random.default_rng(k)
    X = rng.poisson(0.8, size=(150, 72)).astype(float)
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] + X[:, 2] > 1)
    model = fit_ensemble(X, _label_sets_for(y, las(3)), Hyperparams(n_estimators=8, seed=k),
                         "rf", strategy)
    row = np.zeros(72)
    row[rng.choice(72, size=k, replace=False)] = rng.integers(1, 4, size=k)
    signed, _ = signed_relevance(model, row, len(row), n_samples=500, seed=3, threshold=0.5)
    assert len(signed) == k
    coefs = np.array(list(signed.values()))
    assert coefs.tobytes() == undeduplicated_relevance(model, row, 500, 3).tobytes()


@pytest.mark.parametrize("strategy", ["mts", "bts"])
def test_signed_relevance_bytes_equal_under_reference_forest(lexica, monkeypatch, strategy):
    # the surrogate's batch is 500 copies of the row that differ only in its
    # nonzero n-gram counts, so most columns are shared by every row
    corpus = generate_corpus(SynthSpec(n_docs=120, n_classes=3, seed=31))
    config = PipelineConfig(strategy=strategy, n_estimators=10, min_samples_leaf=1, seed=31)
    fitted = fit_pipeline(corpus, config, lexica)
    n_text = len(fitted.vectorizer.vocabulary)
    rows = [
        fitted.row_for(
            to_token_stream(doc.id, doc.raw_text, lexica.text.stopwords, lexica.text.lemmas),
            extract_entities(doc, lexica.entities),
        )
        for doc in corpus.documents[:6]
    ]

    def explained():
        return [
            signed_relevance(fitted.model, row, n_text, config.relevance_samples, config.seed,
                             config.bts_threshold)
            for row in rows
        ]

    def reference(model, X, classes=None):
        probs = reference_predict_proba(model, X)
        return probs if classes is None else probs[:, classes]

    got = explained()
    monkeypatch.setattr(explain, "predict_proba_batch", reference)
    want = explained()
    assert all(signed for signed, _ in got)
    for (signed, decision), (ref_signed, ref_decision) in zip(got, want):
        assert list(signed) == list(ref_signed)
        coefs, ref_coefs = (np.array(list(r.values())) for r in (signed, ref_signed))
        assert coefs.tobytes() == ref_coefs.tobytes()
        assert decision.probs.tobytes() == ref_decision.probs.tobytes()
        assert decision.assignments == ref_decision.assignments
        assert decision.class_indices == ref_decision.class_indices


# Over synth seeds 1-20 of the instance below, this share read 0.95-1.00
# under mts and 0.90-1.00 under bts. Explaining a wrong class (class 0 in
# place of the decision's) read at most 0.77, and flipping the
# coefficients' sign at most 0.02.
FAITHFUL_SHARE = 0.8


@pytest.mark.parametrize("strategy", ["mts", "bts"])
def test_deleting_the_top_terms_lowers_the_explained_class_more_than_random_terms(
    lexica, strategy
):
    # word deletion: zeroing the n-grams an explanation names as pushing
    # its decision up must lower the explained class probability more than
    # zeroing as many of the document's other n-grams at random (mean of 20
    # draws); a document whose top terms hold none with a positive
    # relevance counts as a miss
    corpus = generate_corpus(SynthSpec(n_docs=400, n_classes=8, seed=1))
    train = dataclasses.replace(corpus, documents=corpus.documents[:320])
    config = PipelineConfig(
        strategy=strategy, n_estimators=30, min_samples_leaf=1, seed=1, relevance_samples=100
    )
    fitted = fit_pipeline(train, config, lexica)
    model = fitted.model
    n_text = len(fitted.vectorizer.vocabulary)
    rng = np.random.default_rng(0)
    held_out = corpus.documents[320:380]
    beats = 0
    for doc in held_out:
        e = build_explanation(fitted, doc, lexica)
        stream = to_token_stream(doc.id, doc.raw_text, lexica.text.stopwords, lexica.text.lemmas)
        row = fitted.row_for(stream, extract_entities(doc, lexica.entities))
        top = [model.feature_names.index(t) for t, _ in e.top_terms if e.signed_relevance[t] > 0]
        if not top:
            continue
        active = np.flatnonzero(row[:n_text])
        rows = np.tile(row, (22, 1))  # the row, its top terms zeroed, 20 random draws
        rows[1, top] = 0.0
        for r in rows[2:]:
            r[rng.choice(active, size=len(top), replace=False)] = 0.0
        explained = decide(model, row, config.bts_threshold).class_indices
        prob = predict_proba_batch(model, rows)[:, explained].mean(axis=1)
        drops = prob[0] - prob[1:]
        beats += drops[0] > drops[1:].mean()
    assert beats >= FAITHFUL_SHARE * len(held_out), beats


def test_loaded_pipeline_packs_each_forest_once(lexica, monkeypatch, tmp_path):
    # the flat node tables are built when the pipeline loads; explaining and
    # predicting documents reuse them
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=21))
    config = PipelineConfig(
        strategy="bts", n_estimators=4, min_samples_leaf=1, seed=21, relevance_samples=60
    )
    save_pipeline(fit_pipeline(corpus, config, lexica), tmp_path / "pipeline.json")
    packed = []
    pack_forest = trees._pack_forest

    def counting(sizes, nodes, weights, n_features):
        packed.append(len(sizes))
        return pack_forest(sizes, nodes, weights, n_features)

    monkeypatch.setattr(trees, "_pack_forest", counting)
    fitted = load_pipeline(tmp_path / "pipeline.json")
    once = [4] * len(fitted.model.forests)  # one table per BTS class forest
    assert len(once) > 1 and packed == once
    for doc in corpus.documents[:3]:
        build_explanation(fitted, doc, lexica)
        fitted.predict_document(doc, lexica)
    assert packed == once
