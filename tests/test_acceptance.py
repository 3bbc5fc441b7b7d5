"""Acceptance suite: one test per criterion, at the stated tolerances.

The terminal summary (conftest) prints one PASS/FAIL line per criterion.
"""

import math
import time
import warnings
from dataclasses import astuple

import numpy as np

from lexcat import evaluation as ev
from lexcat.anonymiser import anonymize, jaro
from lexcat.corpus import Judgement, LabelAssignment, SUBSTANTIVE_ORDERS
from lexcat.entities import RESOLUTION_TYPES, extract_entities, parse_gin
from lexcat.explain import decide, extract_path, render_explanation
from lexcat.features import spearman
from lexcat.labels import (
    bts_decode,
    bts_encode,
    build_class_catalog,
    canonicalize,
    mts_decode,
    mts_encode,
)
from lexcat.pipeline import PipelineConfig, fit_pipeline, preprocess_corpus
from lexcat.synth import SynthSpec, generate_corpus
from lexcat.trees import (
    Hyperparams,
    fit_ensemble,
    impurity,
    model_to_json,
    predict_batch,
    predict_proba_batch,
)

from test_entities import _ref_extract_entities, _ref_first_match
from test_evaluation import oracle_all, random_instance
from test_explain import LISTING_EXPECTED, reference_explanation
from test_features import spearman_oracle
from test_trees import grown_tree, reference_apply


def _assignments(m):
    return [
        LabelAssignment(
            SUBSTANTIVE_ORDERS[j % len(SUBSTANTIVE_ORDERS)], (f"cat-{j}", "x", "y")
        )
        for j in range(m)
    ]


def test_criterion_01_metric_oracle_suite():
    rng = np.random.default_rng(20240101)
    t0 = time.perf_counter()
    for _ in range(1000):
        L, Z, classes = random_instance(rng, max_n=20, max_m=10)
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
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_transform_round_trips():
    rng = np.random.default_rng(20240102)
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        classes = _assignments(m)
        n = int(rng.integers(1, 13))
        label_sets = []
        for _ in range(n):
            size = int(rng.integers(1, min(3, m) + 1))
            members = [classes[int(i)] for i in rng.choice(m, size=size, replace=False)]
            label_sets.append(tuple(members))

        catalog = build_class_catalog(label_sets)
        beta = bts_encode(label_sets, catalog)
        for i, s in enumerate(label_sets):
            assert set(bts_decode(beta[i], catalog, 0.5)) == set(s)
            assert 1 <= beta[i].sum() <= 3

        mts_catalog, alphas = mts_encode(label_sets)
        for i, s in enumerate(label_sets):
            assert mts_decode(alphas[i], mts_catalog) == canonicalize(s)

        perm = [classes[int(i)] for i in rng.permutation(m)]
        assert canonicalize(perm[: min(3, m)]) == canonicalize(
            sorted(perm[: min(3, m)], key=lambda a: a.key())
        )

        # direct enumeration of the expected class and combination counts
        enumerated_m = len({a.key() for s in label_sets for a in s})
        enumerated_p = len({tuple(sorted(a.key() for a in s)) for s in label_sets})
        assert catalog.m == enumerated_m
        assert mts_catalog.p == enumerated_p
        assert mts_catalog.p <= len(label_sets)


def test_criterion_03_spearman_oracle():
    rng = np.random.default_rng(20240103)
    done = 0
    while done < 500:
        n = int(rng.integers(2, 60))
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.integers(0, 8, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        r = spearman(x, y)
        assert math.isclose(r, spearman_oracle(x, y), abs_tol=1e-12)
        assert math.isclose(r, spearman(y, x), abs_tol=1e-12)
        done += 1
    up = np.arange(25, dtype=float)
    assert spearman(up, 3 * up + 2) == 1.0
    assert spearman(up, -up) == -1.0


def test_criterion_04_tree_correctness():
    rng = np.random.default_rng(20240104)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = np.where(X[:, 0] < 0, 0, np.where(X[:, 1] < 0, 1, 2))
    tree = grown_tree(X, y, Hyperparams(max_depth=None, seed=0))
    leaves = reference_apply(tree, X)
    assert (tree.counts[leaves].argmax(axis=1) == y).all()

    assert impurity([4, 0], "gini") == 0.0
    assert impurity([1, 1], "gini") == 0.5
    assert impurity([2, 1, 1], "gini") == 0.625
    assert impurity([4, 0], "entropy") == 0.0
    assert impurity([1, 1], "entropy") == 1.0
    assert impurity([2, 1, 1], "entropy") == 1.5

    classes = _assignments(3)
    sets = [(classes[v],) for v in y]
    hp = Hyperparams(n_estimators=5, seed=99)
    m1 = fit_ensemble(X, sets, hp, "rf", "mts")
    m2 = fit_ensemble(X, sets, hp, "rf", "mts")
    assert model_to_json(m1) == model_to_json(m2)


def test_criterion_05_explanation_faithfulness(lexica):
    t0 = time.perf_counter()
    corpus = generate_corpus(SynthSpec(n_docs=400, n_classes=8, seed=11))
    config = PipelineConfig(n_estimators=50, seed=11)
    prep = preprocess_corpus(corpus, lexica)
    fitted = fit_pipeline(corpus, config, lexica, prep=prep)
    model = fitted.model
    forest = model.forests[0].trees()
    weights = model.forests[0].weights
    assert len(forest) == 50

    rng = np.random.default_rng(0)
    doc_ids = rng.choice(corpus.n, size=100, replace=False)
    name_index = {n: i for i, n in enumerate(model.feature_names)}
    for di in doc_ids:
        row = fitted.row_for(prep.streams[di], prep.records[di])
        agg = np.zeros(model.mts_catalog.p)
        for tree in forest:
            node = 0
            for step in extract_path(tree, row, model.feature_names):
                f = name_index[step.feature]
                assert (row[f] <= step.threshold) == (step.direction == "less")
                node = int(tree.left[node] if step.direction == "less" else tree.right[node])
            assert node == int(reference_apply(tree, row[None, :])[0])
            leaf_counts = tree.counts[node] * weights
            agg += leaf_counts / leaf_counts.sum()
        agg /= len(forest)
        k = int(np.argmax(agg))
        assert predict_batch(model, row[None, :], 0.5)[0] == mts_decode(k + 1, model.mts_catalog)
        assert np.allclose(predict_proba_batch(model, row[None, :])[0], agg, atol=1e-12)
        assert decide(model, row, 0.5).confidence == int(round(100 * agg[k]))
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_end_to_end_benchmark(lexica):
    t0 = time.perf_counter()
    corpus = generate_corpus(SynthSpec(n_docs=2000, n_classes=8, seed=42, noise=0.2))
    sizes = [len(d.annotations) for d in corpus.documents]
    cardinality = sum(sizes) / len(sizes)
    assert abs(cardinality - 1.4) <= 0.1

    config = PipelineConfig(
        strategy="mts",
        model="rf",
        class_weight=None,
        criterion="gini",
        max_depth=100,
        min_samples_leaf=10,
        min_samples_split=2,
        n_estimators=200,
        seed=42,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = ev.cross_validate(corpus, config, k=10, seed=42, lexica=lexica)
    means = report.means
    assert means.micro_precision >= 0.85
    assert means.hamming_loss <= 0.05
    assert time.perf_counter() - t0 < 300.0


def test_criterion_07_grid_search_vs_manual_loop(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=200, n_classes=4, seed=13))
    base = PipelineConfig(n_estimators=4, min_samples_leaf=1, seed=13)
    grid = {"criterion": ["gini", "entropy"], "max_df": [0.5, 0.9]}
    result = ev.grid_search(corpus, grid, k=3, base_config=base, seed=13, lexica=lexica)
    manual = []
    for criterion in grid["criterion"]:
        for max_df in grid["max_df"]:
            cfg = base.with_overrides({"criterion": criterion, "max_df": max_df})
            rep = ev.cross_validate(corpus, cfg, k=3, seed=13, lexica=lexica)
            manual.append(({"criterion": criterion, "max_df": max_df}, rep.means.micro_f))
    assert [(p, s) for p, s in result.scores] == manual
    best_manual = max(manual, key=lambda kv: kv[1])[0]
    assert result.best_params == best_manual


def test_criterion_08_anonymiser(lexica):
    assert math.isclose(jaro("martha", "marhta"), 0.9444, abs_tol=1e-4)
    firsts = ["Juan", "María", "Carmen", "Luis", "Patricia", "Diego", "Rosa", "Álvaro"]
    lasts = ["Pérez", "García", "Romero", "Alonso", "Navarro", "Torres", "Gil", "Castro"]
    templates = [
        "el Magistrado D. {f} {l} dictó la resolución",
        "la Procuradora Dña. {f} {l} compareció en nombre de la parte",
        "el Letrado D. {f} {l} presentó el escrito",
        "{f} {l} declaró como testigo en la vista",
        "la empresa Promociones {l}, S.L. resultó condenada en costas",
        "contra la mercantil {l} e Hijos, S.A. se dirige la demanda",
        "el demandante solicitó la nulidad, asistido por Dña. {f} {l}",
        "ante la Sra. {f} {l} se ratificó el convenio",
    ]
    rng = np.random.default_rng(20240108)
    texts = []
    for _ in range(200):
        template = templates[int(rng.integers(len(templates)))]
        f = firsts[int(rng.integers(len(firsts)))]
        l = lasts[int(rng.integers(len(lasts)))]
        texts.append((template.format(f=f, l=l), f, l))
    for text, f, l in texts:
        once, report = anonymize(text, lexica.anonymiser)
        assert f not in once
        assert l not in once
        twice, second_report = anonymize(once, lexica.anonymiser)
        assert once == twice
        assert second_report.counts == {}
        assert sum(report.counts.values()) >= 1


LISTING_DOC = """TRIBUNAL SUPERIOR DE JUSTICIA DE GALICIA Sala de lo Social
RECURSO DE SUPLICACIÓN 123/2019
S E N T E N C I A
ANTECEDENTES DE HECHO
Primero. La parte actora prestó servicios para la empresa demandada.
FUNDAMENTOS DE DERECHO
Se aplican los artículos del Estatuto de los Trabajadores.
FALLO
Que desestimamos el recurso interpuesto. Fallo desestimatorio."""


def test_criterion_09_entity_detection(lexica):
    rng = np.random.default_rng(20240109)
    for _ in range(1000):
        gin = "".join(str(int(d)) for d in rng.integers(0, 10, size=19))
        fields = parse_gin(gin)
        assert "".join(astuple(fields)) == gin
        assert (
            fields.province + fields.court_code + fields.jurisdiction_digit
            == gin[:8]
        )
    doc = Judgement(
        id="listing",
        raw_text=LISTING_DOC,
        annotations=(LabelAssignment("social", ("a", "b", "c")),),
    )
    record = extract_entities(doc, lexica.entities)
    assert record.display_values() == (
        "recurso de suplicación",
        "Tribunal Superior de Justicia",
        "desestimatorio",
        "sustantivo",
        "segunda",
        "social",
        "sentencia",
    )


def test_criterion_09_entity_round_trip(lexica):
    """Every case type, court, division and decision keyword of the bundled
    lexica, written into a judgement in random case and with random
    whitespace runs, comes back from extract_entities, and so does the
    jurisdiction the division maps to. A court written before the division
    may itself be a division phrase; the jurisdiction is then the per-phrase
    oracle's."""
    lx = lexica.entities
    divisions = list(lx.divisions)
    runs = (" ", "  ", "\n", "\t ", "\u00a0", " \u2028 ")
    rng = np.random.default_rng(20240129)

    def write(phrase):
        words = ["".join(c.upper() if rng.random() < 0.5 else c for c in w) for w in phrase.split()]
        return "".join(w + runs[rng.integers(len(runs))] for w in words)

    n = max(len(lx.case_types), len(lx.courts), len(divisions), len(lx.decisions))
    for i in range(2 * n):
        case_type = lx.case_types[i % len(lx.case_types)].name
        court, division = lx.courts[i % len(lx.courts)], divisions[i % len(divisions)]
        decision, resolution = lx.decisions[i % len(lx.decisions)], RESOLUTION_TYPES[i % 3]
        heading = write(court) + write(division) + write(case_type) + "7/2021 " + write(resolution)
        text = (heading + write("antecedentes de hecho") + "Primero. La parte actora demandó.\n"
                + write("fallo") + "Que debemos declarar y declaramos " + write(decision))
        doc = Judgement(id=f"d{i}", raw_text=text,
                        annotations=(LabelAssignment("social", ("a", "b", "c")),))
        record = extract_entities(doc, lx)
        assert (record.case_type, record.court, record.decision, record.resolution_type) == (
            case_type, court, decision, resolution)
        first_division = _ref_first_match(heading, divisions)
        assert record.jurisdiction == lx.divisions[first_division]
        if _ref_first_match(write(court), divisions) is None:
            assert first_division == division
        assert record == _ref_extract_entities(text, lx)


def test_criterion_10_rendering_byte_exact():
    assert render_explanation(reference_explanation()) == LISTING_EXPECTED
