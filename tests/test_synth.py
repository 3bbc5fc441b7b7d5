import pytest

from lexcat.corpus import corpus_stats, corpus_to_text, load_corpus
from lexcat.labels import mts_encode
from lexcat.synth import SynthSpec, generate_corpus

from test_trees import within_seconds


def test_corpus_shape_and_classes():
    corpus = generate_corpus(SynthSpec(n_docs=500, n_classes=8, seed=0))
    assert corpus.n == 500
    catalog, alphas = mts_encode([d.annotations for d in corpus.documents])
    assert catalog.p == 8
    assert set(alphas) == set(range(1, 9))


def test_cardinality_near_reference_profile():
    corpus = generate_corpus(SynthSpec(n_docs=2000, n_classes=8, seed=1))
    stats = corpus_stats(corpus)
    assert abs(stats.label_cardinality - 1.39) < 0.1
    assert set(stats.label_set_size_histogram) <= {1, 2, 3}


def test_deterministic_and_round_trips(tmp_path):
    a = generate_corpus(SynthSpec(n_docs=50, seed=7))
    b = generate_corpus(SynthSpec(n_docs=50, seed=7))
    assert a == b
    c = generate_corpus(SynthSpec(n_docs=50, seed=8))
    assert a != c
    path = tmp_path / "synth.jsonl"
    path.write_text(corpus_to_text(a), encoding="utf-8")
    assert load_corpus(path) == a


def test_gins_are_valid():
    corpus = generate_corpus(SynthSpec(n_docs=20, seed=3))
    for doc in corpus.documents:
        assert doc.gin is not None and len(doc.gin) == 19


def test_bad_spec():
    with pytest.raises(ValueError):
        generate_corpus(SynthSpec(n_docs=0))
    with pytest.raises(ValueError):
        generate_corpus(SynthSpec(n_classes=1))


def test_many_classes_do_not_hang():
    # more singleton combinations than the six base assignments once searched
    # forever for a seventh distinct singleton
    with within_seconds(10):
        corpus = generate_corpus(SynthSpec(n_docs=300, n_classes=14, seed=2))
    catalog, _ = mts_encode([d.annotations for d in corpus.documents])
    assert catalog.p == 14
