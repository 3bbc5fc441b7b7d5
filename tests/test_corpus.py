import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat.corpus import (
    Corpus,
    CorpusError,
    Judgement,
    LabelAssignment,
    SUBSTANTIVE_ORDERS,
    corpus_stats,
    corpus_to_text,
    load_corpus,
)


def la(order="civil", cats=("a", "b", "c")):
    return LabelAssignment(order, tuple(cats))


def test_label_assignment_validation():
    assert la().law_categories == ("a", "b", "c")
    with pytest.raises(CorpusError):
        LabelAssignment("criminal", ("a", "b", "c"))
    with pytest.raises(CorpusError):
        LabelAssignment("civil", ("a", "b"))
    with pytest.raises(CorpusError):
        LabelAssignment("civil", ("a", "b", " "))


def test_key_folds_case_and_whitespace():
    a = LabelAssignment("civil", ("Real  Rights", "b", "c"))
    b = LabelAssignment("civil", ("real rights", "b", "c"))
    assert a.key() == b.key()


def test_judgement_label_set_bounds():
    with pytest.raises(CorpusError, match="out of \\[1,3\\]"):
        Judgement("d", "t", annotations=())
    four = tuple(la(cats=(f"x{i}", "b", "c")) for i in range(4))
    with pytest.raises(CorpusError, match="out of \\[1,3\\]"):
        Judgement("d", "t", annotations=four)


def test_judgement_duplicate_annotation_rejected():
    with pytest.raises(CorpusError, match="duplicate annotation"):
        Judgement("d", "t", annotations=(la(), la(cats=("A", "b", "c"))))


def test_gin_rule():
    doc = Judgement("d", "t", (la(),), gin="0123456789012345678")
    assert doc.gin == "0123456789012345678"
    with pytest.raises(CorpusError):
        Judgement("d", "t", (la(),), gin="012345678901234567")
    with pytest.raises(CorpusError):
        Judgement("d", "t", (la(),), gin="012345678901234567x")


def test_corpus_unique_ids():
    doc = Judgement("d", "t", (la(),))
    with pytest.raises(CorpusError, match="duplicate document id"):
        Corpus((doc, doc))
    with pytest.raises(CorpusError):
        Corpus(())


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_corpus_two_annotations(tmp_path):
    # the worked two-annotation example: civil/mercantile + mercantile
    record = (
        '{"id": "file-i", "text": "Versa el juicio...", "labels": ['
        '{"order": "civil/mercantile", "categories": ["real rights", "guarantee real rights", "mortgage law"]},'
        '{"order": "mercantile", "categories": ["obligations - contracts law", "banking - financial market law", "banking law"]}]}'
    )
    path = tmp_path / "c.jsonl"
    write_lines(path, [record])
    corpus = load_corpus(path)
    assert corpus.n == 1
    assert len(corpus.documents[0].annotations) == 2
    assert corpus.documents[0].annotations[0].substantive_order == "civil/mercantile"


def test_load_corpus_errors_name_line(tmp_path):
    path = tmp_path / "c.jsonl"
    bad = (
        '{"id": "x", "text": "t", "labels": ['
        + ",".join(
            '{"order": "civil", "categories": ["a%d", "b", "c"]}' % i for i in range(4)
        )
        + "]}"
    )
    write_lines(path, [bad])
    with pytest.raises(CorpusError, match="line 1.*label set size out of \\[1,3\\]"):
        load_corpus(path)

    write_lines(path, ["{not json"])
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path)

    good = '{"id": "x", "text": "t", "labels": [{"order": "civil", "categories": ["a", "b", "c"]}]}'
    write_lines(path, [good, good])
    with pytest.raises(CorpusError, match="line 2.*duplicate"):
        load_corpus(path)

    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty"):
        load_corpus(path)


@pytest.mark.parametrize("field", ["id", "text", "categories"])
def test_load_corpus_rejects_lone_surrogate_escapes(tmp_path, field):
    # an escaped surrogate pair is one character, which loads; a lone
    # surrogate could be loaded but never written back as UTF-8
    path = tmp_path / "c.jsonl"
    labels = [{"order": "civil", "categories": ["a", "b", "c"]}]
    good = {"id": "x", "text": "t \ud83d\ude00", "labels": labels}
    write_lines(path, [json.dumps(good)])
    assert load_corpus(path).documents[0].raw_text == "t \U0001F600"
    bad = json.loads(json.dumps(good))
    if field == "categories":
        bad["labels"][0]["categories"][1] = "b\udc00"
    else:
        bad[field] = "x\ud800"
    write_lines(path, [json.dumps({**good, "id": "y"}), json.dumps(bad)])
    with pytest.raises(CorpusError, match=f"line 2: field '{field}' holds a lone surrogate"):
        load_corpus(path)


orders = st.sampled_from(SUBSTANTIVE_ORDERS)
words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=8
)


@st.composite
def judgements(draw, index):
    n_labels = draw(st.integers(1, 3))
    anns = tuple(
        LabelAssignment(
            draw(orders), (f"{draw(words)}-{i}", draw(words), draw(words))
        )
        for i in range(n_labels)
    )
    gin = draw(st.one_of(st.none(), st.text(alphabet="0123456789", min_size=19, max_size=19)))
    return Judgement(f"doc-{index}", draw(st.text(max_size=40)), anns, gin)


@st.composite
def corpora(draw):
    n = draw(st.integers(1, 6))
    return Corpus(tuple(draw(judgements(i)) for i in range(n)))


@settings(max_examples=50, deadline=None)
@given(corpora())
def test_save_load_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    path.write_text(corpus_to_text(corpus), encoding="utf-8")
    assert load_corpus(path) == corpus


def test_corpus_stats_single_labelled():
    docs = tuple(Judgement(f"d{i}", "t", (la(),)) for i in range(5))
    stats = corpus_stats(Corpus(docs))
    assert stats.label_cardinality == 1.0
    assert stats.label_set_size_histogram == {1: 5}
    assert stats.class_count == 1


def test_corpus_stats_hand_enumeration():
    docs = (
        Judgement("a", "t", (la(),)),
        Judgement("b", "t", (la(), la(cats=("x", "b", "c")), la(cats=("y", "b", "c")))),
    )
    stats = corpus_stats(Corpus(docs))
    assert stats.label_cardinality == 2.0
    assert stats.label_set_size_histogram == {1: 1, 3: 1}


def test_corpus_stats_reference_histogram():
    # 72182/27614/7010 documents with 1/2/3 labels -> cardinality 1.39
    single = (la(),)
    double = (la(), la(cats=("x", "b", "c")))
    triple = (la(), la(cats=("x", "b", "c")), la(cats=("y", "b", "c")))
    docs = []
    docs += [Judgement(f"s{i}", "", single) for i in range(72182)]
    docs += [Judgement(f"d{i}", "", double) for i in range(27614)]
    docs += [Judgement(f"t{i}", "", triple) for i in range(7010)]
    stats = corpus_stats(Corpus(tuple(docs)))
    assert stats.label_set_size_histogram == {1: 72182, 2: 27614, 3: 7010}
    assert math.isclose(stats.label_cardinality, 1.39, abs_tol=0.005)
    assert sum(stats.label_set_size_histogram.values()) == 106806


def test_histogram_sums_to_n_and_cardinality_bounds():
    docs = (
        Judgement("a", "t", (la(),)),
        Judgement("b", "t", (la(cats=("q", "b", "c")), la(cats=("r", "b", "c")))),
    )
    corpus = Corpus(docs)
    stats = corpus_stats(corpus)
    assert sum(stats.label_set_size_histogram.values()) == corpus.n
    assert 1.0 <= stats.label_cardinality <= 3.0
