from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from lexcat import corpus as corpus_module
from lexcat.corpus import Corpus, Judgement, LabelAssignment
from lexcat.labels import (
    LabelError,
    bts_decode,
    bts_encode,
    build_class_catalog,
    canonicalize,
    mts_decode,
    mts_encode,
)

# the two annotations of the worked example document
CM_REAL = LabelAssignment(
    "civil/mercantile", ("real rights", "guarantee real rights", "mortgage law")
)
M_OBLIG = LabelAssignment(
    "mercantile",
    ("obligations - contracts law", "banking - financial market law", "banking law"),
)
CM_OBLIG = LabelAssignment(
    "civil/mercantile", ("obligations - contracts law", "damages law", "road traffic law")
)


def _corpus(label_sets):
    docs = tuple(
        Judgement(f"d{i}", "t", tuple(s)) for i, s in enumerate(label_sets)
    )
    return Corpus(docs)


def test_build_class_catalog_single():
    catalog = build_class_catalog(_corpus([[CM_REAL]] * 3))
    assert catalog.m == 1


def test_build_class_catalog_example_doc():
    catalog = build_class_catalog(_corpus([[CM_REAL, M_OBLIG]]))
    assert catalog.m == 2
    # civil/mercantile sorts before mercantile
    assert catalog.classes[0] == CM_REAL
    assert catalog.classes[1] == M_OBLIG


def test_bts_encode_reference_row():
    catalog = build_class_catalog([[CM_REAL], [M_OBLIG], [CM_OBLIG]])
    beta = bts_encode([[CM_REAL, M_OBLIG]], catalog)
    expected = np.zeros(3, dtype=np.uint8)
    expected[catalog.index(CM_REAL)] = 1
    expected[catalog.index(M_OBLIG)] = 1
    assert (beta[0] == expected).all()
    assert beta[0][catalog.index(CM_OBLIG)] == 0


def test_bts_encode_basics():
    catalog = build_class_catalog([[CM_REAL], [M_OBLIG]])
    one_hot = bts_encode([[CM_REAL]], catalog)
    assert one_hot.tolist() == [[1, 0]]
    same = bts_encode([[CM_REAL, M_OBLIG], [M_OBLIG, CM_REAL]], catalog)
    assert (same[0] == same[1]).all()
    with pytest.raises(LabelError, match="not in catalog"):
        bts_encode([[CM_OBLIG]], catalog)


def test_bts_decode():
    catalog = build_class_catalog([[CM_REAL], [M_OBLIG], [CM_OBLIG]])
    assert bts_decode(np.array([1, 0, 0]), catalog, 0.5) == (catalog.classes[0],)
    beta = bts_encode([[CM_REAL, M_OBLIG]], catalog)
    assert set(bts_decode(beta[0], catalog, 0.5)) == {CM_REAL, M_OBLIG}
    # abstention fallback: argmax of the scores
    assert bts_decode(np.array([0.2, 0.4, 0.1]), catalog, 0.5) == (catalog.classes[1],)
    with pytest.raises(LabelError):
        bts_decode(np.array([1, 0]), catalog, 0.5)


def test_bts_decode_over_prediction_keeps_top3():
    extra = LabelAssignment("penal", ("a", "b", "c"))
    catalog = build_class_catalog([[CM_REAL], [M_OBLIG], [CM_OBLIG], [extra]])
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    decoded = bts_decode(scores, catalog, 0.5)
    assert len(decoded) == 3
    assert catalog.classes[3] not in decoded


def test_canonicalize():
    a, b = M_OBLIG, CM_REAL
    assert canonicalize([a, b]) == (CM_REAL, M_OBLIG)
    assert canonicalize([b, a]) == canonicalize([a, b])
    with pytest.raises(LabelError):
        canonicalize([])


@settings(max_examples=100, deadline=None)
@given(st.permutations([CM_REAL, M_OBLIG, CM_OBLIG]))
def test_canonicalize_permutation_invariant(perm):
    assert canonicalize(perm) == canonicalize([CM_REAL, M_OBLIG, CM_OBLIG])


def test_mts_encode_reference():
    catalog, alphas = mts_encode([[CM_REAL, M_OBLIG]])
    assert catalog.p == 1
    assert alphas == [1]
    assert mts_decode(1, catalog) == (CM_REAL, M_OBLIG)


def test_mts_permuted_sets_same_alpha():
    _, alphas = mts_encode([[CM_REAL, M_OBLIG], [M_OBLIG, CM_REAL]])
    assert alphas[0] == alphas[1]


def test_mts_all_distinct():
    catalog, alphas = mts_encode([[CM_REAL], [M_OBLIG], [CM_OBLIG]])
    assert catalog.p == 3
    assert sorted(alphas) == [1, 2, 3]


def test_mts_round_trip_is_canonical():
    catalog, alphas = mts_encode([[M_OBLIG, CM_REAL]])
    assert mts_decode(alphas[0], catalog) == canonicalize([CM_REAL, M_OBLIG])


def reference_mts_encode(label_sets):
    """The two-pass numbering mts_encode replaced, kept as an oracle: the
    first-seen form of each distinct canonical combination in sorted key
    order, then every label set canonicalised again and looked up by key."""
    distinct = {}
    for combo in map(canonicalize, label_sets):
        distinct.setdefault(tuple(a.key() for a in combo), combo)
    combos = tuple(distinct[k] for k in sorted(distinct))
    index = {tuple(a.key() for a in combo): i for i, combo in enumerate(combos)}
    return combos, [index[tuple(a.key() for a in canonicalize(s))] + 1 for s in label_sets]


# CM_REAL and M_OBLIG each with a variant of the same key in case and
# whitespace, which compares unequal, so the catalog shows which form won
_VARIANTS = [
    CM_REAL,
    LabelAssignment("civil/mercantile", ("Real Rights", "guarantee  real rights", "Mortgage law")),
    M_OBLIG,
    LabelAssignment(
        "mercantile",
        (" Obligations - contracts law", "banking - financial market law", "BANKING LAW"),
    ),
    CM_OBLIG,
    LabelAssignment("penal", ("a", "b", "c")),
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_VARIANTS), min_size=1, max_size=3), min_size=1, max_size=12
    ),
    st.randoms(use_true_random=False),
)
def test_mts_encode_matches_two_pass_reference(label_sets, random):
    # sets repeat, in permuted member order, once more at the end
    label_sets = label_sets + [random.sample(s, len(s)) for s in label_sets]
    catalog, alphas = mts_encode(label_sets)
    combos, want = reference_mts_encode(label_sets)
    assert catalog.combos == combos
    assert alphas == want


def test_mts_decode_range():
    catalog, _ = mts_encode([[CM_REAL]])
    assert mts_decode(catalog.p, catalog) == (CM_REAL,)
    with pytest.raises(LabelError):
        mts_decode(0, catalog)
    with pytest.raises(LabelError):
        mts_decode(catalog.p + 1, catalog)


def test_bts_round_trip_on_training_sets():
    sets = [[CM_REAL], [M_OBLIG, CM_OBLIG], [CM_REAL, M_OBLIG, CM_OBLIG]]
    catalog = build_class_catalog(sets)
    beta = bts_encode(sets, catalog)
    for i, s in enumerate(sets):
        assert set(bts_decode(beta[i], catalog, 0.5)) == set(s)
    assert beta.sum(axis=1).tolist() == [1, 2, 3]
    # column sums equal per-class supports
    for j, cls in enumerate(catalog.classes):
        support = sum(1 for s in sets if cls in s)
        assert beta[:, j].sum() == support


def test_label_key_computed_once_and_not_a_field(monkeypatch):
    calls = []
    original = corpus_module._norm

    def counting(part):
        calls.append(part)
        return original(part)

    monkeypatch.setattr(corpus_module, "_norm", counting)
    a = LabelAssignment("civil", ("Contrato  de", "obra", "pago"))
    assert len(calls) == 4  # the order and three categories, at construction
    for _ in range(3):
        assert a.key() == "civil|contrato de|obra|pago"
    assert len(calls) == 4
    # the cached key is no field: fields, repr, equality and hashing are
    # the two declared fields' alone
    assert [f.name for f in fields(LabelAssignment)] == ["substantive_order", "law_categories"]
    assert repr(a) == (
        "LabelAssignment(substantive_order='civil', "
        "law_categories=('Contrato  de', 'obra', 'pago'))"
    )
    assert hash(a) == hash(("civil", ("Contrato  de", "obra", "pago")))
    same_key = LabelAssignment("civil", ("contrato de", "obra", "pago"))
    assert same_key.key() == a.key() and same_key != a
    assert a == LabelAssignment("civil", ("Contrato  de", "obra", "pago"))
    assert replace(a, substantive_order="penal").key() == "penal|contrato de|obra|pago"
