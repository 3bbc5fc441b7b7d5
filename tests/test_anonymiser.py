import math
import shutil
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat import anonymiser
from lexcat.anonymiser import ReferenceSpan, anonymize, jaro, unify_names
from lexcat.lexica import default_data_dir, load_anonymiser_lexica


def jaro_oracle(a, b):
    """Direct evaluation of the Jaro formula, independent of the library code."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    matched_a, matched_b = [], [False] * len(b)
    for i, ch in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not matched_b[j] and b[j] == ch:
                matched_b[j] = True
                matched_a.append((i, j))
                break
    m = len(matched_a)
    if m == 0:
        return 0.0
    seq_a = [a[i] for i, _ in matched_a]
    seq_b = [b[j] for j in range(len(b)) if matched_b[j]]
    t = sum(1 for x, y in zip(seq_a, seq_b) if x != y) // 2
    return (m / len(a) + m / len(b) + (m - t) / m) / 3


def test_jaro_identity_and_disjoint():
    assert jaro("abc", "abc") == 1.0
    assert jaro("abc", "xyz") == 0.0


def test_jaro_martha():
    assert math.isclose(jaro("martha", "marhta"), 0.9444, abs_tol=1e-4)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=12), st.text(max_size=12))
def test_jaro_matches_oracle_and_props(a, b):
    v = jaro(a, b)
    assert math.isclose(v, jaro_oracle(a, b), abs_tol=1e-12)
    assert 0.0 <= v <= 1.0
    assert math.isclose(v, jaro(b, a), abs_tol=1e-12)
    assert jaro(a, a) == 1.0


def test_unify_names_accent_variants():
    mapping = unify_names(["Pérez", "Pérez", "Perez"], 0.9)
    assert mapping == {"Pérez": "Pérez", "Perez": "Pérez"}


def test_unify_names_exact_only_at_one():
    mapping = unify_names(["Ana", "Anna"], 1.0)
    assert mapping == {"Ana": "Ana", "Anna": "Anna"}


def test_unify_names_edges():
    assert unify_names([], 0.9) == {}
    with pytest.raises(ValueError):
        unify_names(["a"], 0.0)
    with pytest.raises(ValueError):
        unify_names(["a"], 1.5)


def test_unify_tie_breaks_lexicographic():
    mapping = unify_names(["Marta", "Martha"], 0.85)
    assert mapping["Marta"] == "Marta"
    assert mapping["Martha"] == "Marta"


def detect_references(text, lexica):
    """The trigger spans of `anonymize`'s first stage."""
    return anonymiser._scan_triggers(anonymiser._tokens(text), lexica.anonymiser)[0]


def expand_names(text, lexica):
    """The spans of `anonymize`'s second stage: triggers grown over names."""
    toks = anonymiser._tokens(text)
    spans, _ = anonymiser._scan_triggers(toks, lexica.anonymiser)
    return anonymiser._expand_names(toks, spans, lexica.anonymiser)


def test_detect_references_judge_trigger(lexica):
    text = "el Magistrado D. Juan Pérez falló"
    spans = detect_references(text, lexica)
    assert len(spans) == 1
    assert spans[0].tag == "@Judge"
    assert text[spans[0].start : spans[0].end] == "D."


def test_detect_references_corporate(lexica):
    text = "La demanda de Construcciones Vega, S.L. fue admitida"
    spans = detect_references(text, lexica)
    assert [s.tag for s in spans] == ["@Corporate"]
    assert text[spans[0].start : spans[0].end] == "Construcciones Vega, S.L."


def test_detect_references_none(lexica):
    assert detect_references("texto neutro sin referencias", lexica) == []


def test_spans_non_overlapping(lexica):
    text = "el Magistrado D. Juan Pérez y la Procuradora Dña. María García, de Vega, S.A."
    spans = detect_references(text, lexica)
    ordered = sorted(spans, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        assert a.end <= b.start


def test_expand_names_grows_over_adjacent(lexica):
    text = "el Magistrado D. Juan Pérez falló"
    spans = expand_names(text, lexica)
    assert len(spans) == 1
    assert text[spans[0].start : spans[0].end] == "D. Juan Pérez"
    assert spans[0].names == ["Juan", "Pérez"]


def test_expand_names_no_adjacent(lexica):
    text = "el Magistrado D. falló"
    spans = expand_names(text, lexica)
    assert len(spans) == 1
    assert text[spans[0].start : spans[0].end] == "D."


def test_expand_names_standalone_person(lexica):
    text = "declaró María García en la vista"
    assert detect_references(text, lexica) == []
    spans = expand_names(text, lexica)
    assert len(spans) == 1
    assert spans[0].tag == "@Person"
    assert text[spans[0].start : spans[0].end] == "María García"


def test_reference_span_validation():
    with pytest.raises(ValueError):
        ReferenceSpan(5, 5, "@Person", [], 0, 0)
    with pytest.raises(ValueError):
        ReferenceSpan(0, 2, "@Nope", [], 0, 0)


def test_anonymize_composed(lexica):
    out, report = anonymize("el Magistrado D. Juan Pérez falló", lexica.anonymiser)
    assert out == "el Magistrado @Judge falló"
    assert report.counts == {"@Judge": 1}
    assert report.replaced_names == [("Juan Pérez", "Juan Pérez")]


def test_anonymize_no_references(lexica):
    out, report = anonymize("texto neutro", lexica.anonymiser)
    assert out == "texto neutro"
    assert report.counts == {}


def test_anonymize_idempotent(lexica):
    text = "la Procuradora Dña. María García y Construcciones Vega, S.L."
    once, _ = anonymize(text, lexica.anonymiser)
    twice, report = anonymize(once, lexica.anonymiser)
    assert once == twice
    assert report.counts == {}


def test_anonymize_title_role_for_standalone_names(lexica):
    out, report = anonymize("la Procuradora María García compareció", lexica.anonymiser)
    assert out == "la Procuradora @Attorney compareció"
    assert report.counts == {"@Attorney": 1}


def test_anonymize_role_registry_overrides(lexica):
    # bundled registry: "Emilio Garrido" is a verified judge
    out, report = anonymize("declara Emilio Garrido en la sala", lexica.anonymiser)
    assert out == "declara @Judge en la sala"


def test_anonymize_report_unifies_variants(lexica):
    text = "Dña. María García declaró. Después Dña. Maria García firmó."
    out, report = anonymize(text, lexica.anonymiser)
    assert "García" not in out
    canonical = {c for _, c in report.replaced_names}
    assert len(canonical) == 1


def test_no_lexicon_name_survives(lexica):
    names = ["Juan Pérez", "María García", "Carmen López", "Luis Romero"]
    for name in names:
        out, _ = anonymize(f"compareció {name} ante la sala", lexica.anonymiser)
        first, last = name.split()
        assert first not in out
        assert last not in out


def test_anonymize_tokenises_and_scans_once(lexica, monkeypatch):
    calls = Counter()
    for name in ("_tokens", "_scan_triggers"):

        def counted(*args, _original=getattr(anonymiser, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(anonymiser, name, counted)
    text = "el Magistrado D. Juan Pérez y la demandante María García, de Vega, S.A., declaró Luis Romero"
    out, report = anonymize(text, lexica.anonymiser)
    assert out == "el Magistrado @Judge y la @Person, de @Corporate, declaró @Person"
    assert calls == {"_tokens": 1, "_scan_triggers": 1}


def test_title_longer_than_five_words(lexica, tmp_path):
    for path in default_data_dir().iterdir():
        shutil.copy(path, tmp_path)
    with open(tmp_path / "titles.tsv", "a", encoding="utf-8") as fh:
        fh.write("\nilustrísimo señor magistrado de esta sala\t@Judge\n")
    text = "el ilustrísimo señor magistrado de esta sala D. Juan Pérez falló"
    out, _ = anonymize(text, load_anonymiser_lexica(tmp_path))
    assert out == "el ilustrísimo señor magistrado de esta sala @Judge falló"
    # the bundled lexica only know "magistrado", four tokens before the honorific
    out, _ = anonymize(text, lexica.anonymiser)
    assert out == "el ilustrísimo señor magistrado de esta sala @Person falló"
