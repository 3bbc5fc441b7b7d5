import copy
import math
import re
import shutil
import sys
import time
import unicodedata
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcat import anonymiser
from lexcat.anonymiser import ReferenceSpan, anonymize, jaro, unify_names
from lexcat.lexica import AnonymiserLexica, default_data_dir, load_anonymiser_lexica, load_lexica


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


def name_run(n_chars, shift):
    """Capitalised bundled first names, joined by spaces and starting at the
    shift-th, until the run holds n_chars characters."""
    first = sorted(_BUNDLED.first_names)
    words, size = [], 0
    while size < n_chars:
        words.append(first[(shift + len(words)) % len(first)].capitalize())
        size += len(words[-1]) + 1
    return " ".join(words)


def test_jaro_matches_oracle_on_runs_of_names():
    for shift in (0, 1, 7):
        a, b = name_run(600, 0), name_run(700, shift)
        assert math.isclose(jaro(a, b), jaro_oracle(a, b), abs_tol=1e-12)


def test_jaro_is_linear_on_long_runs_of_names():
    # each character searched a window of half the longer run, so two runs
    # of 40k characters took seconds
    a, b = name_run(40_000, 0), name_run(40_000, 3)
    start = time.perf_counter()
    value = jaro(a, b)
    assert time.perf_counter() - start < 1.0
    assert 0.0 < value < 1.0


def unify_names_unbounded(names, threshold):
    """`unify_names` with `jaro` run on every pair: the oracle of the bounded
    pair loop."""
    freq = Counter(names)
    distinct = sorted(freq)
    k = len(distinct)
    keys = [unicodedata.normalize("NFD", s) for s in distinct]
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        for j in range(i + 1, k):
            if jaro(keys[i], keys[j]) >= threshold:
                parent[find(i)] = find(j)
    groups = {}
    for i, name in enumerate(distinct):
        groups.setdefault(find(i), []).append(name)
    mapping = {}
    for members in groups.values():
        canonical = min(members, key=lambda s: (-freq[s], s))
        for name in members:
            mapping[name] = canonical
    return mapping


# composed and decomposed accents, so that distinct names share an NFD key
_NAME_CHARS = ["a", "r", "n", "M", "t", "e", "é", "e\u0301", "ñ", "n\u0303"]
_names = st.lists(st.sampled_from(_NAME_CHARS), max_size=6).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(_names, max_size=10), st.data())
def test_unify_names_matches_unbounded_oracle(base, data):
    # repeats and one- and two-character names come from the small alphabet;
    # extra copies make the frequency tie-break matter
    names = base + data.draw(st.lists(st.sampled_from(base), max_size=4)) if base else base
    keys = sorted({unicodedata.normalize("NFD", s) for s in names})
    # thresholds exactly at a pair's Jaro value sit on the bound's edge
    exact = [v for a in keys for b in keys if (v := jaro(a, b)) > 0]
    thresholds = st.floats(0, 1, exclude_min=True) | st.just(1.0)
    if exact:
        thresholds |= st.sampled_from(exact)
    threshold = data.draw(thresholds)
    got = unify_names(names, threshold)
    assert list(got.items()) == list(unify_names_unbounded(names, threshold).items())


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
def test_jaro_bound_is_an_upper_bound(a, b):
    v = jaro(a, b)
    la, lb = len(a), len(b)
    overlap = sum((Counter(a) & Counter(b)).values())
    assert anonymiser._jaro_bound(min(la, lb), la, lb) >= v
    assert anonymiser._jaro_bound(overlap, la, lb) >= v


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


class Token(NamedTuple):
    core: str  # the token without its leading and trailing punctuation
    core_start: int
    core_end: int


_TOKEN = re.compile(r"\S+")


def reference_tokens(text):
    """One regex match and two strips per token: the oracle of `_tokens`."""
    out = []
    for m in _TOKEN.finditer(text):
        led = m.group(0).lstrip(anonymiser._LEAD)
        core = led.rstrip(anonymiser._TRAIL)
        start = m.end() - len(led)
        out.append(Token(core, start, start + len(core)))
    return out


def token_cores(toks):
    """Every token's case-preserving core."""
    return [toks.core(k) for k in range(len(toks.raw))]


# whitespace that str.split and \s agree on but a space-only tokeniser would
# miss, and tokens that strip to nothing or to their inner punctuation
_SPACES = [" ", "  ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
_PIECES = ["«", "((", "\"'", "»,", "D.", "Ana", "López.", "(«Juan»)", "S.L.", "-", "ß", "İ"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SPACES) | st.sampled_from(_PIECES), max_size=12).map("".join))
@example("")
@example("((")
@example("\x1cD. Ana López.")
@example("«D. José»")
@example(" \u3000«D.»\x85 ")
def test_tokens_match_regex_reference(text):
    toks = anonymiser._tokens(text)
    ref = reference_tokens(text)
    got = [(core, toks.core_start(k), toks.core_end(k)) for k, core in enumerate(token_cores(toks))]
    assert got == [tuple(tok) for tok in ref]
    assert toks.folded == [tok.core.casefold() for tok in ref]


def test_tokens_invariants_hold_for_every_code_point():
    """The facts that let `_tokens` split a text and its casefold apart, for
    every code point: \\s and str.isspace agree, and casefold, one character
    at a time, neither makes nor removes whitespace, a period or a character
    of _LEAD or _TRAIL, nor folds a character to nothing."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == list(filter(str.isspace, chars))
    assert "".join(map(str.casefold, chars)) == chars.casefold()
    kept = set(anonymiser._LEAD + anonymiser._TRAIL + ".")
    changed = [(ch, folded) for ch in chars if (folded := ch.casefold()) != ch]
    assert len(changed) > 1000  # so that the loop below checks something
    for ch, folded in changed:
        assert not ch.isspace() and ch not in kept, ch
        assert folded and not any(c.isspace() or c in kept for c in folded), ch


def test_period_ending_words_make_no_name_lookups(lexica, monkeypatch):
    """A word ending with a period is looked up as a name only where its
    folded core, periods trimmed, is a candidate: a text of such words that
    are no lexicon name makes no `_name` call."""
    calls = Counter()
    original = anonymiser._name

    def counted(*args):
        calls["_name"] += 1
        return original(*args)

    monkeypatch.setattr(anonymiser, "_name", counted)
    words = ["Sentencia.", "recurso.", "Fallo..", "(hechos.)", "DERECHO."]
    text = " ".join(words[k % len(words)] for k in range(500))
    out, report = anonymize(text, lexica.anonymiser)
    assert (out, report.counts) == (text, {})
    assert calls["_name"] == 0
    out, _ = anonymize(text + " declaró Pérez.", lexica.anonymiser)
    assert out == text + " declaró @Person."
    assert calls["_name"] == 1


def candidates(toks, lexica):
    """The tokens `anonymize` hands its stages: those whose folded core less
    trailing periods is in `lexica.candidates`."""
    return [k for k, w in enumerate(toks.folded) if w.rstrip(".") in lexica.candidates]


def scan_triggers(toks, lexica):
    """`_scan_triggers` over the text's candidate tokens."""
    return anonymiser._scan_triggers(toks, candidates(toks, lexica), lexica)


def detect_references(text, lexica):
    """The trigger spans of `anonymize`'s first stage."""
    return scan_triggers(anonymiser._tokens(text), lexica.anonymiser)[0]


def expand_names(text, lexica):
    """The spans of `anonymize`'s second stage: triggers grown over names."""
    toks = anonymiser._tokens(text)
    found = candidates(toks, lexica.anonymiser)
    spans, _ = anonymiser._scan_triggers(toks, found, lexica.anonymiser)
    return anonymiser._expand_names(toks, found, spans, lexica.anonymiser)


def scan_triggers_all_widths(toks, lexica):
    """`_scan_triggers` trying every phrase width up to the widest key at
    every token: the oracle of the first-word phrase index."""
    titles, implicit = lexica.titles, lexica.implicit_refs
    forms = set(lexica.corporate_forms)
    widest = max((key.count(" ") + 1 for key in (*titles, *implicit)), default=0)
    cores = token_cores(toks)
    folded = [core.casefold() for core in cores]
    n = len(cores)
    context = {}
    spans = []
    free = 0
    i = 0
    while i < n:
        for width in range(min(widest, n - i), 0, -1):
            phrase = " ".join(folded[i : i + width])
            last = i + width - 1
            if phrase in titles:
                tag = titles[phrase]
                if tag != "@Person":
                    context[last] = tag
                    break
                tag = anonymiser._role_before(context, i) or tag
            elif phrase in implicit:
                tag = implicit[phrase]
            else:
                continue
            spans.append(anonymiser._span(toks, i, last, tag))
            free = last + 1
            break
        else:
            width = 1
            if cores[i] in forms:
                first = i
                while (
                    first > max(free, i - anonymiser._CORPORATE_RUN)
                    and cores[first - 1][:1].isupper()
                    and folded[first - 1] not in titles
                    and folded[first - 1] not in implicit
                ):
                    first -= 1
                spans.append(anonymiser._span(toks, first, i, "@Corporate"))
                free = i + 1
        i += width
    return spans, context


# keys that share a first word at different widths (with gaps: no
# three-word "parte demandante y"), one key in both tables, a title of more
# than five words, and a run of spaces that only an empty-core token between
# "sala" and "segunda" can match
_SCAN_LEXICA = AnonymiserLexica(
    titles={
        "magistrado": "@Judge",
        "magistrado ponente": "@Judge",
        "magistrado ponente de la sala": "@Judge",
        "ilustrísimo señor magistrado de esta sala": "@Judge",
        "letrado": "@Lawyer",
        "señor": "@Person",
        "señor letrado de": "@Lawyer",
        "d.": "@Person",
        "don": "@Person",
        "sala  segunda": "@Attorney",
    },
    implicit_refs={
        "parte demandante": "@Person",
        "parte demandante y recurrente": "@Person",
        "demandante": "@Person",
        "señor": "@Judge",
        "don señor": "@Person",
    },
    corporate_forms=("S.L.", "S.A."),
    first_names=frozenset({"juan", "maría", "ma."}),  # a name with its own period
    surnames=frozenset({"pérez", "garcía", "vega"}),
    role_registry={},
)
_BUNDLED = load_lexica().anonymiser
_OTHER_TOKENS = {
    "name": ["Juan", "María", "Pérez", "García", "Vega", "Construcciones", "Hijos"],
    # a name that ends with periods, in capitals, or not capitalised
    "dotted": ["Pérez.", "Vega..", "PÉREZ", "juan", "Hijos.", "Ma.", "Ma.."],
    "form": ["S.L.", "S.A.", "SL", "S.L.U."],
    "punct": ["«", ",", "(", "»", "\"", "¿", "-"],  # all but "-" have an empty core
}


@st.composite
def _scan_text(draw, lex):
    """The lexica's keys, mostly whole and otherwise cut short (an empty
    word of a key becomes a punctuation-only token), names, corporate forms
    and punctuation, some capitalised and some wrapped in punctuation."""
    keys = sorted((*lex.titles, *lex.implicit_refs))
    phrases = [key for key in keys if " " in key]
    words = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["key", "phrase", *_OTHER_TOKENS]))
        if kind in ("key", "phrase"):
            key = draw(st.sampled_from(keys if kind == "key" else phrases)).split(" ")
            cut = draw(st.sampled_from([len(key), len(key), draw(st.integers(1, len(key)))]))
            chunk = [w or "«" for w in key[:cut]]
            if draw(st.booleans()):
                chunk[0] = chunk[0].capitalize()
        else:
            chunk = [draw(st.sampled_from(_OTHER_TOKENS[kind]))]
        for w in chunk:
            lead, trail = draw(st.sampled_from(["", "", "«", "("])), draw(st.sampled_from(["", "", ",", ")"]))
            words.append(lead + w + trail)
    return " ".join(words)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([_SCAN_LEXICA, _BUNDLED]).flatmap(lambda lex: st.tuples(st.just(lex), _scan_text(lex))))
def test_scan_triggers_matches_all_widths_oracle(lex_text):
    lex, text = lex_text
    toks = anonymiser._tokens(text)
    assert scan_triggers(toks, lex) == scan_triggers_all_widths(toks, lex)


def reference_name(tok, names):
    """The lexicon name a capitalised token holds and the offset where that
    name ends, looked up for every token."""
    core = tok.core
    if not core[:1].isupper():
        return None
    if core.casefold() in names:
        return core, tok.core_end
    trimmed = core.rstrip(".")
    if trimmed.casefold() in names:
        return trimmed, tok.core_start + len(trimmed)
    return None


def expand_names_per_token(toks, spans, lexica):
    """`_expand_names` with `reference_name` called on every reference token:
    the oracle of looking names up only where one can be."""
    found = [reference_name(tok, lexica.names) for tok in toks]
    n = len(toks)
    claimed = [False] * n
    for span in spans:
        for k in range(span.first_token, span.last_token + 1):
            claimed[k] = True

    def grow(span):
        k = span.last_token + 1
        while k < n and not claimed[k] and found[k]:
            name, span.end = found[k]
            span.names.append(name)
            claimed[k] = True
            span.last_token = k
            k += 1
        k = span.first_token - 1
        while k >= 0 and not claimed[k] and found[k]:
            span.names.insert(0, found[k][0])
            span.start = toks[k].core_start
            claimed[k] = True
            span.first_token = k
            k -= 1

    for span in spans:
        grow(span)
    for k in range(n):
        if claimed[k] or not found[k]:
            continue
        name, end = found[k]
        claimed[k] = True
        span = ReferenceSpan(toks[k].core_start, end, "@Person", [name], k, k)
        grow(span)
        spans.append(span)
    spans.sort(key=lambda s: s.start)
    return spans


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([_SCAN_LEXICA, _BUNDLED]).flatmap(lambda lex: st.tuples(st.just(lex), _scan_text(lex))))
def test_expand_names_matches_per_token_oracle(lex_text):
    lex, text = lex_text
    toks = anonymiser._tokens(text)
    found = candidates(toks, lex)
    spans, _ = anonymiser._scan_triggers(toks, found, lex)
    want = expand_names_per_token(reference_tokens(text), copy.deepcopy(spans), lex)
    assert anonymiser._expand_names(toks, found, spans, lex) == want


def test_scan_triggers_oracle_sees_every_key_shape():
    """The keys the property relies on do match: each width of a shared
    first word, the title of six words and the run of spaces."""
    cases = {
        "el magistrado ponente de la sala D. Juan": ("@Judge", [(5, "@Judge")]),
        "la parte demandante y recurrente Juan": ("@Person", {}),
        "la parte demandante María": ("@Person", {}),
        "el ilustrísimo señor magistrado de esta sala don Juan": ("@Judge", [(6, "@Judge")]),
        "la sala « segunda D. Juan": ("@Attorney", [(3, "@Attorney")]),
    }
    for text, (tag, context) in cases.items():
        toks = anonymiser._tokens(text)
        spans, ctx = scan_triggers(toks, _SCAN_LEXICA)
        assert (spans, ctx) == scan_triggers_all_widths(toks, _SCAN_LEXICA)
        assert spans[-1].tag == tag
        assert ctx == dict(context)


def test_lexicon_keys_collapse_whitespace_runs(lexica, tmp_path):
    for path in default_data_dir().iterdir():
        shutil.copy(path, tmp_path)
    with open(tmp_path / "titles.tsv", "a", encoding="utf-8") as fh:
        fh.write("\nexcelentísimo  ponente\t@Judge\nmagistrado \u00a0 ponente\t@Lawyer\n")
    with open(tmp_path / "implicit_refs.tsv", "a", encoding="utf-8") as fh:
        fh.write("\nparte   actora\t@Person\n")
    with open(tmp_path / "roles.tsv", "a", encoding="utf-8") as fh:
        fh.write("\nLuis  Romero\t@Lawyer\n")
    lex = load_anonymiser_lexica(tmp_path)
    out, _ = anonymize("el excelentísimo ponente D. Juan Pérez falló", lex)
    assert out == "el excelentísimo ponente @Judge falló"
    out, _ = anonymize("la parte actora recurre", lex)
    assert out == "la @Person recurre"
    out, _ = anonymize("declaró Luis Romero ante la sala", lex)
    assert out == "declaró @Lawyer ante la sala"
    # a key that collapses onto an existing one replaces it: the last line wins
    assert lex.titles["magistrado ponente"] == "@Lawyer"
    out, _ = anonymize("el magistrado ponente D. Juan Pérez falló", lex)
    assert out == "el magistrado ponente @Lawyer falló"


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
