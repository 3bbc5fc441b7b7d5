"""Detection of references to people and companies, tag replacement and
name unification.

Trigger logic:
  * role nouns from the titles lexicon (magistrado, letrado, procurador...)
    are context only, they stay in the text;
  * honorifics (the @Person-tagged titles entries: D., Dña., don...) open a
    replaceable span and inherit the role of a role noun up to two tokens
    back;
  * implicit references (demandante, recurrente...) are replaced as tagged;
  * a corporate legal form swallows the capitalised run before it;
  * capitalised tokens from the name lexicon are swallowed by adjacent
    spans, or become standalone @Person spans.

`anonymize` makes one pass over a document's NFC form. `_tokens` splits it
and its casefold at whitespace, finds each token's end with one `str.find`,
and strips the folded tokens; a case-preserving core is cut only where read.
One pass over the folded cores finds the candidates, the tokens in
`AnonymiserLexica.candidates` once trailing periods are trimmed, and both
stages are handed that list: triggers are tried only at the candidates that
start a phrase (from the widest such phrase down, by `widest_for`) or may be
a corporate form, and names looked up only at candidates.
Spans carry their first and last token index, so neighbours and role nouns
are found by index. `unify_names` runs `jaro` only where its bounds can pass.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .lexica import TAGS, AnonymiserLexica

_PRECEDENCE = {tag: i for i, tag in enumerate(TAGS)}

_LEAD = "(«¡¿[\"'"
_TRAIL = ",;:)»]\"'"

_CONTEXT_WINDOW = 2
_CORPORATE_RUN = 4
_UNIFY_THRESHOLD = 0.9  # Jaro similarity at which two names are one person


@dataclass(slots=True)
class ReferenceSpan:
    """Characters [start, end) of the text, made of tokens first_token to
    last_token (inclusive) of the text's tokenisation."""

    start: int
    end: int
    tag: str
    names: list[str]
    first_token: int
    last_token: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span offsets [{self.start}, {self.end})")
        if self.tag not in TAGS:
            raise ValueError(f"unknown tag: {self.tag}")


@dataclass
class AnonymisationReport:
    counts: dict[str, int]
    replaced_names: list[tuple[str, str]]


class _Tokens(NamedTuple):
    """A text's whitespace-separated tokens, the offset where each ends, and
    their folded cores (casefolded, without leading and trailing punctuation)."""

    raw: list[str]
    ends: list[int]
    folded: list[str]

    def core(self, k: int) -> str:
        return self.raw[k].lstrip(_LEAD).rstrip(_TRAIL)

    def core_start(self, k: int) -> int:
        return self.ends[k] - len(self.raw[k].lstrip(_LEAD))

    def core_end(self, k: int) -> int:
        return self.core_start(k) + len(self.core(k))


def _tokens(text: str) -> _Tokens:
    # the casefold's k-th token is the casefold of token k: \s and str.isspace
    # agree, and casefold never makes or removes whitespace, "." or a
    # character of _LEAD or _TRAIL
    raw, find, end = text.split(), text.find, 0
    ends = [end := find(tok, end) + len(tok) for tok in raw]
    folded = [word.lstrip(_LEAD).rstrip(_TRAIL) for word in text.casefold().split()]
    return _Tokens(raw, ends, folded)


def _name(toks: _Tokens, k: int, names: frozenset[str]) -> tuple[str, int] | None:
    """The lexicon name capitalised token k holds and the offset where that
    name ends (a trailing period is not part of a name), or None."""
    word = toks.folded[k]
    trimmed = word if word in names else word.rstrip(".")
    if trimmed in names and (core := toks.core(k))[:1].isupper():
        name = core if trimmed == word else core.rstrip(".")
        return name, toks.core_start(k) + len(name)
    return None


def _role_before(context: dict[int, str], first: int) -> str | None:
    """Role of the nearest role noun that ends at most _CONTEXT_WINDOW tokens
    before token `first`."""
    for k in range(first - 1, first - 1 - _CONTEXT_WINDOW, -1):
        if k in context:
            return context[k]
    return None


def _span(toks: _Tokens, first: int, last: int, tag: str) -> ReferenceSpan:
    return ReferenceSpan(toks.core_start(first), toks.core_end(last), tag, [], first, last)


def _scan_triggers(
    toks: _Tokens, candidates: list[int], lexica: AnonymiserLexica
) -> tuple[list[ReferenceSpan], dict[int, str]]:
    """One left-to-right pass over the candidate tokens: the trigger spans
    in text order, and the role of each role noun keyed by its last token."""
    titles, implicit, widest_for = lexica.titles, lexica.implicit_refs, lexica.widest_for
    forms, folded, may_be_form = lexica.corporate_forms, toks.folded, lexica.candidates
    context: dict[int, str] = {}
    spans: list[ReferenceSpan] = []
    free = 0  # no token from here on belongs to a span
    nxt = 0  # no token before this one can start a trigger
    # a trigger starts only at a phrase's first word or at a corporate form,
    # and every such token is a candidate; the others hold names
    for i in candidates:
        word = folded[i]
        form = may_be_form[word.rstrip(".")]  # the token's core may be a form
        if i < nxt or not form and word not in widest_for:
            continue
        # titles / implicit references, longest phrase first; only the widths
        # of the phrases that start with this token's word can match
        for width in range(min(widest_for.get(word, 0), len(folded) - i), 0, -1):
            phrase = " ".join(folded[i : i + width])
            last = i + width - 1
            if phrase in titles:
                tag = titles[phrase]
                if tag != "@Person":
                    context[last] = tag
                    nxt = last + 1
                    break
                # honorific: replaceable, role comes from nearby context
                tag = _role_before(context, i) or tag
            elif phrase in implicit:
                tag = implicit[phrase]
            else:
                continue
            spans.append(_span(toks, i, last, tag))
            free = nxt = last + 1
            break
        else:
            # corporate legal form: swallow the capitalised run before it
            if form and toks.core(i) in forms:
                first = i
                while (
                    first > max(free, i - _CORPORATE_RUN)
                    and toks.core(first - 1)[:1].isupper()
                    and folded[first - 1] not in titles
                    and folded[first - 1] not in implicit
                ):
                    first -= 1
                spans.append(_span(toks, first, i, "@Corporate"))
                free = i + 1
    return spans, context


def _expand_names(
    toks: _Tokens, candidates: list[int], spans: list[ReferenceSpan], lexica: AnonymiserLexica
) -> list[ReferenceSpan]:
    """Grow each span (given in text order) in place over adjacent
    capitalised lexicon names, rightward then leftward; leftover lexicon
    names become standalone @Person spans, added to the list, which is
    returned in text order."""
    names = lexica.names
    # every token that holds a name is a candidate
    found = {k: hit for k in candidates if (hit := _name(toks, k, names))}
    claimed = {k for span in spans for k in range(span.first_token, span.last_token + 1)}

    def grow(span: ReferenceSpan) -> None:
        k = span.last_token + 1
        while k in found and k not in claimed:
            name, span.end = found[k]
            span.names.append(name)
            claimed.add(k)
            span.last_token = k
            k += 1
        k = span.first_token - 1
        while k in found and k not in claimed:
            span.names.insert(0, found[k][0])
            span.start = toks.core_start(k)
            claimed.add(k)
            span.first_token = k
            k -= 1

    for span in spans:
        grow(span)
    for k, (name, end) in found.items():
        if k in claimed:
            continue
        claimed.add(k)
        span = ReferenceSpan(toks.core_start(k), end, "@Person", [name], k, k)
        grow(span)
        spans.append(span)
    spans.sort(key=lambda s: s.start)
    return spans


def jaro(a: str, b: str) -> float:
    """Standard Jaro similarity in [0, 1]: window-limited character matches
    plus a transposition term, in time linear in the strings' lengths."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(max(la, lb) // 2 - 1, 0)
    # each character's free positions in b, the leftmost last; windows only
    # slide right, so a position left of one window is left of every later one
    free: dict[str, list[int]] = {}
    for j in range(lb - 1, -1, -1):
        free.setdefault(b[j], []).append(j)
    match_b = [False] * lb
    seq_a = []  # a's matched characters, each with the first free one of b in its window
    for i, ch in enumerate(a):
        stack = free.get(ch)
        if stack:
            while stack and stack[-1] < i - window:
                stack.pop()
            if stack and stack[-1] <= i + window:
                match_b[stack.pop()] = True
                seq_a.append(ch)
    m = len(seq_a)
    if m == 0:
        return 0.0
    seq_b = [ch for ch, hit in zip(b, match_b) if hit]
    t = sum(x != y for x, y in zip(seq_a, seq_b)) // 2
    return (m / la + m / lb + (m - t) / m) / 3.0


def _jaro_bound(m: int, la: int, lb: int) -> float:
    """`jaro`'s value for strings of lengths la, lb >= 1 with m matches and
    no transpositions. Every step is monotone in m, so with m at least the
    true number of matches it is an upper bound on `jaro`, also in floating
    point."""
    return (m / la + m / lb + 1.0) / 3.0


def _bag(key: str) -> set[tuple[str, int]]:
    """key's characters as (character, copy number) pairs: bags meet as multisets."""
    copies: dict[str, int] = {}
    bag = set()
    for ch in key:
        copies[ch] = n = copies.get(ch, 0) + 1
        bag.add((ch, n))
    return bag


def unify_names(names: list[str], threshold: float) -> dict[str, str]:
    """Single-link grouping of names with pairwise Jaro >= threshold.

    Similarity is computed on NFD-decomposed strings so that accent variants
    of the same name land in one group. A pair is compared only if Jaro's
    upper bound reaches the threshold: first with as many matches as the
    shorter key has characters, then with the overlap of the two keys'
    character multisets. Canonical member: most frequent, ties broken
    lexicographically.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1]: {threshold}")
    freq = Counter(names)
    if len(freq) < 2:
        return {name: name for name in freq}
    distinct = sorted(freq)
    k = len(distinct)
    keys = [unicodedata.normalize("NFD", s) for s in distinct]
    lengths = [len(key) for key in keys]
    bags: list[set[tuple[str, int]] | None] = [None] * k  # each built when a pair needs it
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        for j in range(i + 1, k):
            la, lb = lengths[i], lengths[j]
            m = min(la, lb)  # 0 only beside the empty key, whose Jaro is 0
            if not m or _jaro_bound(m, la, lb) < threshold:
                continue
            bag_i = bags[i] = bags[i] or _bag(keys[i])
            bag_j = bags[j] = bags[j] or _bag(keys[j])
            if _jaro_bound(len(bag_i & bag_j), la, lb) < threshold:
                continue
            if jaro(keys[i], keys[j]) >= threshold:
                parent[find(i)] = find(j)

    groups: dict[int, list[str]] = {}
    for i, name in enumerate(distinct):
        groups.setdefault(find(i), []).append(name)
    mapping: dict[str, str] = {}
    for members in groups.values():
        mapping.update(dict.fromkeys(members, min(members, key=lambda s: (-freq[s], s))))
    return mapping


def anonymize(text: str, lexica: AnonymiserLexica) -> tuple[str, AnonymisationReport]:
    """Replace every detected reference span with its role tag.

    Standalone @Person spans preceded by a role noun are upgraded to its
    role; the local role registry overrides tags per verified name. The
    text is read and returned in its NFC form, the form of the lexica.
    """
    text = unicodedata.normalize("NFC", text)
    toks = _tokens(text)
    # the tokens whose folded core less trailing periods is a candidate
    candidates = [k for k, w in enumerate(toks.folded) if w.rstrip(".") in lexica.candidates]
    spans, context = _scan_triggers(toks, candidates, lexica)
    spans = _expand_names(toks, candidates, spans, lexica)
    for span in spans:
        if span.tag == "@Person":
            role = _role_before(context, span.first_token)
            if role and _PRECEDENCE[role] < _PRECEDENCE[span.tag]:
                span.tag = role
        full_name = " ".join(span.names).casefold()
        if full_name and full_name in lexica.role_registry:
            span.tag = lexica.role_registry[full_name]

    full_names = [" ".join(s.names) for s in spans if s.names]
    mapping = unify_names(full_names, _UNIFY_THRESHOLD)
    pieces, pos = [], 0
    for span in spans:
        pieces += (text[pos : span.start], span.tag)
        pos = span.end
    pieces.append(text[pos:])
    counts = Counter(span.tag for span in reversed(spans))  # tags in order of last occurrence
    replaced = sorted({(name, mapping[name]) for name in full_names})
    return "".join(pieces), AnonymisationReport(dict(counts), replaced)
