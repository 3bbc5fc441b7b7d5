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

`anonymize` makes one pass over a document's NFC form. `_tokens` splits
the text at whitespace runs in one call, strips and casefolds each token
once, and computes a token's offsets only where a span starts, ends or grows.
`_scan_triggers` visits only the tokens that start a title or implicit
reference (trying widths from the widest such phrase down, as indexed by
`AnonymiserLexica.widest_for`) or are a corporate form; `_expand_names`
looks up only the tokens that fold to a lexicon name or end with a period.
Spans carry their first and last token index, so neighbours and role nouns
are found by index. `unify_names` runs `jaro` only where its bound can pass.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .lexica import TAGS, AnonymiserLexica

_PRECEDENCE = {tag: i for i, tag in enumerate(TAGS)}

_SPACE = re.compile(r"(\s+)")
_LEAD = "(«¡¿[\"'"
_TRAIL = ",;:)»]\"'"

_CONTEXT_WINDOW = 2
_CORPORATE_RUN = 4
_UNIFY_THRESHOLD = 0.9  # Jaro similarity at which two names are one person


@dataclass
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
    """A text's whitespace-separated tokens, their offsets, their cores (each
    token without its leading and trailing punctuation) and folded cores."""

    raw: list[str]
    starts: list[int]
    cores: list[str]
    folded: list[str]

    def core_start(self, k: int) -> int:
        return self.starts[k] + len(self.raw[k]) - len(self.raw[k].lstrip(_LEAD))

    def core_end(self, k: int) -> int:
        return self.core_start(k) + len(self.cores[k])


def _tokens(text: str) -> _Tokens:
    parts = _SPACE.split(text)  # token, whitespace run, token, ..., token
    raw, starts = parts[::2], list(accumulate(map(len, parts), initial=0))[::2]
    if not raw[-1]:  # the text ends with whitespace, or is empty
        del raw[-1], starts[-1]
    if raw and not raw[0]:  # the text starts with whitespace
        del raw[0], starts[0]
    cores = [tok.lstrip(_LEAD).rstrip(_TRAIL) for tok in raw]
    return _Tokens(raw, starts, cores, list(map(str.casefold, cores)))


def _name(toks: _Tokens, k: int, names: frozenset[str]) -> tuple[str, int] | None:
    """The lexicon name capitalised token k holds and the offset where that
    name ends (a trailing period is not part of a name), or None."""
    core = toks.cores[k]
    if core[:1].isupper():
        if toks.folded[k] in names:
            return core, toks.core_end(k)
        trimmed = core.rstrip(".")
        if trimmed.casefold() in names:
            return trimmed, toks.core_start(k) + len(trimmed)
    return None


def _role_before(context: dict[int, str], first: int) -> str | None:
    """Role of the nearest role noun that ends at most _CONTEXT_WINDOW tokens
    before token `first`."""
    window = range(first - 1, first - 1 - _CONTEXT_WINDOW, -1)
    return next((context[k] for k in window if k in context), None)


def _span(toks: _Tokens, first: int, last: int, tag: str) -> ReferenceSpan:
    return ReferenceSpan(toks.core_start(first), toks.core_end(last), tag, [], first, last)


def _scan_triggers(
    toks: _Tokens, lexica: AnonymiserLexica
) -> tuple[list[ReferenceSpan], dict[int, str]]:
    """One left-to-right pass: the trigger spans in text order, and the role
    of each role noun keyed by its last token."""
    titles, implicit, widest_for = lexica.titles, lexica.implicit_refs, lexica.widest_for
    forms, cores, folded = lexica.forms, toks.cores, toks.folded
    context: dict[int, str] = {}
    spans: list[ReferenceSpan] = []
    free = 0  # no token from here on belongs to a span
    nxt = 0  # no token before this one can start a trigger
    # a trigger starts only at a phrase's first word or at a corporate form
    heads = [k for k, word in enumerate(folded) if word in widest_for or cores[k] in forms]
    for i in heads:
        if i < nxt:
            continue
        # titles / implicit references, longest phrase first; only the widths
        # of the phrases that start with this token's word can match
        for width in range(min(widest_for.get(folded[i], 0), len(cores) - i), 0, -1):
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
            if cores[i] in forms:
                first = i
                while (
                    first > max(free, i - _CORPORATE_RUN)
                    and cores[first - 1][:1].isupper()
                    and folded[first - 1] not in titles
                    and folded[first - 1] not in implicit
                ):
                    first -= 1
                spans.append(_span(toks, first, i, "@Corporate"))
                free = i + 1
    return spans, context


def _expand_names(
    toks: _Tokens, spans: list[ReferenceSpan], lexica: AnonymiserLexica
) -> list[ReferenceSpan]:
    """Grow each span (given in text order) in place over adjacent
    capitalised lexicon names, rightward then leftward; leftover lexicon
    names become standalone @Person spans, added to the list, which is
    returned in text order."""
    names = lexica.names
    # only a token whose folded core is a name, or ends with a period that
    # _name may trim, can hold a name
    found = {k: hit for k, word in enumerate(toks.folded)
             if (word in names or word[-1:] == ".") and (hit := _name(toks, k, names))}
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
    plus a transposition term."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(max(la, lb) // 2 - 1, 0)
    match_a = [False] * la
    match_b = [False] * lb
    m = 0
    for i, ch in enumerate(a):
        for j in range(max(0, i - window), min(lb, i + window + 1)):
            if not match_b[j] and b[j] == ch:
                match_a[i] = True
                match_b[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    seq_a = [ch for ch, hit in zip(a, match_a) if hit]
    seq_b = [ch for ch, hit in zip(b, match_b) if hit]
    t = sum(x != y for x, y in zip(seq_a, seq_b)) // 2
    return (m / la + m / lb + (m - t) / m) / 3.0


def _jaro_bound(m: int, la: int, lb: int) -> float:
    """`jaro`'s value for strings of lengths la, lb >= 1 with m matches and
    no transpositions. Every step is monotone in m, so with m at least the
    true number of matches it is an upper bound on `jaro`, also in floating
    point."""
    return (m / la + m / lb + 1.0) / 3.0


def unify_names(names: list[str], threshold: float) -> dict[str, str]:
    """Single-link grouping of names with pairwise Jaro >= threshold.

    Similarity is computed on NFD-decomposed strings so that accent variants
    of the same name land in one group. A pair is compared only if Jaro's
    upper bound reaches the threshold: first with as many matches as the
    shorter key has characters, then with the overlap of the two keys'
    character counts. Canonical member: most frequent, ties broken
    lexicographically.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1]: {threshold}")
    freq = Counter(names)
    distinct = sorted(freq)
    k = len(distinct)
    keys = [unicodedata.normalize("NFD", s) for s in distinct]
    lengths = [len(key) for key in keys]
    chars = [Counter(key) for key in keys]
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
            m = sum((chars[i] & chars[j]).values())
            if _jaro_bound(m, la, lb) < threshold:
                continue
            if jaro(keys[i], keys[j]) >= threshold:
                parent[find(i)] = find(j)

    groups: dict[int, list[str]] = {}
    for i, name in enumerate(distinct):
        groups.setdefault(find(i), []).append(name)
    mapping = {}
    for members in groups.values():
        canonical = min(members, key=lambda s: (-freq[s], s))
        for name in members:
            mapping[name] = canonical
    return mapping


def anonymize(text: str, lexica: AnonymiserLexica) -> tuple[str, AnonymisationReport]:
    """Replace every detected reference span with its role tag.

    Standalone @Person spans preceded by a role noun are upgraded to its
    role; the local role registry overrides tags per verified name. The
    text is read and returned in its NFC form, the form of the lexica.
    """
    text = unicodedata.normalize("NFC", text)
    toks = _tokens(text)
    spans, context = _scan_triggers(toks, lexica)
    spans = _expand_names(toks, spans, lexica)
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
