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

`anonymize` makes one pass over a document: it tokenises the text once,
scans it once for triggers (`_scan_triggers`), grows the spans over
adjacent names (`_expand_names`) and upgrades standalone names after a role
noun. Every span carries the indices of its first and last token, so the
later steps find a span's neighbours and the role noun before it by index.
The scan tries phrase widths only at a token that starts a title or
implicit reference, from the widest phrase starting with its word down
(`AnonymiserLexica.widest_for`, built at load). `unify_names` runs `jaro`
only on the pairs whose upper bound reaches the threshold.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .lexica import TAGS, AnonymiserLexica

_PRECEDENCE = {tag: i for i, tag in enumerate(TAGS)}

_TOKEN = re.compile(r"\S+")
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


class _Token(NamedTuple):
    core: str  # the token without its leading and trailing punctuation
    core_start: int
    core_end: int


def _tokens(text: str) -> list[_Token]:
    out = []
    for m in _TOKEN.finditer(text):
        led = m.group(0).lstrip(_LEAD)
        core = led.rstrip(_TRAIL)
        start = m.end() - len(led)
        out.append(_Token(core, start, start + len(core)))
    return out


def _name(tok: _Token, names: frozenset[str]) -> tuple[str, int] | None:
    """The lexicon name a capitalised token holds and the offset where that
    name ends (a trailing period is not part of a name), or None."""
    core = tok.core
    if not core[:1].isupper():
        return None
    if core.casefold() in names:
        return core, tok.core_end
    trimmed = core.rstrip(".")
    if trimmed.casefold() in names:
        return trimmed, tok.core_start + len(trimmed)
    return None


def _role_before(context: dict[int, str], first: int) -> str | None:
    """Role of the nearest role noun that ends at most _CONTEXT_WINDOW tokens
    before token `first`."""
    for k in range(first - 1, first - 1 - _CONTEXT_WINDOW, -1):
        if k in context:
            return context[k]
    return None


def _span(toks: list[_Token], first: int, last: int, tag: str) -> ReferenceSpan:
    start, end = toks[first].core_start, toks[last].core_end
    return ReferenceSpan(start, end, tag, [], first, last)


def _scan_triggers(
    toks: list[_Token], lexica: AnonymiserLexica
) -> tuple[list[ReferenceSpan], dict[int, str]]:
    """One left-to-right pass: the trigger spans in text order, and the role
    of each role noun keyed by its last token."""
    titles, implicit, widest_for = lexica.titles, lexica.implicit_refs, lexica.widest_for
    folded = [tok.core.casefold() for tok in toks]
    n = len(toks)
    context: dict[int, str] = {}
    spans: list[ReferenceSpan] = []
    free = 0  # no token from here on belongs to a span
    i = 0
    while i < n:
        # titles / implicit references, longest phrase first; only the widths
        # of the phrases that start with this token's word can match
        for width in range(min(widest_for.get(folded[i], 0), n - i), 0, -1):
            phrase = " ".join(folded[i : i + width])
            last = i + width - 1
            if phrase in titles:
                tag = titles[phrase]
                if tag != "@Person":
                    context[last] = tag
                    break
                # honorific: replaceable, role comes from nearby context
                tag = _role_before(context, i) or tag
            elif phrase in implicit:
                tag = implicit[phrase]
            else:
                continue
            spans.append(_span(toks, i, last, tag))
            free = last + 1
            break
        else:
            width = 1
            # corporate legal form: swallow the capitalised run before it
            if toks[i].core in lexica.forms:
                first = i
                while (
                    first > max(free, i - _CORPORATE_RUN)
                    and toks[first - 1].core[:1].isupper()
                    and folded[first - 1] not in titles
                    and folded[first - 1] not in implicit
                ):
                    first -= 1
                spans.append(_span(toks, first, i, "@Corporate"))
                free = i + 1
        i += width
    return spans, context


def _expand_names(
    toks: list[_Token], spans: list[ReferenceSpan], lexica: AnonymiserLexica
) -> list[ReferenceSpan]:
    """Grow each span (given in text order) in place over adjacent
    capitalised lexicon names, rightward then leftward; leftover lexicon
    names become standalone @Person spans, added to the list, which is
    returned in text order."""
    found = [_name(tok, lexica.names) for tok in toks]
    n = len(toks)
    claimed = [False] * n
    for span in spans:
        for k in range(span.first_token, span.last_token + 1):
            claimed[k] = True

    def grow(span: ReferenceSpan) -> None:
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


def jaro(a: str, b: str) -> float:
    """Standard Jaro similarity in [0, 1]: window-limited character matches
    plus a transposition term."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    match_a = [False] * la
    match_b = [False] * lb
    m = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not match_b[j] and b[j] == ch:
                match_a[i] = True
                match_b[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    seq_b = [b[j] for j in range(lb) if match_b[j]]
    mismatches = 0
    k = 0
    for i in range(la):
        if match_a[i]:
            if a[i] != seq_b[k]:
                mismatches += 1
            k += 1
    t = mismatches // 2
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
    role; the local role registry overrides tags per verified name.
    """
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
