"""Synthetic evaluation corpus: distinct label combinations with
class-specific keyword vocabularies, label-set sizes drawn to match the
observed 68/26/7 percent split (mean cardinality ~1.39)."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import DataError, check_fields
from .corpus import Corpus, Judgement, LabelAssignment, SUBSTANTIVE_ORDERS

# document share of label-set sizes 1/2/3
SIZE_SHARES = (0.6758, 0.2585, 0.0656)

_CONSONANTS = "bcdfglmnprstv"
_VOWELS = "aeiou"

_NOISE_WORDS = (
    "tribunal",
    "juzgado",
    "procedimiento",
    "resolución",
    "parte",
    "caso",
    "hecho",
    "fundamento",
    "prueba",
    "escrito",
    "plazo",
    "audiencia",
    "providencia",
    "diligencia",
    "actuación",
    "letrados",
    "representación",
    "notificación",
    "artículo",
    "apartado",
    "presente",
    "fecha",
    "firma",
    "costas",
    "cuantía",
    "instancia",
    "expediente",
    "trámite",
    "vista",
    "acta",
)


# the distinct pseudo-words: a consonant-vowel syllable two or three times
# over, less the noise words spelled so
WORD_POOL = sum((len(_CONSONANTS) * len(_VOWELS)) ** n for n in (2, 3)) - sum(
    bool(re.fullmatch(f"([{_CONSONANTS}][{_VOWELS}]){{2,3}}", w)) for w in _NOISE_WORDS
)
MAX_DOCS = 20_000  # with the bounds below, the largest spec admitted runs in about 10 s
MAX_CLASSES = 1_000
MAX_TOKENS = 1_000_000  # n_docs * tokens_hi, the corpus's most tokens
MAX_WORDS = WORD_POOL // 2  # drawing distinct words by rejection slows as the pool runs out


class SynthError(DataError):
    pass


@dataclass(frozen=True)
class SynthSpec:
    n_docs: int = 2000
    n_classes: int = 8
    seed: int = 0
    noise: float = 0.2
    contamination: float = 0.05
    keywords_per_class: int = 8
    tokens_lo: int = 40
    tokens_hi: int = 80

    def __post_init__(self) -> None:
        check_fields(self, SynthError, lambda spec: {
            "n_docs": (1 <= spec.n_docs <= MAX_DOCS, f"in [1, {MAX_DOCS}]"),
            "n_classes": (2 <= spec.n_classes <= MAX_CLASSES, f"in [2, {MAX_CLASSES}]"),
            "seed": (spec.seed >= 0, ">= 0"),
            "noise": (0 <= spec.noise <= 1, "in [0, 1]"),
            "contamination": (0 <= spec.contamination <= 1, "in [0, 1]"),
            # every pseudo-word is distinct: 3 law categories for each of at
            # most n_classes + 6 base assignments, then the classes' keywords
            "keywords_per_class": (
                1 <= spec.keywords_per_class
                and spec.n_classes * (spec.keywords_per_class + 3) + 18 <= MAX_WORDS,
                f">= 1, with n_classes * (keywords_per_class + 3) + 18 <= {MAX_WORDS}",
            ),
            "tokens_lo": (spec.tokens_lo >= 1, ">= 1"),
            "tokens_hi": (
                spec.tokens_lo <= spec.tokens_hi and spec.n_docs * spec.tokens_hi <= MAX_TOKENS,
                f">= tokens_lo, with n_docs * tokens_hi <= {MAX_TOKENS}",
            ),
        })


def _pseudo_word(rng: np.random.Generator, used: set[str]) -> str:
    while True:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(syllables)
        )
        if word not in used and word not in _NOISE_WORDS:
            used.add(word)
            return word


def _combo_sizes(n_classes: int) -> list[int]:
    """Label-set size per combination class, apportioned to the observed
    proportions (always at least one singleton)."""
    n_triples = round(SIZE_SHARES[2] / sum(SIZE_SHARES) * n_classes)
    n_pairs = round(SIZE_SHARES[1] / sum(SIZE_SHARES) * n_classes)
    # rounding leaves >= 0.675 n - 1 singletons, so >= 1 from n = 3; n = 2 keeps 1
    n_singles = n_classes - n_pairs - n_triples
    return [1] * n_singles + [2] * n_pairs + [3] * n_triples


def _base_assignments(rng: np.random.Generator, count: int, used: set[str]) -> list[LabelAssignment]:
    out = []
    for i in range(count):
        order = SUBSTANTIVE_ORDERS[i % len(SUBSTANTIVE_ORDERS)]
        cats = tuple(f"derecho {_pseudo_word(rng, used)}" for _ in range(3))
        out.append(LabelAssignment(order, cats))
    return out


def generate_corpus(spec: SynthSpec) -> Corpus:
    """Deterministic synthetic corpus for the given spec."""
    rng = np.random.default_rng(spec.seed)
    used: set[str] = set()

    sizes = _combo_sizes(spec.n_classes)
    # enough assignments for every singleton combination to be distinct
    pool = _base_assignments(rng, max(6, max(sizes) * 2, sizes.count(1)), used)
    combos: list[tuple[LabelAssignment, ...]] = []
    seen_keys: set[tuple[str, ...]] = set()
    for size in sizes:
        while True:
            members = tuple(
                pool[int(i)] for i in rng.choice(len(pool), size=size, replace=False)
            )
            key = tuple(sorted(a.key() for a in members))
            if key not in seen_keys:
                seen_keys.add(key)
                combos.append(members)
                break

    vocab = [
        [_pseudo_word(rng, used) for _ in range(spec.keywords_per_class)]
        for _ in combos
    ]

    weights = np.array([SIZE_SHARES[len(c) - 1] / sizes.count(len(c)) for c in combos])
    weights = weights / weights.sum()

    docs = []
    for i in range(spec.n_docs):
        ci = int(rng.choice(len(combos), p=weights))
        length = int(rng.integers(spec.tokens_lo, spec.tokens_hi + 1))
        tokens = []
        for _ in range(length):
            u = rng.random()
            if u < spec.noise:
                tokens.append(_NOISE_WORDS[int(rng.integers(len(_NOISE_WORDS)))])
            elif u < spec.noise + spec.contamination:
                other = int(rng.integers(len(combos)))
                tokens.append(vocab[other][int(rng.integers(spec.keywords_per_class))])
            else:
                tokens.append(vocab[ci][int(rng.integers(spec.keywords_per_class))])
        gin = "".join(str(int(d)) for d in rng.integers(0, 10, size=19))
        annotations = list(combos[ci])
        rng.shuffle(annotations)
        docs.append(
            Judgement(
                id=f"synth-{i:05d}",
                raw_text=" ".join(tokens),
                annotations=tuple(annotations),
                gin=gin,
            )
        )
    return Corpus(tuple(docs))
