"""Declarative configuration and the end-to-end fit/predict pipeline used
by the CLI, cross-validation and grid search."""

from __future__ import annotations

import functools
import json
import os
import stat
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import DataError, check_fields, parse_json, read_text
from .corpus import Corpus, Judgement
from .entities import CATEGORICAL_FIELDS, extract_entities
from .explain import MAX_RELEVANCE_SAMPLES, MIN_RELEVANCE_SAMPLES
from .features import (
    CategoricalEncoder,
    NgramCounts,
    VectorizerModel,
    count_ngrams,
    fit_vectorizer,
    select_by_correlation,
    select_by_importance,
    transform,
)
from .labels import canonicalize, mts_encode
from .lexica import Lexica
from .textproc import TokenStream, to_token_stream
from .trees import (
    EnsembleModel,
    Hyperparams,
    MAX_ESTIMATORS,
    ModelError,
    STRATEGIES,
    VARIANTS,
    fit_ensemble,
    model_from_json,
    model_to_obj,
    predict_batch,
)


class ConfigError(DataError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    corpus: str = ""
    lexica_dir: str | None = None
    out: str | None = None
    # vectorizer (defaults: the optimal grid values)
    max_df: float = 0.5
    min_df: float = 0.01
    ngram_lo: int = 1
    ngram_hi: int = 2
    # selection
    correlation_threshold: float = 0.05
    importance_selection: bool = True
    importance_estimators: int = 20
    # model (defaults: the tuned multi-class random forest row)
    strategy: str = "mts"
    model: str = "rf"
    class_weight: str | None = None
    max_depth: int | None = 100
    min_samples_split: int = 2
    min_samples_leaf: int = 10
    criterion: str = "gini"
    splitter: str = "best"
    n_estimators: int = 200
    bts_threshold: float = 0.5
    # evaluation / explanation
    folds: int = 10
    seed: int = 0
    relevance_samples: int = 500
    synth: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # value ranges are checked here, before any corpus is read
        check_fields(self, ConfigError, _config_rules, prefix="config field ")
        for name in ("corpus", "lexica_dir", "out"):
            path = getattr(self, name)
            if not _is_file_name(path):
                raise ConfigError(f"config field {name!r} is not a valid file name: {path!r}")
        self.hyperparams()

    def hyperparams(self) -> Hyperparams:
        try:
            return Hyperparams(**{f.name: getattr(self, f.name) for f in fields(Hyperparams)})
        except ModelError as exc:  # its messages start with the field's name
            raise ConfigError(f"config field {exc}") from None

    def with_overrides(self, overrides: dict) -> "PipelineConfig":
        overrides = dict(overrides)
        if "ngram_range" in overrides:
            bounds = overrides.pop("ngram_range")
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
                raise ConfigError(f"config field 'ngram_range' must be [lo, hi], got {bounds!r}")
            overrides["ngram_lo"], overrides["ngram_hi"] = bounds
        known = set(asdict(self))
        bad = [k for k in overrides if k not in known]
        if bad:
            raise ConfigError(f"config field {bad[0]!r} is unknown")
        return replace(self, **overrides)


def _config_rules(c: PipelineConfig) -> dict:
    """The config's own ranges; Hyperparams checks the model fields'."""
    return {
        "strategy": (c.strategy in STRATEGIES, f"one of {STRATEGIES}"),
        "model": (c.model in VARIANTS, f"one of {VARIANTS}"),
        "max_df": (0 < c.max_df <= 1, "in (0, 1]"),
        "min_df": (0 <= c.min_df < c.max_df, "in [0, max_df)"),
        "ngram_lo": (1 <= c.ngram_lo <= c.ngram_hi, "in [1, ngram_hi]"),
        "correlation_threshold": (0 <= c.correlation_threshold <= 1, "in [0, 1]"),
        "bts_threshold": (0 <= c.bts_threshold <= 1, "in [0, 1]"),
        "importance_estimators": (
            1 <= c.importance_estimators <= MAX_ESTIMATORS, f"in [1, {MAX_ESTIMATORS}]"
        ),
        "folds": (c.folds >= 2, ">= 2"),
        "relevance_samples": (
            MIN_RELEVANCE_SAMPLES <= c.relevance_samples <= MAX_RELEVANCE_SAMPLES,
            f"in [{MIN_RELEVANCE_SAMPLES}, {MAX_RELEVANCE_SAMPLES}]",
        ),
    }


def _is_file_name(path: str | None) -> bool:
    """Whether the OS can be handed path: it encodes to bytes (a lone
    surrogate does not, unless it escapes a byte of argv) and holds no NUL."""
    if path is None:
        return True
    try:
        return b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        return False


def config_from_json(path) -> PipelineConfig:
    text = read_text(path, ConfigError, "config file")
    raw = parse_json(text, ConfigError, "config file is not valid JSON")
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return PipelineConfig().with_overrides(raw)


@dataclass
class PreparedCorpus:
    """Per-document token streams and entity records; deterministic given
    the lexica, so they are computed once and shared across folds, as are
    the documents' n-gram counts of each range asked for."""

    streams: list[TokenStream]
    records: list
    label_sets: list
    _ngrams: dict = field(default_factory=dict, init=False, repr=False)

    def ngrams(self, ngram_range) -> NgramCounts:
        """The documents' n-grams of one range, interned on first use."""
        key = tuple(ngram_range)
        if key not in self._ngrams:
            self._ngrams[key] = count_ngrams(self.streams, key)
        return self._ngrams[key]


def preprocess_corpus(corpus: Corpus, lexica: Lexica) -> PreparedCorpus:
    streams = [
        to_token_stream(d.id, d.raw_text, lexica.text.stopwords, lexica.text.lemmas)
        for d in corpus.documents
    ]
    records = [extract_entities(d, lexica.entities) for d in corpus.documents]
    label_sets = [canonicalize(d.annotations) for d in corpus.documents]
    return PreparedCorpus(streams, records, label_sets)


@dataclass
class FittedPipeline:
    """A fitted pipeline. The model's feature names are the one record of
    the columns a document is turned into: the kept n-grams, then the kept
    entity fields."""

    config: PipelineConfig
    encoder: CategoricalEncoder
    model: EnsembleModel

    @property
    def kept_names(self) -> list[str]:
        return list(self.model.feature_names)

    @functools.cached_property
    def vectorizer(self) -> VectorizerModel:
        """The vectorizer of the kept n-grams, numbered in column order: the
        leading feature names that are not entity fields. fit_vectorizer
        keeps no n-gram spelled like a field, so the split is exact."""
        names, c = self.model.feature_names, self.config
        n_text = next((i for i, n in enumerate(names) if n in CATEGORICAL_FIELDS), len(names))
        vocabulary = {name: i for i, name in enumerate(names[:n_text])}
        return VectorizerModel(vocabulary, (c.ngram_lo, c.ngram_hi))

    def _matrix_for(self, grams: NgramCounts, rows, records) -> np.ndarray:
        n_text = len(self.vectorizer.vocabulary)
        fields = [CATEGORICAL_FIELDS.index(name) for name in self.model.feature_names[n_text:]]
        return transform(self.vectorizer, grams, rows, self.encoder.transform(records)[:, fields])

    def row_for(self, stream: TokenStream, record) -> np.ndarray:
        grams = count_ngrams([stream], self.vectorizer.ngram_range)
        return self._matrix_for(grams, [0], [record])[0]

    def predict_prepared(self, prep: PreparedCorpus, indices) -> list:
        rows = list(indices)
        records = [prep.records[i] for i in rows]
        X = self._matrix_for(prep.ngrams(self.vectorizer.ngram_range), rows, records)
        return predict_batch(self.model, X, self.config.bts_threshold)

    def predict_document(self, doc: Judgement, lexica: Lexica):
        stream = to_token_stream(
            doc.id, doc.raw_text, lexica.text.stopwords, lexica.text.lemmas
        )
        record = extract_entities(doc, lexica.entities)
        row = self.row_for(stream, record)
        return predict_batch(self.model, row[None, :], self.config.bts_threshold)[0]


def fit_features(
    prep: PreparedCorpus, config: PipelineConfig, rows
) -> tuple[VectorizerModel, CategoricalEncoder, np.ndarray]:
    """The vectorizer and entity encoder fitted on the documents `rows`, and
    their feature matrix: the n-gram counts, then the entity codes."""
    grams = prep.ngrams((config.ngram_lo, config.ngram_hi))
    records = [prep.records[i] for i in rows]
    vectorizer = fit_vectorizer(grams, rows, config.max_df, config.min_df)
    encoder = CategoricalEncoder().fit(records)
    return vectorizer, encoder, transform(vectorizer, grams, rows, encoder.transform(records))


def fit_pipeline(
    corpus: Corpus,
    config: PipelineConfig,
    lexica: Lexica,
    prep: PreparedCorpus | None = None,
    doc_indices=None,
) -> FittedPipeline:
    """Fit vectorizer, encoders, the two-stage feature selection and the
    model on the given documents (all of them by default)."""
    if prep is None:
        prep = preprocess_corpus(corpus, lexica)
    if doc_indices is None:
        doc_indices = range(corpus.n)
    idx = list(doc_indices)
    label_sets = [prep.label_sets[i] for i in idx]
    vectorizer, encoder, X = fit_features(prep, config, idx)
    n_text = len(vectorizer.vocabulary)
    kept = _select_columns(X, n_text, label_sets, config)
    # rebinding frees the full matrix before the forest fit
    X = X[:, kept]
    names = [*vectorizer.names, *CATEGORICAL_FIELDS]

    model = fit_ensemble(
        X,
        label_sets,
        config.hyperparams(),
        variant=config.model,
        strategy=config.strategy,
        feature_names=[names[i] for i in kept],
    )
    return FittedPipeline(config=config, encoder=encoder, model=model)


def _select_columns(X: np.ndarray, n_text: int, label_sets, config: PipelineConfig) -> list[int]:
    """The two-stage selection over views of the one matrix: correlation on
    the categorical columns X[:, n_text:] and forest importance on the
    textual ones X[:, :n_text]. Returns the kept positions, textual first."""
    _, alphas = mts_encode(label_sets)
    target = np.asarray(alphas)
    multiclass = len(set(alphas)) >= 2

    if multiclass:
        kept_cat, _ = select_by_correlation(X[:, n_text:], target, config.correlation_threshold)
    else:
        kept_cat = []
    if config.importance_selection and multiclass:
        kept_text, _ = select_by_importance(
            X[:, :n_text], label_sets, config.importance_estimators, config.seed
        )
    else:
        if config.importance_selection and not multiclass:
            warnings.warn("single-class corpus: feature selection skipped", stacklevel=3)
        kept_text = list(range(n_text))
    kept = kept_text + [n_text + i for i in kept_cat]
    return kept or list(range(n_text))


_PIPELINE_FORMAT = "lexcat-pipeline-v2"


def pipeline_to_json(fp: FittedPipeline) -> str:
    obj = {
        "format": _PIPELINE_FORMAT,
        # no reader uses out, so where a file is written does not change it
        "config": asdict(replace(fp.config, out=None)),
        "encoder": fp.encoder.tables,
        "model": model_to_obj(fp.model),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pipeline_from_json(text: str) -> FittedPipeline:
    obj = parse_json(text, ConfigError, "pipeline file is not JSON")
    if not isinstance(obj, dict):
        raise ConfigError("pipeline file must hold a JSON object")
    if obj.get("format") != _PIPELINE_FORMAT:
        raise ConfigError(f"unsupported pipeline format: {obj.get('format')!r}")
    try:
        _check_envelope(obj)
        fitted = FittedPipeline(
            PipelineConfig().with_overrides(obj["config"]),
            CategoricalEncoder(tables=obj["encoder"]),
            model_from_json(json.dumps(obj["model"])),
        )
    except KeyError as exc:
        raise ConfigError(f"pipeline file lacks field {exc}") from None
    # the columns are distinct, the n-grams before the entity fields, as fitting lists them
    names = fitted.model.feature_names
    if len(set(names)) != len(names):
        raise ConfigError("pipeline model columns must be distinct")
    if not set(names[len(fitted.vectorizer.vocabulary):]) <= set(CATEGORICAL_FIELDS):
        raise ConfigError("pipeline model columns must list the n-grams first, as fitting does")
    return fitted


def _check_envelope(obj: dict) -> None:
    """The config is a JSON object and the encoder one table of integer
    codes per entity field; the constructors check their values."""
    tables = obj["encoder"]
    if not isinstance(obj["config"], dict):
        raise ConfigError("malformed pipeline field 'config'")
    if not (isinstance(tables, dict) and set(tables) == set(CATEGORICAL_FIELDS) and all(
        isinstance(t, dict) and all(type(code) is int for code in t.values())
        for t in tables.values()
    )):
        raise ConfigError("malformed pipeline field 'encoder'")


def write_atomic(path, text: str) -> None:
    """Write text to path through a temporary file in the same directory,
    so that a failed write leaves neither a partial file nor the temporary.
    The file keeps the mode of the file it replaces; a new file gets the
    mode open() would create it with under the umask."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lexcat-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                os.fchmod(fd, _mode_for(path))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # a missing directory, a directory, no permission
        raise ConfigError(f"cannot write output file {path!r}: {exc.strerror or exc}") from None


def _mode_for(path: str) -> int:
    """The permission bits of the file at path, or, when there is none,
    those open() gives a new file: 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        return 0o666 & ~umask


def save_pipeline(fp: FittedPipeline, path) -> None:
    write_atomic(path, pipeline_to_json(fp))


def load_pipeline(path) -> FittedPipeline:
    return pipeline_from_json(read_text(path, ConfigError, "model file"))
