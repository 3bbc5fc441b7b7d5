"""Command-line surface wiring the pipeline end to end.

Exit codes: 0 success, 1 usage, 2 data/config error (a `lexcat.DataError`),
3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, NamedTuple

from . import DataError, evaluation
from .anonymiser import anonymize
from .corpus import Corpus, CorpusError, corpus_stats, corpus_to_text, load_corpus
from .entities import CATEGORICAL_FIELDS, extract_entities
from .explain import (
    build_explanation,
    class_display_names,
    export_tree_graph,
    render_explanation,
)
from .features import feature_matrix_to_text
from .lexica import load_lexica
from .pipeline import (
    ConfigError,
    PipelineConfig,
    config_from_json,
    fit_features,
    fit_pipeline,
    load_pipeline,
    preprocess_corpus,
    save_pipeline,
    write_atomic,
)
from .synth import SynthError, SynthSpec, generate_corpus
from .trees import STRATEGIES, VARIANTS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise UsageError(message)


# the argparse settings of the override flags whose value is an int or a choice
_INT = {"type": int}
_TYPED = {"seed": _INT, "folds": _INT,
          "strategy": {"choices": STRATEGIES}, "model": {"choices": VARIANTS}}


def _build_parser() -> _Parser:
    parser = _Parser(prog="lexcat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # exact flags only: a command lacking --model would read it as --model-file
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file")
        for field in command.fields:
            flag = "--" + field.replace("_", "-")
            p.add_argument(flag, help=f"overrides config field {field!r}", **_TYPED.get(field, {}))
        for flag, settings in command.flags.items():
            p.add_argument(flag, **settings)
    return parser


def _load_config(args) -> PipelineConfig:
    config = config_from_json(args.config) if args.config else PipelineConfig()
    overrides = {
        name: getattr(args, name)
        for name in COMMANDS[args.command].fields
        if getattr(args, name) not in (None, "")
    }
    return config.with_overrides(overrides)


def _require_corpus(config: PipelineConfig) -> Corpus:
    if not config.corpus:
        raise ConfigError("no corpus file given (config field 'corpus' or --corpus)")
    return load_corpus(config.corpus)


def _out_path(config: PipelineConfig, default: str) -> str:
    return config.out if config.out else default


def _cmd_preprocess(config: PipelineConfig, args) -> int:
    corpus = _require_corpus(config)
    lexica = load_lexica(config.lexica_dir)
    prep = preprocess_corpus(corpus, lexica)
    lines = [
        json.dumps({"id": s.source_id, "tokens": list(s.tokens)}, ensure_ascii=False)
        for s in prep.streams
    ]
    path = _out_path(config, "tokens.jsonl")
    write_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} token streams to {path}")
    return EXIT_OK


def _cmd_anonymize(config: PipelineConfig, args) -> int:
    corpus = _require_corpus(config)
    lexica = load_lexica(config.lexica_dir)
    out_docs = []
    total_counts: dict[str, int] = {}
    pairs: set[tuple[str, str]] = set()
    for doc in corpus.documents:
        text, report = anonymize(doc.raw_text, lexica.anonymiser)
        out_docs.append(dataclasses.replace(doc, raw_text=text))
        for tag, c in report.counts.items():
            total_counts[tag] = total_counts.get(tag, 0) + c
        pairs.update(report.replaced_names)
    path = _out_path(config, "anonymized.jsonl")
    write_atomic(path, corpus_to_text(Corpus(tuple(out_docs))))
    report_path = path + ".report.tsv"
    lines = [f"{tag}\t{total_counts[tag]}" for tag in sorted(total_counts)]
    lines += [f"{orig}\t{canon}" for orig, canon in sorted(pairs)]
    write_atomic(report_path, "\n".join(lines) + "\n" if lines else "")
    print(f"wrote anonymized corpus to {path} (report: {report_path})")
    return EXIT_OK


def _cmd_entities(config: PipelineConfig, args) -> int:
    corpus = _require_corpus(config)
    lexica = load_lexica(config.lexica_dir)
    lines = ["\t".join(("id",) + CATEGORICAL_FIELDS)]
    for doc in corpus.documents:
        record = extract_entities(doc, lexica.entities)
        lines.append("\t".join((doc.id,) + record.values()))
    path = _out_path(config, "entities.tsv")
    write_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {corpus.n} entity records to {path}")
    return EXIT_OK


def _cmd_featurize(config: PipelineConfig, args) -> int:
    corpus = _require_corpus(config)
    lexica = load_lexica(config.lexica_dir)
    vec, _, X = fit_features(preprocess_corpus(corpus, lexica), config, range(corpus.n))
    path = _out_path(config, "features.tsv")
    write_atomic(path, feature_matrix_to_text(vec.names, X, [d.id for d in corpus.documents]))
    print(f"wrote {X.shape[0]}x{X.shape[1]} feature matrix to {path}")
    return EXIT_OK


def _cmd_train(config: PipelineConfig, args) -> int:
    corpus = _require_corpus(config)
    lexica = load_lexica(config.lexica_dir)
    fitted = fit_pipeline(corpus, config, lexica)
    path = _out_path(config, "model.json")
    save_pipeline(fitted, path)
    n_trees = sum(len(table.roots) for table in fitted.model.forests)
    print(f"trained {config.strategy}/{config.model} ({n_trees} trees) -> {path}")
    return EXIT_OK


def _cmd_evaluate(config: PipelineConfig, args) -> int:
    corpus = _require_corpus(config)
    lexica = load_lexica(config.lexica_dir)
    report = evaluation.cross_validate(
        corpus, config, k=config.folds, seed=config.seed, lexica=lexica
    )
    row = evaluation.report_row(config.strategy, config.model, report)
    text = evaluation.REPORT_HEADER + "\n" + row + "\n"
    path = _out_path(config, "evaluation.tsv")
    write_atomic(path, text)
    print(text, end="")
    print(f"wrote report to {path}")
    return EXIT_OK


def _cmd_gridsearch(config: PipelineConfig, args) -> int:
    corpus = _require_corpus(config)
    lexica = load_lexica(config.lexica_dir)
    result = evaluation.grid_search(
        corpus,
        config.grid,
        k=config.folds,
        base_config=config,
        seed=config.seed,
        lexica=lexica,
    )
    lines = ["params\tscore"]
    for params, score in result.scores:
        lines.append(f"{json.dumps(params, sort_keys=True)}\t{score:.6f}")
    lines.append(f"best\t{json.dumps(result.best_params, sort_keys=True)}")
    path = _out_path(config, "gridsearch.tsv")
    write_atomic(path, "\n".join(lines) + "\n")
    print(f"best params: {result.best_params} (score {result.best_score:.4f})")
    return EXIT_OK


def _cmd_explain(config: PipelineConfig, args) -> int:
    corpus = _require_corpus(config)
    lexica = load_lexica(config.lexica_dir)
    fitted = load_pipeline(args.model_file)
    doc = next((d for d in corpus.documents if d.id == args.sample), None)
    if doc is None:
        raise CorpusError(f"document id not found in corpus: {args.sample!r}")
    text = render_explanation(build_explanation(fitted, doc, lexica))
    if config.out:
        write_atomic(config.out, text)
    print(text, end="")
    return EXIT_OK


def _tree_graph(model, index: int, max_depth: int | None) -> str:
    """DOT graph of model.trees[index], its leaves named after the classes
    of the forest that holds the tree. A leaf is named after the class it
    votes for, the argmax of its class-weighted counts."""
    offset = index
    for forest_index, table in enumerate(model.forests):
        if 0 <= offset < len(table.roots):
            names = class_display_names(model, forest_index)
            tree = table.tree(offset)
            tree = dataclasses.replace(tree, counts=tree.counts * table.weights)
            return export_tree_graph(tree, max_depth, model.feature_names, names)
        offset -= len(table.roots)
    n_trees = sum(len(table.roots) for table in model.forests)
    raise ConfigError(f"tree index out of range [0,{n_trees}): {index}")


def _cmd_export_tree(config: PipelineConfig, args) -> int:
    if args.max_depth is not None and args.max_depth < 0:  # as Hyperparams refuses one
        raise ConfigError(f"--max-depth must be >= 0, got {args.max_depth}")
    dot = _tree_graph(load_pipeline(args.model_file).model, args.tree, args.max_depth)
    path = _out_path(config, "tree.dot")
    write_atomic(path, dot)
    print(f"wrote tree graph to {path}")
    return EXIT_OK


def _cmd_synth(config: PipelineConfig, args) -> int:
    given = {"n_docs": args.docs, "n_classes": args.classes}
    params = {**config.synth, **{k: v for k, v in given.items() if v is not None}}
    try:  # --seed or the config's seed is the one seed: a synth "seed" key is refused
        spec = SynthSpec(**params, seed=config.seed)
    except (TypeError, SynthError) as exc:
        raise ConfigError(f"bad synth parameters: {exc}") from None
    corpus = generate_corpus(spec)
    path = _out_path(config, "synthetic.jsonl")
    write_atomic(path, corpus_to_text(corpus))
    stats = corpus_stats(corpus)
    print(
        f"wrote {corpus.n} documents to {path} "
        f"(cardinality {stats.label_cardinality:.3f}, {stats.class_count} classes)"
    )
    return EXIT_OK


class Command(NamedTuple):
    run: Callable[[PipelineConfig, argparse.Namespace], int]
    fields: tuple[str, ...]  # the config fields its override flags set
    flags: dict = {}  # its other flags, each with its argparse settings


_FILES = ("corpus", "lexica_dir", "out")
_FIT = (*_FILES, "seed", "strategy", "model")
_MODEL_FILE = {"required": True, "help": "trained pipeline artifact"}

COMMANDS = {
    "preprocess": Command(_cmd_preprocess, _FILES),
    "anonymize": Command(_cmd_anonymize, _FILES),
    "entities": Command(_cmd_entities, _FILES),
    "featurize": Command(_cmd_featurize, _FILES),
    "train": Command(_cmd_train, _FIT),
    "evaluate": Command(_cmd_evaluate, (*_FIT, "folds")),
    "gridsearch": Command(_cmd_gridsearch, (*_FIT, "folds")),
    "explain": Command(_cmd_explain, _FILES, {
        "--sample": {"required": True, "help": "document id to explain"},
        "--model-file": _MODEL_FILE,
    }),
    "export-tree": Command(_cmd_export_tree, ("out",), {
        "--model-file": _MODEL_FILE,
        "--tree": {"type": int, "default": 0},
        "--max-depth": {"type": int},
    }),
    "synth": Command(_cmd_synth, ("seed", "out"), {"--docs": _INT, "--classes": _INT}),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command].run(_load_config(args), args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
