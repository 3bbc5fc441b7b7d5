import argparse
import contextlib
import copy
import functools
import io
import json
import operator
import os
import re
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcat import cli
from lexcat.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from lexcat.corpus import load_corpus
from lexcat.entities import CATEGORICAL_FIELDS
from lexcat.explain import class_display_names
from lexcat.lexica import default_data_dir, load_lexica
from lexcat.pipeline import ConfigError, PipelineConfig, load_pipeline, save_pipeline
from lexcat.trees import Hyperparams, ModelError, fit_ensemble

from test_entities import _ref_extract_entities
from test_trees import (
    MALFORMATIONS,
    _label_sets_for,
    _set,
    las,
    malformed_model_obj,
    within_seconds,
)


@pytest.fixture(scope="module")
def synth_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    rc = main(["synth", "--docs", "80", "--classes", "3", "--seed", "5", "--out", str(path)])
    assert rc == EXIT_OK
    return path


@pytest.fixture(scope="module")
def fast_config_path(tmp_path_factory, synth_corpus_path):
    path = tmp_path_factory.mktemp("cli") / "config.json"
    path.write_text(
        json.dumps(
            {
                "corpus": str(synth_corpus_path),
                "n_estimators": 5,
                "min_samples_leaf": 1,
                "folds": 3,
                "seed": 5,
                "relevance_samples": 60,
            }
        ),
        encoding="utf-8",
    )
    return path


def test_unknown_command_usage_exit():
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def _explain(corpus, cfg, model):
    return ["explain", "--config", cfg, "--sample", "synth-00003", "--model-file", model]


# A flag each command used to accept and ignore, or that chose a deleted
# path: the command's arguments, given the 80-document corpus, the fast
# config and the dt model file, then the flag
UNREAD_FLAGS = {
    "synth_folds": (lambda *_: ["synth", "--docs", "5", "--classes", "2"], ["--folds", "3"]),
    "export_tree_corpus": (lambda corpus, cfg, model: ["export-tree", "--model-file", model],
                           ["--corpus", "nope.jsonl"]),
    "explain_strategy": (_explain, ["--strategy", "bts"]),
    # a prefix of --model-file, which an abbreviating parser would read as it
    "explain_model": (_explain, ["--model", "dt"]),
    "explain_graph": (_explain, ["--graph", "t.dot"]),
    "preprocess_seed": (lambda corpus, cfg, model: ["preprocess", "--corpus", corpus],
                        ["--seed", "3"]),
    "train_folds": (lambda corpus, cfg, model: ["train", "--config", cfg], ["--folds", "3"]),
    # train writes its pipeline only to --out
    "train_model_file": (lambda corpus, cfg, model: ["train", "--config", cfg],
                         ["--model-file", "m.json"]),
}


@pytest.mark.parametrize("name", sorted(UNREAD_FLAGS))
def test_flag_the_command_does_not_read_is_usage_error(
    synth_corpus_path, fast_config_path, dt_model_path, tmp_path, capsys, name
):
    argv, flag = UNREAD_FLAGS[name]
    argv = argv(str(synth_corpus_path), str(fast_config_path), str(dt_model_path))
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert main([*argv, *flag, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_explain_without_model_file_is_usage_error(fast_config_path, capsys):
    rc = main(["explain", "--config", str(fast_config_path), "--sample", "synth-00003"])
    assert rc == EXIT_USAGE
    assert "the following arguments are required: --model-file" in capsys.readouterr().err


def _readme_flag_table():
    """The README's command -> flags table, each command's flags sorted."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for row in re.findall(r"^\| (`[a-z-]+`.*?) \| (`--.*?) \|$", readme, re.M):
        commands, flags = (re.findall(r"`([a-z-]+)`", cell) for cell in row)
        table.update({command: sorted(flags) for command in commands})
    return table


def test_readme_flag_table_matches_the_parser():
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: sorted(flag for action in parser._actions for flag in action.option_strings
                     if flag not in ("-h", "--help"))
        for name, parser in sub.choices.items()
    }
    assert _readme_flag_table() == parsed
    assert sum(map(len, parsed.values())) == 55


def test_missing_corpus_is_data_error(tmp_path):
    assert main(["entities", "--corpus", str(tmp_path / "nope.jsonl")]) == EXIT_DATA
    assert main(["entities"]) == EXIT_DATA


def test_bad_config_is_data_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "boost"}', encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == EXIT_DATA
    cfg.write_text("not json", encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == EXIT_DATA


@pytest.mark.parametrize(
    "bad,command",
    [
        # the config is refused before the model file is read
        ({"relevance_samples": 5}, ["explain", "--sample", "synth-0", "--model-file", "m.json"]),
        ({"bts_threshold": "x"}, ["evaluate", "--strategy", "bts"]),
        ({"seed": "abc"}, ["train"]),
        # value ranges, rejected when the config is built, before any corpus is read
        ({"correlation_threshold": -5}, ["train"]),
        ({"bts_threshold": 7}, ["evaluate", "--strategy", "bts"]),
        ({"max_df": 0}, ["train"]),
        ({"min_df": 0.6}, ["train"]),
        ({"ngram_lo": 0}, ["train"]),
        ({"n_estimators": 0}, ["train"]),
        ({"importance_estimators": 0}, ["train"]),
        # counts of work past the most a run may ask for; 10**40 trees ran until killed
        ({"n_estimators": 10**40}, ["train"]),
        ({"importance_estimators": 10_001}, ["train"]),
        ({"relevance_samples": 10_001}, ["train"]),
        ({"seed": -1}, ["train"]),
        ({"ngram_range": 5}, ["train"]),
        ({"bogus": 1}, ["train"]),
        ({"strategy": "xyz"}, ["train"]),
    ],
    ids=[
        "relevance_samples",
        "bts_threshold",
        "seed",
        "correlation_threshold_range",
        "bts_threshold_range",
        "max_df_range",
        "min_df_above_max_df",
        "ngram_lo_range",
        "n_estimators_range",
        "importance_estimators_range",
        "huge_n_estimators",
        "importance_estimators_above_max",
        "relevance_samples_above_max",
        "seed_range",
        "ngram_range_not_a_pair",
        "unknown_field",
        "unknown_strategy",
    ],
)
def test_bad_config_value_is_data_error(fast_config_path, tmp_path, capsys, bad, command):
    cfg = json.loads(fast_config_path.read_text(encoding="utf-8"))
    cfg.update(bad)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(command + ["--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    field = next(iter(bad))
    assert f"config field {field!r}" in capsys.readouterr().err


def test_config_value_types():
    PipelineConfig(max_df=1, max_depth=None, class_weight=None)  # an int is a float
    for bad in (
        {"seed": 1.0},
        {"seed": True},
        {"max_df": False},
        {"max_df": None},
        {"corpus": None},
        {"importance_selection": 1},
        {"grid": []},
        {"relevance_samples": 9},
        {"correlation_threshold": 1.5},
        {"max_df": float("nan")},
        {"n_estimators": 0},
        {"max_depth": -1},
    ):
        with pytest.raises(ConfigError, match=repr(next(iter(bad)))):
            PipelineConfig(**bad)


@pytest.mark.parametrize("word", ["court", "decision", "jurisdiction"])
def test_ngram_spelled_like_entity_field_trains(tmp_path, word):
    corpus = tmp_path / "corpus.jsonl"
    rc = main(["synth", "--docs", "60", "--classes", "3", "--seed", "1", "--out", str(corpus)])
    assert rc == EXIT_OK
    docs = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    for doc in docs[::3]:
        doc["text"] += " " + word
    corpus.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus": str(corpus), "n_estimators": 5}), encoding="utf-8")
    model_file = tmp_path / "model.json"
    assert main(["train", "--config", str(cfg), "--out", str(model_file)]) == EXIT_OK
    fitted = load_pipeline(model_file)
    assert word not in fitted.vectorizer.vocabulary
    assert fitted.kept_names.count(word) <= 1


def test_synth_corpus_loads(synth_corpus_path):
    corpus = load_corpus(synth_corpus_path)
    assert corpus.n == 80


def test_preprocess_entities_featurize(synth_corpus_path, tmp_path):
    tokens = tmp_path / "tokens.jsonl"
    assert main(["preprocess", "--corpus", str(synth_corpus_path), "--out", str(tokens)]) == EXIT_OK
    lines = tokens.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 80
    assert json.loads(lines[0])["id"] == "synth-00000"

    entities = tmp_path / "entities.tsv"
    assert main(["entities", "--corpus", str(synth_corpus_path), "--out", str(entities)]) == EXIT_OK
    rows = entities.read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("id\tcase_type")
    assert len(rows) == 81

    features = tmp_path / "features.tsv"
    assert main(["featurize", "--corpus", str(synth_corpus_path), "--out", str(features)]) == EXIT_OK
    assert len(features.read_text(encoding="utf-8").splitlines()) == 81


def test_anonymize_command(tmp_path):
    corpus = tmp_path / "c.jsonl"
    record = {
        "id": "a",
        "text": "el Magistrado D. Juan Pérez falló",
        "labels": [{"order": "civil", "categories": ["a", "b", "c"]}],
    }
    corpus.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    out = tmp_path / "anon.jsonl"
    assert main(["anonymize", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
    anonymized = load_corpus(out)
    assert "Juan" not in anonymized.documents[0].raw_text
    report = (tmp_path / "anon.jsonl.report.tsv").read_text(encoding="utf-8")
    assert "@Judge\t1" in report


@pytest.mark.parametrize("table", ["titles.tsv", "implicit_refs.tsv", "roles.tsv"])
def test_unknown_anonymiser_tag_is_data_error(table, tmp_path, capsys):
    lexica_dir = tmp_path / "lexica"
    shutil.copytree(default_data_dir(), lexica_dir)
    with open(lexica_dir / table, "a", encoding="utf-8") as fh:
        fh.write("juez\t@Boss\n")
    corpus = tmp_path / "c.jsonl"
    record = {
        "id": "a",
        "text": "el juez D. Juan Pérez falló",
        "labels": [{"order": "civil", "categories": ["a", "b", "c"]}],
    }
    corpus.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    rc = main(["anonymize", "--corpus", str(corpus), "--out", str(tmp_path / "anon.jsonl"),
               "--lexica-dir", str(lexica_dir)])
    assert rc == EXIT_DATA
    assert "unknown tag '@Boss'" in capsys.readouterr().err


def test_train_evaluate_explain_export(fast_config_path, synth_corpus_path, tmp_path):
    model_file = tmp_path / "model.json"
    rc = main(["train", "--config", str(fast_config_path), "--out", str(model_file)])
    assert rc == EXIT_OK
    assert model_file.is_file()

    report = tmp_path / "evaluation.tsv"
    rc = main(["evaluate", "--config", str(fast_config_path), "--out", str(report)])
    assert rc == EXIT_OK
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t")[0] == "strategy"
    assert lines[1].split("\t")[0] == "MTS"
    assert len(lines[1].split("\t")) == 12

    out_text = tmp_path / "expl.txt"
    rc = main(
        [
            "explain",
            "--config", str(fast_config_path),
            "--sample", "synth-00003",
            "--model-file", str(model_file),
            "--out", str(out_text),
        ]
    )
    assert rc == EXIT_OK
    text = out_text.read_text(encoding="utf-8")
    assert text.startswith("For sample synth-00003 ")
    assert "confidence of" in text

    dot = tmp_path / "t.dot"
    rc = main(["export-tree", "--model-file", str(model_file), "--tree", "0", "--out", str(dot)])
    assert rc == EXIT_OK
    assert dot.read_text(encoding="utf-8").startswith("digraph")

    rc = main(["explain", "--config", str(fast_config_path), "--sample", "missing",
               "--model-file", str(model_file)])
    assert rc == EXIT_DATA


def test_gridsearch_command(synth_corpus_path, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps(
            {
                "corpus": str(synth_corpus_path),
                "n_estimators": 3,
                "min_samples_leaf": 1,
                "folds": 2,
                "grid": {"criterion": ["gini", "entropy"]},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "grid.tsv"
    assert main(["gridsearch", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "params\tscore"
    assert lines[-1].startswith("best\t")


@pytest.mark.parametrize(
    "grid",
    [
        {"criterion": []},
        {"criterion": 0.5},
        {"out": "ab"},
        # fixed outside the grid; each used to be ignored, scoring every point alike
        {"folds": [2, 5]},
        {"lexica_dir": ["/nonexistent"]},
        {"corpus": ["other.jsonl"]},
    ],
    ids=[
        "empty_list", "scalar", "string_read_letter_by_letter",
        "folds_key", "lexica_dir_key", "corpus_key",
    ],
)
def test_gridsearch_grid_value_not_a_nonempty_list(synth_corpus_path, tmp_path, capsys, grid):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"corpus": str(synth_corpus_path), "grid": grid}), encoding="utf-8")
    rc = main(["gridsearch", "--config", str(cfg), "--out", str(tmp_path / "grid.tsv")])
    assert rc == EXIT_DATA
    assert repr(next(iter(grid))) in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid",
    [
        {"out": ["a.tsv", "b.tsv"]},
        {"relevance_samples": [10, 900]},
        {"synth": [{}, {"n_docs": 5}]},
        {"grid": [{}]},
    ],
    ids=["out", "relevance_samples", "synth", "grid"],
)
def test_gridsearch_key_cross_validation_never_reads_is_data_error(
    synth_corpus_path, tmp_path, capsys, grid
):
    # each used to run, scoring every point alike
    cfg = tmp_path / "grid.json"
    grid = {"criterion": ["gini"], **grid}
    cfg.write_text(json.dumps({"corpus": str(synth_corpus_path), "grid": grid}), encoding="utf-8")
    out = tmp_path / "grid.tsv"
    rc = main(["gridsearch", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_DATA
    assert repr(list(grid)[1]) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args,synth,field",
    [
        (["--docs", "0"], {}, "n_docs"),
        (["--classes", "1"], {}, "n_classes"),
        ([], {"n_docs": "x"}, "n_docs"),
        ([], {"noise": "x"}, "noise"),
        ([], {"contamination": 2}, "contamination"),
        (["--seed", "-1"], {}, "seed"),
        ([], {"keywords_per_class": 0}, "keywords_per_class"),
        ([], {"tokens_hi": 3}, "tokens_hi"),
        # each used to run until killed, loop forever or exit 3
        (["--docs", str(10**20)], {}, "n_docs"),
        ([], {"n_classes": 10**40}, "n_classes"),
        ([], {"tokens_hi": 10**40}, "tokens_hi"),
        # 8 classes of 40,000 keywords: more words than the pseudo-word pool holds
        ([], {"keywords_per_class": 40_000}, "keywords_per_class"),
        # each one past a bound: the largest specs admitted run in about 10 s
        (["--docs", "20001"], {}, "n_docs"),
        ([], {"n_docs": 20_000, "tokens_hi": 51}, "tokens_hi"),
        ([], {"keywords_per_class": 17_423}, "keywords_per_class"),
    ],
    ids=[
        "zero_docs",
        "one_class",
        "docs_not_a_number",
        "noise_not_a_number",
        "contamination_range",
        "negative_seed",
        "no_keywords",
        "tokens_hi_below_tokens_lo",
        "huge_docs",
        "huge_classes",
        "huge_tokens_hi",
        "keywords_beyond_word_pool",
        "docs_above_max",
        "tokens_above_max",
        "keywords_beyond_half_word_pool",
    ],
)
def test_bad_synth_spec_is_data_error(tmp_path, capsys, args, synth, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": synth}), encoding="utf-8")
    with within_seconds(10):
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c.jsonl"), *args])
    assert rc == EXIT_DATA
    assert repr(field) in capsys.readouterr().err


def test_synth_seed_is_the_flag_or_the_config_seed(tmp_path, capsys):
    outs = {}
    for name, cfg, argv in [
        ("flag", {}, ["--seed", "5"]),
        ("config", {"seed": 5}, []),
        ("flag_over_config", {"seed": 1}, ["--seed", "5"]),
        ("other", {}, ["--seed", "9"]),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**cfg, "synth": {"n_docs": 20}}), encoding="utf-8")
        outs[name] = tmp_path / f"{name}.jsonl"
        assert main(["synth", "--config", str(path), "--out", str(outs[name]), *argv]) == EXIT_OK
    texts = {name: out.read_bytes() for name, out in outs.items()}
    assert texts["flag"] == texts["config"] == texts["flag_over_config"] != texts["other"]
    # a second seed in the synth object used to win over --seed
    path = tmp_path / "synth_seed.json"
    path.write_text(json.dumps({"synth": {"n_docs": 20, "seed": 1}}), encoding="utf-8")
    rc = main(["synth", "--config", str(path), "--seed", "5", "--out", str(outs["flag"])])
    assert rc == EXIT_DATA
    assert "'seed'" in capsys.readouterr().err
    assert outs["flag"].read_bytes() == texts["flag"]


def test_evaluate_deterministic_artifacts(fast_config_path, tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert main(["evaluate", "--config", str(fast_config_path), "--out", str(a)]) == EXIT_OK
    assert main(["evaluate", "--config", str(fast_config_path), "--out", str(b)]) == EXIT_OK
    # identical up to the wall-clock training-time column
    row_a = a.read_text(encoding="utf-8").splitlines()[1].split("\t")[:-1]
    row_b = b.read_text(encoding="utf-8").splitlines()[1].split("\t")[:-1]
    assert row_a == row_b


def test_train_twice_byte_identical(fast_config_path, tmp_path):
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    assert main(["train", "--config", str(fast_config_path), "--out", str(m1)]) == EXIT_OK
    assert main(["train", "--config", str(fast_config_path), "--out", str(m2)]) == EXIT_OK
    assert m1.read_bytes() == m2.read_bytes()


def test_export_tree_bts_labels_follow_forest(fast_config_path, tmp_path):
    model_file = tmp_path / "bts.json"
    rc = main(["train", "--config", str(fast_config_path), "--strategy", "bts",
               "--out", str(model_file)])
    assert rc == EXIT_OK
    model = load_pipeline(model_file).model
    assert [len(table.roots) for table in model.forests] == [5, 5, 5]
    dot = tmp_path / "t.dot"
    for index, forest_index in ((0, 0), (7, 1), (14, 2)):
        rc = main(["export-tree", "--model-file", str(model_file), "--tree", str(index),
                   "--out", str(dot)])
        assert rc == EXIT_OK
        nodes = re.findall(r'^  n\d+ \[label="([^"]*)"\];$', dot.read_text(encoding="utf-8"), re.M)
        leaf_labels = {label for label in nodes if "≤" not in label}
        assert leaf_labels
        assert leaf_labels <= set(class_display_names(model, forest_index))
    for index in ("15", "-1"):
        rc = main(["export-tree", "--model-file", str(model_file), "--tree", index,
                   "--out", str(dot)])
        assert rc == EXIT_DATA


_GOOD_LABEL = {"order": "civil", "categories": ["a", "b", "c"]}
_GOOD_RECORD = {"id": "a", "text": "t", "labels": [_GOOD_LABEL]}


def test_export_tree_leaves_name_the_class_weighted_vote():
    # a balanced-weight dt on a 15% minority: an impure leaf votes with its
    # class-weighted counts, which can outweigh a raw majority
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 3))
    y = (rng.random(400) < 0.15).astype(int)
    X[:, 0] += y
    hp = Hyperparams(class_weight="balanced", min_samples_leaf=20)
    model = fit_ensemble(X, _label_sets_for(y, las(2)), hp, "dt", "mts")
    tree, names = model.trees[0], class_display_names(model, 0)
    dot = cli._tree_graph(model, 0, None)
    labels = dict(re.findall(r'^  n(\d+) \[label="([^"≤]*)"\];$', dot, re.M))
    (leaves,) = np.nonzero(tree.feature < 0)
    assert sorted(map(int, labels)) == leaves.tolist()
    voted = model.forests[0].dist[leaves].argmax(axis=1)
    assert [labels[str(node)] for node in leaves] == [names[k] for k in voted]
    # the raw majority names another class at some leaf
    assert (tree.counts[leaves].argmax(axis=1) != voted).any()


def test_ngram_range_beyond_every_document_explains_in_bounded_time(
    fast_config_path, tmp_path
):
    # no document is 100000 tokens long, so the explanation is the [1, 2] one
    model_file = tmp_path / "m.json"
    train = ["train", "--config", str(fast_config_path), "--out", str(model_file)]
    assert main(train) == EXIT_OK
    obj = json.loads(model_file.read_text(encoding="utf-8"))
    assert (obj["config"]["ngram_lo"], obj["config"]["ngram_hi"]) == (1, 2)
    obj["config"]["ngram_hi"] = 100_000
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(obj), encoding="utf-8")
    outs = []
    for path in (model_file, wide):
        outs.append(tmp_path / f"{path.stem}.txt")
        with within_seconds(10):
            rc = main(["explain", "--config", str(fast_config_path), "--sample", "synth-00003",
                       "--model-file", str(path), "--out", str(outs[-1])])
        assert rc == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_ngram_hi_beyond_every_document_featurizes_in_bounded_time(tmp_path):
    corpus = tmp_path / "c.jsonl"
    texts = ("contrato de obra en madrid", "recurso de apelación", "sentencia firme del juzgado")
    records = [{**_GOOD_RECORD, "id": f"d{i}", "text": text} for i, text in enumerate(texts)]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    outs = []
    for hi in (5, 10**12):  # 5 words in the longest document
        outs.append(tmp_path / f"f{hi}.tsv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": str(corpus), "ngram_hi": hi}), encoding="utf-8")
        with within_seconds(10):
            assert main(["featurize", "--config", str(cfg), "--out", str(outs[-1])]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize(
    "record, message",
    [
        ([1], "record must be an object"),
        ({**_GOOD_RECORD, "id": ""}, "record missing string field 'id'"),
        ({**_GOOD_RECORD, "text": None}, "record missing string field 'text'"),
        ({**_GOOD_RECORD, "labels": []}, "record missing nonempty array field 'labels'"),
        ({**_GOOD_RECORD, "gin": 7}, "field 'gin' must be a string when present"),
        ({**_GOOD_RECORD, "labels": ["civil"]}, "label entry must be an object"),
        (
            {**_GOOD_RECORD, "labels": [{**_GOOD_LABEL, "order": 3}]},
            "label entry missing string field 'order'",
        ),
        (
            {**_GOOD_RECORD, "labels": [{**_GOOD_LABEL, "categories": ["a", "b"]}]},
            "label entry 'categories' must be a 3-element array",
        ),
    ],
    ids=["not_object", "id", "text", "labels", "gin", "label_not_object", "order", "categories"],
)
def test_corpus_record_shape_error_names_its_line(record, message, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    good = {**_GOOD_RECORD, "id": "first"}
    corpus.write_text(json.dumps(good) + "\n\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert main(["entities", "--corpus", str(corpus), "--out", str(tmp_path / "e")]) == EXIT_DATA
    assert f"error: line 3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("divisions.tsv", "sin tabulador", "expected 'key<TAB>value', got 'sin tabulador'"),
        ("gin_jurisdiction.tsv", "12\t\tcivil", "expected 'key<TAB>value'"),
        ("lemmas.tsv", "dos palabras\tuna", "lemma entries must be single tokens: 'dos palabras'"),
        ("stopwords.txt", "El", "stopwords.txt: entry is not one clean token: 'El'"),
        ("lemmas.tsv", "art.\tartículo", "lemmas.tsv: entry is not one clean token: 'art.'"),
        ("case_types.tsv", "\tcivil", "empty entry name in '\\tcivil'"),
        ("courts.txt", "-", "courts.txt: entry without a word character: '-'"),
        ("divisions.tsv", "¿ -\tcivil", "divisions.tsv: entry without a word character: '¿ -'"),
    ],
)
def test_lexicon_line_error_is_data_error(
    name, line, message, synth_corpus_path, tmp_path, capsys
):
    lexica_dir = tmp_path / "lexica"
    shutil.copytree(default_data_dir(), lexica_dir)
    with open(lexica_dir / name, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    argv = ["entities", "--corpus", str(synth_corpus_path), "--lexica-dir", str(lexica_dir)]
    assert main([*argv, "--out", str(tmp_path / "e")]) == EXIT_DATA
    assert message in capsys.readouterr().err


# entries that start with punctuation, hold a hyphen-only word, or differ
# from another entry only in case
USER_LEXICON_LINES = {
    "courts.txt": ["(Juzgado Decano", "tribunal supremo", "Audiencia - Nacional"],
    "case_types.tsv": ["¿recurso de queja\tcivil", "RECURSO DE SUPLICACIÓN\tpenal", "- juicio"],
    "decisions.txt": ["-estimatorio", "Desestimatorio", "(archivo)"],
    "divisions.tsv": ["(sala de lo militar\tpenal", "Sala De Lo Social\tcivil", "sala - quinta\tsocial"],
}
USER_LEXICON_TEXTS = [
    "x(JUZGADO DECANO de Vigo y TRIBUNAL SUPREMO\nrecurso de suplicación 1/2020 SENTENCIA\n"
    "ANTECEDENTES DE HECHO la parte actora\nFALLO: x-estimatorio y desestimatorio",
    "Audiencia - Nacional\nauto(Sala de lo Militar¿Recurso de queja 3/2019\n"
    "ORDEN\nANTECEDENTES DE HECHO\nFALLAMOS que a(archivo)x es firme",
    "a-b Tribunal Supremo, Sala de lo Social ante- juicio\nD E C R E T O\n"
    "antecedentes de hecho nada\nParte Dispositiva: se estima-estimatorio",
    "sin cabecera ni marcadores: Juzgado de lo Penal",
    "(juzgado decano de Lugo y ¿RECURSO DE QUEJA 5/2021\nFALLO: (archivo)",
]


def test_entities_command_with_user_lexica_writes_the_oracle_records(tmp_path):
    lexica_dir = tmp_path / "lexica"
    shutil.copytree(default_data_dir(), lexica_dir)
    for name, lines in USER_LEXICON_LINES.items():
        with open(lexica_dir / name, "a", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    corpus = tmp_path / "c.jsonl"
    records = [{**_GOOD_RECORD, "id": f"d{i}", "text": t} for i, t in enumerate(USER_LEXICON_TEXTS)]
    corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                      encoding="utf-8")
    out = tmp_path / "entities.tsv"
    argv = ["entities", "--corpus", str(corpus), "--lexica-dir", str(lexica_dir), "--out", str(out)]
    assert main(argv) == EXIT_OK
    lexica = load_lexica(lexica_dir).entities
    expected = [
        "\t".join((r["id"],) + _ref_extract_entities(r["text"], lexica).values()) for r in records
    ]
    assert out.read_text(encoding="utf-8").splitlines()[1:] == expected


@pytest.fixture(scope="module")
def dt_model_path(tmp_path_factory, fast_config_path):
    path = tmp_path_factory.mktemp("cli") / "dt.json"
    rc = main(["train", "--config", str(fast_config_path), "--model", "dt",
               "--out", str(path)])
    assert rc == EXIT_OK
    return path


@pytest.mark.parametrize("name", sorted(MALFORMATIONS))
def test_malformed_model_file_is_data_error(dt_model_path, tmp_path, name):
    obj = json.loads(dt_model_path.read_text(encoding="utf-8"))
    obj["model"] = malformed_model_obj(obj["model"], name)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    with within_seconds(10):
        rc = main(["export-tree", "--model-file", str(bad), "--out", str(tmp_path / "t.dot")])
    assert rc == EXIT_DATA


def test_export_tree_refuses_a_negative_max_depth(dt_model_path, tmp_path, capsys):
    # it used to write the one-node graph of depth 0
    out = tmp_path / "t.dot"
    for depth, rc in (("0", EXIT_OK), ("-3", EXIT_DATA)):
        argv = ["export-tree", "--model-file", str(dt_model_path), "--max-depth", depth]
        assert main([*argv, "--out", str(out)]) == rc
    assert "--max-depth must be >= 0, got -3" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8").count("[label=") == 1  # the depth-0 graph stays


@pytest.mark.parametrize(
    "content",
    ["not json", '{"format": "lexcat-pipeline-v2"}', "[]"],
    ids=["not_json", "missing_fields", "not_an_object"],
)
def test_malformed_pipeline_file_is_data_error(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content, encoding="utf-8")
    rc = main(["export-tree", "--model-file", str(bad), "--out", str(tmp_path / "t.dot")])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("kind", ["corpus", "config", "model_file", "lexicon"])
def test_input_file_that_is_not_utf8_is_data_error(kind, synth_corpus_path, tmp_path, capsys):
    bad = tmp_path / "bad"
    if kind == "lexicon":
        shutil.copytree(default_data_dir(), bad)
        (bad / "courts.txt").write_bytes(b"Tribunal \xff\n")
        argv = ["entities", "--corpus", str(synth_corpus_path), "--lexica-dir", str(bad)]
    else:
        bad.write_bytes(b'{"id": "\xff"}\n')
        argv = {
            "corpus": ["entities", "--corpus", str(bad)],
            "config": ["train", "--config", str(bad)],
            "model_file": ["export-tree", "--model-file", str(bad)],
        }[kind]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert "not UTF-8 text" in capsys.readouterr().err


# a file that opens but fails to read (EIO at offset 0), even for root, whom
# file permissions do not stop
UNREADABLE = "/proc/self/mem"


@pytest.mark.skipif(not os.path.exists(UNREADABLE), reason=f"no {UNREADABLE}")
@pytest.mark.parametrize("kind", ["corpus", "lexicon"])
def test_input_file_that_cannot_be_read_is_data_error(kind, synth_corpus_path, tmp_path, capsys):
    corpus, lexica = UNREADABLE, default_data_dir()
    if kind == "lexicon":
        corpus, lexica = str(synth_corpus_path), tmp_path / "lexica"
        shutil.copytree(default_data_dir(), lexica)
        (lexica / "courts.txt").unlink()
        (lexica / "courts.txt").symlink_to(UNREADABLE)
    argv = ["entities", "--corpus", corpus, "--lexica-dir", str(lexica)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert f"cannot read {kind} file" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["\ud800x", "a\0b"], ids=["lone_surrogate", "nul"])
@pytest.mark.parametrize("field", ["corpus", "lexica_dir", "out"])
def test_config_path_that_is_not_a_file_name_is_data_error(
    field, value, synth_corpus_path, tmp_path, capsys
):
    cfg = {"corpus": str(synth_corpus_path), "out": str(tmp_path / "out"), field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    command = ["synth", "--docs", "20", "--classes", "3"] if field == "out" else ["entities"]
    assert main([*command, "--config", str(path)]) == EXIT_DATA
    assert f"config field {field!r} is not a valid file name" in capsys.readouterr().err
    # an undecodable byte of argv arrives as a surrogate escape, and is a file name
    PipelineConfig(**{field: os.fsdecode(b"a\xffb")})


@pytest.mark.parametrize("command", ["preprocess", "entities", "anonymize"])
def test_lone_surrogate_in_corpus_is_data_error(command, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    labels = [{"order": "civil", "categories": ["a", "b", "c"]}]
    record = {"id": "a", "text": "falló \ud800", "labels": labels}
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main([command, "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert "line 1: field 'text' holds a lone surrogate escape" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_output_is_data_error(
    target, synth_corpus_path, fast_config_path, dt_model_path, tmp_path, capsys
):
    path = str(tmp_path / "missing" / "out") if target == "missing_dir" else str(tmp_path)
    model = str(dt_model_path)
    runs = [
        ["entities", "--corpus", str(synth_corpus_path), "--out", path],
        ["export-tree", "--model-file", model, "--out", path],
        ["explain", "--config", str(fast_config_path), "--sample", "synth-00003",
         "--model-file", model, "--out", path],
        ["train", "--config", str(fast_config_path), "--out", path],
    ]
    for argv in runs:
        assert main(argv) == EXIT_DATA, argv
        assert "cannot write output file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no temporary file is left behind


def _synth_under_umask(out, umask):
    old = os.umask(umask)
    try:
        assert main(["synth", "--docs", "5", "--classes", "2", "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(old)
    return stat.S_IMODE(out.stat().st_mode)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_new_output_file_takes_the_umask_mode(umask, mode, tmp_path):
    # the temporary file an output is written through was left at 0600
    assert _synth_under_umask(tmp_path / "c.jsonl", umask) == mode


def test_overwritten_output_file_keeps_its_mode(tmp_path):
    out = tmp_path / "c.jsonl"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(0o640)
    assert _synth_under_umask(out, 0o077) == 0o640
    assert out.read_text(encoding="utf-8") != "old\n"


def test_save_pipeline_into_a_missing_directory_is_config_error(dt_model_path, tmp_path):
    fitted = load_pipeline(dt_model_path)
    with pytest.raises(ConfigError, match="cannot write output file"):
        save_pipeline(fitted, tmp_path / "missing" / "model.json")
    assert list(tmp_path.iterdir()) == []


# Mutations of a trained pipeline file that used to escape as IndexError or
# KeyError (exit 3) or be accepted (exit 0) by `explain --model-file`.
PIPELINE_MALFORMATIONS = {
    "combos_index_out_of_range": _set(("model", "combos", 0, 0), 10_000),
    "combos_entry_not_a_list": _set(("model", "combos", 0), 0),
    "one_element_class_entry": _set(("model", "classes", 0), ["civil"]),
    "duplicated_model_column": lambda obj: _duplicate_first_column(obj["model"]),
    "entity_field_before_ngrams": lambda obj: _last_column_first(obj["model"]),
    # node 1 is the root's left child, at depth 1
    "child_depth_not_parent_plus_one": _set(("model", "forests", 0, "depth", 1), 2),
    "unknown_variant": _set(("model", "variant"), "xyz"),
    "unknown_strategy": _set(("model", "strategy"), "xyz"),
    "unknown_hyperparam": _set(("model", "hyperparams", "bogus"), 1),
    "hyperparam_of_wrong_type": _set(("model", "hyperparams", "max_depth"), "x"),
    "forest_narrower_than_combos": lambda obj: _drop_last_output(obj["model"]),
    # an mts forest read as bts, which needs one 2-output forest per class
    "mts_forest_read_as_bts": _set(("model", "strategy"), "bts"),
    # the n-gram range is the config's
    "reversed_ngram_range": lambda obj: obj["config"].update(ngram_lo=2, ngram_hi=1),
    "three_ngram_bounds": _set(("config", "ngram_range"), [1, 2, 3]),
    "fractional_ngram_bound": _set(("config", "ngram_lo"), 1.5),
    "boolean_ngram_bound": _set(("config", "ngram_lo"), True),
    # values no fitted model holds, which used to load and explain (exit 0)
    "fractional_n_estimators": _set(("model", "hyperparams", "n_estimators"), 2.5),
    "fractional_max_depth": _set(("model", "hyperparams", "max_depth"), 1.5),
    "fractional_min_samples_split": _set(("model", "hyperparams", "min_samples_split"), 2.5),
    "fractional_min_samples_leaf": _set(("model", "hyperparams", "min_samples_leaf"), 1.5),
    "fractional_seed": _set(("model", "hyperparams", "seed"), 5.5),
    # explaining with it escaped as ValueError (exit 3)
    "huge_relevance_samples": _set(("config", "relevance_samples"), 10**40),
    "huge_n_estimators": _set(("model", "hyperparams", "n_estimators"), 10**40),
    "negative_class_weight": _set(("model", "forests", 0, "weights", 0), -1.0),
    "infinite_class_weight": _set(("model", "forests", 0, "weights", 0), float("inf")),
    "zero_class_weights": lambda obj: [
        _set(("model", "forests", 0, "weights", i), 0.0)(obj)
        for i in range(len(obj["model"]["forests"][0]["weights"]))
    ],
    # the envelope outside the model, which used to escape as TypeError
    # (exit 3) or load and fail only when a row was encoded
    "config_not_an_object": _set(("config",), [1]),
    "ngram_range_not_a_list": _set(("config", "ngram_range"), 5),
    "max_df_not_a_number": _set(("config", "max_df"), "x"),
    "encoder_not_an_object": _set(("encoder",), 5),
    "encoder_table_not_an_object": _set(("encoder", "court"), 5),
    "encoder_code_not_an_integer": _set(("encoder", "court", "x"), "1"),
    "encoder_field_missing": lambda obj: obj["encoder"].pop("court"),
    # a model without columns, which used to load and then escape as
    # IndexError (exit 3) when explaining
    "no_feature_columns": lambda obj: _no_feature_columns(obj),
    "wrong_pipeline_format": _set(("format",), "lexcat-pipeline-v0"),
    # the format before the model's feature names became the one record of
    # the columns; such a file must be retrained
    "v1_pipeline_format": _set(("format",), "lexcat-pipeline-v1"),
}


def _no_feature_columns(obj):
    """No column, and every forest a single leaf with its first root's counts."""
    obj["model"]["feature_names"] = []
    for forest in obj["model"]["forests"]:
        forest.update(feature=[-1], threshold=[float("nan")], left=[-1], right=[-1], depth=[0],
                      counts=forest["counts"][:1], sizes=[1])


def _last_column_first(model):
    """Move the last column, an entity field, before the n-grams."""
    names = model["feature_names"]
    assert names[-1] in CATEGORICAL_FIELDS and names[0] not in CATEGORICAL_FIELDS
    names.insert(0, names.pop())


def _duplicate_first_column(model):
    """The first n-gram in the place of the second, which is an n-gram too."""
    names = model["feature_names"]
    assert not {names[0], names[1]} & set(CATEGORICAL_FIELDS)
    names[1] = names[0]


def _drop_last_output(model):
    """One output fewer in the first forest's weights and leaf counts."""
    forest = model["forests"][0]
    forest["weights"].pop()
    for row in forest["counts"]:
        row.pop()


@pytest.mark.parametrize("name", sorted(PIPELINE_MALFORMATIONS))
def test_malformed_pipeline_rejected_at_load(dt_model_path, fast_config_path, tmp_path, name):
    obj = json.loads(dt_model_path.read_text(encoding="utf-8"))
    assert obj["model"]["forests"][0]["sizes"][0] > 1
    PIPELINE_MALFORMATIONS[name](obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises((ConfigError, ModelError)):
        load_pipeline(bad)
    with within_seconds(10):
        rc = main(["explain", "--config", str(fast_config_path), "--sample", "synth-00003",
                   "--model-file", str(bad), "--out", str(tmp_path / "e.txt")])
    assert rc == EXIT_DATA
    rc = main(["export-tree", "--model-file", str(bad), "--out", str(tmp_path / "t.dot")])
    assert rc == EXIT_DATA


# A model's class catalogs refuse these with LabelError, not ModelError, so
# they are not MALFORMATIONS
CATALOG_MALFORMATIONS = {
    "classes_out_of_order": lambda model: model["classes"].reverse(),
    "repeated_class": lambda model: model.update(classes=model["classes"][:1] * 2),
    "repeated_combination": lambda model: model.update(combos=model["combos"][:1] * 3),
}

# The message of each model or pipeline file refusal that the cases above
# check only by its exit code or error type
FILE_REFUSAL_MESSAGES = {
    "wrong_model_format": "unsupported model format: 'lexcat-model-v0'",
    "forest_not_an_object": "malformed forest: an object of node arrays expected",
    "unequal_node_arrays": "malformed forest: node arrays must be nonempty and of equal length",
    "zero_size": "malformed forest: sizes must be tree node counts adding up to",
    "v1_model": "unsupported model format: 'lexcat-model-v1'",
    "root_depth_not_zero": "malformed tree: the root must have depth 0",
    "feature_name_not_a_string": "feature_names must be strings",
    "classes_out_of_order": "catalog classes must be sorted",
    "repeated_class": "catalog classes must be distinct",
    "repeated_combination": "combos must be pairwise distinct",
    "wrong_pipeline_format": "unsupported pipeline format: 'lexcat-pipeline-v0'",
    "v1_pipeline_format": "unsupported pipeline format: 'lexcat-pipeline-v1'",
    "duplicated_model_column": "pipeline model columns must be distinct",
    "entity_field_before_ngrams": "must list the n-grams first",
}


@pytest.mark.parametrize("name", sorted(FILE_REFUSAL_MESSAGES))
def test_malformed_file_refusal_names_its_fault(dt_model_path, tmp_path, capsys, name):
    obj = json.loads(dt_model_path.read_text(encoding="utf-8"))
    assert len(obj["model"]["classes"]) >= 2 and len(obj["model"]["combos"]) == 3
    if name in PIPELINE_MALFORMATIONS:
        PIPELINE_MALFORMATIONS[name](obj)
    else:
        {**MALFORMATIONS, **CATALOG_MALFORMATIONS}[name](obj["model"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    rc = main(["export-tree", "--model-file", str(bad), "--out", str(tmp_path / "t.dot")])
    assert rc == EXIT_DATA
    assert FILE_REFUSAL_MESSAGES[name] in capsys.readouterr().err


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


DEEP = "[" * 200_000

# Refusals of an input no other case reaches: the arguments, given a scratch
# directory, the 80-document corpus and the fast config, and the message
INPUT_REFUSALS = {
    "config_not_an_object": (
        lambda tmp, corpus, cfg: ["train", "--config", _write(tmp / "c.json", "[1]")],
        "config file must contain a JSON object",
    ),
    "config_unreadable": (
        lambda tmp, corpus, cfg: ["train", "--config", str(tmp / "missing.json")],
        "cannot read config file",
    ),
    "model_file_unreadable": (
        lambda tmp, corpus, cfg: ["export-tree", "--model-file", str(tmp / "missing.json")],
        "cannot read model file",
    ),
    # JSON nested deeper than the parser follows raised RecursionError: exit 3
    "config_nests_too_deep": (
        lambda tmp, corpus, cfg: ["evaluate", "--config", _write(tmp / "c.json", DEEP)],
        "config file is not valid JSON: maximum recursion depth exceeded",
    ),
    "corpus_line_nests_too_deep": (
        lambda tmp, corpus, cfg: ["entities", "--corpus", _write(tmp / "c.jsonl", DEEP)],
        "line 1: not a valid record: maximum recursion depth exceeded",
    ),
    "model_file_nests_too_deep": (
        lambda tmp, corpus, cfg: ["export-tree", "--model-file", _write(tmp / "m.json", DEEP)],
        "pipeline file is not JSON: maximum recursion depth exceeded",
    ),
    "empty_grid": (
        lambda tmp, corpus, cfg: [
            "gridsearch", "--config",
            _write(tmp / "c.json", json.dumps({"corpus": str(corpus), "grid": {}})),
        ],
        "config field 'grid' must map parameter names to value lists",
    ),
    "folds_above_document_count": (
        lambda tmp, corpus, cfg: ["evaluate", "--config", str(cfg), "--folds", "81"],
        "need at least k=81 documents, corpus has 80",
    ),
}


@pytest.mark.parametrize("name", sorted(INPUT_REFUSALS))
def test_input_refusal_names_its_fault(synth_corpus_path, fast_config_path, tmp_path, capsys,
                                       name):
    argv, message = INPUT_REFUSALS[name]
    rc = main([*argv(tmp_path, synth_corpus_path, fast_config_path),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_DATA
    assert message in capsys.readouterr().err


# A mutated value of a JSON input: another type, a huge integer, the value
# nested this deep, or the input's text cut short
OTHER_TYPES = (None, True, 0, 1.5, "x", [], {})
HUGE_INTEGERS = (10**40, -(10**40), 2**63)
NEST_DEPTH = 100_000
_NEST = "nest here"


def _value_paths(value, path=()):
    """The path of every value below a parsed JSON document's root."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield (*path, key)
        yield from _value_paths(item, (*path, key))


@st.composite
def mutated_json(draw, obj):
    """The JSON text of obj with one value mutated, or cut short."""
    kind = draw(st.sampled_from(["type", "huge", "nest", "truncate"]))
    text = json.dumps(obj)
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(list(_value_paths(obj))))
    obj = copy.deepcopy(obj)
    old = functools.reduce(operator.getitem, path, obj)
    new = {
        "type": st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(old)]),
        "huge": st.sampled_from(HUGE_INTEGERS),
        "nest": st.just(_NEST),
    }[kind]
    _set(path, draw(new))(obj)
    nested = "[" * NEST_DEPTH + json.dumps(old) + "]" * NEST_DEPTH
    return json.dumps(obj).replace(json.dumps(_NEST), nested)


@pytest.fixture(scope="module")
def mutation_inputs(synth_corpus_path, fast_config_path, dt_model_path, tmp_path_factory):
    """Each mutated input's parsed JSON, and the runs that read it, given
    its mutated text."""
    tmp = tmp_path_factory.mktemp("mutated")
    first_line, *other_lines = synth_corpus_path.read_text(encoding="utf-8").splitlines()

    def pipeline_runs(text):
        model = _write(tmp / "m.json", text)
        return [
            [*_explain(None, str(fast_config_path), model), "--out", str(tmp / "e.txt")],
            ["export-tree", "--model-file", model, "--out", str(tmp / "t.dot")],
        ]

    return {
        "config": (json.loads(fast_config_path.read_text(encoding="utf-8")), lambda text: [
            ["train", "--config", _write(tmp / "c.json", text), "--out", str(tmp / "out.json")],
        ]),
        # the mutated line in the place of the corpus's first
        "corpus_line": (json.loads(first_line), lambda text: [
            ["entities", "--corpus", _write(tmp / "c.jsonl", "\n".join([text, *other_lines, ""])),
             "--out", str(tmp / "e.tsv")],
        ]),
        "pipeline": (json.loads(dt_model_path.read_text(encoding="utf-8")), pipeline_runs),
        "synth": (SYNTH_CONFIG, lambda text: [
            ["synth", "--config", _write(tmp / "s.json", text), "--out", str(tmp / "s.jsonl")],
        ]),
    }


# a config that synth reads, its every spec field given
SYNTH_CONFIG = {"seed": 1, "synth": {
    "n_docs": 20, "n_classes": 3, "noise": 0.2, "contamination": 0.05,
    "keywords_per_class": 8, "tokens_lo": 40, "tokens_hi": 80,
}}


@pytest.mark.parametrize("name", ["config", "corpus_line", "pipeline", "synth"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_0_or_2_in_bounded_time(mutation_inputs, name, data):
    obj, runs = mutation_inputs[name]
    for argv in runs(data.draw(mutated_json(obj))):
        err = io.StringIO()
        with within_seconds(10), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_DATA), (argv[0], err.getvalue())
        assert "internal error" not in err.getvalue()
