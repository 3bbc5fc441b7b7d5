"""The benchmark under perfbench/ reaches lexcat through module attributes:
the tracer wraps them by name and the workloads call them. A lexcat name
either one relies on must keep resolving, or `perfbench/run.py --trace 1`
breaks; these tests make that a tier-1 failure. The workloads also read
fields of what lexcat returns (`Explanation.assignments`, `model.trees`,
`MetricsReport.means`), so each workload runs once at its self-test's
tiny sizes."""

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from lexcat import evaluation, features, pipeline
from lexcat.pipeline import PipelineConfig
from lexcat.synth import SynthSpec, generate_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wrapped_attributes_resolve():
    wrapped = _tracer().WRAPPED
    assert wrapped
    missing = []
    for module, attr, _span in wrapped:
        try:
            _resolve(importlib.import_module(module), attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == []


def _lexcat_object(module: str, name: str):
    """What `from module import name` binds: an attribute or a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def test_workload_lexcat_names_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {}  # local name -> imported lexcat module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lexcat":
            for alias in node.names:
                # resolving every imported name is itself part of the check
                obj = _lexcat_object(node.module, alias.name)
                if isinstance(obj, type(importlib)):
                    modules[alias.asname or alias.name] = obj
    missing = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and not hasattr(modules[node.value.id], node.attr)
    ]
    assert modules
    assert missing == []


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_once_at_tiny_size(name, tmp_path, monkeypatch):
    # perfbench's modules import each other by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    sizes = importlib.import_module("test_perfbench").TINY[name]
    workload = workloads.WORKLOADS[name](seed=3, workdir=tmp_path, **sizes)
    state = workload.setup()
    measurement = workloads.Measurement([workload.run_pass(state)], workload.docs_per_pass)
    checks = workloads.Checks()
    digest = workload.verify(state, measurement, checks)
    assert checks.attempted >= 1
    assert checks.failures == []
    assert re.fullmatch("[0-9a-f]{64}", digest)


def test_tracer_spans_see_a_cross_validation(lexica, monkeypatch):
    # a refactor that routes around a wrapped name would zero its per-layer
    # figure without failing anything else
    vocab_sizes, kept_columns = [], []
    fitted_nodes, fitted_splits = [], []
    original_features, original_pipeline = pipeline.fit_features, pipeline.fit_pipeline

    def recording_features(*args, **kwargs):
        vectorizer, encoder, X = original_features(*args, **kwargs)
        vocab_sizes.append(len(vectorizer.vocabulary))
        return vectorizer, encoder, X

    def recording_pipeline(*args, **kwargs):
        fitted = original_pipeline(*args, **kwargs)
        kept_columns.append(len(fitted.model.feature_names))
        return fitted

    def counting_nodes(fit):
        # the trees of every fitted model, the importance forests' included
        def fit_and_count(*args, **kwargs):
            model = fit(*args, **kwargs)
            fitted_nodes.extend(tree.n_nodes for tree in model.trees)
            fitted_splits.extend(int((tree.feature >= 0).sum()) for tree in model.trees)
            return model

        return fit_and_count

    monkeypatch.setattr(pipeline, "fit_features", recording_features)
    monkeypatch.setattr(pipeline, "fit_pipeline", recording_pipeline)
    for module in (pipeline, features):
        monkeypatch.setattr(module, "fit_ensemble", counting_nodes(module.fit_ensemble))
    corpus = generate_corpus(SynthSpec(n_docs=40, n_classes=3, seed=5))
    tracer = _tracer().Tracer()
    with tracer:
        evaluation.cross_validate(
            corpus, PipelineConfig(n_estimators=3, min_samples_leaf=1), lexica, k=2, seed=0
        )
    spans = ("features.fit_vectorizer", "features.transform", "trees.fit_tree", "trees.find_split")
    for span in spans:
        assert tracer.calls[span] > 0, span
    assert len(vocab_sizes) == len(kept_columns) == 2
    metrics = tracer.metrics()
    assert metrics["features.vocab_size"] == (sum(vocab_sizes), "count")
    # the tracer counts kept columns through FittedPipeline.kept_names
    assert metrics["features.kept_columns"] == (sum(kept_columns), "count")
    assert metrics["trees.fit_tree.calls"] == (len(fitted_nodes), "count")
    assert metrics["trees.nodes"] == (sum(fitted_nodes), "count")
    # every split node was found by a traced find_split call
    assert tracer.counts["trees.find_split.hits"] == sum(fitted_splits)
