"""Per-layer tracing of lexcat from outside the package.

`Tracer` replaces module attributes (and one method) with timing wrappers
at the place where the caller looks them up, e.g. `lexcat.pipeline.fit_ensemble`
is what `fit_pipeline` calls, `lexcat.trees.find_split` is what `fit_tree`
calls. Nothing under `src/` changes; the wrappers exist only inside a
`with Tracer():` block and the original attributes are restored on exit.

Each wrapped call is a span. Spans nest on a stack, so a span's self time
is its busy time minus the busy time of the wrapped calls made inside it.
Only per-name totals are kept: calls, busy seconds, child seconds, plus the
counters below, which are read from arguments and results at the same
boundaries. No layer has a queue, so no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span). A "Class.method" attribute wraps the method on
# the class. One span may be fed from several lookup sites; those never nest.
WRAPPED = (
    ("lexcat.lexica", "load_lexica", "lexica.load_lexica"),
    ("lexcat.synth", "generate_corpus", "synth.generate_corpus"),
    ("lexcat.corpus", "load_corpus", "corpus.load_corpus"),
    ("lexcat.anonymiser", "anonymize", "anonymiser.anonymize"),
    ("lexcat.textproc", "to_token_stream", "textproc.to_token_stream"),
    ("lexcat.pipeline", "to_token_stream", "textproc.to_token_stream"),
    ("lexcat.explain", "to_token_stream", "textproc.to_token_stream"),
    ("lexcat.entities", "extract_entities", "entities.extract_entities"),
    ("lexcat.pipeline", "extract_entities", "entities.extract_entities"),
    ("lexcat.explain", "extract_entities", "entities.extract_entities"),
    ("lexcat.evaluation", "cross_validate", "evaluation.cross_validate"),
    ("lexcat.evaluation", "compute_fold_metrics", "evaluation.compute_fold_metrics"),
    ("lexcat.evaluation", "build_class_catalog", "labels.build_class_catalog"),
    ("lexcat.trees", "build_class_catalog", "labels.build_class_catalog"),
    ("lexcat.pipeline", "preprocess_corpus", "pipeline.preprocess_corpus"),
    ("lexcat.pipeline", "fit_pipeline", "pipeline.fit_pipeline"),
    ("lexcat.pipeline", "load_pipeline", "pipeline.load_pipeline"),
    ("lexcat.pipeline", "FittedPipeline.predict_prepared", "pipeline.predict_prepared"),
    ("lexcat.pipeline", "fit_vectorizer", "features.fit_vectorizer"),
    ("lexcat.pipeline", "transform", "features.transform"),
    ("lexcat.pipeline", "select_by_correlation", "features.select_by_correlation"),
    ("lexcat.pipeline", "select_by_importance", "features.select_by_importance"),
    ("lexcat.pipeline", "fit_ensemble", "trees.fit_ensemble"),
    ("lexcat.pipeline", "model_from_json", "trees.model_from_json"),
    ("lexcat.trees", "fit_tree", "trees.fit_tree"),
    ("lexcat.trees", "find_split", "trees.find_split"),
    ("lexcat.trees", "predict_proba_batch", "trees.predict_proba_batch"),
    ("lexcat.explain", "predict_proba_batch", "trees.predict_proba_batch"),
    ("lexcat.explain", "build_explanation", "explain.build_explanation"),
    ("lexcat.explain", "signed_relevance", "explain.signed_relevance"),
    ("lexcat.explain", "extract_path", "explain.extract_path"),
    ("lexcat.explain", "render_explanation", "explain.render_explanation"),
    ("lexcat.explain", "export_tree_graph", "explain.export_tree_graph"),
)


# span -> ((counter, amount read from (args, result)), ...); counters add up
# over calls except labels.classes, which keeps the largest catalog seen.
COUNTERS = {
    "trees.find_split": (("trees.find_split.hits", lambda a, r: r is not None),),
    "trees.fit_tree": (("trees.nodes", lambda a, r: r.n_nodes),),
    "trees.predict_proba_batch": (("trees.predict_proba_batch.rows", lambda a, r: len(r)),),
    "trees.model_from_json": (("trees.model_bytes", lambda a, r: len(a[0])),),
    "features.fit_vectorizer": (("features.vocab_size", lambda a, r: len(r.vocabulary)),),
    "pipeline.fit_pipeline": (("features.kept_columns", lambda a, r: len(r.kept_names)),),
    "textproc.to_token_stream": (("textproc.tokens", lambda a, r: len(r.tokens)),),
    "anonymiser.anonymize": (
        ("anonymiser.spans", lambda a, r: sum(r[1].counts.values())),
        # names replaced under another spelling's canonical form
        ("anonymiser.unified_names", lambda a, r: sum(o != c for o, c in r[1].replaced_names)),
    ),
    "labels.build_class_catalog": (("labels.classes", lambda a, r: r.m),),
}
_MAX_COUNTERS = {"labels.classes"}

# Every per-layer metric: (name, unit, kind, key). kind "busy" and "self"
# are seconds of a span, "calls" its call count, "count" a counter.
METRICS = (
    ("trees.fit_ensemble.s", "s", "busy", "trees.fit_ensemble"),
    ("trees.fit_tree.calls", "count", "calls", "trees.fit_tree"),
    ("trees.find_split.s", "s", "busy", "trees.find_split"),
    ("trees.find_split.calls", "count", "calls", "trees.find_split"),
    ("trees.find_split.hit_ratio", "ratio", "hit_ratio", "trees.find_split"),
    ("trees.nodes", "count", "count", "trees.nodes"),
    ("trees.predict_proba_batch.s", "s", "busy", "trees.predict_proba_batch"),
    ("trees.predict_proba_batch.rows", "count", "count", "trees.predict_proba_batch.rows"),
    ("trees.model_from_json.s", "s", "busy", "trees.model_from_json"),
    ("trees.model_bytes", "bytes", "count", "trees.model_bytes"),
    ("features.fit_vectorizer.s", "s", "busy", "features.fit_vectorizer"),
    ("features.transform.s", "s", "busy", "features.transform"),
    ("features.select_by_correlation.s", "s", "busy", "features.select_by_correlation"),
    ("features.select_by_importance.s", "s", "busy", "features.select_by_importance"),
    ("features.vocab_size", "count", "count", "features.vocab_size"),
    ("features.kept_columns", "count", "count", "features.kept_columns"),
    ("pipeline.preprocess_corpus.s", "s", "busy", "pipeline.preprocess_corpus"),
    ("pipeline.fit_pipeline.self_s", "s", "self", "pipeline.fit_pipeline"),
    ("pipeline.predict_prepared.s", "s", "busy", "pipeline.predict_prepared"),
    ("pipeline.load_pipeline.s", "s", "busy", "pipeline.load_pipeline"),
    ("evaluation.cross_validate.self_s", "s", "self", "evaluation.cross_validate"),
    ("evaluation.compute_fold_metrics.s", "s", "busy", "evaluation.compute_fold_metrics"),
    ("textproc.to_token_stream.s", "s", "busy", "textproc.to_token_stream"),
    ("textproc.tokens", "count", "count", "textproc.tokens"),
    ("entities.extract_entities.s", "s", "busy", "entities.extract_entities"),
    ("entities.extract_entities.calls", "count", "calls", "entities.extract_entities"),
    ("anonymiser.anonymize.s", "s", "busy", "anonymiser.anonymize"),
    ("anonymiser.spans", "count", "count", "anonymiser.spans"),
    ("anonymiser.unified_names", "count", "count", "anonymiser.unified_names"),
    ("explain.build_explanation.self_s", "s", "self", "explain.build_explanation"),
    ("explain.signed_relevance.s", "s", "busy", "explain.signed_relevance"),
    ("explain.extract_path.s", "s", "busy", "explain.extract_path"),
    ("explain.render_explanation.s", "s", "busy", "explain.render_explanation"),
    ("explain.export_tree_graph.s", "s", "busy", "explain.export_tree_graph"),
    ("corpus.load_corpus.s", "s", "busy", "corpus.load_corpus"),
    ("synth.generate_corpus.s", "s", "busy", "synth.generate_corpus"),
    ("lexica.load_lexica.s", "s", "busy", "lexica.load_lexica"),
    ("labels.classes", "count", "count", "labels.classes"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.child: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attr, span in WRAPPED:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, span: str):
        counters = COUNTERS.get(span, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.child[span] += self._stack.pop()
                self.busy[span] += dt
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1] += dt
            for name, amount in counters:
                if name in _MAX_COUNTERS:
                    self.counts[name] = max(self.counts[name], amount(args, result))
                else:
                    self.counts[name] += amount(args, result)
            return result

        return traced

    def add(self, other: "Tracer", weight: float = 1.0) -> None:
        """Add `other`'s totals scaled by `weight`; max counters keep the max."""
        for mine, theirs in ((self.calls, other.calls), (self.busy, other.busy),
                             (self.child, other.child)):
            for key, value in theirs.items():
                mine[key] += value * weight
        for key, value in other.counts.items():
            if key in _MAX_COUNTERS:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value * weight

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); a layer that did
        not run reports 0."""
        out = {}
        for name, unit, kind, key in METRICS:
            if kind == "busy":
                value = self.busy[key]
            elif kind == "self":
                value = self.busy[key] - self.child[key]
            elif kind == "calls":
                value = round(self.calls[key])
            elif kind == "count":
                value = round(self.counts[key])
            else:  # hit_ratio: splits found per find_split call
                calls = self.calls[key]
                value = self.counts[key + ".hits"] / calls if calls else 0.0
            out[name] = (value, unit)
        return out
