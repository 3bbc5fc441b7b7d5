"""The three lexcat benchmark workloads.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returns. A workload has three steps:

* `setup()` builds the inputs from the seed (timed as set-up);
* `run_pass(state)` makes one timed pass over those inputs, reading time
  with `calibration.clock`. `measure()` repeats passes until they add up
  to `seconds`, at least one, between a round of set-ups before them and
  one after;
* `verify(state, measurement, checks)` checks the outputs outside the
  timed phase and returns a SHA-256 digest of the first pass's outputs.

Every pass does the same work on the same inputs; the reported figures pool
all passes of the run.

The benchmark calls lexcat through module attributes (`evaluation.cross_validate`,
`anonymiser.anonymize`, ...) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import re
import resource
import statistics
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

import calibration
import legal
from calibration import clock
from lexcat import (
    anonymiser,
    corpus,
    entities,
    evaluation,
    explain,
    lexica,
    pipeline,
    synth,
    textproc,
)
from lexcat.corpus import Corpus, Judgement, LabelAssignment
from lexcat.labels import build_class_catalog, canonicalize, mts_encode
from lexcat.pipeline import PipelineConfig
from lexcat.synth import SynthSpec
from lexcat.trees import model_to_json


class Checks:
    """Output checks of one run: each check made is one attempt."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


@dataclass
class Pass:
    wall_s: float  # the whole pass
    op_s: list[float]  # latency of each operation, in input order
    outputs: object  # what the pass produced; equal in every pass
    timings: dict = field(default_factory=dict)  # other timed steps, in s


@dataclass
class Measurement:
    passes: list[Pass]
    docs_per_pass: int
    peak_rss_mib: float = 0.0  # after the first set-up round and first pass

    @property
    def outputs(self):
        return self.passes[0].outputs

    def mean_pass_s(self) -> float:
        return sum(p.wall_s for p in self.passes) / len(self.passes)

    def docs_per_s(self) -> float:
        return self.docs_per_pass / self.mean_pass_s()

    def op_ms(self, q: float) -> float:
        """Percentile q of the latency of every operation of every pass, in ms."""
        return float(np.percentile([t for p in self.passes for t in p.op_s], q)) * 1000.0


# Set-up is timed in a round before the first pass and a round after the
# last, so that setup_s samples both ends of the run rather than only its
# start. A round repeats set-up for at least SETUP_ROUND_S.
SETUP_ROUND_S = 1.0


def _scaled(p: Pass, f: float) -> Pass:
    return dataclasses.replace(
        p,
        wall_s=p.wall_s * f,
        op_s=[t * f for t in p.op_s],
        timings={k: t * f for k, t in p.timings.items()},
    )


def measure(workload, seconds: float):
    """Set up, run passes until they add up to `seconds` (at least one pass)
    and set up again, with calibration chunks running (calibration.py);
    return every set-up time, the last set-up's state and the passes, each
    time scaled by its round's or its pass's calibration factor."""
    setups: list[tuple[float, float]] = []  # (seconds, calibration factor)
    passes: list[tuple[Pass, float]] = []

    def setup_round():
        # one state at a time, and no garbage left for the next pass
        times = []
        start = clock()
        while True:
            t0 = clock()
            state = workload.setup()
            times.append(clock() - t0)
            if clock() - start >= SETUP_ROUND_S:
                gc.collect()
                f = calibration.factor(start, clock())
                setups.extend((t, f) for t in times)
                return state
            del state

    def one_pass(state):
        start = clock()
        p = workload.run_pass(state)
        passes.append((p, calibration.factor(start, clock())))

    with calibration.running():
        state = setup_round()
        start = clock()
        one_pass(state)
        # the peak of one set-up and one pass, as one `lexcat` command would
        # have it; later passes and the last round only repeat that work
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while clock() - start < seconds:
            one_pass(state)
        state = None
        state = setup_round()
    raw = Measurement([p for p, _ in passes], workload.docs_per_pass)
    print(f"# calibration: {calibration.summary()}")
    print(f"# unscaled: setup_s {statistics.median(t for t, _ in setups)} s, "
          f"docs_per_s {raw.docs_per_s()} docs/s, op_ms_p50 {raw.op_ms(50)} ms, "
          f"op_ms_p90 {raw.op_ms(90)} ms")
    scaled = [_scaled(p, f) for p, f in passes]
    return ([t * f for t, f in setups], state,
            Measurement(scaled, workload.docs_per_pass, peak_rss_mib))


def sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def check_repeats(m: Measurement, checks: Checks) -> None:
    for p in m.passes[1:]:
        checks.check("pass_outputs_identical", p.outputs == m.outputs)


@dataclass
class CvHeadline:
    """The headline run: stratified k-fold cross-validation of mts/rf on
    the synthetic corpus. One pass and one operation are one whole
    cross-validation."""

    name: ClassVar[str] = "cv_headline"
    seed: int
    workdir: Path
    n_docs: int = 2000
    n_classes: int = 8
    folds: int = 10
    n_estimators: int = 200

    @property
    def docs_per_pass(self) -> int:
        return self.n_docs

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            strategy="mts",
            model="rf",
            class_weight=None,
            criterion="gini",
            max_depth=100,
            min_samples_leaf=10,
            min_samples_split=2,
            n_estimators=self.n_estimators,
            seed=self.seed,
        )

    def sizes(self) -> str:
        return (f"{self.n_docs} docs, {self.n_classes} classes, {self.folds} folds, "
                f"{self.n_estimators} trees")

    def setup(self):
        lex = lexica.load_lexica()
        spec = SynthSpec(n_docs=self.n_docs, n_classes=self.n_classes, seed=self.seed)
        return lex, synth.generate_corpus(spec)

    def run_pass(self, state) -> Pass:
        lex, corp = state
        t0 = clock()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = evaluation.cross_validate(
                corp, self.config(), k=self.folds, seed=self.seed, lexica=lex
            )
        wall = clock() - t0
        return Pass(wall, [wall], report.per_fold)

    def detail(self, m: Measurement) -> dict:
        means = evaluation.MetricsReport(m.outputs, 0.0).means
        return {
            "cv_wall_s": (m.mean_pass_s(), "s"),
            "cv_micro_precision": (means.micro_precision, "ratio"),
            "cv_hamming_loss": (means.hamming_loss, "ratio"),
        }

    def _refit_fold0(self, state):
        """Fit fold 0 again outside cross_validate, with its fold rule."""
        lex, corp = state
        label_sets = [canonicalize(d.annotations) for d in corp.documents]
        _, alphas = mts_encode(label_sets)
        fold_of = np.array(evaluation.stratified_folds(alphas, self.folds, self.seed))
        test, train = np.nonzero(fold_of == 0)[0], np.nonzero(fold_of != 0)[0]
        prep = pipeline.preprocess_corpus(corp, lex)
        fitted = pipeline.fit_pipeline(corp, self.config(), lex, prep=prep, doc_indices=train)
        Z = fitted.predict_prepared(prep, test)
        L = [label_sets[i] for i in test]
        metrics = evaluation.compute_fold_metrics(L, Z, build_class_catalog(corp))
        return model_to_json(fitted.model), metrics

    def verify(self, state, m: Measurement, checks: Checks) -> str:
        per_fold = m.outputs
        means = evaluation.MetricsReport(per_fold, 0.0).means
        checks.check("cv_folds", len(per_fold) == self.folds)
        checks.check("cv_micro_precision>=0.85", means.micro_precision >= 0.85)
        checks.check("cv_hamming_loss<=0.05", means.hamming_loss <= 0.05)
        model_json, fold0 = self._refit_fold0(state)
        checks.check("cv_fold0_refit_matches", bool(per_fold) and fold0 == per_fold[0])
        return sha256(json.dumps([dataclasses.asdict(f) for f in per_fold]), model_json)


# The entity-extraction listing of the paper (criterion 09 of the test suite)
# and the tuple it must give.
LISTING_DOC = """TRIBUNAL SUPERIOR DE JUSTICIA DE GALICIA Sala de lo Social
RECURSO DE SUPLICACIÓN 123/2019
S E N T E N C I A
ANTECEDENTES DE HECHO
Primero. La parte actora prestó servicios para la empresa demandada.
FUNDAMENTOS DE DERECHO
Se aplican los artículos del Estatuto de los Trabajadores.
FALLO
Que desestimamos el recurso interpuesto. Fallo desestimatorio."""
LISTING_ENTITIES = (
    "recurso de suplicación",
    "Tribunal Superior de Justicia",
    "desestimatorio",
    "sustantivo",
    "segunda",
    "social",
    "sentencia",
)
REANONYMISE_STRIDE = 10  # every 10th document is anonymised a second time


@dataclass
class Ingest:
    """Anonymise and preprocess a JSONL file of legal-style judgements. A
    pass is load_corpus, one operation per document (anonymize,
    to_token_stream, extract_entities) and writing the results."""

    name: ClassVar[str] = "ingest"
    seed: int
    workdir: Path
    n_docs: int = 300

    @property
    def docs_per_pass(self) -> int:
        return self.n_docs

    def sizes(self) -> str:
        sentences, refs = legal.SENTENCES_PER_PARAGRAPH, legal.REFERENCES_PER_DOC
        return (f"{self.n_docs} docs, {sentences[0]}-{sentences[1]} filler sentences "
                f"per paragraph, {refs[0]}-{refs[1]} references per doc, "
                f"{legal.VARIANT_SHARE:.0%} unaccented name variants")

    def setup(self):
        lex = lexica.load_lexica()
        docs = legal.generate(self.n_docs, self.seed)
        path = self.workdir / f"ingest-{self.seed}.jsonl"
        legal.write_jsonl(docs, path)
        return lex, docs, path

    def run_pass(self, state) -> Pass:
        lex, _, path = state
        t0 = clock()
        corp = corpus.load_corpus(path)
        op_s, lines = [], []
        for doc in corp.documents:
            t = clock()
            text, report = anonymiser.anonymize(doc.raw_text, lex.anonymiser)
            stream = textproc.to_token_stream(doc.id, text, lex.text.stopwords, lex.text.lemmas)
            record = entities.extract_entities(
                dataclasses.replace(doc, raw_text=text), lex.entities
            )
            op_s.append(clock() - t)
            out = {"id": doc.id, "text": text, "tags": report.counts,
                   "tokens": stream.tokens, "entities": record.values()}
            lines.append(json.dumps(out, ensure_ascii=False, sort_keys=True))
        with open(path.with_suffix(".out.jsonl"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return Pass(clock() - t0, op_s, lines)

    def detail(self, m: Measurement) -> dict:
        return {
            "ingest_docs_per_s": (m.docs_per_s(), "docs/s"),
            "ingest_doc_ms_p50": (m.op_ms(50), "ms"),
            "ingest_doc_ms_p99": (m.op_ms(99), "ms"),
        }

    def verify(self, state, m: Measurement, checks: Checks) -> str:
        lex, docs, _ = state
        for doc, line in zip(docs, m.outputs):
            out = json.loads(line)
            survivors = [
                n for n in doc.names
                if re.search(rf"(?<!\w){re.escape(n)}(?!\w)", out["text"])
            ]
            checks.check("ingest_names_removed", not survivors)
            case_type, court, decision, *_, resolution = out["entities"]
            checks.check(
                "ingest_entities",
                (case_type, court, decision, resolution)
                == (doc.case_type, doc.court, doc.decision, doc.resolution_type),
            )
        for line in m.outputs[::REANONYMISE_STRIDE]:
            text = json.loads(line)["text"]
            again, report = anonymiser.anonymize(text, lex.anonymiser)
            checks.check("ingest_reanonymise_noop", again == text and not report.counts)
        listing = Judgement(
            id="listing",
            raw_text=LISTING_DOC,
            annotations=(LabelAssignment("social", ("a", "b", "c")),),
        )
        record = entities.extract_entities(listing, lex.entities)
        checks.check("ingest_listing_entities", record.display_values() == LISTING_ENTITIES)
        return sha256(*m.outputs)


@dataclass
class Explain:
    """`lexcat train` at set-up, then `lexcat explain` on held-out documents.
    A pass is load_pipeline, one operation per explained document
    (predict_document, build_explanation, render_explanation and
    export_tree_graph of tree 0), then one batch predict_prepared over the
    whole held-out split."""

    name: ClassVar[str] = "explain"
    seed: int
    workdir: Path
    n_docs: int = 1000
    n_train: int = 800
    n_explained: int = 25
    n_estimators: int = 200

    @property
    def docs_per_pass(self) -> int:
        return self.n_explained

    def config(self) -> PipelineConfig:
        return PipelineConfig(n_estimators=self.n_estimators, seed=self.seed)

    def sizes(self) -> str:
        return (f"{self.n_docs} docs, 8 classes, default mts/rf pipeline "
                f"({self.n_estimators} trees) fitted on {self.n_train}, "
                f"{self.n_explained} explained per pass, "
                f"{self.n_docs - self.n_train} in the batch predict")

    def setup(self):
        lex = lexica.load_lexica()
        corp = synth.generate_corpus(SynthSpec(n_docs=self.n_docs, n_classes=8, seed=self.seed))
        train = Corpus(corp.documents[: self.n_train])
        fitted = pipeline.fit_pipeline(train, self.config(), lex)
        path = self.workdir / f"explain-{self.seed}.model.json"
        pipeline.save_pipeline(fitted, path)
        return lex, corp, path

    def run_pass(self, state) -> Pass:
        lex, corp, path = state
        held_out = corp.documents[self.n_train :]
        t0 = clock()
        fitted = pipeline.load_pipeline(path)
        model = fitted.model
        class_names = explain.class_display_names(model, 0)
        op_s, explained = [], []
        for doc in held_out[: self.n_explained]:
            t = clock()
            predicted = fitted.predict_document(doc, lex)
            explanation = explain.build_explanation(fitted, doc, lex)
            text = explain.render_explanation(explanation)
            dot = explain.export_tree_graph(model.trees[0], None, model.feature_names, class_names)
            op_s.append(clock() - t)
            explained.append((predicted, explanation.assignments, text, dot))
        prep = pipeline.preprocess_corpus(Corpus(held_out), lex)
        t = clock()
        batch = fitted.predict_prepared(prep, range(len(held_out)))
        predict_s = clock() - t
        return Pass(clock() - t0, op_s, (explained, batch), {"predict": predict_s})

    def detail(self, m: Measurement) -> dict:
        predict_s = sum(p.timings["predict"] for p in m.passes) / len(m.passes)
        return {
            "explain_ms_p50": (m.op_ms(50), "ms"),
            "explain_ms_p95": (m.op_ms(95), "ms"),
            "predict_docs_per_s": ((self.n_docs - self.n_train) / predict_s, "docs/s"),
        }

    def verify(self, state, m: Measurement, checks: Checks) -> str:
        _, corp, _ = state
        explained, batch = m.outputs
        for predicted, assigned, _, _ in explained:
            checks.check("explain_prediction_matches", predicted == assigned)
        checks.check(
            "explain_batch_matches_single",
            list(batch[: len(explained)]) == [e[0] for e in explained],
        )
        held_out = corp.documents[self.n_train :]
        mm = evaluation.micro_macro_prf(
            [d.annotations for d in held_out], batch, build_class_catalog(corp)
        )
        checks.check("explain_heldout_micro_precision>=0.85", mm.micro_precision >= 0.85)
        return sha256(*(text + dot for _, _, text, dot in explained), repr(batch))


WORKLOADS = {w.name: w for w in (CvHeadline, Ingest, Explain)}
