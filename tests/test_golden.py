"""Golden digests of the serialized artifacts on a small synthetic corpus.

Any change to how models are fitted, serialized or explained shows up here
as a changed SHA-256. A deliberate change must update the digest and say
why in CHANGES.md.
"""

import hashlib

import pytest

from lexcat.explain import build_explanation, render_explanation
from lexcat.pipeline import PipelineConfig, fit_pipeline, pipeline_to_json, preprocess_corpus
from lexcat.synth import SynthSpec, generate_corpus
from lexcat.trees import model_to_json

MODEL_DIGESTS = {
    ("mts", "dt"): "1c42538577c83e48d545240b24390296b885230bcd23a0fa9692152ccfea124b",
    ("mts", "eetc"): "dd425f493cf8894b566c3c5417f68a26fb02405540e4a49c6ab778b837798b26",
    ("mts", "rf"): "65c25ea5256cc539ca8897634dfc93b21b1b8866e28edb8794089ebad328f52b",
    ("bts", "dt"): "6818f9cc64e978909ef0b1089c56fa66d6c9dcd2562519996e93fa1f4ba8e0a9",
    ("bts", "eetc"): "dae73a31024ec2de1015dd6208121c20f76272993976d9682da7a635601cee99",
    ("bts", "rf"): "cfea92f82937f206de0a724cbc7808ded23e65fa88222c9417d495667b60d8c1",
    ("mts", "etc"): "96f09ac4ba0efc6bcfbd78a2a6dbd8670b85a0ed093bfa029d02299297214eb0",
    ("bts", "etc"): "a3e871f8fc1fc6a3e1ecf2dc88c76b12173456cae366999c03db306c9e6fdf9a",
}
PIPELINE_DIGEST = "b55b17f194caa0c830796c2aa615a0bfa46532c447fd0e5908dd9846e0085e16"
# document 4: two assignments under both strategies, BTS confidence is the
# mean over two classes (88); document 11: MTS confidence below 100 (75)
EXPLANATION_DIGESTS = {
    ("mts", 4): "21576eba8ede32facf65ded5dc792806457f7a2b58a991c83e8707edbedd8b44",
    ("mts", 11): "8b466db86394a6b3401cf2dc85071cf2139765ceab6df5e071d66597ad0f70d9",
    ("bts", 4): "5f9c060b7dd43409176b4b70a8c0330ff603e03e47f7c16c712785c3607b69bc",
    ("bts", 11): "a2107efcab00aac438677269fd21038d7913f4118f12d9f0c01c4830619ed8ba",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def setting(lexica):
    corpus = generate_corpus(SynthSpec(n_docs=60, n_classes=3, seed=21))
    prep = preprocess_corpus(corpus, lexica)
    base = PipelineConfig(n_estimators=4, min_samples_leaf=1, seed=21, relevance_samples=60)
    return corpus, prep, base


def _fit(setting, lexica, strategy, model):
    corpus, prep, base = setting
    config = base.with_overrides({"strategy": strategy, "model": model})
    return fit_pipeline(corpus, config, lexica, prep=prep)


@pytest.mark.parametrize("strategy,model", sorted(MODEL_DIGESTS))
def test_model_digest(setting, lexica, strategy, model):
    fitted = _fit(setting, lexica, strategy, model)
    assert _sha(model_to_json(fitted.model)) == MODEL_DIGESTS[(strategy, model)]


def test_pipeline_digest(setting, lexica):
    assert _sha(pipeline_to_json(_fit(setting, lexica, "mts", "rf"))) == PIPELINE_DIGEST


@pytest.mark.parametrize("strategy", ["bts", "mts"])
def test_explanation_digest(setting, lexica, strategy):
    corpus = setting[0]
    fitted = _fit(setting, lexica, strategy, "rf")
    for i in (4, 11):
        text = render_explanation(build_explanation(fitted, corpus.documents[i], lexica))
        assert _sha(text) == EXPLANATION_DIGESTS[(strategy, i)], i
