"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Each workload runs once untraced and once traced: every metric named in
BENCHMARK.json must be emitted with its unit and every check must pass.
Then one output of each workload is corrupted on purpose, and the run must
count it as failed. The calibration clock must leave the chunks' time out.
"""

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from lexcat import anonymiser, explain, pipeline  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "cv_headline": dict(n_docs=120, n_classes=4, folds=3, n_estimators=5),
    "ingest": dict(n_docs=30),
    "explain": dict(n_docs=200, n_train=160, n_explained=4, n_estimators=10),
}


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed=seed, workdir=tmp_path, **TINY[name])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_emitted_with_unit(name, trace, tmp_path):
    result = bench.run_workload(tiny(name, tmp_path), 0.0, bool(trace))
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def test_clock_leaves_chunk_time_out():
    previous = signal.getsignal(signal.SIGALRM)
    with calibration.running():
        n0 = len(calibration._samples)
        c0, p0 = calibration.clock(), perf_counter()
        while perf_counter() - p0 < 1.0:
            pass
        clocked, wall = calibration.clock() - c0, perf_counter() - p0
        in_chunks = sum(s for _, s in calibration._samples[n0:])
    assert len(calibration._samples) - n0 >= 3
    assert abs(wall - clocked - in_chunks) < 1e-3
    assert signal.getsignal(signal.SIGALRM) is previous


def test_second_run_reproduces_stored_digest(tmp_path):
    first = bench.run_workload(tiny("ingest", tmp_path), 0.0, False)
    second = bench.run_workload(tiny("ingest", tmp_path), 0.0, False)
    assert second["attempted"] == first["attempted"] + 1
    assert second["failed"] == 0


def _leave_text_alone(text, lexica, threshold=0.9):
    return text, anonymiser.AnonymisationReport({}, [])


ORIGINAL_PREDICT = pipeline.FittedPipeline.predict_prepared


def _reversed_predictions(self, prep, indices):
    return list(reversed(ORIGINAL_PREDICT(self, prep, indices)))


@pytest.mark.parametrize("name", list(TINY))
def test_corrupted_output_counts_as_failure(name, tmp_path, monkeypatch):
    if name == "explain":
        # a first clean run stores the digest the corrupted run must match
        bench.run_workload(tiny(name, tmp_path), 0.0, False)
        render = explain.render_explanation
        monkeypatch.setattr(explain, "render_explanation", lambda e, *a: render(e, *a) + " ")
    elif name == "ingest":
        monkeypatch.setattr(anonymiser, "anonymize", _leave_text_alone)
    else:
        monkeypatch.setattr(pipeline.FittedPipeline, "predict_prepared", _reversed_predictions)
    result = bench.run_workload(tiny(name, tmp_path), 0.0, False)
    assert result["failed"] >= 1
    assert result["correct"] is False
