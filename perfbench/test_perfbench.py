"""Smoke tests for the benchmark at tiny sizes (workloads.TINY).

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
from pathlib import Path

import pytest

from gradselect import harness, metrics, model
from gradselect.corpus import load_jsonl
from gradselect.toycorpus import make_classification_corpus, make_lm_corpus

from perfbench import run, workloads
from perfbench.tracer import WRAPS, Span, Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _tiny(tmp_path, name, trace=False):
    return workloads.execute(name, 0, 0.05, trace, tmp_path, workloads.TINY)


def test_benchmark_json_names_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(tmp_path, name, trace):
    outcome = _tiny(tmp_path, name, trace)
    assert outcome.attempted >= 1
    assert outcome.failures == []
    if trace:
        values, broken = run.per_layer(outcome, triad_gbps=10.0)
        assert broken == []
        assert set(values) == set(run.PER_LAYER)
    else:
        values = run.end_to_end(outcome)
        assert set(values) == set(run.END_TO_END)
        assert all(v > 0 for v in values.values()), values
    assert all(math.isfinite(v) for v in values.values()), values


def test_traced_run_restores_wrapped_names(tmp_path):
    before = {
        "harness.train": harness.train,
        "metrics.train": metrics.train,
        "metrics.evaluate": metrics.evaluate,
        "harness.GradientStore": harness.GradientStore,
        "model.encode_documents": model.encode_documents,
    }
    outcome = _tiny(tmp_path, "cls_pipeline", trace=True)
    assert harness.train is before["harness.train"]
    assert metrics.train is before["metrics.train"]
    assert metrics.evaluate is before["metrics.evaluate"]
    assert harness.GradientStore is before["harness.GradientStore"]
    assert model.encode_documents is before["model.encode_documents"]
    names = {s.name for s in outcome.tracer.spans}
    assert {"gradstore.build_store", "model.train", "selector.select_greedy"} <= names
    assert len(WRAPS) == len({(m, a) for m, a, _, _ in WRAPS})


def test_self_time_subtracts_covered_part_of_children():
    tracer = Tracer("t")
    tracer.spans = [
        Span(0, None, "root", "bench", 0.0, 10.0),
        Span(1, 0, "a", "x", 1.0, 3.0),
        Span(2, 0, "b", "x", 2.0, 5.0),
        Span(3, 2, "c", "x", 4.0, 4.5),
    ]
    selfs = tracer.self_times()
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 2.5, 3: 0.5})


@pytest.mark.parametrize("name", ["cls_pipeline", "select_wide"])
def test_swapped_index_is_counted_not_raised(tmp_path, monkeypatch, name):
    original = harness.select_greedy

    def swapped(store, dirs, num_select, rule="cosine_sum"):
        result = original(store, dirs, num_select, rule)
        outside = next(i for i in range(store.num_examples) if i not in result.indices)
        result.indices[0] = outside
        return result

    monkeypatch.setattr(harness, "select_greedy", swapped)
    outcome = _tiny(tmp_path, name)
    assert outcome.failed >= 1
    assert any(f.startswith("cold select:") and "objective" in f for f in outcome.failures)
    assert not any(" select_batch:" in f for f in outcome.failures)


@pytest.mark.parametrize("module, attr", [(metrics, "train"), (harness, "build_store")])
def test_stage_error_is_counted_not_raised(tmp_path, monkeypatch, module, attr):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(module, attr, broken)
    outcome = _tiny(tmp_path, "cls_pipeline")
    assert outcome.attempted > 0
    assert outcome.failed == outcome.attempted
    assert any("injected" in f for f in outcome.failures)


def test_seed_zero_reproduces_the_acceptance_corpora(tmp_path):
    expected = {
        "cls": make_classification_corpus(3400, 4, seed=42, key_lo=3, key_hi=6, len_lo=8, len_hi=12),
        "lm": make_lm_corpus(3400, seed=50),
    }
    for family, task in expected.items():
        workloads._write_corpora(family, 0, workloads.FULL, tmp_path / family)
        assert load_jsonl(tmp_path / family / "task.jsonl").texts == task.texts
    workloads._write_corpora("cls", 1, workloads.FULL, tmp_path / "seed1")
    assert load_jsonl(tmp_path / "seed1" / "task.jsonl").texts != expected["cls"].texts
