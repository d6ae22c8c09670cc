"""Golden-output gate: two small pinned pipelines must reproduce checked-in outputs.

Each config is the ``cls`` or ``lm`` benchmark pipeline shape at the smoke-test
sizes (300 task documents, a 600-document pool, M=40, k=64), run for seed 0
with every default method of its task. ``cls_hidden`` and ``lm_hidden`` are
the same configs with the tanh hidden layer on. ``cls_wide`` is ``cls`` at
k=512, wider than its D=132 head gradient. ``cls_leak`` runs ``cls`` as a
``leakage`` experiment: two cells, at leak fractions 0.1 and 0.5, each
selecting from a 100-document pool that mixes training documents into the
seed corpus; its rows carry ``leaked_selected``. A selection is keyed by its
method, followed by its cell's grid fields when the cell has any
(``select/leak_fraction=0.1``). The gate compares, against
``tests/golden/<name>.json``:

- the selected indices of every selection: exact;
- the step scores of every method and every row metric: exact for the ``cls``
  configs, within ``LM_RTOL`` relative for the ``lm`` ones (next-token training
  sums float32 terms whose order a kernel change may move; 7e-8 has been seen);
- ``cls_wide`` step scores within ``WIDE_STEP_RTOL`` relative. Its store
  holds the D-wide rows W g in place of the k-wide sketch (``gradstore``
  module docstring), which has the same inner products in exact arithmetic
  but rounds to float32 elsewhere. A baseline's step score is one row's
  <row, d>, so a score near zero carries the absolute rounding of the whole
  product: 7e-7 relative was seen on a score 1/100 of the largest, 4e-8 on
  the greedy objectives. Its indices and rows stay exact.

A refactor must pass this gate with no golden file edited. A change that moves
the output on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says in CHANGES.md why.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from gradselect import harness
from gradselect.corpus import save_jsonl
from gradselect.gradstore import Projection
from gradselect.harness import ExperimentConfig, Workspace, run_pipeline
from gradselect.toycorpus import (
    make_classification_corpus,
    make_lm_corpus,
    make_lm_pool,
    make_pool_corpus,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
LM_RTOL = 1e-6
WIDE_STEP_RTOL = 1e-6
NAMES = ("cls", "lm", "cls_hidden", "lm_hidden", "cls_wide", "cls_leak")


def _config(name: str, dest: Path) -> ExperimentConfig:
    if name.startswith("cls"):
        task = make_classification_corpus(300, 4, seed=42, key_lo=3, key_hi=6, len_lo=8, len_hi=12)
        pool = make_pool_corpus(600, 4, seed=43, useful_fraction=0.06)
        model = {"embed_dim": 32, "num_classes": 4, "task": "classification"}
        victim = {"kind": "sgd", "learning_rate": 0.5, "epochs": 3, "batch_size": 32, "seed": 0}
        retrain = {"kind": "adam", "learning_rate": 0.01, "epochs": 3, "batch_size": 32, "seed": 0}
        extra = {"batch_window": 100, "seq_len": 64}
    else:
        task = make_lm_corpus(300, seed=50)
        pool = make_lm_pool(600, seed=51, useful_fraction=0.25)
        model = {"embed_dim": 16, "task": "next_token"}
        victim = {"kind": "sgd", "learning_rate": 0.5, "epochs": 2, "batch_size": 32, "seed": 0}
        retrain = {"kind": "adam", "learning_rate": 0.01, "epochs": 2, "batch_size": 32, "seed": 0}
        extra = {"seq_len": 32}
    if name.endswith("_hidden"):
        model["hidden_layer"] = True
    if name.endswith("_wide"):
        extra["projection_dim"] = 512
    if name.endswith("_leak"):
        extra["experiment"] = "leakage"
        extra["params"] = {"leak_fractions": [0.1, 0.5], "leak_pool_size": 100}
    save_jsonl(task, dest / "task.jsonl")
    save_jsonl(pool, dest / "pool.jsonl")
    return ExperimentConfig.from_dict(
        {
            "experiment": "pipeline",
            "corpus": str(dest / "task.jsonl"),
            "seed_corpus": str(dest / "pool.jsonl"),
            "out_dir": str(dest / "run"),
            "seeds": [0],
            "model": model,
            "victim_opt": victim,
            "retrain_opt": retrain,
            "selection_size": 40,
            "projection_dim": 64,
            "vocab_max_size": 2048,
            "fractions": [0.65, 0.05, 0.30],
            "validation_fraction": 0.1,
            "ot_max_points": 32,
            **extra,
        }
    )


def run_golden(name: str, dest: Path) -> dict:
    """Rows and selections of one pinned pipeline, as plain JSON data.

    Each selection ``harness.run_selection`` returns is recorded under its
    method and the grid fields of the cell ``harness._cell_rows`` is running.
    """
    config = _config(name, dest)
    cell_rows, run_selection = harness._cell_rows, harness.run_selection
    cell_fields: dict = {}
    selections = {}

    def recording_cell_rows(cell, *args):
        cell_fields.clear()
        cell_fields.update(cell.fields)
        return cell_rows(cell, *args)

    def recording_run_selection(*args):
        result = run_selection(*args)
        key = "/".join([result.method, *(f"{k}={v}" for k, v in cell_fields.items())])
        selections[key] = {"indices": result.indices, "step_scores": result.step_scores}
        return result

    harness._cell_rows, harness.run_selection = recording_cell_rows, recording_run_selection
    try:
        bundle = run_pipeline(config)
    finally:
        harness._cell_rows, harness.run_selection = cell_rows, run_selection
    assert not bundle.provenance["errors"], bundle.provenance["errors"]
    return {"rows": bundle.rows, "selections": dict(sorted(selections.items()))}


def _assert_matches(got, want, rtol: float, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], rtol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, rtol, f"{where}[{i}]")
    elif isinstance(want, float) and rtol > 0:
        assert isinstance(got, float), where
        assert got == want or math.isclose(got, want, rel_tol=rtol), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("name", NAMES)
def test_matches_golden(tmp_path, name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = json.loads(json.dumps(run_golden(name, tmp_path)))
    assert list(got["selections"]) == list(want["selections"])
    for method, sel in want["selections"].items():
        assert got["selections"][method]["indices"] == sel["indices"], method
    rtol = LM_RTOL if name.startswith("lm") else 0.0
    _assert_matches(got["rows"], want["rows"], rtol, f"{name}.rows")
    step_rtol = WIDE_STEP_RTOL if name.endswith("_wide") else rtol
    _assert_matches(got["selections"], want["selections"], step_rtol, f"{name}.selections")


# Every cache file of the cls and lm configs: victim checkpoints, store,
# selections, retrained models and scores. Their names are the cache keys: a
# change to a key, or to ``harness._docs_digest`` inside it, would leave every
# existing cache unread.
CACHE_NAMES = {
    "cls": [
        "retrain-176cf31b690f6133.ckpt",
        "retrain-84d4f01cc41c605b.ckpt",
        "retrain-9246852ed63afcb6.ckpt",
        "retrain-9e0647ab143ddaf5.ckpt",
        "retrain-9edba40e648154ba.ckpt",
        "retrain-c83faea3c2c989bd.ckpt",
        "retrain-fb77bc508545a366.ckpt",
        "score-223da52aafd82b6e.json",
        "score-29b199991b377141.json",
        "score-5e06bff1aaace524.json",
        "score-6a01f4217ffc04dd.json",
        "score-97911cb968355a33.json",
        "score-a96c8ef39479a730.json",
        "score-d05eb4452bf9f201.json",
        "sel-1ace0acabca3331c.json",
        "sel-1ef7bf9885720469.json",
        "sel-424b8cec92e5a198.json",
        "sel-45a6913c57712b2a.json",
        "sel-4fd1314ce943a306.json",
        "sel-ce6792474025468b.json",
        "sel-fefd9fabf3c90a1f.json",
        "store-9cc3d893aa3a3923.selg",
        "victim-c724ff4d57cc8e9a.theta0.ckpt",
        "victim-c724ff4d57cc8e9a.thetaf.ckpt",
    ],
    "lm": [
        "retrain-1124b6b98992c24e.ckpt",
        "retrain-2bc2cf1b349551f5.ckpt",
        "retrain-3aad86578f1a5252.ckpt",
        "retrain-7cf64a3b509e2c6d.ckpt",
        "retrain-bf1cdcbb58867439.ckpt",
        "score-282a72af8fa11ad5.json",
        "score-777a47c4c5477537.json",
        "score-d8645f9bfc7d002d.json",
        "score-f47315e7feefe95e.json",
        "score-f59a4b7c49a9a207.json",
        "sel-2dd8d62c11c5603d.json",
        "sel-34fe83753ecef98a.json",
        "sel-8dba47ff46145d5f.json",
        "sel-a005773c8bba4283.json",
        "sel-aca62afe4501db73.json",
        "sel-bf9e0f00250053a1.json",
        "store-95d802073eea9cc8.selg",
        "victim-df2ecd6b17c3b64b.theta0.ckpt",
        "victim-df2ecd6b17c3b64b.thetaf.ckpt",
    ],
}


@pytest.mark.parametrize("name", sorted(CACHE_NAMES))
def test_cache_file_names_are_pinned(tmp_path, name):
    config = _config(name, tmp_path)
    assert not run_pipeline(config).provenance["errors"]
    cache = Workspace(config.out_dir).cache_dir
    got = sorted(p.name for p in cache.iterdir() if not p.name.endswith(".tmp"))
    assert got == CACHE_NAMES[name]


@pytest.mark.parametrize("name", sorted(CACHE_NAMES))
def test_warm_run_generates_no_signs(tmp_path, monkeypatch, name):
    """Cold, each checkpoint's direction is computed once, from the store build's signs.

    Warm, every selection is a cache hit: no direction, no sign bits.
    """
    config = _config(name, tmp_path)
    directions, generations = [], []
    direction, packed_bits = harness.direction, Projection._packed_bits

    def counting_direction(*args):
        directions.append(args)
        return direction(*args)

    def counting_packed_bits(proj):
        if proj._packed is None:
            generations.append(proj)
        return packed_bits(proj)

    monkeypatch.setattr(harness, "direction", counting_direction)
    monkeypatch.setattr(Projection, "_packed_bits", counting_packed_bits)
    for want in ((config.num_checkpoints, 1), (0, 0)):
        directions.clear()
        generations.clear()
        assert not run_pipeline(config).provenance["errors"]
        assert (len(directions), len(generations)) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            data = run_golden(name, Path(tmp))
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_DIR / f'{name}.json'}")
