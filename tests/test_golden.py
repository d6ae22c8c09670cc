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

``test_grid_equals_its_cells`` checks, at the ``cls`` sizes, that every
experiment kind's grid gives each cell what that cell gives alone.

A refactor must pass this gate with no golden file edited. A change that moves
the output on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says in CHANGES.md why.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
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
# selections, retrained models and scores. Their names are the cache keys,
# which name the inputs (file digests, settings, upstream keys, selected
# indices): a change to a key would leave every existing cache unread.
CACHE_NAMES = {
    "cls": [
        "retrain-01177078155fdb95.ckpt",
        "retrain-090b8406e61b3f82.ckpt",
        "retrain-17e1ace80bfda8ca.ckpt",
        "retrain-2985a083b7565b78.ckpt",
        "retrain-afe3569270a77353.ckpt",
        "retrain-b0fac8e6d98b3461.ckpt",
        "retrain-dd1c4429bd62b1f6.ckpt",
        "score-0df2372b62e6ffeb.json",
        "score-463e8f1e7fdfbce7.json",
        "score-4ca5e72edddbdcc0.json",
        "score-54cca1a97f3999db.json",
        "score-a476dce218c51c46.json",
        "score-cf3c8e0d88d51eba.json",
        "score-e331a56f12bbe95e.json",
        "sel-0b4ce223a3151e10.json",
        "sel-3e82e5e348969099.json",
        "sel-4e2636783d0c2f34.json",
        "sel-c3cdabd61a2826c7.json",
        "sel-eaf5b9fa4c4f502d.json",
        "sel-f0deb0c62c532fab.json",
        "sel-f8c7613c40c97c72.json",
        "store-9abe9b5072623a2d.selg",
        "victim-ca1e90f628cf0b4c.theta0.ckpt",
        "victim-ca1e90f628cf0b4c.thetaf.ckpt",
    ],
    "lm": [
        "retrain-264783ac79011bc0.ckpt",
        "retrain-37dbebbb65f5f8b5.ckpt",
        "retrain-9442babdfddfb1db.ckpt",
        "retrain-9bc02f25acc18304.ckpt",
        "retrain-c7a11fed3974c95e.ckpt",
        "score-013be11d08641634.json",
        "score-1f355595f7091fd2.json",
        "score-314e053a58293597.json",
        "score-a377aa43abfe91a2.json",
        "score-ffeb0f68af2a4081.json",
        "sel-8ae2ddc65fc3b851.json",
        "sel-aebed820e5e71db6.json",
        "sel-bd1f563e4047b048.json",
        "sel-c86adc244d469928.json",
        "sel-d74cca4fdbce283a.json",
        "sel-fa85e55ea42f38ca.json",
        "store-5e6441b4232040b1.selg",
        "victim-678998cc60377322.theta0.ckpt",
        "victim-678998cc60377322.thetaf.ckpt",
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


# Each kind's grid at the cls golden sizes, two cells each where the kind has a grid.
GRID_PARAMS = {
    "pipeline": {},
    "scaling": {"m_list": [20, 40]},
    "leakage": {"leak_fractions": [0.1, 0.5], "leak_pool_size": 100},
    "crossseed": {},  # the two seed corpora are written by the test
    "projection_dim": {"k_list": [32, 64]},
    "optimizer": {
        "victim_optimizers": [{"kind": "sgd"}, {"kind": "adam", "learning_rate": 0.01}],
        "retrain_optimizers": [{"kind": "adam"}],
    },
    "metric_ablation": {"replace_steps": [0.0, 1.0], "trials": 1},
}


def _cell_outputs(cells, seeds, workspace_of) -> list[dict]:
    """Rows, selected indices and victim checksums of each (seed, cell), run
    alone by ``harness._cell_rows`` on the workspace ``workspace_of(seed, index)``."""
    outputs = []
    for seed in seeds:
        for index, cell in enumerate(cells):
            workspace = workspace_of(seed, index)
            picked = {}
            run_selection = harness.run_selection

            def recording(*args):
                result = run_selection(*args)
                picked[result.method] = result.indices
                return result

            harness.run_selection = recording
            try:
                ctx = harness.prepare_run(cell.config, seed, workspace)
                rows = harness._cell_rows(cell, ctx, workspace)
            finally:
                harness.run_selection = run_selection
            checksums = {"theta0": ctx.theta0.fingerprint(), "theta_f": ctx.theta_f.fingerprint()}
            outputs.append({"rows": rows, "selections": picked, "checksums": checksums})
    return outputs


def _grid_outputs(config: ExperimentConfig, seeds) -> list[dict]:
    """``_cell_outputs``'s record of each (seed, cell), from one serial ``run_pipeline``
    of the grid, which must give the rows and checksums of a run with two seed jobs
    at once."""
    cell_rows, run_selection = harness._cell_rows, harness.run_selection
    outputs = []

    def recording_cell_rows(cell, *args):
        outputs.append({"rows": None, "selections": {}, "checksums": None})
        outputs[-1]["rows"] = cell_rows(cell, *args)
        return outputs[-1]["rows"]

    def recording_run_selection(*args):
        result = run_selection(*args)
        outputs[-1]["selections"][result.method] = result.indices
        return result

    harness._cell_rows, harness.run_selection = recording_cell_rows, recording_run_selection
    try:
        bundle = run_pipeline(config)
    finally:
        harness._cell_rows, harness.run_selection = cell_rows, run_selection
    assert not bundle.provenance["errors"], bundle.provenance["errors"]
    cells = harness.experiment_cells(config)
    labels = [cell.label(seed) for seed in seeds for cell in cells]
    for output, label in zip(outputs, labels, strict=True):
        output["checksums"] = bundle.provenance["checkpoint_checksums"][label]
    assert sorted(map(json.dumps, bundle.rows)) == sorted(
        json.dumps(row) for output in outputs for row in output["rows"]
    )
    parallel = harness.run_experiment(replace(config, out_dir=config.out_dir + "_par"), parallel=2)
    assert parallel.rows == bundle.rows
    assert parallel.provenance["checkpoint_checksums"] == bundle.provenance["checkpoint_checksums"]
    return outputs


def test_grid_equals_its_cells(tmp_path):
    """Every kind's grid, run into one out_dir, gives each cell what the cell
    gives alone in a fresh out_dir, and again when the cells rerun in reverse
    order into the grid's out_dir, which then holds every cache file they read."""
    base = _config("cls", tmp_path)
    second_pool = tmp_path / "pool_b.jsonl"
    save_jsonl(make_pool_corpus(600, 4, seed=44, useful_fraction=0.06), second_pool)
    select_indices = {}
    for kind, params in GRID_PARAMS.items():
        if kind == "crossseed":
            params = {"seed_corpora": {"a": base.seed_corpus, "b": str(second_pool)}}
        seeds = [0] if kind == "metric_ablation" else [0, 1]
        config = replace(
            base, experiment=kind, params=params, seeds=tuple(seeds),
            methods=("select", "random", "expert"), out_dir=str(tmp_path / kind / "grid"),
        )
        cells = harness.experiment_cells(config)
        grid = _grid_outputs(config, seeds)
        alone = _cell_outputs(
            cells, seeds, lambda seed, i: Workspace(tmp_path / kind / f"alone_{seed}_{i}")
        )
        assert grid == alone, kind
        reverse = _cell_outputs(cells[::-1], seeds[::-1], lambda seed, i: Workspace(config.out_dir))
        by_seed = [alone[j * len(cells):(j + 1) * len(cells)] for j in range(len(seeds))]
        assert reverse == [out for outs in by_seed[::-1] for out in outs[::-1]], kind
        select_indices[kind] = grid[0]["selections"]["select"]
    assert select_indices["metric_ablation"] == select_indices["pipeline"]


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            data = run_golden(name, Path(tmp))
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_DIR / f'{name}.json'}")
