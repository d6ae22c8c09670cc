"""The benchmark's workloads, their timed jobs and their output checks.

A workload is one batch job run to completion in one process (parallel=1).
Set-up writes the generated corpora (for ``select_wide`` it also trains the
victim and builds the k=4096 store), the cold job runs on an empty cache,
and the warm job repeats the same call on the filled cache. The program
receives only the generated corpora; every seed-dependent choice is made
here from the workload seed.

Every operation is checked; a failed check is counted, never raised, so one
bad output cannot hide the others.
"""

from __future__ import annotations

import math
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from gradselect import harness
from gradselect.corpus import save_jsonl
from gradselect.toycorpus import (
    make_classification_corpus,
    make_lm_corpus,
    make_lm_pool,
    make_pool_corpus,
)

from .tracer import Tracer

# The float64 objective recomputed from the store must equal the selector's
# last step score within this relative gap. The float64 engine of the seed
# commit is within 2e-16; a float32 engine accumulating M float32 rows lands
# near 1e-6; replacing one of M picked rows moves the objective by ~1/M.
OBJECTIVE_RTOL = 1e-4

# Seed 0 gives the corpus seeds of acceptance criteria 04/10 (42, 43) and 05
# (50, 51); every other workload seed moves both by a multiple of this step.
SEED_STEP = 100


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TINY the smoke test."""

    task_docs: int
    pool_docs: int
    cls_retrain_epochs: int
    lm_victim_epochs: int
    lm_retrain_epochs: int
    select_size: int
    sketch_dim: int
    wide_select_size: int
    wide_sketch_dim: int
    window: int
    ot_max_points: int
    setup_repeats: int


FULL = Scale(3400, 10_000, 100, 30, 40, 500, 512, 64, 4096, 1000, 256, 3)
TINY = Scale(300, 600, 3, 2, 2, 40, 64, 8, 128, 100, 32, 2)


def objective(store, dirs, indices) -> float:
    """sum_j cos(sum_{i in S} g_ij, d_j) in float64, straight from the store."""
    rows = np.sort(np.asarray(indices, dtype=np.int64))
    total = 0.0
    for j, d in enumerate(dirs):
        d = np.asarray(d, dtype=np.float64)
        d_norm = float(np.linalg.norm(d))
        if d_norm == 0.0:
            continue  # the greedy engine skips degenerate checkpoints too
        s = np.asarray(store.block(j)[rows], dtype=np.float64).sum(axis=0)
        total += float(s @ d) / (float(np.linalg.norm(s)) * d_norm)
    return total


def selection_problem(result, store, dirs, num_select: int, greedy: bool) -> str | None:
    """Why a selection is wrong, or None when it passes every check."""
    idx = list(result.indices)
    n = store.num_examples
    if len(idx) != num_select:
        return f"{len(idx)} indices, expected {num_select}"
    if len(set(idx)) != len(idx):
        return "indices are not distinct"
    if min(idx) < 0 or max(idx) >= n:
        return f"index out of range [0, {n})"
    if greedy:
        value = objective(store, dirs, idx)
        gap = abs(value - result.step_scores[-1])
        if not gap <= OBJECTIVE_RTOL * max(1.0, abs(value)):
            return f"objective {value!r} != last step score {result.step_scores[-1]!r}"
    return None


def _write_corpora(family: str, seed: int, scale: Scale, dest: Path) -> None:
    offset = SEED_STEP * seed
    if family == "cls":
        task = make_classification_corpus(
            scale.task_docs, 4, seed=42 + offset, key_lo=3, key_hi=6, len_lo=8, len_hi=12
        )
        pool = make_pool_corpus(scale.pool_docs, 4, seed=43 + offset, useful_fraction=0.06)
    else:
        task = make_lm_corpus(scale.task_docs, seed=50 + offset)
        pool = make_lm_pool(scale.pool_docs, seed=51 + offset, useful_fraction=0.25)
    dest.mkdir(parents=True, exist_ok=True)
    save_jsonl(task, dest / "task.jsonl")
    save_jsonl(pool, dest / "pool.jsonl")


def _config(family: str, seed: int, scale: Scale, dest: Path) -> harness.ExperimentConfig:
    """The crit-04 (cls) or crit-05 (lm) pipeline shape as one seed."""
    common = {
        "experiment": "pipeline",
        "corpus": str(dest / "task.jsonl"),
        "seed_corpus": str(dest / "pool.jsonl"),
        "out_dir": str(dest / "run"),
        "seeds": [seed],
        "selection_size": scale.select_size,
        "projection_dim": scale.sketch_dim,
        "vocab_max_size": 2048,
        "fractions": [0.65, 0.05, 0.30],
        "validation_fraction": 0.1,
        "ot_max_points": scale.ot_max_points,
    }
    if family == "cls":
        return harness.ExperimentConfig.from_dict(
            {
                **common,
                "model": {"embed_dim": 32, "num_classes": 4, "task": "classification"},
                "victim_opt": {"kind": "sgd", "learning_rate": 0.5, "epochs": 3, "batch_size": 32, "seed": 0},
                "retrain_opt": {"kind": "adam", "learning_rate": 0.01, "epochs": scale.cls_retrain_epochs, "batch_size": 32, "seed": 0},
                "scoring_rule": "cosine_sum",
                "batch_window": scale.window,
                "seq_len": 64,
                "methods": ["select", "select_batch", "random", "topk"],
            }
        )
    return harness.ExperimentConfig.from_dict(
        {
            **common,
            "model": {"embed_dim": 16, "task": "next_token"},
            "victim_opt": {"kind": "sgd", "learning_rate": 0.5, "epochs": scale.lm_victim_epochs, "batch_size": 32, "seed": 0},
            "retrain_opt": {"kind": "adam", "learning_rate": 0.01, "epochs": scale.lm_retrain_epochs, "batch_size": 32, "seed": 0},
            "seq_len": 32,
            "methods": ["select", "random", "topk"],
        }
    )


class Pipeline:
    """cls_pipeline / lm_pipeline: one ``harness.run_pipeline`` cell."""

    def __init__(self, family: str, seed: int, scale: Scale):
        self.family = family
        self.seed = seed
        self.scale = scale
        self.config: harness.ExperimentConfig | None = None

    def setup(self, dest: Path) -> None:
        _write_corpora(self.family, self.seed, self.scale, dest)
        self.config = _config(self.family, self.seed, self.scale, dest)

    @property
    def methods(self) -> tuple[str, ...]:
        return self.config.method_list()

    @property
    def cache_dir(self) -> Path:
        return Path(self.config.out_dir) / "cache"

    def job(self) -> dict[str, Any]:
        try:
            bundle = harness.run_pipeline(self.config)
        except Exception:
            return {m: traceback.format_exc() for m in self.methods}
        if bundle.provenance["errors"]:
            return {m: f"provenance.errors: {bundle.provenance['errors']}" for m in self.methods}
        out: dict[str, Any] = {}
        for m in self.methods:
            rows = [r for r in bundle.rows if r["method"] == m]
            out[m] = rows[0] if len(rows) == 1 else f"{len(rows)} rows for {m}"
        return out

    def rerun(self) -> dict[str, Any]:
        return self.job()

    def problem(self, method: str, row: dict, reference: dict | None) -> str | None:
        primary = "accuracy" if self.family == "cls" else "perplexity"
        for key in (primary, "mean_loss", "vocab_containment", "ot_distance"):
            value = row.get(key)
            if value is None or not math.isfinite(value):
                return f"{key} is {value!r}"
        if reference is not None and row != reference:
            return "warm row differs from the cold row"
        return None

    def inspect(self, cold: dict[str, Any]) -> tuple[dict[str, str | None], dict[str, float]]:
        """Check every cached selection; return problems and quality values.

        Runs after the cold job, untimed: prepare_run and gradient_stage hit
        the cache the cold job filled, and run_selection reads its selection.
        """
        cfg = self.config
        workspace = harness.Workspace(cfg.out_dir)
        ctx = harness.prepare_run(cfg, self.seed, workspace)
        pool = harness.build_candidate_pool(cfg, ctx)
        art = harness.gradient_stage(cfg, ctx, pool, workspace)
        problems, quality = {}, {}
        for m in self.methods:
            result = harness.run_selection(cfg, ctx, art, m, workspace)
            greedy = m in ("select", "select_batch")
            problems[m] = selection_problem(
                result, art.store, art.dirs, cfg.selection_size, greedy
            )
            if greedy:
                quality[f"{m}_objective"] = objective(art.store, art.dirs, result.indices)
        key = "accuracy" if self.family == "cls" else "perplexity"
        for m in ("select", "select_batch"):
            if isinstance(cold.get(m), dict):
                quality[f"{m}_{key}"] = cold[m][key]
        return problems, quality


class SelectWide:
    """select_wide: the crit-10 k=4096 point as a selection-only job, P=2."""

    methods = ("select", "select_batch", "topk")

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale

    def setup(self, dest: Path) -> None:
        _write_corpora("cls", self.seed, self.scale, dest)
        cfg = _config("cls", self.seed, self.scale, dest)
        self.config = replace(
            cfg,
            projection_dim=self.scale.wide_sketch_dim,
            num_checkpoints=2,
            selection_size=self.scale.wide_select_size,
            methods=self.methods,
        )
        self.workspace = harness.Workspace(self.config.out_dir)
        self.ctx = harness.prepare_run(self.config, self.seed, self.workspace)
        pool = harness.build_candidate_pool(self.config, self.ctx)
        self.artifacts = harness.gradient_stage(self.config, self.ctx, pool, self.workspace)

    @property
    def cache_dir(self) -> Path:
        return self.workspace.cache_dir

    def job(self) -> dict[str, Any]:
        """The three selections on the store set-up built."""
        return self._select(self.ctx, self.artifacts)

    def rerun(self) -> dict[str, Any]:
        """The whole job again: every stage reads the cache set-up and job filled."""
        cfg, ws = self.config, self.workspace
        try:
            ctx = harness.prepare_run(cfg, self.seed, ws)
            pool = harness.build_candidate_pool(cfg, ctx)
            artifacts = harness.gradient_stage(cfg, ctx, pool, ws)
        except Exception:
            return {m: traceback.format_exc() for m in self.methods}
        return self._select(ctx, artifacts)

    def _select(self, ctx, artifacts) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for m in self.methods:
            try:
                out[m] = harness.run_selection(self.config, ctx, artifacts, m, self.workspace)
            except Exception:
                out[m] = traceback.format_exc()
        return out

    def problem(self, method: str, result, reference) -> str | None:
        art = self.artifacts
        greedy = method in ("select", "select_batch")
        bad = selection_problem(result, art.store, art.dirs, self.config.selection_size, greedy)
        if bad is None and reference is not None and (
            result.indices != reference.indices or result.step_scores != reference.step_scores
        ):
            bad = "warm selection differs from the cold selection"
        return bad

    def inspect(self, cold: dict[str, Any]) -> tuple[dict[str, str | None], dict[str, float]]:
        """problem() already checked each selection; only quality is left."""
        art = self.artifacts
        quality = {
            f"{m}_objective": objective(art.store, art.dirs, cold[m].indices)
            for m in ("select", "select_batch")
            if not isinstance(cold.get(m), str)
        }
        return {}, quality


WORKLOADS = ("cls_pipeline", "lm_pipeline", "select_wide")


def make(name: str, seed: int, scale: Scale):
    if name == "cls_pipeline":
        return Pipeline("cls", seed, scale)
    if name == "lm_pipeline":
        return Pipeline("lm", seed, scale)
    if name == "select_wide":
        return SelectWide(seed, scale)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    cell_s: float = 0.0
    rerun_s: list[float] = field(default_factory=list)
    traced_rerun_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    cache_bytes: int = 0
    tracer: Tracer | None = None
    cell_root: int | None = None
    rerun_roots: list[int] = field(default_factory=list)

    def count(self, phase: str, problems: dict[str, str | None]) -> None:
        self.attempted += len(problems)
        for method, bad in problems.items():
            if bad is not None:
                self.failed += 1
                self.failures.append(f"{phase} {method}: {bad}")


def _timed(job, tracer: Tracer | None, root_name: str) -> tuple[float, dict, int | None]:
    if tracer is None:
        t0 = time.perf_counter()
        out = job()
        return time.perf_counter() - t0, out, None
    with tracer:
        with tracer.span(root_name) as root:
            out = job()
    return root.duration, out, root.id


def _problems(workload, outputs: dict, reference: dict | None) -> dict[str, str | None]:
    problems = {}
    for m, out in outputs.items():
        if isinstance(out, str):
            problems[m] = out
        else:
            problems[m] = workload.problem(m, out, None if reference is None else reference.get(m))
    return problems


def execute(
    name: str, seed: int, seconds: float, trace: bool, work_dir: Path, scale: Scale = FULL
) -> Outcome:
    """Set up, run cold, check, then rerun warm for ``seconds``.

    With ``trace`` the cold job is traced, and the warm phase runs whole
    blocks of untraced and traced reruns so the tracing overhead is measured
    in-run.
    """
    workload = make(name, seed, scale)
    outcome = Outcome()
    for r in range(scale.setup_repeats):
        dest = work_dir / f"setup{r}"
        t0 = time.perf_counter()
        workload.setup(dest)
        outcome.setup_s.append(time.perf_counter() - t0)
        if r:
            shutil.rmtree(work_dir / f"setup{r - 1}")

    tracer = Tracer(f"{name}-seed{seed}-{time.time_ns()}") if trace else None
    outcome.tracer = tracer
    outcome.cell_s, cold, outcome.cell_root = _timed(workload.job, tracer, "cell")
    outcome.cache_bytes = sum(p.stat().st_size for p in workload.cache_dir.glob("*"))
    cold_problems = _problems(workload, cold, None)
    try:
        selection_problems, outcome.quality = workload.inspect(cold)
    except Exception:
        selection_problems = {m: traceback.format_exc() for m in cold}
    for m, bad in selection_problems.items():
        if bad is not None and cold_problems.get(m) is None:
            cold_problems[m] = bad
    outcome.count("cold", cold_problems)
    reference = {m: out for m, out in cold.items() if cold_problems[m] is None}

    start = time.perf_counter()
    rep = 0
    while True:
        # Untraced, traced, traced, untraced: warm-up and drift then bias
        # neither side of the tracing overhead.
        traced_rep = tracer is not None and rep % 4 in (1, 2)
        elapsed, warm, root = _timed(workload.rerun, tracer if traced_rep else None, "rerun")
        if traced_rep:
            outcome.traced_rerun_s.append(elapsed)
            outcome.rerun_roots.append(root)
        else:
            outcome.rerun_s.append(elapsed)
        outcome.count(f"warm{rep}", _problems(workload, warm, reference))
        rep += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rep % 4 == 0):
            break
    return outcome

