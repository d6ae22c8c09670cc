"""End-to-end pipeline and experiment orchestration.

Every run flows from a single JSON config. ``experiment_cells`` turns the
config's kind and ``params`` into a grid of cells, each carrying its own
config (M as ``selection_size``, k as ``projection_dim``, task and seed
corpora, victim and retrain optimizers). Every cell runs one chain: split the
task corpus and train (or reuse) the victim, build the candidate pool,
autolabel it with the final model and build the projected gradient store
(on a store cache hit neither runs: the labels are read from the store),
select with each of the cell's methods (``select_methods``), retrain each
selection from the base checkpoint, and score recovery. A cell selects with
every method before it retrains: ``retrain_selections`` then trains the
models the cache misses in lockstep, the classification ones of one
selection size as one stacked model.

The candidate pool comes from one place, ``build_candidate_pool``: the seed
corpus file if the config names one, else the task corpus's seed split,
unlabeled and numbered 0..n-1. A leakage cell draws its distractors from that
pool and mixes training documents in (``corpus.mix_leakage``).

One job per seed runs every cell of that seed; a failing cell lands in
``provenance.errors`` and the other cells still run. ``run_experiment`` runs
the seed jobs, ``parallel`` at a time, and orders rows by (cell, method,
seed). Stage artifacts (checkpoints, stores, selections and the models
retrained on them) are content-addressed under ``<out_dir>/cache`` and keyed
by the run seed, so cells of one seed reuse shared upstream work, two seed
jobs never write the same file, and a warm run trains nothing.

A warm run (every stage a cache hit) trains, autolabels, builds and selects
nothing, and generates no sketch signs: only a fresh selection computes the
directions. Per cell it still reads and splits the corpus, builds the
vocabulary, reads the pool (each document set built once), hashes the pool
and the selections for their cache keys, reads the cached selections and the
retrained models' metrics, and scores every selection: the reference token
set and the reference subsample's embedding once per cell (``Reference``),
each selection's tokens, embedding and OT distance once per method.

Every cache file is written through ``corpus.atomic_write`` (a temporary file
of the writer's own, renamed into place), so a process killed at any point
leaves each cache file as it was or complete, at worst beside an orphan
``*.tmp``. Nothing calls ``fsync``: an OS crash or power loss may persist a
rename before its data and leave a cache file empty or truncated. Every stage
finds its file through ``Workspace.load``, which detects such a file, or a
malformed or stale one, so that the stage builds and writes it again.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from . import __version__
from .corpus import (
    Document,
    DocumentSet,
    TokenBatch,
    Vocab,
    build_vocab,
    encode_documents,
    load_jsonl,
    mix_leakage,
    split,
)
from .gradstore import GradientStore, Projection, build_store, direction
from .metrics import (
    EmbeddingSet,
    MetricsReport,
    embed,
    ot_distance,
    retrain_and_eval,
    token_set,
    vocab_containment,
)
from .model import (
    TASK_CLASSIFICATION,
    TASK_NEXT_TOKEN,
    EvalMetrics,
    ModelConfig,
    ModelParams,
    OptimizerConfig,
    checkpoint_header,
    init_params,
    read_checkpoint,
    reject_unknown_keys,
    save_checkpoint,
    train,
)
from .selector import (
    ALL_METHODS,
    SCORING_RULES,
    SelectionResult,
    autolabel,
    load_selection,
    select_baseline,
    select_batch,
    select_greedy,
    synth_checkpoints,
    write_selection,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")

EXPERIMENT_KINDS = (
    "pipeline",
    "scaling",
    "leakage",
    "crossseed",
    "projection_dim",
    "optimizer",
    "metric_ablation",
)

_METRIC_FIELDS = (
    "accuracy",
    "mean_loss",
    "perplexity",
    "vocab_containment",
    "ot_distance",
    "leaked_selected",
)


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, original: Exception):
        super().__init__(f"[{stage}] {original}")


# The keys of ExperimentConfig.model: every ModelConfig field but the vocabulary size.
_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name != "vocab_size")
# The keys of ExperimentConfig.params that some experiment kind reads. One set
# for every kind, since a config may be rerun as another kind.
_PARAMS_KEYS = (
    "m_list", "leak_fractions", "leak_pool_size", "seed_corpora", "task_corpora",
    "k_list", "victim_optimizers", "retrain_optimizers", "replace_steps", "trials",
)
_INT_FIELDS = (
    "selection_size",
    "num_checkpoints",
    "projection_dim",
    "batch_window",
    "seq_len",
    "vocab_max_size",
    "ot_max_points",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of one experiment.

    ``to_dict`` and ``from_dict`` follow the fields; ``from_dict`` rejects a
    key that names no field. ``__post_init__`` turns JSON values into the
    field types (lists into tuples, optimizer dicts into ``OptimizerConfig``).
    """

    experiment: str
    corpus: str
    seeds: tuple[int, ...]
    selection_size: int
    out_dir: str = "runs"
    model: dict = field(default_factory=dict)
    victim_opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    retrain_opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed_corpus: str | None = None
    num_checkpoints: int = 1
    projection_dim: int = 4096
    scoring_rule: str = "cosine_sum"
    batch_window: int = 1000
    seq_len: int = 64
    vocab_max_size: int = 8192
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    validation_fraction: float = 0.1
    methods: tuple[str, ...] | None = None
    ot_max_points: int = 512
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("seeds", tuple(int(s) for s in self.seeds))
        for name in _INT_FIELDS:
            put(name, int(getattr(self, name)))
        put("fractions", tuple(self.fractions))
        put("validation_fraction", float(self.validation_fraction))
        if self.methods is not None:
            put("methods", tuple(self.methods))
        put("model", dict(self.model))
        put("params", dict(self.params))
        for name in ("victim_opt", "retrain_opt"):
            if isinstance(getattr(self, name), dict):
                put(name, OptimizerConfig.from_dict(getattr(self, name)))
        reject_unknown_keys(self.model, _MODEL_KEYS, "model")
        reject_unknown_keys(self.params, _PARAMS_KEYS, "params")
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.experiment!r}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.selection_size < 1:
            raise ValueError("selection_size must be positive")
        if self.num_checkpoints < 1:
            raise ValueError("num_checkpoints must be positive")
        unknown = set(self.methods or ()) - set(ALL_METHODS + ("expert",))
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if self.scoring_rule not in SCORING_RULES:
            raise ValueError(f"unknown scoring_rule {self.scoring_rule!r}")

    @property
    def task(self) -> str:
        return self.model.get("task", TASK_CLASSIFICATION)

    def method_list(self) -> tuple[str, ...]:
        if self.methods is not None:
            return self.methods
        if self.task == TASK_NEXT_TOKEN:
            return ("select", "select_batch", "random", "topk", "pmin", "pmax")
        return ALL_METHODS

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        reject_unknown_keys(data, (f.name for f in fields(cls)), "experiment")
        config = cls(**data)
        missing = [p for p in config._referenced_paths() if not Path(p).exists()]
        if missing:
            raise FileNotFoundError(f"config references missing paths: {missing}")
        return config

    def _referenced_paths(self) -> list[str]:
        paths = [self.corpus]
        if self.seed_corpus:
            paths.append(self.seed_corpus)
        for key in ("seed_corpora", "task_corpora"):
            paths.extend((self.params.get(key) or {}).values())
        return paths

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def config_hash(self) -> str:
        return _digest(self.to_dict())


@dataclass
class ReportBundle:
    rows: list[dict]
    aggregates: list[dict]
    provenance: dict

    def to_json(self, path: str | Path) -> None:
        payload = {
            "rows": self.rows,
            "aggregates": self.aggregates,
            "provenance": self.provenance,
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, self.rows)

    @classmethod
    def from_json(cls, path: str | Path) -> "ReportBundle":
        data = json.loads(Path(path).read_text())
        return cls(data["rows"], data["aggregates"], data["provenance"])


def write_csv(path: str | Path, rows: Sequence[dict]) -> None:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def aggregate_rows(rows: Sequence[dict]) -> list[dict]:
    """Mean of numeric metric fields over seeds, grouped by all other keys."""
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(
            (k, v) for k, v in row.items() if k != "seed" and k not in _METRIC_FIELDS
        )
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for key in order:
        members = groups[key]
        agg = dict(key)
        agg["num_seeds"] = len(members)
        for metric in _METRIC_FIELDS:
            values = [m[metric] for m in members if m.get(metric) is not None]
            if values:
                agg[metric] = float(np.mean(values))
        out.append(agg)
    return out


def _digest(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _file_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def _docs_digest(docs: DocumentSet) -> str:
    """sha256 of each document's text followed by its label ("None" when unlabeled)."""
    data = "".join([d.text + str(d.label) for d in docs]).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def carve_validation(
    docs: DocumentSet, fraction: float, seed: int
) -> tuple[DocumentSet, DocumentSet]:
    """Split off a validation slice; returns (rest, validation)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("validation fraction must be in (0, 1)")
    n = len(docs)
    n_val = max(1, int(round(fraction * n)))
    perm = np.random.default_rng(seed).permutation(n)
    return docs.subset(perm[n_val:]), docs.subset(perm[:n_val])


@dataclass
class RunContext:
    """Per-(config, seed) artifacts shared by every selection method."""

    run_seed: int
    vocab: Vocab
    train_docs: DocumentSet
    validation_docs: DocumentSet
    test_docs: DocumentSet
    seed_split: DocumentSet
    theta0: ModelParams
    theta_f: ModelParams
    victim_key: str


class Workspace:
    def __init__(self, out_dir: str | Path):
        self.cache_dir = Path(out_dir) / "cache"
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.cache_dir / name

    def victim_checkpoint(self, victim_key: str, name: str) -> Path:
        """Cached ``theta0`` or ``thetaf`` checkpoint of one victim."""
        return self.path(f"victim-{victim_key}.{name}.ckpt")

    def load(self, path: Path, read: Callable[[Path], T]) -> T | None:
        """``read(path)``, or None when the file is missing or ``read`` finds it
        truncated, malformed or stale (ValueError, or KeyError for a header
        without a key; logged): the caller then builds and writes it. Other
        errors, OS errors among them, would only recur on a rebuild and
        propagate."""
        if not path.exists():
            return None
        try:
            return read(path)
        except (ValueError, KeyError) as exc:
            reason = f"missing header key {exc}" if isinstance(exc, KeyError) else exc
            logger.warning("rebuilding unusable cached %s: %s", path.name.split("-")[0], reason)
            return None


def _stage(name: str, fn: Callable, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def model_config_for(config: ExperimentConfig, vocab: Vocab) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab.size,
        embed_dim=int(config.model.get("embed_dim", 32)),
        num_classes=int(config.model.get("num_classes", 2)),
        hidden_layer=bool(config.model.get("hidden_layer", False)),
        task=config.task,
    )


def _victim_params(path: Path) -> ModelParams:
    """A cached victim checkpoint; KeyError for the older format, whose header has no meta."""
    params, header = read_checkpoint(path)
    if "meta" not in header:
        raise KeyError("meta")
    return params


def prepare_run(
    config: ExperimentConfig, run_seed: int, workspace: Workspace
) -> RunContext:
    """Split, build vocab and train (or reuse) the victim for one seed."""
    corpus_docs = _stage("load-corpus", load_jsonl, config.corpus)
    train_all, seed_split, test_docs = _stage(
        "split", split, corpus_docs, tuple(config.fractions), run_seed
    )
    train_docs, validation_docs = _stage(
        "split", carve_validation, train_all, config.validation_fraction, run_seed
    )
    vocab = _stage("vocab", build_vocab, train_docs, config.vocab_max_size)
    model_cfg = model_config_for(config, vocab)
    victim_key = _digest(
        [
            "victim",
            _file_digest(config.corpus),
            list(config.fractions),
            config.validation_fraction,
            config.vocab_max_size,
            config.seq_len,
            model_cfg.to_dict(),
            config.victim_opt.to_dict(),
            run_seed,
        ]
    )
    theta0_path = workspace.victim_checkpoint(victim_key, "theta0")
    thetaf_path = workspace.victim_checkpoint(victim_key, "thetaf")
    # Looked up under thetaf, which is written last.
    victim = workspace.load(
        thetaf_path, lambda p: (_victim_params(theta0_path), _victim_params(p))
    )
    if victim is None:
        theta0 = init_params(model_cfg, run_seed)
        theta_f, _ = _stage(
            "train-victim",
            train,
            theta0,
            train_docs,
            config.victim_opt,
            vocab,
            config.seq_len,
            validation_docs,
        )
        meta = {
            "optimizer": config.victim_opt.kind,
            "seed": config.victim_opt.seed,
            "epochs": config.victim_opt.epochs,
        }
        save_checkpoint(theta0, theta0_path, meta)
        save_checkpoint(theta_f, thetaf_path, meta)
    else:
        theta0, theta_f = victim
    return RunContext(
        run_seed=run_seed,
        vocab=vocab,
        train_docs=train_docs,
        validation_docs=validation_docs,
        test_docs=test_docs,
        seed_split=seed_split,
        theta0=theta0,
        theta_f=theta_f,
        victim_key=victim_key,
    )


def build_candidate_pool(config: ExperimentConfig, ctx: RunContext) -> DocumentSet:
    """The seed corpus file, else the seed split, unlabeled, ids reassigned to pool positions."""
    if config.seed_corpus:
        return _stage("load-pool", load_jsonl, config.seed_corpus).unlabeled()
    return ctx.seed_split.unlabeled()


def autolabel_pool(
    config: ExperimentConfig, ctx: RunContext, pool: DocumentSet
) -> tuple[TokenBatch, np.ndarray | None]:
    """The encoded pool and its labels under the final model (None for next-token)."""
    batch = encode_documents(pool, ctx.vocab, config.seq_len)
    return batch, _stage("autolabel", autolabel, batch, ctx.theta_f)


@dataclass
class GradientArtifacts:
    """The pool's store, and the directions from the first read of ``dirs`` on.

    That read drops ``_inputs``, so the Projection's dense sign blocks do not
    stay resident through selection and retraining.
    """

    store: GradientStore
    _inputs: tuple | None  # (checkpoints, theta_f, the store build's Projection)

    @cached_property
    def dirs(self) -> list[np.ndarray]:
        checkpoints, theta_f, proj = self._inputs
        dirs = [-direction(ckpt, theta_f, proj) for ckpt in checkpoints]
        self._inputs = None
        return dirs


def gradient_stage(
    config: ExperimentConfig,
    ctx: RunContext,
    pool: DocumentSet,
    workspace: Workspace,
) -> GradientArtifacts:
    """Build (or reuse) the pool's store; the directions follow on first read.

    The pool is encoded and autolabeled only to build the store; after that
    its pseudolabels are read back from the store's aux block.

    The directions are computed on first read, with the Projection a store
    build used: the projected last-layer diffs oriented from the final model
    toward each synthetic checkpoint (-(theta_f - theta_hat_j)), the loss
    gradient of training-consistent data points away from the final model, so
    this orientation ranks such data highest.
    """
    k = config.projection_dim
    checkpoints = _stage(
        "synth-checkpoints",
        synth_checkpoints,
        ctx.theta0,
        ctx.theta_f,
        config.num_checkpoints,
    )
    model_cfg = ctx.theta0.config
    proj = Projection(model_cfg.last_layer_dim, k, seed=ctx.run_seed)
    store_key = _digest(
        [
            "store",
            ctx.victim_key,
            _docs_digest(pool),
            config.num_checkpoints,
            k,
            proj.seed,
            config.seq_len,
        ]
    )
    store_path = workspace.path(f"store-{store_key}.selg")

    def read(path: Path) -> GradientStore:
        cached = GradientStore(path)
        # Earlier versions stored k-wide rows for k >= D under the same key.
        if cached.k != proj.width:
            raise ValueError(f"cached store width {cached.k} is not {proj.width}")
        if cached.fingerprints != [c.fingerprint() for c in checkpoints]:
            raise ValueError("cached store was built from other checkpoints")
        # The final losses and pseudolabels come from theta_f, which the
        # checkpoint fingerprints miss at P=1. A header without it is stale.
        if cached.header.get("final_fingerprint") != ctx.theta_f.fingerprint():
            raise ValueError("cached store was built from other checkpoints (final model)")
        # The store is the only record of the pool's pseudolabels.
        if cached.num_examples != len(pool):
            raise ValueError(f"cached store has {cached.num_examples} rows, pool {len(pool)}")
        if model_cfg.task == TASK_CLASSIFICATION and not cached.has_labels:
            raise ValueError("cached classification store has no pseudolabels")
        return cached

    store = workspace.load(store_path, read)
    if store is None:
        batch, pseudolabels = autolabel_pool(config, ctx, pool)
        store = _stage(
            "build-store",
            build_store,
            checkpoints,
            batch,
            pseudolabels,
            ctx.theta_f,
            proj,
            store_path,
        )
    return GradientArtifacts(store, (checkpoints, ctx.theta_f, proj))


def run_selection(
    config: ExperimentConfig,
    ctx: RunContext,
    artifacts: GradientArtifacts,
    method: str,
    workspace: Workspace,
) -> SelectionResult:
    """``method``'s cached selection on the cell's store, else a fresh one.

    The key names the store file (victim, pool, P, k, seed, seq_len) and its
    header (a store rebuilt under that name misses), then the selection settings.
    """
    num_select = config.selection_size
    key = _digest(
        [
            "selection",
            artifacts.store.path.name,
            artifacts.store.header,
            method,
            config.scoring_rule,
            num_select,
            config.batch_window,
            ctx.run_seed,
        ]
    )
    path = workspace.path(f"sel-{key}.json")
    cached = workspace.load(path, load_selection)
    if cached is not None:
        return cached
    if method == "select":
        result = select_greedy(
            artifacts.store, artifacts.dirs, num_select, config.scoring_rule
        )
    elif method == "select_batch":
        result = select_batch(
            artifacts.store,
            artifacts.dirs,
            num_select,
            min(config.batch_window, artifacts.store.num_examples),
        )
    else:
        result = select_baseline(
            artifacts.store, artifacts.dirs, num_select, method, seed=ctx.run_seed
        )
    write_selection(
        result, path, config.num_checkpoints, config.projection_dim, [ctx.run_seed]
    )
    return result


def select_methods(
    config: ExperimentConfig,
    ctx: RunContext,
    pool: DocumentSet,
    artifacts: GradientArtifacts,
    methods: Sequence[str],
    workspace: Workspace,
) -> list[tuple[str, DocumentSet, SelectionResult | None]]:
    """(method, selected documents, selection) for each method, in order.

    The selected pool documents carry their pseudolabels from the store when
    it has them. ``expert`` selects nothing: it gets the training set and no
    selection, so it is retrained and scored on the hidden set itself.
    """
    chosen = []
    for method in methods:
        if method == "expert":
            chosen.append((method, ctx.train_docs, None))
            continue
        result = _stage("select", run_selection, config, ctx, artifacts, method, workspace)
        docs = pool.subset(result.indices)
        if artifacts.store.has_labels:
            docs = docs.with_labels(artifacts.store.pseudolabels[list(result.indices)])
        chosen.append((method, docs, result))
    return chosen


def retrain_selections(
    config: ExperimentConfig,
    ctx: RunContext,
    selections: Sequence[DocumentSet],
    workspace: Workspace,
) -> list[tuple[Path, EvalMetrics]]:
    """The cached model retrained from theta0 on each selection, and its test metrics.

    Each model is keyed by the victim (theta0, vocabulary, seq_len, validation
    and test sets), the selected texts and labels in order, and the retrain
    optimizer. The metrics are the meta in the checkpoint's header, so a hit
    reads one header and trains nothing, and equal selections train once.

    The misses train in lockstep. For classification, the misses of one size
    are stacked into one ``retrain_and_eval`` call, in which each model sees
    its solo run's batches and gets its solo run's bits. A next-token model
    trains alone: stacking would pad each batch to the widest of the K and so
    change the float32 head-gradient sums. Each model is saved under its own
    key, so a write that fails keeps the models saved before it.
    """
    lockstep = ctx.theta0.config.task == TASK_CLASSIFICATION
    paths: list[Path] = []
    found: dict[Path, EvalMetrics | None] = {}
    groups: dict[Any, dict[Path, DocumentSet]] = {}
    for selected in selections:
        key = _digest(
            ["retrain", ctx.victim_key, _docs_digest(selected), config.retrain_opt.to_dict()]
        )
        path = workspace.path(f"retrain-{key}.ckpt")
        paths.append(path)
        if path in found:
            continue  # an equal selection looked it up already
        found[path] = workspace.load(
            path, lambda p: EvalMetrics(**checkpoint_header(p)[0]["meta"])
        )
        if found[path] is None:
            groups.setdefault(len(selected) if lockstep else key, {})[path] = selected
    for group in groups.values():
        docs = [d for selected in group.values() for d in selected]
        models, metrics = _stage(
            "retrain", retrain_and_eval, ModelParams.stack([ctx.theta0] * len(group)),
            DocumentSet(Document(i, d.text, d.label) for i, d in enumerate(docs)),
            config.retrain_opt, ctx.test_docs, ctx.validation_docs, ctx.vocab, config.seq_len,
        )
        for path, model, eval_metrics in zip(group, models.models(), metrics):
            save_checkpoint(model, path, eval_metrics.to_dict())
            found[path] = eval_metrics
    return [(path, found[path]) for path in paths]


@dataclass
class Reference:
    """The set a cell's selections are scored against, with what scoring reads of it.

    Both are computed once per cell instead of once per method: ``tokens``,
    its token set, and ``embedded``, the embedding of the OT subsample
    ``recovery_ot`` draws from it, kept per selection size (the subsample
    depends on nothing else within one cell).
    """

    docs: DocumentSet
    tokens: frozenset[str] = field(init=False)
    embedded: dict[int, EmbeddingSet] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.tokens = token_set(self.docs)


def score_selection(
    config: ExperimentConfig,
    ctx: RunContext,
    selected: DocumentSet,
    reference: Reference,
    eval_metrics: EvalMetrics,
) -> MetricsReport:
    """Compare the selection to the reference set, next to its retrained model's test metrics."""
    containment = _stage("metrics", vocab_containment, selected, reference.tokens)
    ot = _stage("metrics", recovery_ot, config, ctx, selected, reference)
    return MetricsReport(eval_metrics, containment, ot)


def recovery_ot(
    config: ExperimentConfig,
    ctx: RunContext,
    selected: DocumentSet,
    reference: Reference,
):
    """Exact OT between equal-size subsamples of the two sets.

    Each subsample holds at most ``config.ot_max_points`` documents. Equal
    sizes keep the exact assignment path affordable at every scale the
    harness produces; the subsample is seeded by the run seed so repeated
    calls in one run are comparable. The reference subsample is drawn after
    the selected one from the same generator, so it depends only on
    ``len(selected)``: its embedding is computed once per size.
    """
    n = min(len(selected), len(reference.docs), config.ot_max_points)
    rng = np.random.default_rng(ctx.run_seed + 77_000)
    sel = selected.subset(np.sort(rng.choice(len(selected), n, replace=False)))
    if len(selected) not in reference.embedded:
        ref = reference.docs.subset(np.sort(rng.choice(len(reference.docs), n, replace=False)))
        reference.embedded[len(selected)] = embed(ref, ctx.theta0, ctx.vocab, config.seq_len)
    ea = embed(sel, ctx.theta0, ctx.vocab, config.seq_len)
    return ot_distance(ea, reference.embedded[len(selected)], mode="auto")


def _method_row(
    config: ExperimentConfig,
    ctx: RunContext,
    method: str,
    report: MetricsReport,
    num_select: int,
) -> dict:
    return {
        "experiment": config.experiment,
        "method": method,
        "seed": ctx.run_seed,
        "M": num_select,
        "P": config.num_checkpoints,
        "k": config.projection_dim,
        "rule": config.scoring_rule if method == "select" else "",
        "accuracy": report.eval_metrics.accuracy,
        "mean_loss": report.eval_metrics.mean_loss,
        "perplexity": report.eval_metrics.perplexity,
        "vocab_containment": report.vocab_containment,
        "ot_distance": report.ot.distance,
    }


@dataclass(frozen=True)
class Cell:
    """One grid point: the config its chain runs on, the methods it scores,
    and its grid coordinates, which are written into each of its rows."""

    config: ExperimentConfig
    methods: tuple[str, ...]
    fields: dict

    def label(self, run_seed: int) -> str:
        return "/".join([*(f"{k}={v}" for k, v in self.fields.items()), f"seed={run_seed}"])


def experiment_cells(config: ExperimentConfig) -> list[Cell]:
    """The grid of one experiment kind, built from ``config.params``."""
    kind, params = config.experiment, config.params
    ablation_methods = config.methods or ("select", "random")
    if kind == "scaling":
        return [
            Cell(replace(config, selection_size=m), config.method_list(), {"M": m})
            for m in params.get("m_list") or [100, 500, 1000]
        ]
    if kind == "leakage":
        return [
            Cell(config, ("select",), {"leak_fraction": frac})
            for frac in params.get("leak_fractions") or [0.1, 0.5, 0.9]
        ]
    if kind == "crossseed":
        seed_corpora = params.get("seed_corpora") or {}
        if not seed_corpora:
            raise ValueError("crossseed needs params.seed_corpora")
        task_corpora = params.get("task_corpora") or {"task": config.corpus}
        return [
            Cell(
                replace(config, corpus=task_path, seed_corpus=seed_path),
                ("select",),
                {"task": task_name, "seed_corpus": seed_name},
            )
            for task_name, task_path in task_corpora.items()
            for seed_name, seed_path in seed_corpora.items()
        ]
    if kind == "projection_dim":
        return [
            Cell(replace(config, projection_dim=k), ablation_methods, {"k": k})
            for k in params.get("k_list") or [512, 4096]
        ]
    if kind == "optimizer":
        cells = []
        for v_over in params.get("victim_optimizers") or [{"kind": "adam"}]:
            for r_over in params.get("retrain_optimizers") or [{"kind": "adam"}]:
                v_opt = OptimizerConfig.from_dict({**config.victim_opt.to_dict(), **v_over})
                r_opt = OptimizerConfig.from_dict({**config.retrain_opt.to_dict(), **r_over})
                cell_config = replace(config, victim_opt=v_opt, retrain_opt=r_opt)
                fields = {
                    **_optimizer_fields("victim", v_opt, v_over),
                    **_optimizer_fields("retrain", r_opt, r_over),
                }
                cells.append(Cell(cell_config, ablation_methods, fields))
        return cells
    if kind == "metric_ablation":
        return [Cell(config, ("select",), {})]
    return [Cell(config, config.method_list(), {})]


def _optimizer_fields(role: str, opt: OptimizerConfig, override: dict) -> dict:
    """``<role>_optimizer`` (the kind) plus ``<role>_<key>`` for every other overridden key."""
    fields = {f"{role}_optimizer": opt.kind}
    fields.update((f"{role}_{key}", value) for key, value in override.items() if key != "kind")
    return fields


def _cell_rows(cell: Cell, ctx: RunContext, workspace: Workspace) -> list[dict]:
    """pool -> size check -> gradient_stage -> select_methods ->
    retrain_selections -> score_selection for every method -> rows.

    A leakage cell mixes ``leak_pool_size`` documents from the training set
    and the candidate pool. Every method selects before any model trains, so
    the cell's retrains run in lockstep.
    """
    config = cell.config
    pool = build_candidate_pool(config, ctx)
    leak_fraction = cell.fields.get("leak_fraction")
    if leak_fraction is not None:
        size = int(config.params.get("leak_pool_size") or 1000)
        mix_seed = ctx.run_seed + int(leak_fraction * 1000)
        seed_pool = _stage("pool", mix_leakage, ctx.train_docs, pool, leak_fraction, size, mix_seed)
        pool = seed_pool.documents
    if config.selection_size > len(pool):
        error = f"selection_size {config.selection_size} exceeds pool size {len(pool)}"
        raise StageError("pool", ValueError(error))
    artifacts = gradient_stage(config, ctx, pool, workspace)
    chosen = select_methods(config, ctx, pool, artifacts, cell.methods, workspace)
    reference = Reference(ctx.train_docs)
    if config.experiment == "metric_ablation":
        return [
            row for _, docs, _ in chosen for row in _replace_trial_rows(config, ctx, docs, reference)
        ]
    retrained = retrain_selections(config, ctx, [selected for _, selected, _ in chosen], workspace)
    rows = []
    for (method, selected, result), (_, eval_metrics) in zip(chosen, retrained):
        report = score_selection(config, ctx, selected, reference, eval_metrics)
        row = {**_method_row(config, ctx, method, report, len(selected)), **cell.fields}
        if leak_fraction is not None:
            row["leaked_selected"] = int(seed_pool.leak_mask[list(result.indices)].sum())
        rows.append(row)
    return rows


def _replace_trial_rows(
    config: ExperimentConfig, ctx: RunContext, recovered: DocumentSet, reference: Reference
) -> list[dict]:
    """Swap recovered documents for ground truth stepwise, watch both metrics."""
    steps = config.params.get("replace_steps") or [round(0.1 * i, 1) for i in range(11)]
    trials = int(config.params.get("trials") or 5)
    truth = reference.docs
    num_select = len(recovered)
    rows: list[dict] = []
    for step in steps:
        n_replace = int(round(step * num_select))
        for trial in range(trials):
            rng = np.random.default_rng(ctx.run_seed * 1000 + trial)
            replace_pos = rng.choice(num_select, size=n_replace, replace=False)
            truth_pos = rng.choice(len(truth), size=n_replace, replace=False)
            texts = [d.text for d in recovered]
            for p, t in zip(replace_pos, truth_pos):
                texts[int(p)] = truth[int(t)].text
            mixed = DocumentSet(
                Document(i, text, None) for i, text in enumerate(texts)
            )
            containment = _stage("metrics", vocab_containment, mixed, reference.tokens)
            ot = _stage("metrics", recovery_ot, config, ctx, mixed, reference)
            rows.append({
                "experiment": config.experiment, "method": "select", "seed": ctx.run_seed,
                "replace_fraction": step, "trial": trial,
                "vocab_containment": containment, "ot_distance": ot.distance,
            })
    return rows


def _seed_job(
    config_dict: dict, run_seed: int
) -> tuple[list[tuple[int, dict]], dict, list[str]]:
    """Every cell of one seed; a failing cell records its error and the rest run.

    Returns (cell index, row) pairs, and checkpoint checksums and errors keyed
    by the cell's label.
    """
    config = ExperimentConfig.from_dict(config_dict)
    workspace = Workspace(config.out_dir)
    rows: list[tuple[int, dict]] = []
    checksums: dict = {}
    errors: list[str] = []
    for index, cell in enumerate(experiment_cells(config)):
        label = cell.label(run_seed)
        try:
            ctx = prepare_run(cell.config, run_seed, workspace)
            cell_rows = _cell_rows(cell, ctx, workspace)
        except Exception as exc:
            logger.exception("%s failed", label)
            errors.append(f"{label}: {exc}")
            continue
        rows.extend((index, row) for row in cell_rows)
        checksums[label] = {
            "theta0": ctx.theta0.fingerprint(),
            "theta_f": ctx.theta_f.fingerprint(),
        }
    return rows, checksums, errors


def _run_jobs(
    job_fn: Callable, jobs: list[tuple], parallel: int
) -> list:
    if parallel <= 1 or len(jobs) <= 1:
        return [job_fn(*args) for args in jobs]
    with ProcessPoolExecutor(max_workers=parallel) as pool:
        futures = [pool.submit(job_fn, *args) for args in jobs]
        return [f.result() for f in futures]


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> ReportBundle:
    """Every cell of the config's grid for every seed, ``parallel`` seeds at a time.

    Rows come in (cell, method, seed) order. metric_ablation runs the first
    seed only.
    """
    cells = experiment_cells(config)
    seeds = config.seeds[:1] if config.experiment == "metric_ablation" else config.seeds
    results = _run_jobs(_seed_job, [(config.to_dict(), s) for s in seeds], parallel)
    tagged = sorted(
        (pair for seed_rows, _, _ in results for pair in seed_rows),
        key=lambda t: (t[0], cells[t[0]].methods.index(t[1]["method"]), t[1]["seed"]),
    )
    rows = [row for _, row in tagged]
    return ReportBundle(
        rows=rows,
        aggregates=aggregate_rows(rows),
        provenance={
            "config_hash": config.config_hash(),
            "toolkit_version": __version__,
            "checkpoint_checksums": {k: v for _, sums, _ in results for k, v in sums.items()},
            "errors": [error for _, _, errors in results for error in errors],
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
    )


# perfbench calls and traces the pipeline under this name.
run_pipeline = run_experiment


_FIGURE_AXES = {
    "scaling": ("M", ("accuracy", "perplexity")),
    "leakage": ("leak_fraction", ("accuracy", "ot_distance", "leaked_selected")),
    "projection_dim": ("k", ("accuracy", "perplexity")),
    "metric_ablation": ("replace_fraction", ("vocab_containment", "ot_distance")),
}


def emit_reports(config: ExperimentConfig, bundle: ReportBundle) -> None:
    """Write report.json/report.csv and per-figure CSV, and one SVG per y field."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle.to_json(out / "report.json")
    bundle.to_csv(out / "report.csv")
    axes = _FIGURE_AXES.get(config.experiment)
    if axes is None or not bundle.aggregates:
        return
    fig_dir = out / "figures"
    fig_dir.mkdir(exist_ok=True)
    x_field, y_fields = axes
    write_csv(fig_dir / f"{config.experiment}.csv", bundle.aggregates)
    for y_field in y_fields:
        points = [
            a for a in bundle.aggregates if a.get(x_field) is not None and a.get(y_field) is not None
        ]
        if points:
            _write_svg(
                fig_dir / f"{config.experiment}_{y_field}.svg", points, x_field, y_field
            )


_SVG_W, _SVG_H = 480, 320
_PLOT_LEFT, _PLOT_RIGHT, _PLOT_TOP, _PLOT_BOTTOM = 60, 360, 20, 270
_SVG_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"
)


def _axis_range(values: list[float]) -> tuple[float, float]:
    """Min and max of ``values``, widened around a zero span so scaling never divides by 0."""
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = 0.5 * (abs(lo) or 1.0)
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _write_svg(path: Path, points: list[dict], x_field: str, y_field: str) -> None:
    """Draw one polyline per method (sorted by x) on linear axes, with a legend.

    Points with a non-finite coordinate are dropped. The output depends only on
    ``points`` and the field names, so equal inputs give byte-identical files.
    """
    # Imported here: saxutils pulls in urllib.request, which every pipeline run
    # would otherwise pay for at import time.
    from xml.sax.saxutils import escape

    groups: dict[str, list[tuple[float, float]]] = {}
    for p in points:
        x, y = float(p[x_field]), float(p[y_field])
        if math.isfinite(x) and math.isfinite(y):
            groups.setdefault(str(p.get("method", "series")), []).append((x, y))
    x_lo, x_hi = _axis_range([x for pts in groups.values() for x, _ in pts])
    y_lo, y_hi = _axis_range([y for pts in groups.values() for _, y in pts])

    def sx(x: float) -> float:
        return _PLOT_LEFT + (x - x_lo) / (x_hi - x_lo) * (_PLOT_RIGHT - _PLOT_LEFT)

    def sy(y: float) -> float:
        return _PLOT_BOTTOM - (y - y_lo) / (y_hi - y_lo) * (_PLOT_BOTTOM - _PLOT_TOP)

    x_title, y_title = escape(x_field), escape(y_field)
    mid_x, mid_y = (_PLOT_LEFT + _PLOT_RIGHT) / 2, (_PLOT_TOP + _PLOT_BOTTOM) / 2
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="11">',
        f"<title>{y_title} vs {x_title}</title>",
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<path d="M{_PLOT_LEFT},{_PLOT_TOP} V{_PLOT_BOTTOM} H{_PLOT_RIGHT}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_PLOT_LEFT}" y="{_PLOT_BOTTOM + 14}" text-anchor="start">{x_lo:.4g}</text>',
        f'<text x="{_PLOT_RIGHT}" y="{_PLOT_BOTTOM + 14}" text-anchor="end">{x_hi:.4g}</text>',
        f'<text x="{_PLOT_LEFT - 4}" y="{_PLOT_BOTTOM}" text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{_PLOT_LEFT - 4}" y="{_PLOT_TOP + 8}" text-anchor="end">{y_hi:.4g}</text>',
        f'<text x="{mid_x:g}" y="{_SVG_H - 12}" text-anchor="middle">{x_title}</text>',
        f'<text x="14" y="{mid_y:g}" text-anchor="middle" '
        f'transform="rotate(-90 14 {mid_y:g})">{y_title}</text>',
    ]
    for i, (name, pts) in enumerate(sorted(groups.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = [(sx(x), sy(y)) for x, y in sorted(pts)]
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
            + " ".join(f"{cx:.2f},{cy:.2f}" for cx, cy in coords)
            + '"/>'
        )
        lines.extend(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="{color}"/>' for cx, cy in coords
        )
        ly = _PLOT_TOP + 8 + 16 * i
        lines.append(
            f'<line x1="{_PLOT_RIGHT + 12}" y1="{ly - 4}" x2="{_PLOT_RIGHT + 32}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(f'<text x="{_PLOT_RIGHT + 36}" y="{ly}">{escape(name)}</text>')
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
