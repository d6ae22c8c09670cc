"""Small differentiable victim model with native optimizers and checkpoints.

The backbone is deliberately minimal: mean-pooled token embeddings, an
optional tanh hidden layer, and a linear softmax head. Two tasks are
supported: a C-way classifier (one label per document) and a next-token
predictor (per-position V-way softmax over a causal mean-pooled context).
Everything is plain numpy; gradients are analytic.

One softmax head serves both tasks. ``_head_logits`` turns a batch into
prediction positions (one per document for classification, one per token
but the last for next-token), and everything downstream runs one path over
them: hidden layer, log-softmax, the NLL, the softmax - onehot residual, and
the head and hidden-layer backprop. Three things stay per task: the pooling,
its backward scatter into the embedding, and the gradient scale. The
classification scatter multiplies each document's gradient row by a sparse
(table row, document) count matrix, which adds the terms of every row in
float64 and in token order, as a float64 ``bincount`` would; next-token
scatters its float32 position terms with ``_scatter_add_rows``.

A batch reads its tokens as rows of a padded table (``_padded_table``): the
embedding of every model flattened to (K*V, h), then one zero row. Token
``id`` of model k is row ``id + k*V`` and every padding position is the zero
row (``_table_rows``), so the gather needs no mask: padding adds +0.0 to a
pooled sum. ``train`` builds the table and the rows once per call and trains
the embedding as a view of its table; ``_head_positions``,
``_per_example_losses`` and ``batch_loss_and_grads`` take token ids and build
both per call.

K models that share a configuration can run as one: ``ModelParams.stack``
gives every block a leading model axis, and a batch's rows, lengths and
labels then have shape (K, b, s), (K, b) and (K, b). The algebra is written
once over that optional axis: the matmuls are batched over k, and every
reduction runs within one model, so a stacked classification step gives each
model the bits of its own step. ``train`` scores its validation set for all K
models in one pass; ``evaluate`` takes stacked params too.

Batched kernels run only up to the longest valid column of their batch
(``_unpad``): the padding past it reads only the zero row, so cutting it
changes no value.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from .corpus import DocumentSet, Vocab, atomic_write, encode_documents

CHECKPOINT_MAGIC = b"SELC"
CHECKPOINT_VERSION = 1

TASK_CLASSIFICATION = "classification"
TASK_NEXT_TOKEN = "next_token"
TASKS = (TASK_CLASSIFICATION, TASK_NEXT_TOKEN)

OPTIMIZER_KINDS = ("sgd", "adam", "adamw")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int
    num_classes: int = 2
    hidden_layer: bool = False
    task: str = TASK_CLASSIFICATION

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.vocab_size < 3:
            raise ValueError("vocab_size must be at least 3")
        if self.embed_dim < 2:
            raise ValueError("embed_dim must be at least 2")
        if self.task == TASK_CLASSIFICATION and self.num_classes < 2:
            raise ValueError("num_classes must be at least 2 for classification")

    @property
    def head_dim(self) -> int:
        """Output dimension: C for classification, V for next-token."""
        if self.task == TASK_NEXT_TOKEN:
            return self.vocab_size
        return self.num_classes

    @property
    def last_layer_dim(self) -> int:
        """Flattened size of (head weight, head bias)."""
        return self.head_dim * self.embed_dim + self.head_dim

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "V": self.vocab_size,
            "h": self.embed_dim,
            "C": self.num_classes,
            "hidden_layer": self.hidden_layer,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(
            vocab_size=int(data["V"]),
            embed_dim=int(data["h"]),
            num_classes=int(data["C"]),
            hidden_layer=bool(data["hidden_layer"]),
            task=str(data["task"]),
        )


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray
    hidden_w: np.ndarray | None = None
    hidden_b: np.ndarray | None = None

    def blocks(self) -> dict[str, np.ndarray]:
        """Parameter blocks in canonical order."""
        out = {"embedding": self.embedding}
        if self.config.hidden_layer:
            out["hidden_w"] = self.hidden_w
            out["hidden_b"] = self.hidden_b
        out["head_w"] = self.head_w
        out["head_b"] = self.head_b
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            embedding=self.embedding.copy(),
            head_w=self.head_w.copy(),
            head_b=self.head_b.copy(),
            hidden_w=None if self.hidden_w is None else self.hidden_w.copy(),
            hidden_b=None if self.hidden_b is None else self.hidden_b.copy(),
        )

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(
            config=self.config,
            embedding=self.embedding.astype(dtype),
            head_w=self.head_w.astype(dtype),
            head_b=self.head_b.astype(dtype),
            hidden_w=None if self.hidden_w is None else self.hidden_w.astype(dtype),
            hidden_b=None if self.hidden_b is None else self.hidden_b.astype(dtype),
        )

    @property
    def num_models(self) -> int | None:
        """K for params stacked along a leading model axis, None for one model."""
        return self.embedding.shape[0] if self.embedding.ndim == 3 else None

    @classmethod
    def stack(cls, models: Sequence["ModelParams"]) -> "ModelParams":
        """K models of one config as one, every block with a leading model axis."""
        names = models[0].blocks()
        blocks = {n: np.stack([m.blocks()[n] for m in models]) for n in names}
        return cls(models[0].config, **blocks)

    def models(self) -> list["ModelParams"]:
        """Each model of stacked params, as views of its blocks; ``[self]`` for one model."""
        if self.num_models is None:
            return [self]
        blocks = self.blocks()
        return [
            ModelParams(self.config, **{n: b[k] for n, b in blocks.items()})
            for k in range(self.num_models)
        ]

    def compatible_with(self, other: "ModelParams") -> bool:
        """Interpolation compatibility: identical configs."""
        return self.config == other.config

    def validate(self) -> None:
        expected = _expected_shapes(self.config)
        for name, block in self.blocks().items():
            if block is None or tuple(block.shape) != expected[name]:
                raise ValueError(f"block {name} has wrong shape")
            if not np.isfinite(block).all():
                raise ValueError(f"block {name} contains non-finite entries")

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(json.dumps(self.config.to_dict(), sort_keys=True).encode())
        for name, block in self.blocks().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(block, dtype=np.float32).tobytes())
        return digest.hexdigest()


def _expected_shapes(config: ModelConfig) -> dict[str, tuple]:
    shapes = {"embedding": (config.vocab_size, config.embed_dim)}
    if config.hidden_layer:
        shapes["hidden_w"] = (config.embed_dim, config.embed_dim)
        shapes["hidden_b"] = (config.embed_dim,)
    shapes["head_w"] = (config.head_dim, config.embed_dim)
    shapes["head_b"] = (config.head_dim,)
    return shapes


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Gaussian weights with std 1/sqrt(h) (unit expected row norm), zero biases."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(config.embed_dim)
    embedding = rng.normal(0.0, scale, (config.vocab_size, config.embed_dim))
    hidden_w = hidden_b = None
    if config.hidden_layer:
        hidden_w = rng.normal(0.0, scale, (config.embed_dim, config.embed_dim))
        hidden_b = np.zeros(config.embed_dim)
    head_w = rng.normal(0.0, scale, (config.head_dim, config.embed_dim))
    head_b = np.zeros(config.head_dim)
    params = ModelParams(
        config=config,
        embedding=embedding.astype(np.float32),
        head_w=head_w.astype(np.float32),
        head_b=head_b.astype(np.float32),
        hidden_w=None if hidden_w is None else hidden_w.astype(np.float32),
        hidden_b=None if hidden_b is None else hidden_b.astype(np.float32),
    )
    return params


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        reject_unknown_keys(data, (f.name for f in fields(cls)), "optimizer")
        return cls(**data)


def reject_unknown_keys(data: dict, known: Iterable[str], what: str) -> None:
    """Raise ValueError naming every key of ``data`` outside ``known``."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} config key(s): {', '.join(unknown)}")


@dataclass
class OptimizerState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EvalMetrics:
    mean_loss: float
    accuracy: float | None = None
    perplexity: float | None = None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "mean_loss": self.mean_loss,
            "perplexity": self.perplexity,
        }


def _shifted(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logits - their row max, in place, and the log of each row's sum of exp)."""
    logits -= logits.max(axis=-1, keepdims=True)
    return logits, np.log(np.exp(logits).sum(axis=-1, keepdims=True))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """The log-softmax of every row, computed in the memory of ``logits``."""
    shifted, lse = _shifted(logits)
    shifted -= lse
    return shifted


def _scatter_add_rows(dest: np.ndarray, ids: np.ndarray, contrib: np.ndarray) -> None:
    """dest[ids[i]] += contrib[i], vectorized via segment sums.

    Equivalent to np.add.at but orders of magnitude faster for wide rows.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    boundaries = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    sums = np.add.reduceat(contrib[order], boundaries, axis=0)
    dest[sorted_ids[boundaries]] += sums


def _unpad(ids: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """ids cut to the longest valid length; the columns past it hold only padding."""
    return ids[..., : lens.max(initial=0)]


def _swap(a: np.ndarray) -> np.ndarray:
    """The transpose of every matrix of a (possibly stacked) array."""
    return np.swapaxes(a, -1, -2)


def _padded_table(embedding: np.ndarray) -> np.ndarray:
    """The embedding of every model as one (K*V + 1, h) table whose last row is zero."""
    h = embedding.shape[-1]
    table = np.zeros((embedding.size // h + 1, h), dtype=embedding.dtype)
    table[:-1] = embedding.reshape(-1, h)
    return table


def _table_rows(params: ModelParams, ids: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The row of every token in the padded table, cut to the longest document.

    Token ``id`` of model k reads row id + k*V, and every position past its
    document's length reads the zero row K*V. Raises ValueError for a document
    too short for the task: classification needs 1 token, next-token 2.
    """
    if params.config.task == TASK_CLASSIFICATION and np.any(lens < 1):
        raise ValueError("every document must have at least 1 token")
    if params.config.task == TASK_NEXT_TOKEN and np.any(lens < 2):
        raise ValueError("next-token documents need at least 2 tokens")
    ids = _unpad(ids, lens).astype(np.intp)
    if params.num_models is not None:
        ids = ids + (np.arange(params.num_models) * params.config.vocab_size)[:, None, None]
    pad = params.embedding.size // params.config.embed_dim
    return np.where(np.arange(ids.shape[-1]) < lens[..., None], ids, pad)


def _head_logits(
    params: ModelParams,
    table: np.ndarray,
    rows: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Forward pass over the prediction positions of a batch, for either task.

    ``rows`` are the ``_table_rows`` of the batch in ``table``, the
    ``_padded_table`` of ``params``, cut to its longest document. Returns
    (context, z, logits, targets, mask) for b documents of T positions, each
    with a leading model axis K for stacked params:

    - context (b, T, h): the pooled input of each position;
    - z (b, T, h): context after the optional tanh hidden layer;
    - logits (b, T, D): the output of the head;
    - targets (b, T) int: the target of each position, None for
      classification without labels;
    - mask (b, T) bool: the positions with a target.

    Classification has T = 1: the mean of every valid token (float64), with
    the label as target. Next-token has T = s - 1 over the unpadded width s:
    position t is the mean of tokens 0..t (in the embedding dtype), with token
    t + 1 as target. The head matmuls run on the positions flattened into the
    batch axis.
    """
    cfg = params.config
    s, h = rows.shape[-1], cfg.embed_dim
    # Padding reads the zero row, so it adds +0.0 to every sum over positions.
    if cfg.task == TASK_CLASSIFICATION:
        # Gathered position-major, the sum adds whole (b, h) slabs in position order.
        pooled = table[np.moveaxis(rows, -1, 0)].sum(axis=0)
        context = (pooled / lens[..., None])[..., None, :]
        targets = None if labels is None else np.asarray(labels)[..., None]
        mask = np.ones(lens.shape + (1,), dtype=bool)
    else:
        counts = np.arange(1, s, dtype=table.dtype)
        context = np.cumsum(table[rows], axis=-2)[..., :-1, :] / counts[:, None]
        # Row id + k*V holds token id; the zero row K*V gives PAD (0), a
        # position the mask drops.
        targets = rows[..., 1:] % cfg.vocab_size
        mask = np.arange(1, s) < lens[..., None]
    z = context.reshape(*params.embedding.shape[:-2], -1, h)
    if cfg.hidden_layer:
        z = np.tanh(z @ _swap(params.hidden_w) + params.hidden_b[..., None, :])
    logits = z @ _swap(params.head_w) + params.head_b[..., None, :]
    logits = logits.reshape(*context.shape[:-1], cfg.head_dim)
    return context, z.reshape(context.shape), logits, targets, mask


def _head_positions(
    params: ModelParams,
    ids: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """``_head_logits`` of a batch of token ids, with the log-softmax (b, T, D) for the logits."""
    table = _padded_table(params.embedding)
    rows = _table_rows(params, ids, lens)
    context, z, logits, targets, mask = _head_logits(params, table, rows, lens, labels)
    return context, z, _log_softmax(logits), targets, mask


def _at_targets(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of every position's target entry in a (b*T, D) view of (b, T, D)."""
    return np.arange(targets.size), targets.ravel()


def _target_nll(logp: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(b, T) negative log-probability of each position's target."""
    return -logp.reshape(-1, logp.shape[-1])[_at_targets(targets)].reshape(targets.shape)


def _example_nll(nll: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(b,) mean of each document's (b, T) position NLL over its masked positions."""
    return (nll * mask).sum(axis=-1) / mask.sum(axis=-1)


def _losses(
    params: ModelParams,
    table: np.ndarray,
    rows: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None,
) -> np.ndarray:
    """(b,) loss of each document, read at its targets without the full log-softmax."""
    _, _, logits, targets, mask = _head_logits(params, table, rows, lens, labels)
    shifted, lse = _shifted(logits)
    logp = shifted.reshape(-1, shifted.shape[-1])[_at_targets(targets)] - lse.ravel()
    return _example_nll(-logp.reshape(targets.shape), mask)


def _residual(logp: np.ndarray, targets: np.ndarray, dtype) -> np.ndarray:
    """(b, T, D) softmax - onehot(targets) in ``dtype``, at every position."""
    err = np.exp(logp).astype(dtype, copy=False)
    err.reshape(-1, err.shape[-1])[_at_targets(targets)] -= 1.0
    return err


def batch_mean_loss(
    params: ModelParams, ids: np.ndarray, lens: np.ndarray, labels: np.ndarray | None
) -> float:
    """Mean loss over a batch (classification label vector or self-targets)."""
    return float(_per_example_losses(params, ids, lens, labels).mean())


def _per_example_losses(
    params: ModelParams, ids: np.ndarray, lens: np.ndarray, labels: np.ndarray | None
) -> np.ndarray:
    """(b,) loss of each document: its mean NLL over its prediction positions."""
    table = _padded_table(params.embedding)
    return _losses(params, table, _table_rows(params, ids, lens), lens, labels)


def batch_loss_and_grads(
    params: ModelParams,
    ids: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None,
) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
    """Mean batch loss and analytic gradients for every parameter block.

    Stacked params give a (K,) loss, one per model, and stacked gradients.
    """
    table = _padded_table(params.embedding)
    return _loss_and_grads(params, table, _table_rows(params, ids, lens), lens, labels)


def _loss_and_grads(
    params: ModelParams,
    table: np.ndarray,
    rows: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None,
) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
    """``batch_loss_and_grads`` of a batch given as ``rows`` of ``table``."""
    cfg = params.config
    dtype = table.dtype
    lead = params.embedding.shape[:-2]
    n, h = lens.shape[-1], cfg.embed_dim
    rows = _unpad(rows, lens)
    context, z, logits, targets, mask = _head_logits(params, table, rows, lens, labels)
    logp = _log_softmax(logits)
    loss_val = _example_nll(_target_nll(logp, targets), mask).mean(axis=-1)
    # The residual keeps the head's dtype: float64 for classification, float32
    # for next-token. The scale spreads the batch mean over the positions.
    err = _residual(logp, targets, logp.dtype)
    if cfg.task == TASK_CLASSIFICATION:
        err /= n
    else:
        err *= (mask / (mask.sum(axis=-1)[..., None] * n)).astype(dtype)[..., None]
    err, z = err.reshape(*lead, -1, cfg.head_dim), z.reshape(*lead, -1, h)
    grads = {"head_w": _swap(err) @ z, "head_b": err.sum(axis=-2)}
    dcontext = err @ params.head_w
    if cfg.hidden_layer:
        da = dcontext * (1.0 - z * z)
        grads["hidden_w"] = _swap(da) @ context.reshape(*lead, -1, h)
        grads["hidden_b"] = da.sum(axis=-2)
        dcontext = da @ params.hidden_w
    # The backward of the pooling scatters into the table rows of the tokens.
    if cfg.task == TASK_CLASSIFICATION:
        # One position per document: each valid token gets its document's
        # row / len. The product with the sparse (table row, document) count
        # matrix adds them in float64, to each row in (document, position)
        # order, as one float64 bincount over (row, column) would.
        contrib = (dcontext / lens[..., None].astype(dtype)).reshape(-1, h)
        # The valid tokens' rows in (model, document, position) order, and
        # where each document's run of them starts.
        tokens = rows[rows < len(table) - 1]
        starts = np.zeros(lens.size + 1, dtype=np.intp)
        np.cumsum(lens, out=starts[1:])
        occurs = sparse.csc_array(
            (np.ones(tokens.size), tokens, starts), shape=(len(table) - 1, lens.size)
        )
        grads["embedding"] = (occurs @ contrib).astype(dtype).reshape(params.embedding.shape)
    else:
        counts = np.arange(1, rows.shape[-1], dtype=dtype)
        dcsum = dcontext.reshape(context.shape) / counts[:, None]
        # token at position u feeds every context t >= u: suffix-sum over t
        dpos = np.flip(np.cumsum(np.flip(dcsum, axis=-2), axis=-2), axis=-2)
        # float32 terms: a float64 sum would round differently.
        d_emb = np.zeros_like(params.embedding)
        _scatter_add_rows(d_emb.reshape(-1, h), rows[..., :-1][mask], dpos[mask])
        grads["embedding"] = d_emb
    return loss_val, grads


def optimizer_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState | None,
    opt: OptimizerConfig,
) -> tuple[ModelParams, OptimizerState]:
    """Apply one update in place; moments are tracked per parameter block.

    Every operation is elementwise, so stacked params update each model as
    its own step would. The state holds each block's moments and scratch
    arrays, allocated at its first step, so a block's gradient keeps one dtype
    from step to step. A float64 gradient (the classification head's) meets
    the float32 moments in float64 and is rounded on store.
    """
    if state is None:
        state = OptimizerState()
    lr = opt.learning_rate
    t = state.step + 1
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    for name, block in params.blocks().items():
        g = grads[name]
        if name not in state.scratch:
            state.scratch[name] = (np.empty_like(g), np.empty_like(block), np.empty_like(block))
        if opt.kind != "sgd" and name not in state.m:
            state.m[name] = np.zeros_like(block)
            state.v[name] = np.zeros_like(block)
        gs, update, denom = state.scratch[name]
        if opt.kind == "sgd":
            np.multiply(g, lr, out=update)
            block -= update
            continue
        m = state.m[name]
        v = state.v[name]
        m *= opt.beta1
        m += np.multiply(g, 1.0 - opt.beta1, out=gs)
        v *= opt.beta2
        np.multiply(g, 1.0 - opt.beta2, out=gs)
        v += np.multiply(gs, g, out=gs)
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += opt.epsilon
        np.divide(m, bc1, out=update)
        update /= denom
        if opt.kind == "adamw":
            update += np.multiply(block, opt.weight_decay, out=denom)
        update *= lr
        block -= update
    state.step = t
    return params, state


def _head_labels(docs: DocumentSet, config: ModelConfig) -> np.ndarray | None:
    """The labels of non-empty ``docs`` for a classification head, None for next-token.

    Raises ValueError if any label lies outside [0, C): indexing the head with
    -1 would silently read the last class.
    """
    if config.task != TASK_CLASSIFICATION:
        return None
    labels = docs.labels()
    if labels.min() < 0 or labels.max() >= config.num_classes:
        raise ValueError("labels out of range for model head")
    return labels


def train(
    initial: ModelParams,
    data: DocumentSet,
    opt: OptimizerConfig,
    vocab: Vocab,
    seq_len: int = 64,
    validation: DocumentSet | None = None,
) -> tuple[ModelParams, list]:
    """Mini-batch training; returns (params, per-epoch mean training loss).

    With a validation set the returned params are the epoch-end snapshot with
    the lowest validation loss (ties broken by the earlier epoch).

    Stacked ``initial`` params of K models train model k on the k-th of K
    equal slices of ``data``. One permutation orders every slice, each model
    keeps its own best-epoch snapshot, a non-finite loss in any model raises,
    and the trace holds one per-epoch list per model.

    The embedding trains as a view of a ``_padded_table`` owned by this call.
    Every document's ``_table_rows`` are built once and reordered once per
    epoch, so a batch is a slice, and the optimizer updates in place. Each
    epoch scores the validation set once for all K models. The returned
    params own their arrays.
    """
    if len(data) == 0:
        raise ValueError("training data is empty")
    num_models = initial.num_models
    if num_models is not None and len(data) % num_models:
        raise ValueError(f"{len(data)} documents do not split into {num_models} equal slices")
    lead = () if num_models is None else (num_models,)
    params = initial.copy()
    table = _padded_table(params.embedding)
    params.embedding = table[:-1].reshape(params.embedding.shape)
    batch = encode_documents(data, vocab, seq_len)
    lens = batch.valid_len.reshape(*lead, -1)
    rows = _table_rows(params, batch.ids.reshape(*lead, -1, batch.ids.shape[-1]), lens)
    labels = _head_labels(data, params.config)
    if labels is not None:
        labels = labels.reshape(lens.shape)
    val_rows = val_lens = val_labels = None
    if validation is not None and len(validation) > 0:
        val_batch = encode_documents(validation, vocab, seq_len)
        val_lens = np.broadcast_to(val_batch.valid_len, (*lead, len(validation)))
        val_rows = _table_rows(params, val_batch.ids, val_lens)
        val_labels = _head_labels(validation, params.config)
        if val_labels is not None:
            val_labels = np.broadcast_to(val_labels, val_lens.shape)

    state: OptimizerState | None = None
    rng = np.random.default_rng(opt.seed)
    n = lens.shape[-1]
    starts = range(0, n, opt.batch_size)
    traces: list[list[float]] = [[] for _ in range(num_models or 1)]
    epoch_losses = np.empty((len(traces), len(starts)))
    best_loss = np.full(len(traces), np.inf)
    best: list[ModelParams | None] = [None] * len(traces)
    for epoch in range(opt.epochs):
        perm = rng.permutation(n)
        epoch_rows, epoch_lens = rows[..., perm, :], lens[..., perm]
        epoch_labels = None if labels is None else labels[..., perm]
        for b, start in enumerate(starts):
            take = slice(start, start + opt.batch_size)
            loss_val, grads = _loss_and_grads(
                params,
                table,
                epoch_rows[..., take, :],
                epoch_lens[..., take],
                None if epoch_labels is None else epoch_labels[..., take],
            )
            losses = epoch_losses[:, b]
            losses[:] = loss_val
            if not np.isfinite(losses).all():
                bad = np.flatnonzero(~np.isfinite(losses))[0]
                kind = "NaN" if np.isnan(losses[bad]) else "inf"
                where = "" if num_models is None else f" of model {bad}"
                raise RuntimeError(f"{kind} loss in epoch {epoch} batch {b}{where}")
            params, state = optimizer_step(params, grads, state, opt)
        # A contiguous row per model: the same pairwise mean as a list's.
        for trace, model_losses in zip(traces, epoch_losses):
            trace.append(float(model_losses.mean()))
        if val_rows is not None:
            val_loss = _losses(params, table, val_rows, val_lens, val_labels).mean(axis=-1)
            for k, (model, loss) in enumerate(zip(params.models(), np.atleast_1d(val_loss))):
                if loss < best_loss[k]:
                    best_loss[k] = loss
                    best[k] = model.copy()
    final = [kept if kept is not None else last.copy() for kept, last in zip(best, params.models())]
    if num_models is None:
        return final[0], traces[0]
    return ModelParams.stack(final), traces


def evaluate(
    params: ModelParams, test: DocumentSet, vocab: Vocab, seq_len: int = 64
) -> EvalMetrics | list[EvalMetrics]:
    """Accuracy/mean loss for classification; mean loss/perplexity otherwise.

    Stacked params score the test set with each model in turn: one
    EvalMetrics per model. Unlike ``train``'s validation pass, this holds one
    model's activations at a time, because a stacked forward over the test set
    raised the peak RSS of a run by 11%. Accuracy is the argmax of the
    log-softmax.
    """
    if len(test) == 0:
        raise ValueError("test set is empty")
    batch = encode_documents(test, vocab, seq_len)
    labels = _head_labels(test, params.config)
    out = []
    for model in params.models():
        _, _, logp, targets, mask = _head_positions(model, batch.ids, batch.valid_len, labels)
        mean_loss = float(_example_nll(_target_nll(logp, targets), mask).mean())
        if labels is not None:
            accuracy = float((logp[:, 0].argmax(axis=1) == labels).mean())
            out.append(EvalMetrics(mean_loss=mean_loss, accuracy=accuracy))
        else:
            out.append(EvalMetrics(mean_loss=mean_loss, perplexity=float(np.exp(mean_loss))))
    return out if params.num_models is not None else out[0]


def save_checkpoint(params: ModelParams, path: str | Path, meta: dict | None = None) -> None:
    """Binary little-endian checkpoint in one atomic write: a JSON header (config,
    tensor names and shapes, ``meta``), then the tensors, row-major float32."""
    params.validate()
    tensors = [{"name": name, "shape": list(b.shape)} for name, b in params.blocks().items()]
    header = dict(params.config.to_dict(), tensors=tensors, meta=meta)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        write_header(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header_bytes)
        for block in params.blocks().values():
            fh.write(np.ascontiguousarray(block, dtype="<f4").tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(f"unexpected end of {what}")
    return data


def write_header(fh, magic: bytes, version: int, header_bytes: bytes) -> None:
    """The frame of every binary file: magic, u32 version, u32 header length, JSON header."""
    fh.write(magic)
    fh.write(struct.pack("<II", version, len(header_bytes)))
    fh.write(header_bytes)


def read_header(
    path: str | Path, magic: bytes, version: int, what: str, floats: Callable[[dict], int]
) -> tuple[dict, int]:
    """The JSON header of a ``write_header`` file and the offset of the data after it.

    ``floats(header)`` checks the header and returns the number of float32
    values it says follow; a file of any other size is truncated or padded.
    """
    with open(path, "rb") as fh:
        found = _read_exact(fh, 4, what)
        if found != magic:
            raise ValueError(f"bad {what} magic {found!r}, expected {magic!r}")
        found_version, header_len = struct.unpack("<II", _read_exact(fh, 8, what))
        if found_version != version:
            raise ValueError(f"unsupported {what} version {found_version}")
        header = json.loads(_read_exact(fh, header_len, what).decode("utf-8"))
        size = Path(path).stat().st_size
    offset = 12 + header_len
    expected = offset + 4 * floats(header)
    if size != expected:
        raise ValueError(f"unexpected end of {what}: {size} bytes, expected {expected}")
    return header, offset


def _checkpoint_floats(header: dict) -> int:
    """The float count of a checkpoint whose tensors match its config, else ValueError."""
    expected = list(_expected_shapes(ModelConfig.from_dict(header)).items())
    declared = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
    if declared != expected:
        raise ValueError(f"checkpoint tensor shapes {declared} do not match config {expected}")
    return sum(math.prod(shape) for _, shape in expected)


def checkpoint_header(path: str | Path) -> tuple[dict, int]:
    """A checkpoint's checked header (config, tensors, meta) and the offset of its tensors."""
    return read_header(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", _checkpoint_floats)


def read_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """A checkpoint's parameters and its checked header, which is read once."""
    header, offset = checkpoint_header(path)
    config = ModelConfig.from_dict(header)
    flat = np.fromfile(path, dtype="<f4", offset=offset)
    blocks, start = {}, 0
    for name, shape in _expected_shapes(config).items():
        blocks[name] = flat[start : start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    return ModelParams(config=config, **blocks), header


def load_checkpoint(path: str | Path) -> ModelParams:
    return read_checkpoint(path)[0]
