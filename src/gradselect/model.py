"""Small differentiable victim model with native optimizers and checkpoints.

The backbone is deliberately minimal: mean-pooled token embeddings, an
optional tanh hidden layer, and a linear softmax head. Two tasks are
supported: a C-way classifier (one label per document) and a next-token
predictor (per-position V-way softmax over a causal mean-pooled context).
Everything is plain numpy; gradients are analytic.

One softmax head serves both tasks. ``_head_positions`` turns a batch into
prediction positions (one per document for classification, one per token
but the last for next-token), and everything downstream runs one path over
them: hidden layer, log-softmax, the NLL, the softmax - onehot residual, and
the head and hidden-layer backprop. Three things stay per task: the pooling,
its backward scatter into the embedding, and the gradient scale. The
classification scatter is one float64 ``bincount`` over (token row, column);
next-token scatters its float32 position terms with ``_scatter_add_rows``.

K models that share a configuration can run as one: ``ModelParams.stack``
gives every block a leading model axis, and the batch's ids, lengths and
labels then have shape (K, b, s), (K, b) and (K, b). The algebra is written
once over that optional axis: the gather reads row ``ids + k*V`` of the
embedding flattened to (K*V, h), the matmuls are batched over k, and every
reduction runs within one model, so a stacked classification step gives each
model the bits of its own step. ``train`` and ``evaluate`` take stacked
params too.

Batched kernels run only up to the longest valid column of their batch
(``_unpad``): the padding past it would be computed and then zeroed by the
mask, so cutting it changes no value.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import DocumentSet, TokenSeq, Vocab, atomic_write, encode_documents

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


@dataclass(frozen=True)
class ForwardPass:
    pooled_hidden: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


def _embedding_rows(params: ModelParams, ids: np.ndarray) -> np.ndarray:
    """The row of each token in the embedding flattened to (K*V, h): ids + k*V in model k."""
    if params.num_models is None:
        return ids
    return ids + (np.arange(params.num_models) * params.config.vocab_size)[:, None, None]


def _head_positions(
    params: ModelParams,
    ids: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Forward pass over the prediction positions of a batch, for either task.

    Returns (context, z, logp, targets, mask) for b documents of T positions,
    each with a leading model axis K for stacked params:

    - context (b, T, h): the pooled input of each position;
    - z (b, T, h): context after the optional tanh hidden layer;
    - logp (b, T, D): log-softmax of the head;
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
    classify = cfg.task == TASK_CLASSIFICATION
    if classify and np.any(lens < 1):
        raise ValueError("every document must have at least 1 token")
    if not classify and np.any(lens < 2):
        raise ValueError("next-token documents need at least 2 tokens")
    ids = _unpad(ids, lens)
    s, h = ids.shape[-1], cfg.embed_dim
    tok_mask = np.arange(s) < lens[..., None]
    emb = params.embedding.reshape(-1, h)[_embedding_rows(params, ids)] * tok_mask[..., None]
    if classify:
        context = (emb.sum(axis=-2) / lens[..., None])[..., None, :]
        targets = None if labels is None else np.asarray(labels)[..., None]
        mask = np.ones(lens.shape + (1,), dtype=bool)
    else:
        counts = np.arange(1, s, dtype=params.embedding.dtype)
        context = np.cumsum(emb, axis=-2)[..., :-1, :] / counts[:, None]
        targets = ids[..., 1:]
        mask = tok_mask[..., 1:]
    z = context.reshape(*params.embedding.shape[:-2], -1, h)
    if cfg.hidden_layer:
        z = np.tanh(z @ _swap(params.hidden_w) + params.hidden_b[..., None, :])
    logp = _log_softmax(z @ _swap(params.head_w) + params.head_b[..., None, :])
    logp = logp.reshape(*context.shape[:-1], cfg.head_dim)
    return context, z.reshape(context.shape), logp, targets, mask


def _at_targets(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of every position's target entry in a (b*T, D) view of (b, T, D)."""
    return np.arange(targets.size), targets.ravel()


def _example_nll(logp: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(b,) negative log-likelihood of each document, averaged over its positions."""
    nll = -logp.reshape(-1, logp.shape[-1])[_at_targets(targets)].reshape(targets.shape)
    return (nll * mask).sum(axis=-1) / mask.sum(axis=-1)


def _residual(logp: np.ndarray, targets: np.ndarray, dtype) -> np.ndarray:
    """(b, T, D) softmax - onehot(targets) in ``dtype``, at every position."""
    err = np.exp(logp).astype(dtype)
    err.reshape(-1, err.shape[-1])[_at_targets(targets)] -= 1.0
    return err


def forward(params: ModelParams, x: TokenSeq) -> ForwardPass:
    """Single-example forward pass; next-token returns one row per position."""
    if x.valid_len < 1:
        raise ValueError("valid_len must be at least 1")
    ids = np.asarray(x.ids, dtype=np.int64)[None, :]
    lens = np.array([x.valid_len], dtype=np.int64)
    _, z, logp, _, _ = _head_positions(params, ids, lens)
    z, logp = z[0], logp[0]
    if params.config.task == TASK_CLASSIFICATION:
        z, logp = z[0], logp[0]
    logits = z @ params.head_w.T + params.head_b
    return ForwardPass(z, logits, np.exp(logp))


def loss(params: ModelParams, x: TokenSeq, y=None) -> float:
    """Cross-entropy for one example.

    Classification scores label ``y``; next-token scores the sequence's own
    next tokens and takes no ``y``.
    """
    labels = None
    if params.config.task == TASK_CLASSIFICATION:
        if y is None:
            raise ValueError("classification loss needs a label")
        y = int(y)
        if not 0 <= y < params.config.num_classes:
            raise ValueError(
                f"label {y} out of range for {params.config.num_classes} classes"
            )
        labels = np.array([y], dtype=np.int64)
    elif y is not None:
        raise ValueError("next-token loss takes no label: its targets are the sequence itself")
    ids = np.asarray(x.ids, dtype=np.int64)[None, :]
    lens = np.array([x.valid_len], dtype=np.int64)
    return float(_per_example_losses(params, ids, lens, labels)[0])


def batch_mean_loss(
    params: ModelParams, ids: np.ndarray, lens: np.ndarray, labels: np.ndarray | None
) -> float:
    """Mean loss over a batch (classification label vector or self-targets)."""
    return float(_per_example_losses(params, ids, lens, labels).mean())


def _per_example_losses(
    params: ModelParams, ids: np.ndarray, lens: np.ndarray, labels: np.ndarray | None
) -> np.ndarray:
    """(b,) loss of each document: its mean NLL over its prediction positions."""
    _, _, logp, targets, mask = _head_positions(params, ids, lens, labels)
    return _example_nll(logp, targets, mask)


def batch_loss_and_grads(
    params: ModelParams,
    ids: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None,
) -> tuple[float | np.ndarray, dict[str, np.ndarray]]:
    """Mean batch loss and analytic gradients for every parameter block.

    Stacked params give a (K,) loss, one per model, and stacked gradients.
    """
    cfg = params.config
    dtype = params.embedding.dtype
    lead = params.embedding.shape[:-2]
    n, h = ids.shape[-2], cfg.embed_dim
    ids = _unpad(ids, lens)
    context, z, logp, targets, mask = _head_positions(params, ids, lens, labels)
    loss_val = _example_nll(logp, targets, mask).mean(axis=-1)
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
    # The backward of the pooling scatters into the embedding rows of the tokens.
    rows = _embedding_rows(params, ids)
    if cfg.task == TASK_CLASSIFICATION:
        # One position per document: each valid token gets its document's
        # row / len. One float64 bincount over (row, column) adds each entry's
        # terms in token order, as a segment sum over stably sorted rows would.
        tokens = np.nonzero(np.arange(ids.shape[-1]) < lens[..., None])
        contrib = (dcontext / lens[..., None].astype(dtype))[tokens[:-1]]
        bins = (rows[tokens][:, None] * h + np.arange(h)).ravel()
        d_emb = np.bincount(bins, contrib.ravel(), minlength=params.embedding.size)
        grads["embedding"] = d_emb.astype(dtype).reshape(params.embedding.shape)
    else:
        counts = np.arange(1, ids.shape[-1], dtype=dtype)
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
    its own step would.
    """
    if state is None:
        state = OptimizerState()
    blocks = params.blocks()
    lr = opt.learning_rate
    if opt.kind == "sgd":
        for name, block in blocks.items():
            block -= (lr * grads[name]).astype(block.dtype)
        state.step += 1
        return params, state
    t = state.step + 1
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    for name, block in blocks.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(block)
            state.v[name] = np.zeros_like(block)
        m = state.m[name]
        v = state.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.epsilon)
        if opt.kind == "adamw":
            update = update + opt.weight_decay * block
        block -= (lr * update).astype(block.dtype)
    state.step = t
    return params, state


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
    """
    if len(data) == 0:
        raise ValueError("training data is empty")
    num_models = initial.num_models
    if num_models is not None and len(data) % num_models:
        raise ValueError(f"{len(data)} documents do not split into {num_models} equal slices")
    lead = () if num_models is None else (num_models,)
    batch = encode_documents(data, vocab, seq_len)
    ids = batch.ids.reshape(*lead, -1, batch.ids.shape[-1])
    lens = batch.valid_len.reshape(*lead, -1)
    labels = None
    if initial.config.task == TASK_CLASSIFICATION:
        labels = data.labels()
        if labels.min() < 0 or labels.max() >= initial.config.num_classes:
            raise ValueError("labels out of range for model head")
        labels = labels.reshape(lens.shape)
    val_batch = val_labels = None
    if validation is not None and len(validation) > 0:
        val_batch = encode_documents(validation, vocab, seq_len)
        if initial.config.task == TASK_CLASSIFICATION:
            val_labels = validation.labels()

    params = initial.copy()
    state: OptimizerState | None = None
    rng = np.random.default_rng(opt.seed)
    traces: list[list[float]] = [[] for _ in range(num_models or 1)]
    best_loss = [np.inf] * len(traces)
    best: list[ModelParams | None] = [None] * len(traces)
    n = lens.shape[-1]
    for epoch in range(opt.epochs):
        perm = rng.permutation(n)
        epoch_losses: list[list[float]] = [[] for _ in traces]
        for b, start in enumerate(range(0, n, opt.batch_size)):
            take = perm[start : start + opt.batch_size]
            batch_labels = None if labels is None else labels[..., take]
            loss_val, grads = batch_loss_and_grads(
                params, ids[..., take, :], lens[..., take], batch_labels
            )
            losses = np.atleast_1d(loss_val)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                kind = "NaN" if np.isnan(losses[bad[0]]) else "inf"
                where = "" if num_models is None else f" of model {bad[0]}"
                raise RuntimeError(f"{kind} loss in epoch {epoch} batch {b}{where}")
            params, state = optimizer_step(params, grads, state, opt)
            for model_losses, value in zip(epoch_losses, losses):
                model_losses.append(value)
        for trace, model_losses in zip(traces, epoch_losses):
            trace.append(float(np.mean(model_losses)))
        if val_batch is not None:
            for k, model in enumerate(params.models()):
                val_loss = batch_mean_loss(model, val_batch.ids, val_batch.valid_len, val_labels)
                if val_loss < best_loss[k]:
                    best_loss[k] = val_loss
                    best[k] = model.copy()
    final = [kept if kept is not None else last for kept, last in zip(best, params.models())]
    if num_models is None:
        return final[0], traces[0]
    return ModelParams.stack(final), traces


def evaluate(
    params: ModelParams, test: DocumentSet, vocab: Vocab, seq_len: int = 64
) -> EvalMetrics | list[EvalMetrics]:
    """Accuracy/mean loss for classification; mean loss/perplexity otherwise.

    Stacked params score the test set with each model in turn, which holds one
    model's activations at a time: one EvalMetrics per model.
    """
    if len(test) == 0:
        raise ValueError("test set is empty")
    batch = encode_documents(test, vocab, seq_len)
    labels = test.labels() if params.config.task == TASK_CLASSIFICATION else None
    out = []
    for model in params.models():
        _, _, logp, targets, mask = _head_positions(model, batch.ids, batch.valid_len, labels)
        mean_loss = float(_example_nll(logp, targets, mask).mean())
        if labels is not None:
            accuracy = float((logp[:, 0].argmax(axis=1) == labels).mean())
            out.append(EvalMetrics(mean_loss=mean_loss, accuracy=accuracy))
        else:
            out.append(EvalMetrics(mean_loss=mean_loss, perplexity=float(np.exp(mean_loss))))
    return out if params.num_models is not None else out[0]


def save_checkpoint(
    params: ModelParams, path: str | Path, meta: dict | None = None
) -> None:
    """Binary little-endian checkpoint; tensors stored row-major float32."""
    params.validate()
    cfg = params.config
    tensors = [
        {"name": name, "shape": list(block.shape)}
        for name, block in params.blocks().items()
    ]
    header = dict(cfg.to_dict(), tensors=tensors)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    meta_path = Path(f"{path}.meta.json")
    if meta is not None:
        # Written first, so a checkpoint at ``path`` implies its meta is complete.
        with atomic_write(meta_path) as fh:
            fh.write(json.dumps(meta, sort_keys=True).encode("utf-8"))
    try:
        with atomic_write(path) as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            for block in params.blocks().values():
                fh.write(np.ascontiguousarray(block, dtype="<f4").tobytes())
    except BaseException:
        # A meta whose checkpoint failed describes nothing.
        if meta is not None:
            meta_path.unlink(missing_ok=True)
        raise


def _read_exact(fh, count: int, what: str = "checkpoint") -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(f"unexpected end of {what}")
    return data


def load_checkpoint(path: str | Path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(
                f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
            )
        version, header_len = struct.unpack("<II", _read_exact(fh, 8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(_read_exact(fh, header_len).decode("utf-8"))
        config = ModelConfig.from_dict(header)
        expected = _expected_shapes(config)
        loaded: dict[str, np.ndarray] = {}
        declared = [t["name"] for t in header["tensors"]]
        if declared != list(expected):
            raise ValueError(
                f"checkpoint tensors {declared} do not match config blocks"
            )
        for tensor in header["tensors"]:
            shape = tuple(tensor["shape"])
            if shape != expected[tensor["name"]]:
                raise ValueError(
                    f"tensor {tensor['name']} shape {shape} does not match header"
                )
            count = int(np.prod(shape))
            raw = _read_exact(fh, 4 * count)
            loaded[tensor["name"]] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return ModelParams(
        config=config,
        embedding=loaded["embedding"],
        head_w=loaded["head_w"],
        head_b=loaded["head_b"],
        hidden_w=loaded.get("hidden_w"),
        hidden_b=loaded.get("hidden_b"),
    )
