"""Recovery-quality metrics: lexical containment, optimal transport, utility.

The embedding space for the transport metric comes from the base model's own
embedding table (mean-pooled, L2-normalized) so the toolkit needs no external
sentence encoder. Exact transport is solved as an assignment problem when the
two sets have equal size (uniform weights make a permutation optimal) and as
a transportation LP otherwise; larger instances fall back to entropically
regularized Sinkhorn iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix
from scipy.spatial.distance import cdist

from .corpus import DocumentSet, Vocab, encode_documents, split_tokens
from .model import EvalMetrics, ModelParams, OptimizerConfig, _unpad, evaluate, train

EXACT_COST_LIMIT = 4_000_000
# auto mode keeps the (slower) unequal-size LP for small instances only
_AUTO_LP_LIMIT = 120_000
DEFAULT_SINKHORN_EPSILON = 0.05
DEFAULT_SINKHORN_MAX_ITERS = 2000
_SINKHORN_TOL = 1e-6


@dataclass(frozen=True)
class EmbeddingSet:
    """Unit-norm document embeddings (n, h)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("embeddings must be a non-empty (n, h) matrix")
        norms = np.linalg.norm(v, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-5):
            raise ValueError("embedding rows must be unit-norm")
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class OTResult:
    distance: float
    mode: str
    epsilon: float | None = None
    iterations: int = 0
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "distance": self.distance,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "converged": self.converged,
        }


def vocab_containment(a: DocumentSet, b: DocumentSet) -> float:
    """max(|Ta & Tb| / |Ta|, |Ta & Tb| / |Tb|) over the two token sets."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("containment needs two non-empty document sets")
    ta: set[str] = set()
    for d in a:
        ta.update(split_tokens(d.text))
    tb: set[str] = set()
    for d in b:
        tb.update(split_tokens(d.text))
    if not ta or not tb:
        raise ValueError("containment needs non-empty token sets")
    inter = len(ta & tb)
    return max(inter / len(ta), inter / len(tb))


def embed(
    docs: DocumentSet,
    base: ModelParams,
    vocab: Vocab,
    seq_len: int = 64,
) -> EmbeddingSet:
    """Mean of base-model embedding rows over non-padding tokens, L2-normalized."""
    if len(docs) == 0:
        raise ValueError("cannot embed an empty document set")
    batch = encode_documents(docs, vocab, seq_len)
    if np.any(batch.valid_len < 1):
        raise ValueError("cannot embed an all-padding document")
    ids = _unpad(batch.ids, batch.valid_len)
    table = base.embedding.astype(np.float64)
    emb = table[ids.astype(np.int64)]
    mask = np.arange(ids.shape[1])[None, :] < batch.valid_len[:, None]
    pooled = (emb * mask[:, :, None]).sum(axis=1) / batch.valid_len[:, None]
    norms = np.linalg.norm(pooled, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValueError("document embedding collapsed to the zero vector")
    return EmbeddingSet(pooled / norms)


def _as_points(e) -> np.ndarray:
    """EmbeddingSet or raw (n, h) array -> float64 point cloud."""
    vectors = e.vectors if isinstance(e, EmbeddingSet) else np.asarray(e, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("expected a non-empty (n, h) point matrix")
    return vectors


def _cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return cdist(a, b, metric="euclidean")


def _exact_ot(cost: np.ndarray) -> float:
    n, m = cost.shape
    if n == m:
        # uniform weights admit a permutation optimum (Birkhoff)
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() / n)
    rows: list[int] = []
    cols: list[int] = []
    for i in range(n):
        rows.extend([i] * m)
        cols.extend(range(i * m, (i + 1) * m))
    for j in range(m):
        rows.extend([n + j] * n)
        cols.extend(range(j, n * m, m))
    a_eq = coo_matrix(
        (np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)
    )
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1)
    return m + np.log(np.exp(x - m[:, None]).sum(axis=1))


def _sinkhorn(
    cost: np.ndarray, epsilon: float, max_iters: int
) -> tuple[float, int, bool]:
    """Log-domain Sinkhorn on uniform marginals; returns <plan, cost>."""
    n, m = cost.shape
    log_a = np.full(n, -np.log(n))
    log_b = np.full(m, -np.log(m))
    kernel = -cost / epsilon
    kernel_t = np.ascontiguousarray(kernel.T)
    u = np.zeros(n)
    v = np.zeros(m)
    converged = False
    iterations = max_iters
    for it in range(1, max_iters + 1):
        u = log_a - _logsumexp_rows(kernel + v[None, :])
        v = log_b - _logsumexp_rows(kernel_t + u[None, :])
        if it % 10 == 0 or it == max_iters:
            plan = np.exp(kernel + u[:, None] + v[None, :])
            violation = max(
                np.abs(plan.sum(axis=1) - 1.0 / n).max(),
                np.abs(plan.sum(axis=0) - 1.0 / m).max(),
            )
            if violation < _SINKHORN_TOL:
                converged = True
                iterations = it
                break
    plan = np.exp(kernel + u[:, None] + v[None, :])
    return float((plan * cost).sum()), iterations, converged


def ot_distance(
    ea,
    eb,
    mode: str = "auto",
    epsilon: float = DEFAULT_SINKHORN_EPSILON,
    max_iters: int = DEFAULT_SINKHORN_MAX_ITERS,
) -> OTResult:
    """Transport distance between two uniform point clouds.

    Inputs are EmbeddingSets or raw (n, h) arrays. mode "exact" solves the
    LP (allowed up to 4e6 cost entries), "sinkhorn" runs entropic scaling
    until the marginal violation drops below 1e-6 or max_iters is hit
    (flagged, distance still returned). "auto" picks exact while it is
    affordable and escalates to sinkhorn beyond that.
    """
    a, b = _as_points(ea), _as_points(eb)
    n, m = a.shape[0], b.shape[0]
    cells = n * m
    if mode == "auto":
        if n == m and cells <= EXACT_COST_LIMIT:
            mode = "exact"
        elif cells <= _AUTO_LP_LIMIT:
            mode = "exact"
        else:
            mode = "sinkhorn"
    if mode == "exact":
        if cells > EXACT_COST_LIMIT:
            raise ValueError(
                f"exact mode allows at most {EXACT_COST_LIMIT} cost entries, got {cells}"
            )
        return OTResult(distance=_exact_ot(_cost_matrix(a, b)), mode="exact")
    if mode != "sinkhorn":
        raise ValueError(f"unknown OT mode {mode!r}")
    if epsilon <= 0:
        raise ValueError("sinkhorn needs epsilon > 0")
    distance, iterations, converged = _sinkhorn(_cost_matrix(a, b), epsilon, max_iters)
    return OTResult(
        distance=distance,
        mode="sinkhorn",
        epsilon=epsilon,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class MetricsReport:
    """All recovery metrics for one (selected set, reference set) pair."""

    eval_metrics: EvalMetrics
    vocab_containment: float
    ot: OTResult

    def to_dict(self) -> dict:
        out = self.eval_metrics.to_dict()
        out["vocab_containment"] = self.vocab_containment
        out["ot"] = self.ot.to_dict()
        return out


def retrain_and_eval(
    theta0: ModelParams,
    selected: DocumentSet,
    opt: OptimizerConfig,
    test: DocumentSet,
    validation: DocumentSet | None,
    vocab: Vocab,
    seq_len: int = 64,
) -> EvalMetrics:
    """Train from theta0 on the selected (pseudolabeled) set, report test metrics.

    The returned snapshot is the best-validation epoch when a validation set
    is provided.
    """
    if len(selected) == 0:
        raise ValueError("selection is empty")
    final, _ = train(theta0, selected, opt, vocab, seq_len, validation)
    return evaluate(final, test, vocab, seq_len)
