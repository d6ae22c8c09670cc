"""Greedy gradient-aligned selection and its baselines.

Selection scores candidates by how well their (projected) head gradients,
summed with the running selection, align with the projected weight diff at
each synthetic checkpoint. Three scoring rules are supported:

- ``dot``: static alignment, equivalent to top-k by score;
- ``cosine_sum`` (default): cosine of the running sum against each diff,
  which saturates on redundant picks and balances the batch;
- ``residual``: alignment with what is left of the diff after subtracting
  the running sum.

Every selector reads the static terms <g_i, d_j> and |g_i|^2 from one
float64 pass, ``GradientStore.scores``. ``select_greedy`` is the windowed
loop of ``select_batch`` with one window of all n rows.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import TokenBatch, atomic_write
from .gradstore import GradientStore, scan_scores
from .model import TASK_CLASSIFICATION, ModelParams, _head_positions

logger = logging.getLogger(__name__)

SCORING_RULES = ("dot", "cosine_sum", "residual")
BASELINE_METHODS = ("random", "topk", "topk_balanced", "pmin", "pmax")
ALL_METHODS = ("select", "select_batch") + BASELINE_METHODS

# Squared norms this far below the operand magnitudes are cancellation
# residue: the summed vector is treated as zero (cosine undefined -> -inf).
# The float32 cross term leaves up to about 1.2e-7 of the operand magnitudes
# after an exact cancellation, at any k up to 4096.
_ZERO_SUM_REL = 1e-6


@dataclass(frozen=True)
class SelectionResult:
    indices: list[int]
    step_scores: list[float]
    rule: str
    method: str

    def __post_init__(self):
        if len(self.indices) != len(set(self.indices)):
            raise ValueError("selected indices must be distinct")
        if len(self.step_scores) != len(self.indices):
            raise ValueError("one step score per selected index")


def synth_checkpoints(
    theta0: ModelParams, theta_f: ModelParams, num_checkpoints: int
) -> list[ModelParams]:
    """Linear interpolations theta_hat_j = (1 - j/P) theta0 + (j/P) theta_f.

    j runs 0..P-1: the start point is included, the final model is not
    (its diff direction is identically zero).
    """
    if num_checkpoints < 1:
        raise ValueError("num_checkpoints must be at least 1")
    if not theta0.compatible_with(theta_f):
        raise ValueError("checkpoints have incompatible configs")
    blocks0 = theta0.blocks()
    blocksf = theta_f.blocks()
    out = [theta0.copy()]
    for j in range(1, num_checkpoints):
        t = j / num_checkpoints
        interp = theta0.copy()
        for name, block in interp.blocks().items():
            mixed = (
                blocks0[name].astype(np.float64) * (1.0 - t)
                + blocksf[name].astype(np.float64) * t
            )
            block[:] = mixed.astype(block.dtype)
        out.append(interp)
    return out


def autolabel(batch: TokenBatch, theta_f: ModelParams) -> np.ndarray | None:
    """Pseudolabels from the final model's class posterior (ties -> lowest class).

    Next-token models use the sequence itself as target, so there is nothing
    to label and None is returned.
    """
    if theta_f.config.task != TASK_CLASSIFICATION:
        return None
    labels = np.empty(len(batch), dtype=np.int64)
    step = 512
    ids = np.asarray(batch.ids, dtype=np.int64)
    lens = np.asarray(batch.valid_len, dtype=np.int64)
    for s0 in range(0, len(batch), step):
        s1 = min(s0 + step, len(batch))
        _, _, logp, _, _ = _head_positions(theta_f, ids[s0:s1], lens[s0:s1])
        labels[s0:s1] = logp[:, 0].argmax(axis=1)
    return labels


class _GreedyEngine:
    """Stateful scorer for the greedy loop.

    The static terms (<g_i, d_j> and |g_i|^2) are the store's float64 pass,
    ``GradientStore.scores``; the running-sum algebra is float64 too. Each
    step scores the rows [lo, hi) it is asked for: the cross term
    <running sum, g_i> is one float32 matrix-vector product per checkpoint
    over the mapped store rows of that range. The store's data is 64-byte
    aligned (see gradstore), so the product reads them in place.
    """

    def __init__(self, store: GradientStore, dirs: Sequence[np.ndarray], rule: str):
        if rule not in SCORING_RULES:
            raise ValueError(f"unknown scoring rule {rule!r}")
        self.static, self.sqnorm = store.scores(dirs)
        self.store = store
        self.rule = rule
        self.dirs = [np.asarray(d, dtype=np.float64) for d in dirs]
        n, p = store.num_examples, store.num_checkpoints
        self.d_norm = np.array([np.linalg.norm(d) for d in self.dirs])
        self.sums = np.zeros((p, store.k))
        self.sum_sq = np.zeros(p)
        self.sum_dot_d = np.zeros(p)
        self.selected = np.zeros(n, dtype=bool)
        self.indices: list[int] = []
        self.step_scores: list[float] = []

    def _cross(self, j: int, lo: int, hi: int) -> np.ndarray:
        """<running sum, g_i> for rows [lo, hi), in float32."""
        return self.store.block(j)[lo:hi] @ self.sums[j].astype(np.float32)

    def scores(self, lo: int, hi: int) -> np.ndarray:
        """Scores of rows [lo, hi) against the current running sums."""
        if self.rule == "dot":
            return self.static[:, lo:hi].sum(axis=0)
        total = np.zeros(hi - lo)
        for j in range(self.store.num_checkpoints):
            static = self.static[j, lo:hi]
            if self.rule == "residual":
                total += static - self._cross(j, lo, hi)
                continue
            if self.d_norm[j] == 0.0:
                continue  # degenerate checkpoint: no signal either way
            cross = self._cross(j, lo, hi)
            sqnorm = self.sqnorm[j, lo:hi]
            num = static + self.sum_dot_d[j]
            sq = self.sum_sq[j] + 2.0 * cross + sqnorm
            scale = self.sum_sq[j] + sqnorm
            zero = sq <= _ZERO_SUM_REL * (scale + 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                term = num / (np.sqrt(np.maximum(sq, 0.0)) * self.d_norm[j])
            term[zero] = -np.inf
            total += term
        return total

    def pick(self, lo: int, hi: int) -> tuple[int, float]:
        """Best unselected row in [lo, hi); ties go to the lowest index."""
        idx = np.flatnonzero(~self.selected[lo:hi])
        if idx.size == 0:
            raise ValueError("no remaining candidates")
        scores = self.scores(lo, hi)[idx]
        pos = int(np.argmax(scores))
        return lo + int(idx[pos]), float(scores[pos])

    def add(self, i: int, score: float) -> None:
        self.selected[i] = True
        self.indices.append(int(i))
        self.step_scores.append(score)
        for j in range(self.store.num_checkpoints):
            self.sums[j] += self.store.row(j, i)
            self.sum_sq[j] = float(self.sums[j] @ self.sums[j])
            self.sum_dot_d[j] = float(self.sums[j] @ self.dirs[j])

    def run(self, num_select: int, window: int) -> "_GreedyEngine":
        """The greedy loop over index-order windows of ``window`` rows."""
        n = self.store.num_examples
        per_window = math.ceil(num_select * window / n)
        for lo in range(0, n, window):
            hi = min(lo + window, n)
            for _ in range(min(per_window, num_select - len(self.indices), hi - lo)):
                self.add(*self.pick(lo, hi))
        return self

    def result(self, method: str) -> SelectionResult:
        return SelectionResult(
            indices=list(self.indices),
            step_scores=list(self.step_scores),
            rule=self.rule,
            method=method,
        )


def select_greedy(
    store: GradientStore,
    dirs: Sequence[np.ndarray],
    num_select: int,
    rule: str = "cosine_sum",
) -> SelectionResult:
    """Greedy selection maximizing the rule's alignment at every step.

    The windowed loop with one window of all n rows: its budget
    ceil(M * n / n) is M, and every step scores all n rows.
    """
    _check_budget(store, num_select)
    engine = _GreedyEngine(store, dirs, rule)
    return engine.run(num_select, store.num_examples).result("select")


def select_batch(
    store: GradientStore,
    dirs: Sequence[np.ndarray],
    num_select: int,
    batch_size: int,
) -> SelectionResult:
    """Windowed greedy: scan candidates in index-order windows of batch_size,
    greedily taking ceil(M * batch_size / n) per window while the running sums
    carry across windows. Each step scores only the rows of its window.

    The windows alone select exactly M: until M is reached, a full window
    takes at least M * batch_size / n rows, and the last, shorter window takes
    all of its rows or at least its share M * rows / n.
    """
    _check_budget(store, num_select)
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    engine = _GreedyEngine(store, dirs, "cosine_sum")
    return engine.run(num_select, batch_size).result("select_batch")


def select_baseline(
    store: GradientStore,
    dirs: Sequence[np.ndarray],
    num_select: int,
    method: str,
    seed: int = 0,
) -> SelectionResult:
    """Non-greedy reference selectors sharing the store's cached statistics."""
    _check_budget(store, num_select)
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline {method!r}")
    n = store.num_examples
    if method in ("pmin", "pmax"):
        losses = store.final_losses
        key = losses if method == "pmin" else -losses
        order = np.lexsort((np.arange(n), key))[:num_select]
        return SelectionResult(
            [int(i) for i in order],
            [float(losses[i]) for i in order],
            rule="none",
            method=method,
        )
    static = scan_scores(store, dirs)

    if method == "random":
        rng = np.random.default_rng(seed)
        chosen = rng.choice(n, size=num_select, replace=False)
        return SelectionResult(
            [int(i) for i in chosen],
            [float(static[i]) for i in chosen],
            rule="none",
            method=method,
        )
    if method == "topk":
        order = np.lexsort((np.arange(n), -static))[:num_select]
        return SelectionResult(
            [int(i) for i in order],
            [float(static[i]) for i in order],
            rule="dot",
            method=method,
        )

    # topk_balanced
    if not store.has_labels:
        raise ValueError("topk_balanced requires pseudolabels in the store")
    labels = store.pseudolabels
    num_classes = int(labels.max()) + 1
    cap = math.ceil(num_select / num_classes)
    picked: list[int] = []
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        order = members[np.lexsort((members, -static[members]))][:cap]
        picked.extend(int(i) for i in order)
    if len(picked) > num_select:
        picked = _balanced_truncate(picked, labels, static, num_select)
    elif len(picked) < num_select:
        logger.warning(
            "topk_balanced: some classes lack candidates, filling %d slots by score",
            num_select - len(picked),
        )
        taken = set(picked)
        rest = np.array([i for i in np.lexsort((np.arange(n), -static)) if i not in taken])
        picked.extend(int(i) for i in rest[: num_select - len(picked)])
    picked.sort(key=lambda i: (-static[i], i))
    return SelectionResult(
        picked, [float(static[i]) for i in picked], rule="dot", method="topk_balanced"
    )


def _balanced_truncate(
    picked: list[int], labels: np.ndarray, static: np.ndarray, num_select: int
) -> list[int]:
    """Drop lowest-scored members of the currently largest classes until M."""
    by_class: dict[int, list[int]] = {}
    for i in picked:
        by_class.setdefault(int(labels[i]), []).append(i)
    for members in by_class.values():
        members.sort(key=lambda i: (-static[i], i))
    total = len(picked)
    while total > num_select:
        largest = max(len(v) for v in by_class.values())
        # among the largest classes, drop the globally weakest tail item
        tail = [(static[v[-1]], -v[-1], c) for c, v in by_class.items() if len(v) == largest]
        _, _, c = min(tail)
        by_class[c].pop()
        total -= 1
    return [i for members in by_class.values() for i in members]


def _check_budget(store: GradientStore, num_select: int) -> None:
    if num_select < 1:
        raise ValueError("selection size must be positive")
    if num_select > store.num_examples:
        raise ValueError(
            f"cannot select {num_select} from {store.num_examples} examples"
        )


def write_selection(
    result: SelectionResult,
    path: str | Path,
    num_checkpoints: int,
    projection_dim: int,
    seeds: Sequence[int] = (),
) -> None:
    """Persist a selection as JSON with its run parameters."""
    payload = {
        "method": result.method,
        "rule": result.rule,
        "M": len(result.indices),
        "P": num_checkpoints,
        "k": projection_dim,
        "seeds": list(seeds),
        "indices": result.indices,
        "step_scores": result.step_scores,
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True).encode("utf-8"))


def load_selection(path: str | Path) -> SelectionResult:
    data = json.loads(Path(path).read_text())
    return SelectionResult(
        indices=[int(i) for i in data["indices"]],
        step_scores=[float(s) for s in data["step_scores"]],
        rule=data["rule"],
        method=data["method"],
    )
