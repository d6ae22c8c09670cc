"""Projected per-example last-layer gradients, stored on disk.

The last layer of the victim model (head weight + bias) has dimension
n = D*h + D, which is too large to keep per example once pools reach web
scale. Each gradient is therefore sketched to k dimensions with a seeded
Rademacher projection whose (row, column) entries are defined by a
counter-based hash, so the projection matrix is never materialized and any
row can be regenerated exactly.

Store layout (little-endian): magic "SELG", u32 version, u32 header length,
JSON header, then one contiguous (num_examples x k) float32 block per
checkpoint, then two float32 aux blocks of length num_examples (loss under
the final model, pseudolabel; -1 where no label applies). Readers stream a
block in fixed slices of ``_READ_BLOCK_ROWS`` rows. Headers written with a
``chunk_rows`` field still open; the field is ignored.

The JSON header is padded with trailing spaces so that the data starts at a
multiple of 64 bytes. The memory map itself starts on a page, so every
float32 block is then 64-byte aligned and a matrix-vector product runs on
the mapped rows directly; numpy copies a misaligned block into an aligned
buffer first. JSON ignores the padding, so stores written without it still
open.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import TokenBatch, TokenSeq, atomic_write
from .model import (
    TASK_CLASSIFICATION,
    ModelParams,
    _class_activations,
    _lm_activations,
    _per_example_losses,
    _unpad,
)

STORE_MAGIC = b"SELG"
STORE_VERSION = 1
DEFAULT_PROJECTION_DIM = 4096

# Rows per slab of per-example gradients computed at once.
_COMPUTE_BATCH = 256
_PROJECT_BLOCK_ROWS = 1024
# Rows per slice that GradientStore.iter_blocks yields.
_READ_BLOCK_ROWS = 1024
# Byte alignment of the data section (the header is space-padded up to it).
_DATA_ALIGN = 64


@dataclass
class Projection:
    """Seeded Rademacher (+-1/sqrt(k)) sketch defined entry-wise by a hash.

    Entry (r, c) is the c-th sign bit of a Philox stream keyed by
    (seed, r), so rows can be regenerated independently and identically
    regardless of block sizes.
    """

    input_dim: int
    output_dim: int = DEFAULT_PROJECTION_DIM
    seed: int = 0
    _packed: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("projection dimensions must be positive")

    def _packed_bits(self) -> np.ndarray:
        """Cached (input_dim, ceil(k/8)) packed sign bits."""
        if self._packed is None:
            n_bytes = (self.output_dim + 7) // 8
            n_words = (n_bytes + 7) // 8
            key_hi = self.seed % (1 << 64)
            packed = np.empty((self.input_dim, n_bytes), dtype=np.uint8)
            for r in range(self.input_dim):
                bg = np.random.Philox(key=(key_hi << 64) | r)
                raw = bg.random_raw(n_words)
                packed[r] = np.frombuffer(raw.tobytes(), dtype=np.uint8)[:n_bytes]
            self._packed = packed
        return self._packed

    def sign_block(self, r_start: int, r_stop: int) -> np.ndarray:
        """Dense float64 +-1 sign rows for input dimensions [r_start, r_stop)."""
        packed = self._packed_bits()[r_start:r_stop]
        bits = np.unpackbits(packed, axis=1, bitorder="little")[:, : self.output_dim]
        return 1.0 - 2.0 * bits.astype(np.float64)

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Projection":
        return cls(
            input_dim=int(data["input_dim"]),
            output_dim=int(data["output_dim"]),
            seed=int(data["seed"]),
        )


def project(vec: np.ndarray, proj: Projection) -> np.ndarray:
    """Apply the sketch to one (n,) vector or a (m, n) batch; returns float64."""
    arr = np.asarray(vec, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != proj.input_dim:
        raise ValueError(
            f"vector dimension {arr.shape[1]} does not match projection "
            f"input_dim {proj.input_dim}"
        )
    out = np.zeros((arr.shape[0], proj.output_dim))
    for r0 in range(0, proj.input_dim, _PROJECT_BLOCK_ROWS):
        r1 = min(r0 + _PROJECT_BLOCK_ROWS, proj.input_dim)
        out += arr[:, r0:r1] @ proj.sign_block(r0, r1)
    out /= np.sqrt(proj.output_dim)
    return out[0] if single else out


def last_layer_grad(params: ModelParams, x: TokenSeq, y=None) -> np.ndarray:
    """Analytic gradient of the loss w.r.t. (head weight, head bias), flattened.

    With softmax residual e = probs - onehot(target): the weight gradient is
    outer(e, pooled_hidden) and the bias gradient is e; next-token averages
    the per-position gradients over valid positions.
    """
    ids = np.asarray(x.ids, dtype=np.int64)[None, :]
    lens = np.array([x.valid_len], dtype=np.int64)
    labels = None if y is None else np.array([int(y)], dtype=np.int64)
    return _last_layer_grad_batch(params, ids, lens, labels)[0]


def _last_layer_grad_batch(
    params: ModelParams,
    ids: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None,
) -> np.ndarray:
    """(batch, D*h + D) float64 per-example head gradients."""
    cfg = params.config
    if cfg.task == TASK_CLASSIFICATION:
        if labels is None:
            raise ValueError("classification gradients need labels")
        _, z, logp = _class_activations(params, ids, lens)
        err = np.exp(logp).astype(np.float64)
        err[np.arange(len(lens)), labels] -= 1.0
        gw = err[:, :, None] * z[:, None, :].astype(np.float64)
        return np.concatenate([gw.reshape(len(lens), -1), err], axis=1)
    ids = _unpad(ids, lens)
    _, z, logp, pos_mask = _lm_activations(params, ids, lens)
    err = np.exp(logp).astype(np.float64)
    targets = ids[:, 1:]
    np.put_along_axis(
        err,
        targets[:, :, None],
        np.take_along_axis(err, targets[:, :, None], axis=2) - 1.0,
        axis=2,
    )
    err *= pos_mask[:, :, None]
    denom = pos_mask.sum(axis=1).astype(np.float64)
    gw = np.matmul(err.transpose(0, 2, 1), z.astype(np.float64))
    gw /= denom[:, None, None]
    gb = err.sum(axis=1) / denom[:, None]
    return np.concatenate([gw.reshape(len(lens), -1), gb], axis=1)


def _last_layer_flat(params: ModelParams) -> np.ndarray:
    return np.concatenate(
        [
            params.head_w.astype(np.float64).ravel(),
            params.head_b.astype(np.float64),
        ]
    )


def direction(
    theta_hat: ModelParams, theta_f: ModelParams, proj: Projection
) -> np.ndarray:
    """Projected last-layer component of (theta_f - theta_hat)."""
    if not theta_hat.compatible_with(theta_f):
        raise ValueError("checkpoints have incompatible configs")
    diff = _last_layer_flat(theta_f) - _last_layer_flat(theta_hat)
    return project(diff, proj)


class GradientStore:
    """Read view over a store file: P blocks of projected gradient rows."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            magic = fh.read(4)
            if magic != STORE_MAGIC:
                raise ValueError(
                    f"bad store magic {magic!r}, expected {STORE_MAGIC!r}"
                )
            version, header_len = struct.unpack("<II", _read(fh, 8, "store"))
            if version != STORE_VERSION:
                raise ValueError(f"unsupported store version {version}")
            self.header = json.loads(_read(fh, header_len, "store").decode("utf-8"))
            self._data_offset = 12 + header_len
        self.num_examples = int(self.header["num_examples"])
        self.k = int(self.header["k"])
        self.num_checkpoints = int(self.header["P"])
        self.projection = Projection.from_dict(self.header["projection"])
        self.fingerprints = list(self.header["checkpoint_fingerprints"])
        total = self.num_checkpoints * self.num_examples * self.k + 2 * self.num_examples
        expected_bytes = self._data_offset + 4 * total
        size = self.path.stat().st_size
        if size != expected_bytes:
            raise ValueError(
                f"unexpected end of store: {size} bytes, expected {expected_bytes}"
            )
        self._flat = np.memmap(
            self.path, dtype="<f4", mode="r", offset=self._data_offset, shape=(total,)
        )
        aux_start = self.num_checkpoints * self.num_examples * self.k
        self.final_losses = np.asarray(
            self._flat[aux_start : aux_start + self.num_examples], dtype=np.float64
        )
        raw_labels = np.asarray(
            self._flat[aux_start + self.num_examples :], dtype=np.float64
        )
        self.pseudolabels = raw_labels.astype(np.int64)
        self.has_labels = bool((raw_labels >= 0).all())

    def block(self, j: int) -> np.ndarray:
        """Memory-mapped (num_examples, k) view for checkpoint j."""
        if not 0 <= j < self.num_checkpoints:
            raise IndexError(f"checkpoint index {j} out of range")
        size = self.num_examples * self.k
        return self._flat[j * size : (j + 1) * size].reshape(
            self.num_examples, self.k
        )

    def row(self, j: int, i: int) -> np.ndarray:
        return np.asarray(self.block(j)[i], dtype=np.float64)

    def iter_blocks(self, j: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """Stream (start, stop, rows) slices of ``_READ_BLOCK_ROWS`` rows."""
        blk = self.block(j)
        for start in range(0, self.num_examples, _READ_BLOCK_ROWS):
            stop = min(start + _READ_BLOCK_ROWS, self.num_examples)
            yield start, stop, blk[start:stop]


def _read(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(f"unexpected end of {what}")
    return data


def _write_header(
    fh,
    num_examples: int,
    proj: Projection,
    num_checkpoints: int,
    fingerprints: Sequence[str],
) -> None:
    header = {
        "num_examples": num_examples,
        "k": proj.output_dim,
        "P": num_checkpoints,
        "projection": proj.to_dict(),
        "checkpoint_fingerprints": list(fingerprints),
        "aux": ["final_loss", "pseudolabel"],
        "dtype": "float32",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    header_bytes += b" " * (-(12 + len(header_bytes)) % _DATA_ALIGN)
    fh.write(STORE_MAGIC)
    fh.write(struct.pack("<II", STORE_VERSION, len(header_bytes)))
    fh.write(header_bytes)


def write_store(
    path: str | Path,
    blocks: Sequence[np.ndarray],
    final_losses: np.ndarray,
    pseudolabels: np.ndarray | None,
    proj: Projection,
    fingerprints: Sequence[str] | None = None,
) -> GradientStore:
    """Write dense in-memory blocks as a store file (used for small pools/tests)."""
    blocks = [np.asarray(b, dtype=np.float32) for b in blocks]
    n, k = blocks[0].shape
    if any(b.shape != (n, k) for b in blocks):
        raise ValueError("all checkpoint blocks must share one shape")
    if k != proj.output_dim:
        raise ValueError("block width does not match projection output_dim")
    labels = (
        np.full(n, -1.0, dtype=np.float32)
        if pseudolabels is None
        else np.asarray(pseudolabels, dtype=np.float32)
    )
    with atomic_write(path) as fh:
        _write_header(fh, n, proj, len(blocks), fingerprints or [""] * len(blocks))
        for b in blocks:
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(final_losses, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(labels, dtype="<f4").tobytes())
    return GradientStore(path)


def build_store(
    checkpoints: Sequence[ModelParams],
    batch: TokenBatch,
    pseudolabels: np.ndarray | None,
    theta_f: ModelParams,
    proj: Projection,
    path: str | Path,
) -> GradientStore:
    """Compute, project and persist per-example head gradients per checkpoint.

    Gradients are taken against pseudolabels (next-token uses the sequence
    itself); the loss of each example under theta_f is cached alongside so
    likelihood baselines need no second pass. The file is written under a
    temporary name and renamed into place (``atomic_write``), so a crash
    mid-write never leaves a truncated store at ``path``.
    """
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    cfg = checkpoints[0].config
    for ckpt in checkpoints:
        if ckpt.config != cfg or theta_f.config != cfg:
            raise ValueError("checkpoints have incompatible configs")
    n = len(batch)
    if cfg.task == TASK_CLASSIFICATION:
        if pseudolabels is None or len(pseudolabels) != n:
            raise ValueError("classification store needs one pseudolabel per document")
        labels = np.asarray(pseudolabels, dtype=np.int64)
    else:
        labels = None
    if proj.input_dim != cfg.last_layer_dim:
        raise ValueError(
            f"projection input_dim {proj.input_dim} does not match "
            f"last-layer dimension {cfg.last_layer_dim}"
        )

    ids = np.asarray(batch.ids, dtype=np.int64)
    lens = np.asarray(batch.valid_len, dtype=np.int64)
    losses = np.empty(n, dtype=np.float32)
    for s0 in range(0, n, _COMPUTE_BATCH):
        s1 = min(s0 + _COMPUTE_BATCH, n)
        losses[s0:s1] = _per_example_losses(
            theta_f, ids[s0:s1], lens[s0:s1], None if labels is None else labels[s0:s1]
        ).astype(np.float32)

    fingerprints = [c.fingerprint() for c in checkpoints]
    with atomic_write(path) as fh:
        _write_header(fh, n, proj, len(checkpoints), fingerprints)
        for ckpt in checkpoints:
            for s0 in range(0, n, _COMPUTE_BATCH):
                s1 = min(s0 + _COMPUTE_BATCH, n)
                grads = _last_layer_grad_batch(
                    ckpt,
                    ids[s0:s1],
                    lens[s0:s1],
                    None if labels is None else labels[s0:s1],
                )
                rows = project(grads, proj).astype(np.float32)
                fh.write(np.ascontiguousarray(rows, dtype="<f4").tobytes())
        fh.write(losses.astype("<f4").tobytes())
        if labels is None:
            fh.write(np.full(n, -1.0, dtype="<f4").tobytes())
        else:
            fh.write(labels.astype("<f4").tobytes())
    return GradientStore(path)


def scan_scores(store: GradientStore, dirs: Sequence[np.ndarray]) -> np.ndarray:
    """Per-example sums of <row(j, i), dirs[j]> over checkpoints, streamed chunk by chunk."""
    if len(dirs) != store.num_checkpoints:
        raise ValueError(
            f"got {len(dirs)} directions for {store.num_checkpoints} checkpoints"
        )
    for d in dirs:
        if np.asarray(d).shape != (store.k,):
            raise ValueError("direction dimension does not match store k")
    scores = np.zeros(store.num_examples)
    for j in range(store.num_checkpoints):
        d = np.asarray(dirs[j], dtype=np.float64)
        for start, stop, block in store.iter_blocks(j):
            scores[start:stop] += block @ d
    return scores
