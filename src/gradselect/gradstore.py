"""Projected per-example last-layer gradients, stored on disk.

The last layer of the victim model (head weight + bias) has dimension
D = C*h + C, which is too large to keep per example once pools reach web
scale. Each gradient g is therefore sketched as A^T g, with A (D x k) =
S/sqrt(k) a seeded Rademacher projection. Sign entry S[r, c] is bit c of the
Philox4x64-10 stream keyed by (r, seed), the stream
``np.random.Philox(key=(seed << 64) | r)`` draws: a counter-based generator,
so any row of S can be regenerated exactly and on its own (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011). A ``Projection``
draws its D streams once, on first use, and keeps the packed bits.

Rows have width min(k, D). For k < D a row is the sketch A^T g itself. For
k >= D a k-wide sketch would only add bytes, so a row is W g instead, with
W (D x D) any root of W^T W = A A^T: then <W g_i, W g_j> = g_i^T A A^T g_j
= <A^T g_i, A^T g_j> in exact arithmetic. Every quantity a selector reads
is such an inner product (the static pass <row, d_j>, |row|^2, the cross
term against a sum of rows, the direction norms), and the directions go
through the same map, so a store of D-wide rows selects what the k-wide
sketch would. ``Projection.output_dim`` keeps the requested k; the header's
``k`` (``GradientStore.k``) is the stored width.

Store layout (little-endian), written only by ``write_store``: magic "SELG",
u32 version, u32 header length, JSON header, then one contiguous
(num_examples x width) float32 block per checkpoint, then two float32 aux
blocks of length num_examples (loss under the final model, pseudolabel; -1
where no label applies). The header holds the fingerprint of every
checkpoint and, from ``build_store``, of the final model the aux blocks came
from. Headers written with a ``chunk_rows`` field still open; the field is
ignored.

Every selector scores a store through ``GradientStore.scores``: one fused
float64 pass over each block, in slices of ``_READ_BLOCK_ROWS`` rows, gives
<row, d_j> and |row|^2 together. The store keeps the result for the last
direction set it was asked about, so the selectors of one cell read the rows
once between them.

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
from typing import Iterable, Sequence

import numpy as np

from .corpus import TokenBatch, atomic_write
from .model import (
    TASK_CLASSIFICATION,
    ModelParams,
    _head_positions,
    _per_example_losses,
    _read_exact,
    _residual,
)

STORE_MAGIC = b"SELG"
STORE_VERSION = 1
DEFAULT_PROJECTION_DIM = 4096

# Rows per slab of per-example gradients computed at once.
_COMPUTE_BATCH = 256
_PROJECT_BLOCK_ROWS = 1024
# For k < D a Projection keeps its dense float64 sign blocks when they fit in
# this many bytes (D*k*8: 11 MB for D=2771, k=512); larger ones are unpacked
# on every call.
_DENSE_SIGNS_MAX_BYTES = 64 << 20
# Row b: the +-1 signs of the bits of byte b, least significant bit first.
_BYTE_SIGNS = 1.0 - 2.0 * np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
)
# Rows per float64 slice of the GradientStore.scores pass.
_READ_BLOCK_ROWS = 1024
# Byte alignment of the data section (the header is space-padded up to it).
_DATA_ALIGN = 64


@dataclass
class Projection:
    """Seeded Rademacher (+-1/sqrt(k)) sketch defined entry-wise by a hash.

    Entry (r, c) is the c-th sign bit of the Philox4x64-10 stream keyed by
    (r, seed): bit c % 64 of word c // 64 of
    ``np.random.Philox(key=(seed << 64) | r).random_raw``. Each row's stream
    is drawn once per Projection, on first use, and the packed bits are kept.
    ``project`` maps into ``width`` = min(input_dim, output_dim) dimensions.
    """

    input_dim: int
    output_dim: int = DEFAULT_PROJECTION_DIM
    seed: int = 0
    _packed: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _root: np.ndarray | None = field(default=None, repr=False, compare=False)
    _dense: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("projection dimensions must be positive")

    @property
    def width(self) -> int:
        return min(self.input_dim, self.output_dim)

    def _packed_bits(self) -> np.ndarray:
        """Cached (input_dim, ceil(k/8)) packed sign bits: one Philox stream per row."""
        if self._packed is None:
            n_bytes = (self.output_dim + 7) // 8
            key = (self.seed % (1 << 64)) << 64
            rows = [
                np.random.Philox(key=key | r).random_raw((n_bytes + 7) // 8).astype("<u8")
                for r in range(self.input_dim)
            ]
            self._packed = np.ascontiguousarray(np.stack(rows).view(np.uint8)[:, :n_bytes])
        return self._packed

    def sign_block(self, r_start: int, r_stop: int, dtype=np.float64) -> np.ndarray:
        """Dense +-1 sign rows for input dimensions [r_start, r_stop), eight per packed byte."""
        packed = self._packed_bits()[r_start:r_stop]
        signs = np.take(_BYTE_SIGNS.astype(dtype, copy=False), packed, axis=0)
        signs = signs.reshape(len(packed), -1)
        return np.ascontiguousarray(signs[:, : self.output_dim])

    def sign_blocks(self) -> Iterable[tuple[int, int, np.ndarray]]:
        """(r_start, r_stop, dense signs) per ``_PROJECT_BLOCK_ROWS`` input rows.

        Kept after the first call when D*k*8 bytes are at most
        ``_DENSE_SIGNS_MAX_BYTES``; generated anew on every call otherwise.
        """
        if self._dense is not None:
            return self._dense
        blocks = (
            (r0, min(r0 + _PROJECT_BLOCK_ROWS, self.input_dim))
            for r0 in range(0, self.input_dim, _PROJECT_BLOCK_ROWS)
        )
        dense = ((r0, r1, self.sign_block(r0, r1)) for r0, r1 in blocks)
        if self.input_dim * self.output_dim * 8 <= _DENSE_SIGNS_MAX_BYTES:
            self._dense = list(dense)
            return self._dense
        return dense

    def gram_root(self) -> np.ndarray:
        """Cached (D, D) W = Lambda^1/2 V^T with W^T W = A A^T (the k >= D map).

        ``eigh`` of the integer Gram matrix S S^T, divided by k. S S^T is
        formed in float32, which holds every partial sum exactly for k up to
        2**24. S can be singular at k = D; its zero eigenvalues round to
        about -1e-15 and are clipped to 0.
        """
        if self._root is None:
            signs = self.sign_block(0, self.input_dim, np.float32)
            gram = (signs @ signs.T).astype(np.float64)
            lam, vecs = np.linalg.eigh(gram / self.output_dim)
            self._root = np.sqrt(np.clip(lam, 0.0, None))[:, None] * vecs.T
        return self._root

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
    """Map one (D,) vector or an (m, D) batch to ``proj.width`` dims; float64.

    k < D: the sketch A^T g. k >= D: W g, which has the sketch's inner
    products (see the module docstring).
    """
    arr = np.asarray(vec, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != proj.input_dim:
        raise ValueError(
            f"vector dimension {arr.shape[1]} does not match projection "
            f"input_dim {proj.input_dim}"
        )
    if proj.output_dim >= proj.input_dim:
        out = arr @ proj.gram_root().T
    else:
        out = np.zeros((arr.shape[0], proj.output_dim))
        for r0, r1, signs in proj.sign_blocks():
            out += arr[:, r0:r1] @ signs
        out /= np.sqrt(proj.output_dim)
    return out[0] if single else out


def _last_layer_grad_batch(
    params: ModelParams,
    ids: np.ndarray,
    lens: np.ndarray,
    labels: np.ndarray | None,
) -> np.ndarray:
    """(batch, D*h + D) float64 per-example head gradients.

    A document's row is the mean, over its prediction positions (one for
    classification), of outer(e_t, z_t) for the weight and e_t for the bias,
    with e_t the float64 softmax - onehot residual of ``model._residual`` and
    z_t the input to the head.
    """
    if params.config.task == TASK_CLASSIFICATION and labels is None:
        raise ValueError("classification gradients need labels")
    _, z, logp, targets, mask = _head_positions(params, ids, lens, labels)
    err = _residual(logp, targets, np.float64) * mask[:, :, None]
    denom = mask.sum(axis=1).astype(np.float64)
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
            version, header_len = struct.unpack("<II", _read_exact(fh, 8, "store"))
            if version != STORE_VERSION:
                raise ValueError(f"unsupported store version {version}")
            self.header = json.loads(_read_exact(fh, header_len, "store").decode("utf-8"))
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
        # (direction bytes, (static, sqnorm)) of the last scores() call.
        self._last_scores: tuple = (None, None)

    def block(self, j: int) -> np.ndarray:
        """Memory-mapped (num_examples, k) view for checkpoint j (k = stored width)."""
        if not 0 <= j < self.num_checkpoints:
            raise IndexError(f"checkpoint index {j} out of range")
        size = self.num_examples * self.k
        return self._flat[j * size : (j + 1) * size].reshape(
            self.num_examples, self.k
        )

    def row(self, j: int, i: int) -> np.ndarray:
        return np.asarray(self.block(j)[i], dtype=np.float64)

    def scores(self, dirs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(P, n) float64 <row(j, i), dirs[j]> and |row(j, i)|^2, both read-only.

        One pass casts each slice of rows to float64 once for both products.
        The result for the last direction set is kept, keyed by the
        directions' float64 bytes, and returned again for equal directions.
        """
        dirs = [np.asarray(d, dtype=np.float64) for d in dirs]
        if len(dirs) != self.num_checkpoints:
            raise ValueError(f"got {len(dirs)} directions for {self.num_checkpoints} checkpoints")
        if any(d.shape != (self.k,) for d in dirs):
            raise ValueError("direction dimension does not match store k")
        key = b"".join(d.tobytes() for d in dirs)
        if key != self._last_scores[0]:
            static, sqnorm = np.empty((2, self.num_checkpoints, self.num_examples))
            for j, d in enumerate(dirs):
                blk = self.block(j)
                for start in range(0, self.num_examples, _READ_BLOCK_ROWS):
                    span = slice(start, start + _READ_BLOCK_ROWS)
                    rows = np.asarray(blk[span], dtype=np.float64)
                    static[j, span] = rows @ d
                    sqnorm[j, span] = (rows * rows).sum(axis=1)
            static.flags.writeable = sqnorm.flags.writeable = False
            self._last_scores = (key, (static, sqnorm))
        return self._last_scores[1]


def write_store(
    path: str | Path,
    blocks: Sequence[np.ndarray | Iterable[np.ndarray]],
    final_losses: np.ndarray,
    pseudolabels: np.ndarray | None,
    proj: Projection,
    fingerprints: Sequence[str] | None = None,
    final_fingerprint: str | None = None,
) -> GradientStore:
    """Write a store file of n = len(final_losses) examples (the one writer).

    ``blocks[j]`` is checkpoint j's rows: an (n, width) array or an iterable
    of (rows, width) slabs. ``atomic_write`` keeps a crash mid-write from
    leaving a truncated store at ``path``.
    """
    losses = np.asarray(final_losses, dtype="<f4")
    n = len(losses)
    labels = np.asarray(np.full(n, -1.0) if pseudolabels is None else pseudolabels, "<f4")
    if labels.shape != (n,):
        raise ValueError("need one pseudolabel per example")
    header = {
        "num_examples": n,
        "k": proj.width,
        "P": len(blocks),
        "projection": proj.to_dict(),
        "checkpoint_fingerprints": list(fingerprints or [""] * len(blocks)),
        "aux": ["final_loss", "pseudolabel"],
        "dtype": "float32",
    }
    if final_fingerprint is not None:
        header["final_fingerprint"] = final_fingerprint
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    header_bytes += b" " * (-(12 + len(header_bytes)) % _DATA_ALIGN)
    with atomic_write(path) as fh:
        fh.write(STORE_MAGIC)
        fh.write(struct.pack("<II", STORE_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for block in blocks:
            rows = 0
            for slab in [block] if isinstance(block, np.ndarray) else block:
                if slab.shape[1:] != (proj.width,):
                    raise ValueError("block width does not match projection width")
                fh.write(np.ascontiguousarray(slab, dtype="<f4").tobytes())
                rows += len(slab)
            if rows != n:
                raise ValueError(f"checkpoint block has {rows} rows for {n} examples")
        fh.write(losses.tobytes())
        fh.write(labels.tobytes())
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
    likelihood baselines need no second pass.
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
    spans = [slice(s0, s0 + _COMPUTE_BATCH) for s0 in range(0, n, _COMPUTE_BATCH)]
    parts = [(ids[s], lens[s], None if labels is None else labels[s]) for s in spans]
    losses = np.empty(n, dtype=np.float32)
    for s, part in zip(spans, parts):
        losses[s] = _per_example_losses(theta_f, *part)

    def slabs(ckpt: ModelParams):
        for part in parts:
            yield project(_last_layer_grad_batch(ckpt, *part), proj)

    return write_store(
        path,
        [slabs(ckpt) for ckpt in checkpoints],
        losses,
        labels,
        proj,
        [c.fingerprint() for c in checkpoints],
        theta_f.fingerprint(),
    )


def scan_scores(store: GradientStore, dirs: Sequence[np.ndarray]) -> np.ndarray:
    """Per-example sums of <row(j, i), dirs[j]> over checkpoints."""
    return store.scores(dirs)[0].sum(axis=0)
