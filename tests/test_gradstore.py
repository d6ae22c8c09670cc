import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import pearsonr

from conftest import padded, padding_case
from gradselect import gradstore
from gradselect.corpus import (
    Document,
    DocumentSet,
    TokenBatch,
    build_vocab,
    encode_documents,
)
from gradselect.gradstore import (
    GradientStore,
    Projection,
    _last_layer_grad_batch,
    build_store,
    direction,
    project,
    scan_scores,
    write_store,
)
from gradselect.model import TASKS, ModelConfig, batch_mean_loss, init_params
from gradselect.selector import synth_checkpoints


def rand_batch(rng, n, vocab_size, seq_len=8, min_len=2):
    ids = rng.integers(0, vocab_size, (n, seq_len)).astype(np.int32)
    lens = rng.integers(min_len, seq_len + 1, n).astype(np.int32)
    return TokenBatch(ids, lens)


def data_offset(path) -> int:
    (header_len,) = struct.unpack("<I", Path(path).read_bytes()[8:12])
    return 12 + header_len


def write_legacy_store(src, dst) -> None:
    """Rewrite a store in the oldest layout: the header carries the retired
    ``chunk_rows`` field and no trailing spaces, so the data is unaligned."""
    raw = Path(src).read_bytes()
    end = data_offset(src)
    header = json.loads(raw[12:end])
    header["chunk_rows"] = 1024
    header = json.dumps(header, sort_keys=True).encode()
    Path(dst).write_bytes(raw[:8] + struct.pack("<I", len(header)) + header + raw[end:])


class TestLastLayerGrad:
    def test_zero_residual_gives_zero_grad(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=3)
        params = init_params(cfg, 0)
        params.head_b[:] = np.array([60.0, 0.0, 0.0], dtype=np.float32)
        g = _last_layer_grad_batch(params, np.array([[2, 3]]), np.array([2]), np.array([0]))[0]
        assert np.abs(g).max() < 1e-6

    def test_hand_case(self):
        # p = (0.5, 0.5), pooled_hidden = (1, 0), y = 0
        cfg = ModelConfig(vocab_size=4, embed_dim=2, num_classes=2)
        params = init_params(cfg, 0)
        params.embedding[:] = 0.0
        params.embedding[2] = np.array([1.0, 0.0], dtype=np.float32)
        params.head_w[:] = 0.0
        params.head_b[:] = 0.0
        g = _last_layer_grad_batch(params, np.array([[2]]), np.array([1]), np.array([0]))[0]
        assert np.allclose(g, [-0.5, 0.0, 0.5, 0.0, -0.5, 0.5], atol=1e-7)

    @pytest.mark.parametrize("task", ["classification", "next_token"])
    def test_matches_finite_differences(self, task):
        cfg = ModelConfig(
            vocab_size=12, embed_dim=5, num_classes=4, hidden_layer=True, task=task
        )
        params = init_params(cfg, 2).astype(np.float64)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 12, (1, 6)).astype(np.int64)
        lens = np.array([5])
        labels = np.array([1]) if task == "classification" else None
        g = _last_layer_grad_batch(params, ids, lens, labels)[0]
        head_dim = cfg.head_dim
        flat_w = params.head_w.ravel()
        checked = rng.choice(g.size, min(40, g.size), replace=False)
        for idx in checked:
            if idx < head_dim * cfg.embed_dim:
                target = flat_w
                off = idx
            else:
                target = params.head_b
                off = idx - head_dim * cfg.embed_dim
            old = target[off]
            target[off] = old + 1e-3
            up = batch_mean_loss(params, ids, lens, labels)
            target[off] = old - 1e-3
            down = batch_mean_loss(params, ids, lens, labels)
            target[off] = old
            fd = (up - down) / 2e-3
            assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8) < 1e-4


class TestPaddingInvariance:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        task=st.sampled_from(TASKS),
        hidden=st.booleans(),
        lens=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        extra=st.integers(1, 40),
        seed=st.integers(0, 1000),
    )
    def test_extra_padding_changes_no_gradient_row(self, task, hidden, lens, extra, seed):
        params, docs, lens, labels = padding_case(task, hidden, lens, seed)
        narrow = _last_layer_grad_batch(params, padded(docs, lens.max()), lens, labels)
        wide = _last_layer_grad_batch(params, padded(docs, lens.max() + extra), lens, labels)
        np.testing.assert_allclose(wide, narrow, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("task", TASKS)
    def test_empty_document_still_rejected(self, task):
        params, docs, _, labels = padding_case(task, False, [3, 4], 0)
        message = "at least 1 token" if task == "classification" else "at least 2 tokens"
        for bad in ([0, 4], [0, 0]):
            with pytest.raises(ValueError, match=message):
                _last_layer_grad_batch(params, padded(docs, 8), np.array(bad), labels)

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("hidden", [False, True])
    def test_store_bytes_do_not_depend_on_seq_len(self, tmp_path, task, hidden):
        # Documents of 1..12 tokens; both widths hold every document whole.
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(30)]
        docs = DocumentSet(
            Document(i, " ".join(rng.choice(words, int(rng.integers(2, 13)))), int(i % 3))
            for i in range(40)
        )
        vocab = build_vocab(docs, 64)
        cfg = ModelConfig(vocab.size, 6, num_classes=3, hidden_layer=hidden, task=task)
        theta0, theta_f = init_params(cfg, 0), init_params(cfg, 1)
        checkpoints = synth_checkpoints(theta0, theta_f, 2)
        labels = docs.labels() if task == "classification" else None
        proj = Projection(cfg.last_layer_dim, 24, seed=5)
        paths = []
        for seq_len in (12, 64):
            batch = encode_documents(docs, vocab, seq_len)
            assert batch.valid_len.max() == 12
            paths.append(tmp_path / f"s{seq_len}.selg")
            build_store(checkpoints, batch, labels, theta_f, proj, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


def philox_sign_bits(dim, k, seed):
    """The definition of the packed sign bits: one np.random.Philox stream per row."""
    n_bytes = (k + 7) // 8
    packed = np.empty((dim, n_bytes), dtype=np.uint8)
    for r in range(dim):
        raw = np.random.Philox(key=((seed % (1 << 64)) << 64) | r).random_raw((n_bytes + 7) // 8)
        packed[r] = np.frombuffer(raw.tobytes(), dtype=np.uint8)[:n_bytes]
    return packed


SIGN_SEEDS = [0, 33, 2**63 + 5, 2**64 - 1]


class TestProjection:
    @pytest.mark.parametrize("seed", SIGN_SEEDS)
    @pytest.mark.parametrize("k", [1, 7, 64, 65, 512, 4096])
    @pytest.mark.parametrize("dim", [5, 4099])
    def test_packed_bits_match_per_row_philox(self, seed, k, dim):
        got = Projection(dim, k, seed=seed)._packed_bits()
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert got.tobytes() == philox_sign_bits(dim, k, seed).tobytes()

    def test_sign_block_unpacks_the_bits(self):
        proj = Projection(9, 21, seed=4)
        bits = np.unpackbits(proj._packed_bits(), axis=1, bitorder="little")[:, :21]
        for dtype in (np.float32, np.float64):
            signs = proj.sign_block(2, 7, dtype)
            assert signs.dtype == dtype and signs.flags.c_contiguous
            assert np.array_equal(signs, 1.0 - 2.0 * bits[2:7])

    def test_zero_vector(self):
        proj = Projection(64, 16, seed=0)
        assert np.abs(project(np.zeros(64), proj)).max() == 0.0

    def test_linearity(self):
        proj = Projection(256, 64, seed=1)
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(256), rng.standard_normal(256)
        lhs = project(a + b, proj)
        rhs = project(a, proj) + project(b, proj)
        assert np.abs(lhs - rhs).max() < 1e-5

    def test_deterministic_and_block_independent(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100)
        full = project(x, Projection(100, 32, seed=9))
        again = project(x, Projection(100, 32, seed=9))
        assert np.array_equal(full, again)
        # row signs depend only on (seed, row, col)
        p = Projection(100, 32, seed=9)
        stacked = np.vstack([p.sign_block(i, i + 1) for i in range(100)])
        assert np.array_equal(stacked, p.sign_block(0, 100))

    @pytest.mark.parametrize("cap", [0, gradstore._DENSE_SIGNS_MAX_BYTES])
    def test_sign_blocks_kept_only_under_the_cap(self, monkeypatch, cap):
        # D = 2500 spans three 1024-row blocks; kept or not, the blocks are
        # summed in row order, so the bits are the blockwise sum's.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 2500))
        reference = Projection(2500, 48, seed=2)
        want = np.zeros((7, 48))
        for r0 in range(0, 2500, 1024):
            want += x[:, r0 : r0 + 1024] @ reference.sign_block(r0, min(r0 + 1024, 2500))
        want /= np.sqrt(48)
        monkeypatch.setattr(gradstore, "_DENSE_SIGNS_MAX_BYTES", cap)
        proj = Projection(2500, 48, seed=2)
        assert np.array_equal(project(x, proj), want)
        unpacked = []
        real = Projection.sign_block
        monkeypatch.setattr(
            Projection, "sign_block", lambda self, *a: unpacked.append(a) or real(self, *a)
        )
        assert np.array_equal(project(x, proj), want)
        assert len(unpacked) == (0 if cap else 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            project(np.zeros(10), Projection(11, 4, seed=0))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        dims=st.integers(1, 40).flatmap(lambda d: st.tuples(st.just(d), st.integers(d, 4 * d))),
        n=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    # Singular sign matrices: (D, k, seed) = (2, 2, 0), (2, 3, 5), (4, 4, 0).
    @example(dims=(1, 1), n=2, seed=0)
    @example(dims=(2, 2), n=3, seed=0)
    @example(dims=(2, 3), n=3, seed=5)
    @example(dims=(4, 4), n=5, seed=0)
    def test_wide_sketch_stored_at_width_d_keeps_inner_products(self, dims, n, seed):
        dim, k = dims
        proj = Projection(dim, k, seed=seed)
        assert proj.width == dim
        g = np.random.default_rng(seed).standard_normal((n, dim))
        rows = project(g, proj)
        sketch = g @ proj.sign_block(0, dim) / np.sqrt(k)
        assert rows.shape == (n, dim)
        norms = np.linalg.norm(g, axis=1)
        gap = np.abs(rows @ rows.T - sketch @ sketch.T)
        assert (gap <= 1e-10 * np.outer(norms, norms)).all()
        with tempfile.TemporaryDirectory() as tmp:
            store = write_store(Path(tmp) / "s.selg", [rows], np.zeros(n), None, proj)
            assert store.k == proj.width
            assert store.block(0).shape == (n, proj.width)
            assert store.projection.output_dim == k

    @pytest.mark.parametrize("k", [512, 1024, 4096])
    def test_inner_product_preservation(self, k):
        rng = np.random.default_rng(k)
        n = 2048
        proj = Projection(n, k, seed=5)
        a = rng.standard_normal((200, n))
        b = rng.standard_normal((200, n))
        pa, pb = project(a, proj), project(b, proj)
        exact = (a * b).sum(axis=1)
        approx = (pa * pb).sum(axis=1)
        bound = 0.1 * np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        assert (np.abs(approx - exact) <= bound).mean() >= 0.95


class TestDirection:
    def _pair(self):
        cfg = ModelConfig(vocab_size=20, embed_dim=6, num_classes=4)
        return init_params(cfg, 0), init_params(cfg, 1)

    def test_zero_diff(self):
        theta0, theta_f = self._pair()
        proj = Projection(theta_f.config.last_layer_dim, 32, seed=0)
        assert np.abs(direction(theta_f, theta_f, proj)).max() == 0.0

    def test_antisymmetry(self):
        theta0, theta_f = self._pair()
        proj = Projection(theta_f.config.last_layer_dim, 32, seed=0)
        d1 = direction(theta0, theta_f, proj)
        d2 = direction(theta_f, theta0, proj)
        assert np.allclose(d1, -d2, atol=1e-12)

    def test_incompatible_configs(self):
        theta0, _ = self._pair()
        other = init_params(ModelConfig(vocab_size=20, embed_dim=8, num_classes=4), 0)
        proj = Projection(other.config.last_layer_dim, 32, seed=0)
        with pytest.raises(ValueError, match="incompatible"):
            direction(theta0, other, proj)

    def test_projected_inner_product_tracks_exact(self):
        cfg = ModelConfig(vocab_size=40, embed_dim=8, num_classes=6)
        theta0, theta_f = init_params(cfg, 0), init_params(cfg, 1)
        n = cfg.last_layer_dim
        proj = Projection(n, 1024, seed=2)
        d = direction(theta0, theta_f, proj)
        diff_exact = np.concatenate(
            [
                (theta_f.head_w - theta0.head_w).astype(np.float64).ravel(),
                (theta_f.head_b - theta0.head_b).astype(np.float64),
            ]
        )
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(50):
            g = rng.standard_normal(n)
            approx = project(g, proj) @ d
            exact = g @ diff_exact
            if abs(approx - exact) <= 0.1 * np.linalg.norm(g) * np.linalg.norm(diff_exact):
                hits += 1
        assert hits >= 45


class TestBuildStore:
    def _setup(self, num_checkpoints=1, n=3, vocab_size=15, k=16):
        cfg = ModelConfig(vocab_size=vocab_size, embed_dim=4, num_classes=3)
        theta0, theta_f = init_params(cfg, 0), init_params(cfg, 1)
        schedule = synth_checkpoints(theta0, theta_f, num_checkpoints)
        rng = np.random.default_rng(7)
        batch = rand_batch(rng, n, vocab_size)
        labels = rng.integers(0, 3, n)
        proj = Projection(cfg.last_layer_dim, k, seed=3)
        return schedule, batch, labels, theta_f, proj

    def test_single_checkpoint_contract(self, tmp_path):
        schedule, batch, labels, theta_f, proj = self._setup()
        store = build_store(
            schedule, batch, labels, theta_f, proj, tmp_path / "s.selg"
        )
        assert store.num_checkpoints == 1
        assert store.num_examples == 3
        # D = 3*4 + 3 = 15 < k = 16: rows are stored 15 wide
        assert store.block(0).shape == (3, 15)

    def test_rebuild_bit_identical(self, tmp_path):
        schedule, batch, labels, theta_f, proj = self._setup(num_checkpoints=2, n=20)
        p1, p2 = tmp_path / "a.selg", tmp_path / "b.selg"
        build_store(schedule, batch, labels, theta_f, proj, p1)
        build_store(schedule, batch, labels, theta_f, proj, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_match_recompute_oracle(self, tmp_path):
        schedule, batch, labels, theta_f, proj = self._setup(num_checkpoints=3, n=25)
        store = build_store(
            schedule, batch, labels, theta_f, proj, tmp_path / "s.selg"
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            j = int(rng.integers(0, 3))
            i = int(rng.integers(0, 25))
            g = _last_layer_grad_batch(
                schedule[j], batch.ids[i : i + 1], batch.valid_len[i : i + 1], labels[i : i + 1]
            )[0]
            want = project(g, proj).astype(np.float32)
            assert np.allclose(store.row(j, i), want, rtol=1e-5, atol=1e-7)

    def test_store_correlation_with_exact_scores(self, tmp_path, tiny_victim):
        # projected scores track the exact high-dimensional scores against a
        # trained weight diff (random-diff scores would drown in sketch noise)
        from gradselect.corpus import encode_documents
        from gradselect.gradstore import _last_layer_grad_batch
        from gradselect.selector import autolabel
        from gradselect.toycorpus import make_pool_corpus

        theta0, theta_f = tiny_victim["theta0"], tiny_victim["theta_f"]
        pool = make_pool_corpus(500, 4, seed=9, useful_fraction=0.4)
        batch = encode_documents(pool, tiny_victim["vocab"], 32)
        labels = autolabel(batch, theta_f)
        proj = Projection(theta0.config.last_layer_dim, 4096, seed=4)
        store = build_store([theta0], batch, labels, theta_f, proj, tmp_path / "s.selg")
        d = direction(theta0, theta_f, proj)
        approx = scan_scores(store, [d])
        diff = np.concatenate(
            [
                (theta_f.head_w - theta0.head_w).astype(np.float64).ravel(),
                (theta_f.head_b - theta0.head_b).astype(np.float64),
            ]
        )
        grads = _last_layer_grad_batch(
            theta0, batch.ids.astype(np.int64), batch.valid_len.astype(np.int64), labels
        )
        exact = grads @ diff
        r, _ = pearsonr(approx, exact)
        assert r > 0.95

    @pytest.mark.parametrize("num_checkpoints,n", [(1, 3), (2, 17), (3, 40)])
    def test_data_is_64_byte_aligned(self, tmp_path, num_checkpoints, n):
        schedule, batch, labels, theta_f, proj = self._setup(num_checkpoints, n)
        path = tmp_path / "s.selg"
        store = build_store(schedule, batch, labels, theta_f, proj, path)
        assert data_offset(path) % 64 == 0
        for j in range(num_checkpoints):
            assert store.block(j).flags.aligned

    def test_truncated_store(self, tmp_path):
        schedule, batch, labels, theta_f, proj = self._setup()
        path = tmp_path / "s.selg"
        build_store(schedule, batch, labels, theta_f, proj, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="unexpected end of store"):
            GradientStore(path)

    def test_trailing_byte_rejected(self, tmp_path):
        schedule, batch, labels, theta_f, proj = self._setup()
        path = tmp_path / "s.selg"
        build_store(schedule, batch, labels, theta_f, proj, path)
        GradientStore(path)  # the exact size opens
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="unexpected end of store"):
            GradientStore(path)

    def test_wrong_magic(self, tmp_path):
        schedule, batch, labels, theta_f, proj = self._setup()
        path = tmp_path / "s.selg"
        build_store(schedule, batch, labels, theta_f, proj, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="SELG"):
            GradientStore(path)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        schedule, batch, labels, theta_f, proj = self._setup(n=600)
        calls = []

        def failing_project(grads, p):
            calls.append(len(grads))
            if len(calls) == 2:
                raise OSError("disk full")
            return project(grads, p)

        monkeypatch.setattr(gradstore, "project", failing_project)
        path = tmp_path / "s.selg"
        with pytest.raises(OSError, match="disk full"):
            build_store(schedule, batch, labels, theta_f, proj, path)
        assert list(tmp_path.iterdir()) == []

    def test_labels_required_for_classification(self, tmp_path):
        schedule, batch, labels, theta_f, proj = self._setup()
        with pytest.raises(ValueError, match="pseudolabel"):
            build_store(schedule, batch, None, theta_f, proj, tmp_path / "s.selg")


class TestSingleWriter:
    """``build_store`` hands its rows to ``write_store``, the one writer."""

    @staticmethod
    def _built(tmp_path, task, num_checkpoints, wide):
        cfg = ModelConfig(vocab_size=15, embed_dim=4, num_classes=3, task=task)
        theta0, theta_f = init_params(cfg, 0), init_params(cfg, 1)
        schedule = synth_checkpoints(theta0, theta_f, num_checkpoints)
        rng = np.random.default_rng(11)
        batch = rand_batch(rng, 300, cfg.vocab_size)
        labels = rng.integers(0, 3, 300) if task == "classification" else None
        k = 2 * cfg.last_layer_dim if wide else cfg.last_layer_dim // 2
        proj = Projection(cfg.last_layer_dim, k, seed=5)
        path = tmp_path / "built.selg"
        return build_store(schedule, batch, labels, theta_f, proj, path), path

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("num_checkpoints", [1, 2])
    @pytest.mark.parametrize("wide", [False, True])
    def test_rewrite_of_a_built_store_is_byte_identical(
        self, tmp_path, task, num_checkpoints, wide
    ):
        built, path = self._built(tmp_path, task, num_checkpoints, wide)
        assert (built.k < built.projection.output_dim) == wide
        assert built.has_labels == (task == "classification")
        copy = tmp_path / "copy.selg"
        write_store(
            copy,
            [built.block(j) for j in range(built.num_checkpoints)],
            built.final_losses,
            built.pseudolabels,
            built.projection,
            built.fingerprints,
            built.header["final_fingerprint"],
        )
        assert copy.read_bytes() == path.read_bytes()

    def test_slabs_write_the_dense_bytes(self, tmp_path):
        built, path = self._built(tmp_path, "classification", 2, False)
        def slabs(block):
            yield from (block[s : s + 7] for s in range(0, len(block), 7))

        copy = tmp_path / "copy.selg"
        write_store(
            copy,
            [slabs(built.block(j)) for j in range(2)],
            built.final_losses,
            built.pseudolabels,
            built.projection,
            built.fingerprints,
            built.header["final_fingerprint"],
        )
        assert copy.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "blocks,labels,message",
        [
            ([np.zeros((5, 4)), np.zeros((5, 3))], None, "width"),
            ([np.zeros((5, 4)), np.zeros((4, 4))], None, "4 rows for 5"),
            ([iter([np.zeros((3, 4)), np.zeros((3, 4))])], None, "6 rows for 5"),
            ([np.zeros((5, 4))], np.zeros(4), "one pseudolabel per example"),
        ],
    )
    def test_bad_input_rejected_and_nothing_written(self, tmp_path, blocks, labels, message):
        with pytest.raises(ValueError, match=message):
            write_store(tmp_path / "s.selg", blocks, np.zeros(5), labels, Projection(4, 4))
        assert list(tmp_path.iterdir()) == []


class TestScanScores:
    def _store(self, tmp_path, blocks, losses=None, labels=None):
        blocks = [np.asarray(b, dtype=np.float32) for b in blocks]
        n, k = blocks[0].shape
        losses = np.zeros(n) if losses is None else losses
        return write_store(tmp_path / "s.selg", blocks, losses, labels, Projection(k, k, seed=0))

    def test_dot_products(self, tmp_path):
        store = self._store(tmp_path, [[[1, 0], [0, 1]]])
        scores = scan_scores(store, [np.array([1.0, 0.0])])
        assert np.allclose(scores, [1.0, 0.0])

    def test_zero_dirs(self, tmp_path):
        store = self._store(tmp_path, [np.random.default_rng(0).standard_normal((5, 3))])
        assert np.abs(scan_scores(store, [np.zeros(3)])).max() == 0.0

    def test_matches_dense_oracle(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gradstore, "_READ_BLOCK_ROWS", 7)
        rng = np.random.default_rng(2)
        blocks = [rng.standard_normal((100, 6)), rng.standard_normal((100, 6))]
        dirs = [rng.standard_normal(6), rng.standard_normal(6)]
        store = self._store(tmp_path, blocks)
        scores = scan_scores(store, dirs)
        dense = sum(
            np.asarray(b, dtype=np.float32).astype(np.float64) @ d
            for b, d in zip(blocks, dirs)
        )
        assert np.allclose(scores, dense, atol=1e-5)

    def test_dimension_mismatch(self, tmp_path):
        store = self._store(tmp_path, [[[1, 0], [0, 1]]])
        with pytest.raises(ValueError, match="direction"):
            scan_scores(store, [np.zeros(3)])
        with pytest.raises(ValueError, match="checkpoints"):
            scan_scores(store, [np.zeros(2), np.zeros(2)])


class TestStoreScores:
    """GradientStore.scores: the one float64 pass every selector reads."""

    @staticmethod
    def _random_store(tmp_dir, seed, n, k, p):
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((n, k)).astype(np.float32) for _ in range(p)]
        dirs = [rng.standard_normal(k) for _ in range(p)]
        store = write_store(
            Path(tmp_dir) / "s.selg", blocks, np.zeros(n), None, Projection(k, k, seed=0)
        )
        return store, blocks, dirs

    @staticmethod
    def _count_block_reads(monkeypatch) -> list:
        calls = []
        original = GradientStore.block

        def counted(self, j):
            calls.append(j)
            return original(self, j)

        monkeypatch.setattr(GradientStore, "block", counted)
        return calls

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        k=st.integers(1, 24),
        p=st.integers(1, 3),
        read_rows=st.integers(1, 8),
    )
    def test_matches_dense_float64_oracle(self, seed, n, k, p, read_rows):
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(gradstore, "_READ_BLOCK_ROWS", read_rows)
            store, blocks, dirs = self._random_store(tmp, seed, n, k, p)
            static, sqnorm = store.scores(dirs)
        assert static.shape == sqnorm.shape == (p, n)
        for j, (b, d) in enumerate(zip(blocks, dirs)):
            b64 = b.astype(np.float64)
            scale = np.abs(b64) @ np.abs(d)
            assert np.all(np.abs(static[j] - b64 @ d) <= 1e-12 * scale)
            want = (b64 * b64).sum(axis=1)
            assert np.all(np.abs(sqnorm[j] - want) <= 1e-12 * want)

    def test_equal_directions_read_the_rows_once(self, tmp_path, monkeypatch):
        store, _, dirs = self._random_store(tmp_path, 0, 30, 5, 2)
        calls = self._count_block_reads(monkeypatch)
        first = store.scores(dirs)
        assert calls == [0, 1]
        again = store.scores([d.copy() for d in dirs])
        assert calls == [0, 1]
        assert again[0] is first[0] and again[1] is first[1]

    def test_changed_directions_recompute(self, tmp_path, monkeypatch):
        store, blocks, dirs = self._random_store(tmp_path, 1, 30, 5, 2)
        static, _ = store.scores(dirs)
        calls = self._count_block_reads(monkeypatch)
        moved = [dirs[0], dirs[1] + 1.0]
        static_moved, _ = store.scores(moved)
        assert calls == [0, 1]
        assert np.array_equal(static_moved[0], static[0])
        assert np.allclose(static_moved[1], blocks[1].astype(np.float64) @ moved[1])
        assert not np.allclose(static_moved[1], static[1])

    def test_result_is_read_only(self, tmp_path):
        store, _, dirs = self._random_store(tmp_path, 2, 10, 4, 1)
        static, sqnorm = store.scores(dirs)
        with pytest.raises(ValueError, match="read-only"):
            static[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sqnorm[0, 0] = 1.0


class TestStoreLayout:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 300),
        k=st.integers(1, 40),
        p=st.integers(1, 3),
        fingerprint=st.text(alphabet="0123456789abcdef", max_size=70),
        labelled=st.booleans(),
    )
    def test_write_store_aligned_and_unpadded_store_still_opens(
        self, n, k, p, fingerprint, labelled
    ):
        rng = np.random.default_rng(n * 1000 + k)
        blocks = [rng.standard_normal((n, k)).astype(np.float32) for _ in range(p)]
        losses = rng.random(n)
        labels = rng.integers(0, 4, n) if labelled else None
        with tempfile.TemporaryDirectory() as tmp:
            path, old = Path(tmp) / "s.selg", Path(tmp) / "old.selg"
            store = write_store(
                path, blocks, losses, labels, Projection(k, k), fingerprints=[fingerprint] * p
            )
            assert data_offset(path) % 64 == 0
            write_legacy_store(path, old)
            legacy = GradientStore(old)
            for j in range(p):
                assert store.block(j).flags.aligned
                assert np.array_equal(store.block(j), blocks[j])
                assert np.array_equal(legacy.block(j), store.block(j))
            assert legacy.header == {**store.header, "chunk_rows": 1024}
            assert np.array_equal(legacy.final_losses, store.final_losses)
            assert np.array_equal(legacy.pseudolabels, store.pseudolabels)
            assert legacy.has_labels == store.has_labels == labelled
