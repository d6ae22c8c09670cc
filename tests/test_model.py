import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import padded, padding_case, reference_losses
from gradselect.corpus import Document, DocumentSet, TokenSeq, build_vocab
from gradselect.model import (
    TASKS,
    EvalMetrics,
    ModelConfig,
    ModelParams,
    OptimizerConfig,
    OptimizerState,
    batch_loss_and_grads,
    batch_mean_loss,
    evaluate,
    forward,
    init_params,
    load_checkpoint,
    loss,
    optimizer_step,
    save_checkpoint,
    train,
    _per_example_losses,
)
from gradselect.toycorpus import make_classification_corpus


def seq(ids, valid_len=None):
    arr = np.asarray(ids, dtype=np.int32)
    return TokenSeq(arr, valid_len if valid_len is not None else int((arr != 0).sum()))


class TestInitParams:
    def test_deterministic(self):
        cfg = ModelConfig(vocab_size=20, embed_dim=8, num_classes=3)
        a, b = init_params(cfg, 7), init_params(cfg, 7)
        for (_, x), (_, y) in zip(a.blocks().items(), b.blocks().items()):
            assert np.array_equal(x, y)

    def test_row_norms_near_one(self):
        # std 1/sqrt(h) gives expected squared row norm 1
        cfg = ModelConfig(vocab_size=1000, embed_dim=4, num_classes=2)
        params = init_params(cfg, 0)
        mean_sq = float((params.embedding.astype(np.float64) ** 2).sum(axis=1).mean())
        assert abs(mean_sq - 1.0) < 0.15

    def test_seeds_differ(self):
        cfg = ModelConfig(vocab_size=20, embed_dim=8, num_classes=3)
        assert not np.array_equal(init_params(cfg, 0).embedding, init_params(cfg, 1).embedding)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=2, embed_dim=8)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=8, embed_dim=1)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=8, embed_dim=4, num_classes=1)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=8, embed_dim=4, task="regression")


class TestForward:
    def test_zero_embedding_gives_bias_logits(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=3)
        params = init_params(cfg, 0)
        params.embedding[:] = 0.0
        params.head_b[:] = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        out = forward(params, seq([2, 5, 0, 0]))
        assert np.allclose(out.logits, params.head_b)

    def test_probs_sum_to_one(self):
        cfg = ModelConfig(vocab_size=30, embed_dim=6, num_classes=5, hidden_layer=True)
        params = init_params(cfg, 3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids = rng.integers(2, 30, size=8)
            out = forward(params, seq(ids))
            assert abs(out.probs.sum() - 1.0) < 1e-6

    def test_permutation_invariant_pooling(self):
        cfg = ModelConfig(vocab_size=30, embed_dim=6, num_classes=4)
        params = init_params(cfg, 1)
        a = forward(params, seq([3, 7, 9, 0], 3))
        b = forward(params, seq([9, 3, 7, 0], 3))
        assert np.allclose(a.pooled_hidden, b.pooled_hidden, atol=1e-6)

    def test_zero_valid_len_rejected(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=3)
        with pytest.raises(ValueError):
            forward(init_params(cfg, 0), seq([0, 0], 0))

    def test_next_token_shapes(self):
        cfg = ModelConfig(vocab_size=11, embed_dim=4, task="next_token")
        out = forward(init_params(cfg, 0), seq([2, 3, 4, 0], 3))
        assert out.logits.shape == (2, 11)
        assert np.allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)


class TestLoss:
    def test_certain_prediction_zero_loss(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=3)
        params = init_params(cfg, 0)
        params.embedding[:] = 0.0
        params.head_b[:] = np.array([40.0, 0.0, 0.0], dtype=np.float32)
        assert loss(params, seq([2, 3]), 0) < 1e-6

    def test_uniform_probs_log_c(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=4)
        params = init_params(cfg, 0)
        params.embedding[:] = 0.0
        params.head_w[:] = 0.0
        params.head_b[:] = 0.0
        assert abs(loss(params, seq([2, 3]), 1) - np.log(4)) < 1e-6

    def test_non_negative(self):
        cfg = ModelConfig(vocab_size=40, embed_dim=8, num_classes=5, hidden_layer=True)
        params = init_params(cfg, 2)
        rng = np.random.default_rng(1)
        for _ in range(25):
            ids = rng.integers(2, 40, size=10)
            assert loss(params, seq(ids), int(rng.integers(0, 5))) >= 0.0

    def test_invalid_label_rejected(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=3)
        with pytest.raises(ValueError, match="label"):
            loss(init_params(cfg, 0), seq([2, 3]), 7)

    def test_next_token_needs_two_tokens(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, task="next_token")
        with pytest.raises(ValueError, match="2 tokens"):
            loss(init_params(cfg, 0), seq([2, 0], 1))

    def test_next_token_takes_no_label(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, task="next_token")
        params = init_params(cfg, 0)
        x = seq([2, 3, 4, 0], 3)
        ids, lens = np.asarray(x.ids)[None, :], np.array([3])
        assert loss(params, x) == _per_example_losses(params, ids, lens, None)[0]
        with pytest.raises(ValueError, match="no label"):
            loss(params, x, [2, 3, 4, 0])


class TestGradients:
    @pytest.mark.parametrize("task", ["classification", "next_token"])
    @pytest.mark.parametrize("hidden", [False, True])
    def test_matches_finite_differences(self, task, hidden):
        cfg = ModelConfig(
            vocab_size=13, embed_dim=5, num_classes=4, hidden_layer=hidden, task=task
        )
        params = init_params(cfg, 3).astype(np.float64)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 13, (3, 7)).astype(np.int64)
        lens = np.array([7, 4, 2])
        labels = rng.integers(0, 4, 3) if task == "classification" else None
        _, grads = batch_loss_and_grads(params, ids, lens, labels)
        for name, block in params.blocks().items():
            flat = block.ravel()
            for idx in rng.choice(flat.size, min(20, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + 1e-3
                up = batch_mean_loss(params, ids, lens, labels)
                flat[idx] = old - 1e-3
                down = batch_mean_loss(params, ids, lens, labels)
                flat[idx] = old
                fd = (up - down) / 2e-3
                analytic = grads[name].ravel()[idx]
                assert abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8) < 1e-4


class TestPaddingInvariance:
    """Losses and gradients see the valid tokens only, not the batch width."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        task=st.sampled_from(TASKS),
        hidden=st.booleans(),
        lens=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        extra=st.integers(1, 40),
        seed=st.integers(0, 1000),
    )
    def test_extra_padding_changes_no_loss_or_gradient(self, task, hidden, lens, extra, seed):
        params, docs, lens, labels = padding_case(task, hidden, lens, seed)
        narrow, wide = padded(docs, lens.max()), padded(docs, lens.max() + extra)
        loss_a, grads_a = batch_loss_and_grads(params, narrow, lens, labels)
        loss_b, grads_b = batch_loss_and_grads(params, wide, lens, labels)
        assert loss_b == pytest.approx(loss_a, rel=1e-6)
        assert grads_a.keys() == grads_b.keys() == params.blocks().keys()
        for name in grads_a:
            np.testing.assert_allclose(grads_b[name], grads_a[name], rtol=1e-5, atol=1e-7)
        losses = _per_example_losses(params, wide, lens, labels)
        np.testing.assert_allclose(losses, _per_example_losses(params, narrow, lens, labels), rtol=1e-6)
        np.testing.assert_allclose(losses, reference_losses(params, docs, labels), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("task", TASKS)
    def test_empty_document_still_rejected(self, task):
        params, docs, _, labels = padding_case(task, True, [3, 4], 0)
        message = "at least 1 token" if task == "classification" else "at least 2 tokens"
        for bad in ([0, 4], [0, 0]):
            bad = np.array(bad)
            with pytest.raises(ValueError, match=message):
                batch_loss_and_grads(params, padded(docs, 8), bad, labels)
            with pytest.raises(ValueError, match=message):
                _per_example_losses(params, padded(docs, 8), bad, labels)

    @pytest.mark.parametrize("task", TASKS)
    def test_empty_batch_gives_no_losses(self, task):
        params, _, _, _ = padding_case(task, False, [3], 0)
        labels = np.zeros(0, dtype=np.int64) if task == "classification" else None
        out = _per_example_losses(params, np.zeros((0, 8), np.int32), np.zeros(0, np.int32), labels)
        assert out.shape == (0,)


class TestOptimizerStep:
    def _scalar_params(self, value=1.0):
        cfg = ModelConfig(vocab_size=3, embed_dim=2, num_classes=2)
        params = init_params(cfg, 0)
        for block in params.blocks().values():
            block[:] = value
        return params

    def _unit_grads(self, params, value=1.0):
        return {n: np.full_like(b, value) for n, b in params.blocks().items()}

    def test_sgd_definition(self):
        params = self._scalar_params(1.0)
        opt = OptimizerConfig(kind="sgd", learning_rate=0.1, epochs=1)
        params, _ = optimizer_step(params, self._unit_grads(params), None, opt)
        assert np.allclose(params.head_w, 0.9, atol=1e-7)

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step is ~lr regardless of gradient scale
        for g in (0.01, 1.0, 250.0):
            params = self._scalar_params(0.0)
            opt = OptimizerConfig(kind="adam", learning_rate=0.05, epochs=1)
            params, _ = optimizer_step(params, self._unit_grads(params, g), None, opt)
            assert np.allclose(params.head_w, -0.05, rtol=1e-5)

    def test_adamw_zero_decay_matches_adam(self):
        pa = self._scalar_params(1.0)
        pw = self._scalar_params(1.0)
        adam = OptimizerConfig(kind="adam", learning_rate=0.02, epochs=1)
        adamw = OptimizerConfig(kind="adamw", learning_rate=0.02, weight_decay=0.0, epochs=1)
        sa = sw = None
        rng = np.random.default_rng(0)
        for _ in range(5):
            grads = {n: rng.standard_normal(b.shape).astype(np.float32) for n, b in pa.blocks().items()}
            pa, sa = optimizer_step(pa, grads, sa, adam)
            pw, sw = optimizer_step(pw, {n: g.copy() for n, g in grads.items()}, sw, adamw)
        for (_, a), (_, w) in zip(pa.blocks().items(), pw.blocks().items()):
            assert np.array_equal(a, w)

    def test_adamw_decays_weights(self):
        params = self._scalar_params(1.0)
        opt = OptimizerConfig(kind="adamw", learning_rate=0.1, weight_decay=0.5, epochs=1)
        params, _ = optimizer_step(params, self._unit_grads(params, 0.0), None, opt)
        # no gradient: only the decoupled decay term moves the weights
        assert np.allclose(params.head_w, 1.0 - 0.1 * 0.5, atol=1e-6)


def _toy_two_class(n=120):
    docs = []
    for i in range(n):
        word = "hot" if i % 2 == 0 else "cold"
        docs.append(Document(i, f"{word} {word} thing", i % 2))
    return DocumentSet(docs)


class TestTrain:
    def test_separable_data_high_accuracy(self):
        docs = _toy_two_class()
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        for s in (0, 1, 2):
            theta0 = init_params(cfg, s)
            opt = OptimizerConfig(kind="adam", learning_rate=0.05, epochs=5, batch_size=16, seed=s)
            final, _ = train(theta0, docs, opt, vocab, 8)
            metrics = evaluate(final, docs, vocab, 8)
            assert metrics.accuracy >= 0.95

    def test_zero_learning_rate_sgd_is_noop(self):
        docs = _toy_two_class(40)
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        theta0 = init_params(cfg, 0)
        opt = OptimizerConfig(kind="sgd", learning_rate=0.0, epochs=2, batch_size=8, seed=0)
        final, _ = train(theta0, docs, opt, vocab, 8)
        for (_, a), (_, b) in zip(theta0.blocks().items(), final.blocks().items()):
            assert np.array_equal(a, b)

    def test_trace_length_equals_epochs(self):
        docs = _toy_two_class(40)
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        opt = OptimizerConfig(kind="adam", learning_rate=0.01, epochs=4, batch_size=8, seed=0)
        _, trace = train(init_params(cfg, 0), docs, opt, vocab, 8)
        assert len(trace) == 4

    def test_deterministic(self):
        docs = _toy_two_class(60)
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        opt = OptimizerConfig(kind="adam", learning_rate=0.02, epochs=3, batch_size=16, seed=9)
        a, _ = train(init_params(cfg, 1), docs, opt, vocab, 8)
        b, _ = train(init_params(cfg, 1), docs, opt, vocab, 8)
        for (_, x), (_, y) in zip(a.blocks().items(), b.blocks().items()):
            assert np.array_equal(x, y)

    def test_validation_picks_best_epoch(self):
        docs = _toy_two_class(60)
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        opt = OptimizerConfig(kind="adam", learning_rate=0.05, epochs=6, batch_size=16, seed=0)
        final, _ = train(init_params(cfg, 0), docs, opt, vocab, 8, validation=docs)
        base = batch_mean_loss  # sanity: validation model at least as good as theta0
        assert evaluate(final, docs, vocab, 8).mean_loss <= np.log(2) + 0.05

    def test_nan_loss_aborts_with_batch_index(self):
        docs = _toy_two_class(40)
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        theta0 = init_params(cfg, 0)
        theta0.embedding[:] = np.float32(3e38)
        opt = OptimizerConfig(kind="sgd", learning_rate=0.1, epochs=1, batch_size=8, seed=0)
        with pytest.raises(RuntimeError, match=r"NaN loss in epoch 0 batch \d+"):
            train(theta0, docs, opt, vocab, 8)

    def test_inf_loss_aborts_with_batch_index(self):
        # a -inf bias gives class 1 log-probability -inf, so any batch
        # holding a class-1 document has an infinite (not NaN) mean loss
        docs = _toy_two_class(40)
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        theta0 = init_params(cfg, 0)
        theta0.head_w[:] = 0.0
        theta0.head_b[:] = np.array([0.0, -np.inf], dtype=np.float32)
        opt = OptimizerConfig(kind="sgd", learning_rate=0.1, epochs=1, batch_size=8, seed=0)
        with pytest.raises(RuntimeError, match=r"^inf loss in epoch 0 batch \d+$"):
            train(theta0, docs, opt, vocab, 8)

    def test_empty_data_rejected(self):
        vocab = build_vocab(_toy_two_class(4), 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        opt = OptimizerConfig(kind="sgd", learning_rate=0.1, epochs=1)
        with pytest.raises(ValueError, match="empty"):
            train(init_params(cfg, 0), DocumentSet([]), opt, vocab, 8)


class TestLockstep:
    """K models stacked on a leading axis train and score as K solo runs, bit for bit."""

    K, SLICE, EPOCHS = 3, 30, 5

    def _setup(self, kind, hidden):
        docs = make_classification_corpus(200, 4, seed=3)
        vocab = build_vocab(docs, 256)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=4, hidden_layer=hidden)
        lr = 2.0 if kind == "sgd" else 0.2
        opt = OptimizerConfig(kind=kind, learning_rate=lr, epochs=self.EPOCHS, batch_size=8, seed=1)
        slices = [docs.subset(range(self.SLICE * k, self.SLICE * (k + 1))) for k in range(self.K)]
        return docs, vocab, init_params(cfg, 0), opt, slices

    @staticmethod
    def _equal(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a.blocks().values(), b.blocks().values()))

    def _chosen_epoch(self, final, theta0, data, opt, vocab):
        """The epoch whose end params ``final`` holds; shorter runs are prefixes of longer ones."""
        for epoch in range(1, opt.epochs + 1):
            shorter = OptimizerConfig(**{**opt.to_dict(), "epochs": epoch})
            if self._equal(train(theta0, data, shorter, vocab, 16)[0], final):
                return epoch
        return None

    @pytest.mark.parametrize("kind", ["sgd", "adam", "adamw"])
    @pytest.mark.parametrize("hidden", [False, True])
    @pytest.mark.parametrize("with_validation", [False, True])
    def test_stacked_train_equals_solo_runs(self, kind, hidden, with_validation):
        docs, vocab, theta0, opt, slices = self._setup(kind, hidden)
        validation = docs.subset(range(150, 200)) if with_validation else None
        solo = [train(theta0, data, opt, vocab, 16, validation) for data in slices]
        joined = docs.subset(range(self.K * self.SLICE))
        initial = ModelParams.stack([theta0] * self.K)
        stacked, traces = train(initial, joined, opt, vocab, 16, validation)
        assert stacked.num_models == self.K
        assert traces == [trace for _, trace in solo]
        chosen = []
        for model, (final, _), data in zip(stacked.models(), solo, slices):
            assert self._equal(model, final)
            epoch = self._chosen_epoch(model, theta0, data, opt, vocab)
            assert epoch == self._chosen_epoch(final, theta0, data, opt, vocab)
            chosen.append(epoch)
        if with_validation:
            # The snapshot is exercised: some model keeps an epoch before the last.
            assert min(chosen) < self.EPOCHS
        else:
            assert chosen == [self.EPOCHS] * self.K
        test = docs.subset(range(100, 150))
        assert evaluate(stacked, test, vocab, 16) == [evaluate(f, test, vocab, 16) for f, _ in solo]

    def test_non_finite_loss_in_one_model_raises(self):
        docs, vocab, theta0, opt, _ = self._setup("sgd", False)
        broken = theta0.copy()
        broken.head_w[:] = 0.0
        broken.head_b[:] = np.array([0.0, -np.inf, 0.0, 0.0], dtype=np.float32)
        joined = docs.subset(range(self.K * self.SLICE))
        stacked = ModelParams.stack([theta0, broken, theta0])
        with pytest.raises(RuntimeError, match=r"^inf loss in epoch 0 batch \d+ of model 1$"):
            train(stacked, joined, opt, vocab, 16)

    def test_unequal_slices_rejected(self):
        docs, vocab, theta0, opt, _ = self._setup("adam", False)
        with pytest.raises(ValueError, match="equal slices"):
            train(ModelParams.stack([theta0] * 2), docs.subset(range(31)), opt, vocab, 16)

    def test_stack_round_trip(self):
        cfg = ModelConfig(vocab_size=11, embed_dim=4, num_classes=3, hidden_layer=True)
        models = [init_params(cfg, seed) for seed in range(3)]
        stacked = ModelParams.stack(models)
        assert stacked.num_models == 3 and models[0].num_models is None
        assert len(models[0].models()) == 1 and models[0].models()[0] is models[0]
        for got, want in zip(stacked.models(), models):
            assert self._equal(got, want)
            got.validate()


class TestEvaluate:
    def test_uniform_classifier(self):
        docs = DocumentSet(Document(i, f"w{i % 7} x", i % 4) for i in range(100))
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, num_classes=4)
        params = init_params(cfg, 0)
        for block in params.blocks().values():
            block[:] = 0.0
        metrics = evaluate(params, docs, vocab, 8)
        assert metrics.accuracy == 0.25  # argmax ties resolve to class 0
        assert abs(metrics.mean_loss - np.log(4)) < 1e-6

    def test_perfect_predictor(self):
        docs = DocumentSet(Document(i, "hot" if i % 2 == 0 else "cold", i % 2) for i in range(20))
        vocab = build_vocab(docs, 16)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, num_classes=2)
        params = init_params(cfg, 0)
        params.embedding[:] = 0.0
        params.embedding[vocab.index("hot")] = np.array([50, 0, 0, 0], dtype=np.float32)
        params.embedding[vocab.index("cold")] = np.array([-50, 0, 0, 0], dtype=np.float32)
        params.head_w[:] = 0.0
        params.head_w[0, 0] = 1.0
        params.head_w[1, 0] = -1.0
        params.head_b[:] = 0.0
        metrics = evaluate(params, docs, vocab, 4)
        assert metrics.accuracy == 1.0
        assert metrics.mean_loss < 1e-6

    def test_uniform_next_token_perplexity_is_vocab_size(self):
        docs = DocumentSet(Document(i, "a b c d", None) for i in range(5))
        vocab = build_vocab(docs, 8)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, task="next_token")
        params = init_params(cfg, 0)
        for block in params.blocks().values():
            block[:] = 0.0
        metrics = evaluate(params, docs, vocab, 6)
        assert abs(metrics.perplexity - vocab.size) < 1e-3
        assert metrics.accuracy is None


class TestCheckpoint:
    def _params(self):
        cfg = ModelConfig(vocab_size=17, embed_dim=6, num_classes=3, hidden_layer=True)
        return init_params(cfg, 4)

    def test_round_trip_bit_exact(self, tmp_path):
        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path, meta={"optimizer": "adam", "seed": 4, "epochs": 3})
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for (_, a), (_, b) in zip(params.blocks().items(), loaded.blocks().items()):
            assert np.array_equal(a, b)
        assert (tmp_path / "m.ckpt.meta.json").exists()

    def test_failed_write_leaves_no_partial_file(self, tmp_path, disk_full):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._params(), path)
        good = path.read_bytes()
        disk_full(64)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(self._params(), tmp_path / "new.ckpt")
        other = init_params(ModelConfig(vocab_size=17, embed_dim=6, num_classes=3), 5)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(other, path)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_truncated_file(self, tmp_path):
        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(ValueError, match="unexpected end of checkpoint"):
            load_checkpoint(path)

    def test_wrong_magic_names_expected(self, tmp_path):
        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="SELC"):
            load_checkpoint(path)

    def test_header_shape_mismatch(self, tmp_path):
        import json as json_mod
        import struct

        params = self._params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        header_len = struct.unpack("<I", raw[8:12])[0]
        header = json_mod.loads(raw[12 : 12 + header_len])
        header["tensors"][0]["shape"] = [1, 1]
        new_header = json_mod.dumps(header, sort_keys=True).encode()
        path.write_bytes(
            raw[:8] + struct.pack("<I", len(new_header)) + new_header + raw[12 + header_len :]
        )
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)
