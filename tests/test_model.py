import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import padded, padding_case, reference_losses
from gradselect.corpus import NUM_RESERVED, PAD_ID, Document, DocumentSet, build_vocab
from gradselect.model import (
    OPTIMIZER_KINDS,
    TASK_CLASSIFICATION,
    TASKS,
    EvalMetrics,
    ModelConfig,
    ModelParams,
    OptimizerConfig,
    OptimizerState,
    batch_loss_and_grads,
    batch_mean_loss,
    checkpoint_header,
    evaluate,
    init_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    train,
    _at_targets,
    _head_positions,
    _per_example_losses,
    _scatter_add_rows,
    _swap,
    _unpad,
)
from gradselect.toycorpus import make_classification_corpus


def one_row(ids, valid_len=None):
    """One document as a one-row batch: (1, s) ids and its (1,) valid length."""
    arr = np.asarray(ids, dtype=np.int64)[None, :]
    return arr, np.array([valid_len if valid_len is not None else int((arr != 0).sum())])


# The masked step that the padded-table step replaced, kept as its oracle.
# Every position reads its own id's embedding row times a 0/1 token mask, the
# classification backward is one float64 bincount over (row, column) bins,
# and the optimizer allocates every temporary.


def ref_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def ref_embedding_rows(params, ids):
    if params.num_models is None:
        return ids
    return ids + (np.arange(params.num_models) * params.config.vocab_size)[:, None, None]


def ref_head_positions(params, ids, lens, labels=None):
    cfg = params.config
    classify = cfg.task == TASK_CLASSIFICATION
    ids = _unpad(ids, lens)
    s, h = ids.shape[-1], cfg.embed_dim
    tok_mask = np.arange(s) < lens[..., None]
    emb = params.embedding.reshape(-1, h)[ref_embedding_rows(params, ids)] * tok_mask[..., None]
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
    logp = ref_log_softmax(z @ _swap(params.head_w) + params.head_b[..., None, :])
    logp = logp.reshape(*context.shape[:-1], cfg.head_dim)
    return context, z.reshape(context.shape), logp, targets, mask


def ref_example_nll(logp, targets, mask):
    nll = -logp.reshape(-1, logp.shape[-1])[_at_targets(targets)].reshape(targets.shape)
    return (nll * mask).sum(axis=-1) / mask.sum(axis=-1)


def ref_loss_and_grads(params, ids, lens, labels):
    cfg = params.config
    dtype = params.embedding.dtype
    lead = params.embedding.shape[:-2]
    n, h = ids.shape[-2], cfg.embed_dim
    ids = _unpad(ids, lens)
    context, z, logp, targets, mask = ref_head_positions(params, ids, lens, labels)
    loss_val = ref_example_nll(logp, targets, mask).mean(axis=-1)
    err = np.exp(logp).astype(logp.dtype)
    err.reshape(-1, err.shape[-1])[_at_targets(targets)] -= 1.0
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
    rows = ref_embedding_rows(params, ids)
    if cfg.task == TASK_CLASSIFICATION:
        tokens = np.nonzero(np.arange(ids.shape[-1]) < lens[..., None])
        contrib = (dcontext / lens[..., None].astype(dtype))[tokens[:-1]]
        bins = (rows[tokens][:, None] * h + np.arange(h)).ravel()
        d_emb = np.bincount(bins, contrib.ravel(), minlength=params.embedding.size)
        grads["embedding"] = d_emb.astype(dtype).reshape(params.embedding.shape)
    else:
        counts = np.arange(1, ids.shape[-1], dtype=dtype)
        dcsum = dcontext.reshape(context.shape) / counts[:, None]
        dpos = np.flip(np.cumsum(np.flip(dcsum, axis=-2), axis=-2), axis=-2)
        d_emb = np.zeros_like(params.embedding)
        _scatter_add_rows(d_emb.reshape(-1, h), rows[..., :-1][mask], dpos[mask])
        grads["embedding"] = d_emb
    return loss_val, grads


def ref_optimizer_step(params, grads, state, opt):
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
        _, _, logp, _, _ = _head_positions(params, *one_row([2, 5, 0, 0]))
        bias = params.head_b.astype(np.float64)
        assert np.allclose(np.exp(logp[0, 0]), np.exp(bias) / np.exp(bias).sum())

    def test_probs_sum_to_one(self):
        cfg = ModelConfig(vocab_size=30, embed_dim=6, num_classes=5, hidden_layer=True)
        params = init_params(cfg, 3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids = rng.integers(2, 30, size=8)
            _, _, logp, _, _ = _head_positions(params, *one_row(ids))
            assert abs(np.exp(logp).sum() - 1.0) < 1e-6

    def test_permutation_invariant_pooling(self):
        cfg = ModelConfig(vocab_size=30, embed_dim=6, num_classes=4)
        params = init_params(cfg, 1)
        a = _head_positions(params, *one_row([3, 7, 9, 0], 3))[0]
        b = _head_positions(params, *one_row([9, 3, 7, 0], 3))[0]
        assert np.allclose(a, b, atol=1e-6)

    def test_zero_valid_len_rejected(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=3)
        with pytest.raises(ValueError):
            _head_positions(init_params(cfg, 0), *one_row([0, 0], 0))

    def test_next_token_shapes(self):
        cfg = ModelConfig(vocab_size=11, embed_dim=4, task="next_token")
        _, _, logp, _, _ = _head_positions(init_params(cfg, 0), *one_row([2, 3, 4, 0], 3))
        assert logp.shape == (1, 2, 11)
        assert np.allclose(np.exp(logp).sum(axis=-1), 1.0, atol=1e-6)


class TestLoss:
    def test_certain_prediction_zero_loss(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=3)
        params = init_params(cfg, 0)
        params.embedding[:] = 0.0
        params.head_b[:] = np.array([40.0, 0.0, 0.0], dtype=np.float32)
        assert _per_example_losses(params, *one_row([2, 3]), np.array([0]))[0] < 1e-6

    def test_uniform_probs_log_c(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, num_classes=4)
        params = init_params(cfg, 0)
        params.embedding[:] = 0.0
        params.head_w[:] = 0.0
        params.head_b[:] = 0.0
        loss = _per_example_losses(params, *one_row([2, 3]), np.array([1]))[0]
        assert abs(loss - np.log(4)) < 1e-6

    def test_non_negative(self):
        cfg = ModelConfig(vocab_size=40, embed_dim=8, num_classes=5, hidden_layer=True)
        params = init_params(cfg, 2)
        rng = np.random.default_rng(1)
        for _ in range(25):
            ids = rng.integers(2, 40, size=10)
            label = np.array([rng.integers(0, 5)])
            assert _per_example_losses(params, *one_row(ids), label)[0] >= 0.0

    def test_next_token_needs_two_tokens(self):
        cfg = ModelConfig(vocab_size=9, embed_dim=4, task="next_token")
        with pytest.raises(ValueError, match="2 tokens"):
            _per_example_losses(init_params(cfg, 0), *one_row([2, 0], 1), None)


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


@st.composite
def step_cases(draw):
    """A batch for either task: solo or K = 1..4 stacked models, float32 or
    float64, documents of every valid length up to the width, some longer and
    cut to it, drawn from a few token ids so that tokens repeat."""
    task = draw(st.sampled_from(TASKS))
    num_models = draw(st.sampled_from([None, 1, 2, 3, 4]))
    width = draw(st.integers(2, 9))
    least = 1 if task == TASK_CLASSIFICATION else 2
    docs = draw(st.lists(st.integers(least, width + 3), min_size=1, max_size=5))
    cfg = ModelConfig(
        vocab_size=draw(st.integers(NUM_RESERVED + 2, 12)),
        embed_dim=draw(st.integers(2, 5)),
        num_classes=3,
        hidden_layer=draw(st.booleans()),
        task=task,
    )
    seed = draw(st.integers(0, 2**16))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    models = [init_params(cfg, seed + k).astype(dtype) for k in range(num_models or 1)]
    for model in models:
        model.head_b[:] = rng.normal(0.0, 0.5, model.head_b.shape)
    params = models[0] if num_models is None else ModelParams.stack(models)
    lead = () if num_models is None else (num_models,)
    alphabet = rng.integers(NUM_RESERVED, cfg.vocab_size, 3)
    tokens = [rng.choice(alphabet, n)[:width] for n in docs * (num_models or 1)]
    ids = padded(tokens, width).reshape(*lead, len(docs), width)
    lens = np.array([len(t) for t in tokens], dtype=np.int32).reshape(*lead, len(docs))
    labels = rng.integers(0, 3, lens.shape) if task == TASK_CLASSIFICATION else None
    return params, ids, lens, labels


class TestMaskedStepOracle:
    """The step, the losses and the optimizer give the masked step's values exactly."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=step_cases())
    def test_step_and_updates_equal_the_masked_step(self, case):
        params, ids, lens, labels = case
        loss, grads = batch_loss_and_grads(params, ids, lens, labels)
        ref_loss, ref_grads = ref_loss_and_grads(params, ids, lens, labels)
        assert np.asarray(loss).dtype == np.asarray(ref_loss).dtype
        assert np.array_equal(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert grad.dtype == ref_grads[name].dtype and np.array_equal(grad, ref_grads[name])
        _, _, logp, targets, mask = ref_head_positions(params, ids, lens, labels)
        ref_losses = ref_example_nll(logp, targets, mask)
        assert np.array_equal(_per_example_losses(params, ids, lens, labels), ref_losses)
        assert np.array_equal(_head_positions(params, ids, lens, labels)[2], logp)
        for kind in OPTIMIZER_KINDS:
            opt = OptimizerConfig(kind=kind, learning_rate=0.05, weight_decay=0.1)
            new, ref = params.copy(), params.copy()
            state = ref_state = None
            for _ in range(2):  # the second step reuses the moments and scratch
                new, state = optimizer_step(new, grads, state, opt)
                ref, ref_state = ref_optimizer_step(ref, ref_grads, ref_state, opt)
            for name, block in new.blocks().items():
                assert np.array_equal(block, ref.blocks()[name]), (kind, name)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_negative_zero_pooled_sum(self, kind):
        # Both valid tokens of document 0 hold -0.0 in column 0; the masked
        # step adds PAD's entry times 0 there, -1.0 * 0 = -0.0, and the padded
        # table adds its zero row's +0.0.
        cfg = ModelConfig(vocab_size=6, embed_dim=3, num_classes=2)
        params = init_params(cfg, 0)
        params.embedding[[2, 3], 0] = -0.0
        params.embedding[PAD_ID, 0] = -1.0
        ids = np.array([[2, 3, PAD_ID], [4, 5, 4]], dtype=np.int32)
        lens = np.array([2, 3], dtype=np.int32)
        labels = np.array([1, 0])
        pooled = _head_positions(params, ids, lens, labels)[0][0, 0, 0]
        ref_pooled = ref_head_positions(params, ids, lens, labels)[0][0, 0, 0]
        # numpy's sum starts from +0.0, so both pool +0.0. A sum that started
        # from its first term would give -0.0 in the masked step, and the sign
        # still could not reach the parameters: the pooled value meets the
        # head only in products, whose signed zeros are then added to a
        # nonzero sum (x + -0.0 == x + 0.0) or to Adam's moments, which start
        # at +0.0 (+0.0 + -0.0 == +0.0). The step moves every weight by the
        # same amount, as these bit patterns confirm.
        assert pooled == ref_pooled == 0.0 and not np.signbit(pooled)
        opt = OptimizerConfig(kind=kind, learning_rate=0.05)
        new, _ = optimizer_step(params.copy(), batch_loss_and_grads(params, ids, lens, labels)[1], None, opt)
        ref, _ = ref_optimizer_step(params.copy(), ref_loss_and_grads(params, ids, lens, labels)[1], None, opt)
        for name, block in new.blocks().items():
            assert np.array_equal(block.view(np.uint32), ref.blocks()[name].view(np.uint32)), name


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
        # The overflow that makes the NaN is intended here; anywhere else it fails tier-1.
        with pytest.raises(RuntimeError, match=r"NaN loss in epoch 0 batch \d+"):
            with pytest.warns(RuntimeWarning):
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

    def test_invalid_validation_label_rejected(self):
        docs = _toy_two_class(40)
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        validation = DocumentSet([*docs.subset(range(9)), Document(9, "hot thing", 2)])
        opt = OptimizerConfig(kind="sgd", learning_rate=0.1, epochs=1, batch_size=8, seed=0)
        with pytest.raises(ValueError, match="label"):
            train(init_params(cfg, 0), docs, opt, vocab, 8, validation=validation)

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

    def _labelled(self, label):
        """A 3-class model and 20 documents, the last of them labelled ``label``."""
        docs = DocumentSet(Document(i, f"w{i % 5} x", i % 3 if i < 19 else label) for i in range(20))
        vocab = build_vocab(docs, 16)
        return init_params(ModelConfig(vocab_size=vocab.size, embed_dim=4, num_classes=3), 0), docs, vocab

    def test_invalid_label_rejected(self):
        params, docs, vocab = self._labelled(3)
        with pytest.raises(ValueError, match="label"):
            evaluate(params, docs, vocab, 8)

    def test_negative_label_rejected(self):
        # -1 would index the last class and score as a wrong prediction.
        params, docs, vocab = self._labelled(-1)
        with pytest.raises(ValueError, match="label"):
            evaluate(params, docs, vocab, 8)

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
        meta = {"optimizer": "adam", "seed": 4, "epochs": 3}
        save_checkpoint(params, path, meta=meta)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for (_, a), (_, b) in zip(params.blocks().items(), loaded.blocks().items()):
            assert np.array_equal(a, b)
        assert checkpoint_header(path)[0]["meta"] == meta
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

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
