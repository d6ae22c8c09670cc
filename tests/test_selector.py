import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradselect import gradstore
from gradselect.corpus import encode_documents
from gradselect.gradstore import GradientStore, Projection, write_store
from gradselect.model import ModelConfig, init_params
from gradselect.selector import (
    SelectionResult,
    _GreedyEngine,
    autolabel,
    load_selection,
    select_baseline,
    select_batch,
    select_greedy,
    synth_checkpoints,
    write_selection,
)
from gradselect.toycorpus import TOPIC_WORDS, make_classification_corpus


@pytest.fixture(autouse=True, scope="module")
def three_row_read_slices():
    """Stores stream in 3-row slices here, so every scan crosses slice boundaries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradstore, "_READ_BLOCK_ROWS", 3)
        yield


def make_store(tmp_path, blocks, losses=None, labels=None, name="s.selg"):
    blocks = [np.asarray(b, dtype=np.float32) for b in blocks]
    n, k = blocks[0].shape
    losses = np.arange(n, dtype=np.float64) if losses is None else np.asarray(losses)
    return write_store(tmp_path / name, blocks, losses, labels, Projection(k, k, seed=0))


class TestSynthCheckpoints:
    def _pair(self):
        cfg = ModelConfig(vocab_size=12, embed_dim=4, num_classes=3)
        return init_params(cfg, 0), init_params(cfg, 1)

    def test_single_checkpoint_is_theta0(self):
        theta0, theta_f = self._pair()
        sched = synth_checkpoints(theta0, theta_f, 1)
        assert len(sched) == 1
        assert np.array_equal(sched[0].embedding, theta0.embedding)

    def test_two_checkpoints_midpoint(self):
        theta0, theta_f = self._pair()
        sched = synth_checkpoints(theta0, theta_f, 2)
        mid = (theta0.head_w.astype(np.float64) + theta_f.head_w.astype(np.float64)) / 2
        assert np.allclose(sched[1].head_w, mid, atol=1e-6)

    def test_degenerate_equal_endpoints(self):
        theta0, _ = self._pair()
        sched = synth_checkpoints(theta0, theta0.copy(), 3)
        for ckpt in sched:
            assert np.array_equal(ckpt.head_w, theta0.head_w)

    def test_final_model_never_emitted(self):
        theta0, theta_f = self._pair()
        sched = synth_checkpoints(theta0, theta_f, 4)
        for ckpt in sched:
            assert not np.array_equal(ckpt.head_w, theta_f.head_w)

    def test_incompatible_rejected(self):
        theta0, _ = self._pair()
        other = init_params(ModelConfig(vocab_size=12, embed_dim=6, num_classes=3), 0)
        with pytest.raises(ValueError, match="incompatible"):
            synth_checkpoints(theta0, other, 2)


class TestAutolabel:
    def test_forced_argmax(self, make_docs):
        from gradselect.corpus import build_vocab

        docs = make_docs(["a b", "c d", "e f"])
        vocab = build_vocab(docs, 16)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, num_classes=4)
        params = init_params(cfg, 0)
        params.head_b[:] = np.array([0, 0, 30.0, 0], dtype=np.float32)
        batch = encode_documents(docs, vocab, 4)
        assert autolabel(batch, params).tolist() == [2, 2, 2]

    def test_uniform_ties_pick_class_zero(self, make_docs):
        from gradselect.corpus import build_vocab

        docs = make_docs(["a b"])
        vocab = build_vocab(docs, 16)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, num_classes=3)
        params = init_params(cfg, 0)
        for block in params.blocks().values():
            block[:] = 0.0
        batch = encode_documents(docs, vocab, 4)
        assert autolabel(batch, params).tolist() == [0]

    def test_trained_victim_labels_topic_docs(self, tiny_victim, make_docs):
        # class 0's topic words should map to pseudolabel 0
        word = TOPIC_WORDS[0][0]
        docs = make_docs([f"{word} {word}"])
        batch = encode_documents(docs, tiny_victim["vocab"], 8)
        assert autolabel(batch, tiny_victim["theta_f"]).tolist() == [0]

    def test_next_token_is_identity(self, make_docs):
        from gradselect.corpus import build_vocab

        docs = make_docs(["a b c"])
        vocab = build_vocab(docs, 16)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=4, task="next_token")
        params = init_params(cfg, 0)
        batch = encode_documents(docs, vocab, 4)
        assert autolabel(batch, params) is None


class TestSelectGreedy:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 119),
        k=st.integers(3, 31),
        p=st.sampled_from([1, 3]),
        m_frac=st.floats(0.0, 1.0),
    )
    def test_dot_equals_topk(self, seed, n, k, p, m_frac):
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((n, k)) for _ in range(p)]
        dirs = [rng.standard_normal(k) for _ in range(p)]
        m = max(1, round(m_frac * n))
        with tempfile.TemporaryDirectory() as tmp:
            store = make_store(Path(tmp), blocks, labels=rng.integers(0, 4, n))
            greedy = select_greedy(store, dirs, m, rule="dot")
            topk = select_baseline(store, dirs, m, "topk")
        assert set(greedy.indices) == set(topk.indices)

    def test_hand_cosine_example(self, tmp_path):
        store = make_store(tmp_path, [[[1, 0], [0.9, 0.1], [-1, 0]]])
        result = select_greedy(store, [np.array([1.0, 0.0])], 2, rule="cosine_sum")
        assert result.indices == [0, 1]
        assert abs(result.step_scores[0] - 1.0) < 1e-9
        assert abs(result.step_scores[1] - 0.9986) < 1e-3

    def test_zero_sum_candidate_gets_minus_inf(self, tmp_path):
        # after picking (1, 0) the candidate (-1, 0) sums to zero: never next
        store = make_store(tmp_path, [[[1, 0], [-1, 0], [0.1, 0.05]]])
        result = select_greedy(store, [np.array([1.0, 0.0])], 2, rule="cosine_sum")
        assert result.indices == [0, 2]

    def test_select_all_is_permutation(self, tmp_path):
        rng = np.random.default_rng(1)
        store = make_store(tmp_path, [rng.standard_normal((12, 4))])
        for rule in ("dot", "cosine_sum", "residual"):
            result = select_greedy(store, [rng.standard_normal(4)], 12, rule=rule)
            assert sorted(result.indices) == list(range(12))

    def test_budget_exceeded(self, tmp_path):
        store = make_store(tmp_path, [[[1.0, 0.0]]])
        with pytest.raises(ValueError, match="select"):
            select_greedy(store, [np.array([1.0, 0.0])], 2)

    def test_ties_broken_by_lowest_index(self, tmp_path):
        store = make_store(tmp_path, [[[1, 0], [1, 0], [1, 0]]])
        result = select_greedy(store, [np.array([1.0, 0.0])], 2, rule="dot")
        assert result.indices == [0, 1]

    def test_residual_norm_non_increasing_on_positive_scores(self, tmp_path):
        # gradients small against the target: every positive-score pick
        # shrinks the residual (2<g, r> >= |g|^2 holds with wide margin)
        rng = np.random.default_rng(5)
        rows = (rng.standard_normal((40, 8)) * 0.02).astype(np.float32)
        d = rng.standard_normal(8) * 4.0
        store = make_store(tmp_path, [rows])
        result = select_greedy(store, [d], 10, rule="residual")
        running = np.zeros(8)
        prev_norm = np.linalg.norm(d)
        for i, score in zip(result.indices, result.step_scores):
            running += rows[i].astype(np.float64)
            norm = np.linalg.norm(d - running)
            if score > 0:
                assert norm <= prev_norm + 1e-9
            prev_norm = norm

    def test_anti_redundancy_between_duplicate_clusters(self, tmp_path):
        # two duplicated clusters, direction bisecting them
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        rows = [a] * 10 + [b] * 10
        d = (a + b) / np.sqrt(2)
        store = make_store(tmp_path, [rows])
        for m in (4, 7, 10):
            result = select_greedy(store, [d], m, rule="cosine_sum")
            from_a = sum(1 for i in result.indices if i < 10)
            limit = int(np.ceil(m / 2)) + 1
            assert max(from_a, m - from_a) <= limit

    def test_deterministic(self, tmp_path):
        rng = np.random.default_rng(9)
        store = make_store(tmp_path, [rng.standard_normal((30, 6))])
        d = [rng.standard_normal(6)]
        a = select_greedy(store, d, 10, "cosine_sum")
        b = select_greedy(store, d, 10, "cosine_sum")
        assert a.indices == b.indices and a.step_scores == b.step_scores


class TestSelectBatch:
    def test_full_window_equals_greedy(self, tmp_path):
        rng = np.random.default_rng(3)
        store = make_store(tmp_path, [rng.standard_normal((25, 5))])
        dirs = [rng.standard_normal(5)]
        batch = select_batch(store, dirs, 8, batch_size=25)
        greedy = select_greedy(store, dirs, 8, rule="cosine_sum")
        assert batch.indices == greedy.indices

    def test_window_one_is_stride_greedy(self, tmp_path):
        rng = np.random.default_rng(4)
        store = make_store(tmp_path, [rng.standard_normal((10, 4))])
        result = select_batch(store, [rng.standard_normal(4)], 6, batch_size=1)
        assert result.indices == list(range(6))

    def test_selects_exactly_m(self, tmp_path):
        rng = np.random.default_rng(5)
        store = make_store(tmp_path, [rng.standard_normal((17, 4))])
        for m, bs in ((5, 3), (17, 4), (9, 17), (1, 2)):
            result = select_batch(store, [rng.standard_normal(4)], m, batch_size=bs)
            assert len(result.indices) == m
            assert len(set(result.indices)) == m


class TestSelectBaseline:
    def test_selectors_share_one_static_pass(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        blocks = [rng.standard_normal((20, 4)) for _ in range(2)]
        store = make_store(tmp_path, blocks, labels=np.arange(20) % 3)
        dirs = [rng.standard_normal(4) for _ in range(2)]
        passes = []
        original = GradientStore.scores

        def spy(self, d):
            out = original(self, d)
            passes.append(out[0])
            return out

        monkeypatch.setattr(GradientStore, "scores", spy)
        for method in ("pmin", "pmax"):
            select_baseline(store, dirs, 5, method)
        assert passes == []
        select_greedy(store, dirs, 5)
        select_batch(store, dirs, 5, 7)
        for method in ("random", "topk", "topk_balanced"):
            select_baseline(store, dirs, 5, method)
        assert len(passes) == 5
        assert all(static is passes[0] for static in passes)

    def test_pmin_pmax(self, tmp_path):
        store = make_store(
            tmp_path, [[[1, 0], [0, 1], [1, 1]]], losses=np.array([0.1, 5.0, 2.0])
        )
        dirs = [np.array([1.0, 0.0])]
        assert select_baseline(store, dirs, 1, "pmin").indices == [0]
        assert select_baseline(store, dirs, 1, "pmax").indices == [1]

    def test_random_without_replacement_and_seeded(self, tmp_path):
        rng = np.random.default_rng(6)
        store = make_store(tmp_path, [rng.standard_normal((50, 4))])
        dirs = [rng.standard_normal(4)]
        a = select_baseline(store, dirs, 20, "random", seed=3)
        b = select_baseline(store, dirs, 20, "random", seed=3)
        c = select_baseline(store, dirs, 20, "random", seed=4)
        assert a.indices == b.indices
        assert len(set(a.indices)) == 20
        assert a.indices != c.indices

    def test_balanced_histogram_within_one(self, tmp_path):
        rng = np.random.default_rng(7)
        n, c = 80, 4
        labels = np.array([i % c for i in range(n)])
        store = make_store(tmp_path, [rng.standard_normal((n, 5))], labels=labels)
        dirs = [rng.standard_normal(5)]
        for m in (10, 13, 20):
            result = select_baseline(store, dirs, m, "topk_balanced")
            hist = np.bincount(labels[result.indices], minlength=c)
            assert len(result.indices) == m
            assert np.abs(hist - m / c).max() <= 1.0

    def test_balanced_fills_shortfall(self, tmp_path, caplog):
        rng = np.random.default_rng(8)
        labels = np.array([0] * 18 + [1] * 2)
        store = make_store(tmp_path, [rng.standard_normal((20, 4))], labels=labels)
        result = select_baseline(store, [rng.standard_normal(4)], 10, "topk_balanced")
        assert len(result.indices) == 10

    def test_balanced_requires_labels(self, tmp_path):
        store = make_store(tmp_path, [[[1.0, 0.0], [0.0, 1.0]]], labels=None)
        with pytest.raises(ValueError, match="pseudolabel"):
            select_baseline(store, [np.array([1.0, 0.0])], 1, "topk_balanced")

    def test_unknown_method(self, tmp_path):
        store = make_store(tmp_path, [[[1.0, 0.0]]])
        with pytest.raises(ValueError, match="baseline"):
            select_baseline(store, [np.array([1.0, 0.0])], 1, "herding")


class TestSelectionIO:
    def test_round_trip(self, tmp_path):
        result = SelectionResult([3, 1, 2], [0.5, 0.4, 0.3], "cosine_sum", "select")
        path = tmp_path / "sel.json"
        write_selection(result, path, num_checkpoints=2, projection_dim=64, seeds=[0, 1])
        loaded = load_selection(path)
        assert loaded == result
        import json

        payload = json.loads(path.read_text())
        assert payload["M"] == 3 and payload["P"] == 2 and payload["k"] == 64
        assert payload["seeds"] == [0, 1]

    def test_failed_write_leaves_no_partial_file(self, tmp_path, disk_full):
        path = tmp_path / "sel.json"
        write_selection(SelectionResult([3, 1], [0.5, 0.4], "dot", "select"), path, 1, 8)
        good = path.read_bytes()
        disk_full(10)
        other = SelectionResult([0, 2], [0.9, 0.1], "dot", "select")
        with pytest.raises(OSError, match="No space"):
            write_selection(other, tmp_path / "new.json", 1, 8)
        with pytest.raises(OSError, match="No space"):
            write_selection(other, path, 1, 8)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["sel.json"]

    def test_distinct_indices_enforced(self):
        with pytest.raises(ValueError, match="distinct"):
            SelectionResult([1, 1], [0.0, 0.0], "dot", "select")


# The engine computes the cross term <running sum, g_i> in float32; these
# tests gate it against a float64 recomputation from the selected set. Step
# scores must agree within STEP_SCORE_RTOL of the score's scale: P for
# cosine_sum (each checkpoint adds a cosine), sum_j |g_i| (|d_j| + |s_j|) for
# residual (s_j the running sum), as both score near 0 when terms cancel.
STEP_SCORE_RTOL = 1e-5


def brute_force_scores(blocks, dirs, running, rule):
    """float64 scores of every row, and their scales, given the running sums."""
    n = blocks[0].shape[0]
    total, scale = np.zeros(n), np.zeros(n)
    for g, d, s in zip(blocks, dirs, running):
        if rule == "residual":
            total += g @ (d - s)
            scale += np.linalg.norm(g, axis=1) * (np.linalg.norm(d) + np.linalg.norm(s))
        else:
            cand = g + s
            total += (cand @ d) / (np.linalg.norm(cand, axis=1) * np.linalg.norm(d))
            scale += 1.0
    return total, scale


def random_store(tmp_dir, seed, n, k, p, scale_exp):
    rng = np.random.default_rng(seed)
    scale = 10.0**scale_exp
    blocks = [(rng.standard_normal((n, k)) * scale).astype(np.float32) for _ in range(p)]
    dirs = [rng.standard_normal(k) for _ in range(p)]
    return make_store(Path(tmp_dir), blocks), blocks, dirs


# k >= 2: at k = 1 every cosine is exactly +-1, so ties are exact and either
# engine breaks them by rounding.
store_shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    k=st.integers(2, 24),
    p=st.integers(1, 3),
    scale_exp=st.integers(-3, 3),
    m_frac=st.floats(0.0, 1.0),
)


class TestFloat32CrossTerm:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rule=st.sampled_from(["cosine_sum", "residual"]), **store_shapes)
    def test_every_step_matches_float64_brute_force(
        self, rule, seed, n, k, p, scale_exp, m_frac
    ):
        m = max(1, round(m_frac * n))
        with tempfile.TemporaryDirectory() as tmp:
            store, blocks, dirs = random_store(tmp, seed, n, k, p, scale_exp)
            result = select_greedy(store, dirs, m, rule=rule)
        blocks = [b.astype(np.float64) for b in blocks]
        running = [np.zeros(k) for _ in range(p)]
        picked = np.zeros(n, dtype=bool)
        for step, (i, score) in enumerate(zip(result.indices, result.step_scores)):
            want, scale = brute_force_scores(blocks, dirs, running, rule)
            cand = np.flatnonzero(~picked)
            best = int(cand[np.argmax(want[cand])])
            assert i == best, f"step {step}: picked {i}, float64 reference picks {best}"
            assert abs(score - want[best]) <= STEP_SCORE_RTOL * scale[best]
            picked[i] = True
            for s, g in zip(running, blocks):
                s += g[i]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 3, 16, 100, 512]),
        picks=st.integers(1, 4),
        scale_exp=st.integers(-3, 3),
    )
    def test_row_cancelling_the_running_sum_scores_minus_inf(
        self, seed, k, picks, scale_exp
    ):
        # the float32 cross term must not turn an exact cancellation into a
        # tiny nonzero sum with a finite cosine
        rng = np.random.default_rng(seed)
        rows = (rng.standard_normal((picks + 1, k)) * 10.0**scale_exp).astype(np.float32)
        cancel = -rows[:picks].astype(np.float64).sum(axis=0)
        with tempfile.TemporaryDirectory() as tmp:
            store = make_store(Path(tmp), [np.vstack([rows, cancel])])
            engine = _GreedyEngine(store, [rng.standard_normal(k)], "cosine_sum")
            for i in range(picks):
                engine.add(i, 0.0)
            scores = engine.scores(0, picks + 2)
        assert scores[picks + 1] == -np.inf
        assert np.isfinite(scores[picks])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batch_size=st.integers(1, 45), **store_shapes)
    def test_select_batch_window_budget(self, batch_size, seed, n, k, p, scale_exp, m_frac):
        m = max(1, round(m_frac * n))
        with tempfile.TemporaryDirectory() as tmp:
            store, _, dirs = random_store(tmp, seed, n, k, p, scale_exp)
            result = select_batch(store, dirs, m, batch_size)
            one_window = select_batch(store, dirs, m, n)
            greedy = select_greedy(store, dirs, m)
        # One window of all n rows is the plain greedy loop.
        assert one_window.indices == greedy.indices
        assert one_window.step_scores == greedy.step_scores
        per_window = math.ceil(m * batch_size / n)
        taken = 0
        for lo in range(0, n, batch_size):
            hi = min(lo + batch_size, n)
            budget = min(per_window, m - taken, hi - lo)
            window = result.indices[taken : taken + budget]
            assert all(lo <= i < hi for i in window)
            assert sum(lo <= i < hi for i in result.indices) <= per_window
            taken += budget
        assert taken == len(result.indices) == len(set(result.indices)) == m
