import numpy as np
import pytest

from gradselect.corpus import Document, DocumentSet, build_vocab
from gradselect.metrics import (
    EmbeddingSet,
    MetricsReport,
    OTResult,
    embed,
    ot_distance,
    retrain_and_eval,
    vocab_containment,
)
from gradselect.model import ModelConfig, OptimizerConfig, evaluate, init_params, train
from gradselect.toycorpus import make_classification_corpus, make_pool_corpus


def unit_rows(rng, n, h):
    v = rng.standard_normal((n, h))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestVocabContainment:
    def test_identical_sets(self, make_docs):
        a = make_docs(["alpha beta", "gamma"])
        assert vocab_containment(a, a) == 1.0

    def test_hand_example(self, make_docs):
        a = make_docs(["a b c"])
        b = make_docs(["b c d"])
        assert abs(vocab_containment(a, b) - 2 / 3) < 1e-12

    def test_symmetric(self, make_docs):
        a = make_docs(["red blue green yellow"])
        b = make_docs(["blue pink"])
        assert vocab_containment(a, b) == vocab_containment(b, a)

    def test_nested_token_sets_give_one(self, make_docs):
        a = make_docs(["red blue green"])
        b = make_docs(["red blue"])
        assert vocab_containment(a, b) == 1.0

    def test_monotone_under_ground_truth_replacement(self, make_docs):
        truth = ["alpha beta", "gamma delta", "epsilon zeta", "eta theta"]
        recovered = ["one two", "three four", "five six", "seven eight"]
        ref = make_docs(truth)
        values = []
        for replaced in range(5):
            mixed = truth[:replaced] + recovered[replaced:]
            values.append(vocab_containment(make_docs(mixed), ref))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_empty_set_rejected(self, make_docs):
        with pytest.raises(ValueError, match="non-empty"):
            vocab_containment(DocumentSet([]), make_docs(["a"]))


class TestEmbed:
    def _setup(self):
        docs = DocumentSet(
            [Document(0, "alpha beta"), Document(1, "alpha beta"), Document(2, "gamma")]
        )
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        return docs, vocab, init_params(cfg, 0)

    def test_duplicates_identical(self):
        docs, vocab, params = self._setup()
        e = embed(docs, params, vocab, 8)
        assert np.array_equal(e.vectors[0], e.vectors[1])

    def test_unit_norm_rows(self):
        docs, vocab, params = self._setup()
        e = embed(docs, params, vocab, 8)
        assert np.allclose(np.linalg.norm(e.vectors, axis=1), 1.0, atol=1e-9)

    def test_disjoint_docs_near_orthogonal_in_expectation(self, make_docs):
        docs = make_docs(["alpha beta gamma", "delta epsilon zeta"])
        vocab = build_vocab(docs, 32)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=16, num_classes=2)
        cosines = []
        for seed in range(100):
            e = embed(docs, init_params(cfg, seed), vocab, 8)
            cosines.append(float(e.vectors[0] @ e.vectors[1]))
        assert abs(np.mean(cosines)) < 0.1

    def test_empty_docs_rejected(self):
        _, vocab, params = self._setup()
        with pytest.raises(ValueError, match="empty"):
            embed(DocumentSet([]), params, vocab, 8)


class TestOTDistance:
    def test_identity(self):
        rng = np.random.default_rng(0)
        e = EmbeddingSet(unit_rows(rng, 6, 4))
        assert ot_distance(e, e, mode="exact").distance < 1e-12

    def test_singleton_pair_distance(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        result = ot_distance(a, b, mode="exact")
        assert abs(result.distance - 5.0) < 1e-9

    def test_symmetry_equal_sizes(self):
        rng = np.random.default_rng(1)
        ea, eb = EmbeddingSet(unit_rows(rng, 7, 5)), EmbeddingSet(unit_rows(rng, 7, 5))
        d1 = ot_distance(ea, eb, mode="exact").distance
        d2 = ot_distance(eb, ea, mode="exact").distance
        assert abs(d1 - d2) < 1e-9

    def test_sinkhorn_close_to_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            ea, eb = EmbeddingSet(unit_rows(rng, 8, 6)), EmbeddingSet(unit_rows(rng, 8, 6))
            exact = ot_distance(ea, eb, mode="exact").distance
            sk = ot_distance(ea, eb, mode="sinkhorn", epsilon=0.01)
            assert abs(sk.distance - exact) / exact < 0.05
            assert sk.distance >= exact - 1e-6

    def test_sinkhorn_converges_to_exact_as_epsilon_shrinks(self):
        rng = np.random.default_rng(3)
        ea, eb = EmbeddingSet(unit_rows(rng, 6, 4)), EmbeddingSet(unit_rows(rng, 6, 4))
        exact = ot_distance(ea, eb, mode="exact").distance
        gaps = [
            abs(ot_distance(ea, eb, mode="sinkhorn", epsilon=eps).distance - exact)
            for eps in (0.5, 0.1, 0.02)
        ]
        assert gaps[2] < gaps[0]

    def test_strict_subset_stays_positive(self):
        # uniform weights spread the larger set's mass: distance > 0
        rng = np.random.default_rng(4)
        big = unit_rows(rng, 9, 5)
        small = big[:5]
        result = ot_distance(small, big, mode="exact")
        assert result.distance > 0.0

    def test_unequal_sizes_lp_matches_manual_instance(self):
        # two source points, one sink at equal distance from both
        a = np.array([[0.0, 0.0], [2.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        result = ot_distance(a, b, mode="exact")
        assert abs(result.distance - 1.0) < 1e-9

    def test_exact_size_cutoff(self):
        rng = np.random.default_rng(5)
        a = unit_rows(rng, 2100, 3)
        with pytest.raises(ValueError, match="exact mode"):
            ot_distance(a, a, mode="exact") if 2100 * 2100 > 4_000_000 else None

    def test_auto_escalates_to_sinkhorn(self):
        rng = np.random.default_rng(6)
        a = EmbeddingSet(unit_rows(rng, 300, 4))
        b = EmbeddingSet(unit_rows(rng, 500, 4))
        result = ot_distance(a, b, mode="auto")
        assert result.mode == "sinkhorn"

    def test_epsilon_must_be_positive(self):
        rng = np.random.default_rng(7)
        e = EmbeddingSet(unit_rows(rng, 4, 3))
        with pytest.raises(ValueError, match="epsilon"):
            ot_distance(e, e, mode="sinkhorn", epsilon=0.0)

    def test_non_convergence_flagged_distance_returned(self):
        rng = np.random.default_rng(8)
        ea, eb = EmbeddingSet(unit_rows(rng, 8, 6)), EmbeddingSet(unit_rows(rng, 8, 6))
        result = ot_distance(ea, eb, mode="sinkhorn", epsilon=0.01, max_iters=5)
        assert not result.converged
        assert np.isfinite(result.distance)


class TestEmbeddingSetInvariants:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="unit-norm"):
            EmbeddingSet(np.array([[2.0, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmbeddingSet(np.zeros((0, 4)))


class TestRetrainAndEval:
    def test_full_true_set_matches_expert_run(self):
        docs = make_classification_corpus(300, 4, seed=1)
        test = make_classification_corpus(200, 4, seed=2)
        vocab = build_vocab(docs, 512)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=16, num_classes=4)
        theta0 = init_params(cfg, 0)
        opt = OptimizerConfig(kind="adam", learning_rate=0.02, epochs=6, batch_size=32, seed=0)
        _, got = retrain_and_eval(theta0, docs, opt, test, None, vocab, 32)
        expert, _ = train(theta0, docs, opt, vocab, 32)
        want = evaluate(expert, test, vocab, 32)
        assert got.accuracy == want.accuracy
        assert got.mean_loss == want.mean_loss

    def test_keyword_covering_selection_beats_chance(self):
        test = make_classification_corpus(200, 4, seed=3)
        selection = make_classification_corpus(160, 4, seed=4)
        vocab = build_vocab(selection, 512)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=16, num_classes=4)
        theta0 = init_params(cfg, 1)
        opt = OptimizerConfig(kind="adam", learning_rate=0.02, epochs=8, batch_size=32, seed=1)
        _, metrics = retrain_and_eval(theta0, selection, opt, test, None, vocab, 32)
        assert metrics.accuracy > 0.5

    def test_empty_selection_rejected(self):
        docs = make_classification_corpus(10, 2, seed=0)
        vocab = build_vocab(docs, 64)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_classes=2)
        opt = OptimizerConfig(kind="sgd", learning_rate=0.1, epochs=1)
        with pytest.raises(ValueError, match="empty"):
            retrain_and_eval(init_params(cfg, 0), DocumentSet([]), opt, docs, None, vocab, 8)


class TestMetricsReport:
    def test_serialization(self):
        from gradselect.model import EvalMetrics

        report = MetricsReport(
            EvalMetrics(mean_loss=0.5, accuracy=0.9),
            vocab_containment=0.8,
            ot=OTResult(distance=1.1, mode="exact"),
        )
        payload = report.to_dict()
        assert payload["accuracy"] == 0.9
        assert payload["vocab_containment"] == 0.8
        assert payload["ot"]["mode"] == "exact"
