import numpy as np
import pytest

from gradselect import corpus
from gradselect.corpus import PAD_ID, Document, DocumentSet, build_vocab
from gradselect.model import ModelConfig, OptimizerConfig, init_params, train
from gradselect.toycorpus import make_classification_corpus


@pytest.fixture(scope="session")
def tiny_victim():
    """A small trained 4-class victim shared by selector/metrics tests."""
    train_docs = make_classification_corpus(800, 4, seed=5)
    vocab = build_vocab(train_docs, 1024)
    config = ModelConfig(vocab_size=vocab.size, embed_dim=16, num_classes=4)
    theta0 = init_params(config, 0)
    opt = OptimizerConfig(kind="sgd", learning_rate=0.5, epochs=3, batch_size=32, seed=0)
    theta_f, _ = train(theta0, train_docs, opt, vocab, 32)
    return {
        "train_docs": train_docs,
        "vocab": vocab,
        "config": config,
        "theta0": theta0,
        "theta_f": theta_f,
    }


class _ShortFile:
    """A binary file that takes ``limit`` bytes and then raises OSError, like a full disk."""

    def __init__(self, fh, limit):
        self._fh, self._left = fh, limit

    def write(self, data):
        if len(data) > self._left:
            self._fh.write(data[: self._left])
            self._left = 0
            raise OSError(28, "No space left on device")
        self._left -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def disk_full(monkeypatch):
    """``disk_full(limit)``: every file ``atomic_write`` opens afterwards fails after ``limit`` bytes."""

    def arm(limit):
        short_open = lambda path, mode: _ShortFile(open(path, mode), limit)  # noqa: E731
        monkeypatch.setattr(corpus, "open", short_open, raising=False)

    return arm


def docs_from_texts(texts, labels=None):
    labels = labels or [None] * len(texts)
    return DocumentSet(
        Document(i, t, y) for i, (t, y) in enumerate(zip(texts, labels))
    )


@pytest.fixture
def make_docs():
    return docs_from_texts


def padded(docs, width):
    """Token lists as one (n, width) id matrix filled with PAD_ID."""
    ids = np.full((len(docs), width), PAD_ID, dtype=np.int32)
    for i, doc in enumerate(docs):
        ids[i, : len(doc)] = doc
    return ids


def padding_case(task, hidden, lens, seed):
    """Params, documents, valid lengths and labels for a padding-invariance check."""
    cfg = ModelConfig(vocab_size=20, embed_dim=5, num_classes=3, hidden_layer=hidden, task=task)
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed)
    lens = np.array([max(n, 2) if task == "next_token" else n for n in lens])
    docs = [rng.integers(1, 20, n) for n in lens]
    labels = rng.integers(0, 3, len(lens)) if task == "classification" else None
    return params, docs, lens, labels


def reference_losses(params, docs, labels):
    """Per-document loss in float64, one document and one position at a time."""
    p = params.astype(np.float64)

    def log_probs(tokens):
        z = p.embedding[tokens].mean(axis=0)
        if p.config.hidden_layer:
            z = np.tanh(p.hidden_w @ z + p.hidden_b)
        logits = p.head_w @ z + p.head_b
        return logits - np.logaddexp.reduce(logits)

    if labels is not None:
        return np.array([-log_probs(doc)[y] for doc, y in zip(docs, labels)])
    return np.array(
        [np.mean([-log_probs(doc[: t + 1])[doc[t + 1]] for t in range(len(doc) - 1)]) for doc in docs]
    )
