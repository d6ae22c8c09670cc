import json

import numpy as np
import pytest

from gradselect.corpus import (
    Document,
    DocumentSet,
    atomic_write,
    build_vocab,
    encode_documents,
    load_jsonl,
    mix_leakage,
    save_jsonl,
    split,
    split_tokens,
    tokenize,
)


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


class TestLoadJsonl:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "a"}, {"text": "b", "label": 1}, {"text": "c"}])
        docs = load_jsonl(path)
        assert [d.id for d in docs] == [0, 1, 2]
        assert docs[1].label == 1
        assert docs[0].label is None

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert len(load_jsonl(path)) == 0

    def test_missing_text_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "a"}, {"label": 3}])
        with pytest.raises(ValueError, match="line 2: missing text"):
            load_jsonl(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "a"}\nnot json{\n')
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl(path)

    def test_empty_text_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "a"}, {"text": "   "}, {"text": "b"}])
        docs = load_jsonl(path)
        assert [d.text for d in docs] == ["a", "b"]
        assert [d.id for d in docs] == [0, 1]

    def test_round_trip_with_leak_mask(self, tmp_path, make_docs):
        docs = make_docs(["x y", "z w"], [0, None])
        path = tmp_path / "out.jsonl"
        save_jsonl(docs, path, leak_mask=np.array([True, False]))
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {"id": 0, "text": "x y", "label": 0, "leaked": True}
        assert lines[1] == {"id": 1, "text": "z w", "leaked": False}
        assert len(load_jsonl(path)) == 2


class TestBuildVocab:
    def test_hand_counted_frequencies(self, make_docs):
        # a:2, b:2, c:1; tie a<b broken lexicographically
        vocab = build_vocab(make_docs(["a a b", "b c"]), 5)
        assert vocab.index("a") == 2
        assert vocab.index("b") == 3
        assert vocab.index("c") == 4
        assert vocab.size == 5

    def test_empty_corpus(self):
        vocab = build_vocab(DocumentSet([]), 10)
        assert vocab.size == 2

    def test_capacity_bound(self, make_docs):
        docs = make_docs([" ".join(f"w{i}" for i in range(10))])
        vocab = build_vocab(docs, 3)
        assert vocab.size == 3

    def test_order_independent(self, make_docs):
        texts = ["red green", "green blue", "blue blue red"]
        v1 = build_vocab(make_docs(texts), 64)
        v2 = build_vocab(make_docs(texts[::-1]), 64)
        assert v1.tokens == v2.tokens

    def test_unknown_maps_to_unk(self, make_docs):
        vocab = build_vocab(make_docs(["a b"]), 10)
        assert vocab.index("zzz") == 1


class TestTokenize:
    def test_direct_mapping(self, make_docs):
        vocab = build_vocab(make_docs(["a a b"]), 10)
        seq = tokenize("A b", vocab, 4)
        assert seq.ids.tolist() == [2, 3, 0, 0]
        assert seq.valid_len == 2

    def test_truncation(self, make_docs):
        vocab = build_vocab(make_docs(["w"]), 10)
        seq = tokenize(" ".join(["w"] * 100), vocab, 64)
        assert seq.valid_len == 64
        assert (seq.ids == 2).all()

    def test_unknown_token(self, make_docs):
        vocab = build_vocab(make_docs(["a"]), 10)
        seq = tokenize("a mystery", vocab, 4)
        assert seq.ids.tolist() == [2, 1, 0, 0]

    def test_accepts_document(self, make_docs):
        vocab = build_vocab(make_docs(["a"]), 10)
        seq = tokenize(Document(0, "a a"), vocab, 3)
        assert seq.ids.tolist() == [2, 2, 0]

    def test_deterministic(self, make_docs):
        vocab = build_vocab(make_docs(["a b c d"]), 10)
        s1 = tokenize("a c d", vocab, 5)
        s2 = tokenize("a c d", vocab, 5)
        assert np.array_equal(s1.ids, s2.ids) and s1.valid_len == s2.valid_len

    def test_punctuation_split(self):
        assert split_tokens("Hello, world!") == ["hello", ",", "world", "!"]


class TestSplit:
    def _docs(self, n):
        return DocumentSet(Document(i, f"doc {i}", i % 2) for i in range(n))

    def test_floor_allocation(self):
        train, seed_part, test = split(self._docs(10), (0.8, 0.1, 0.1), 7)
        assert (len(train), len(seed_part), len(test)) == (8, 1, 1)

    def test_deterministic(self):
        a = split(self._docs(20), (0.5, 0.25, 0.25), 3)
        b = split(self._docs(20), (0.5, 0.25, 0.25), 3)
        for x, y in zip(a, b):
            assert [d.id for d in x] == [d.id for d in y]

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            split(self._docs(10), (0.5, 0.5, 0.0), 0)

    def test_disjoint_union(self):
        docs = self._docs(23)
        parts = split(docs, (0.55, 0.3, 0.15), 11)
        ids = [set(d.id for d in p) for p in parts]
        assert ids[0] | ids[1] | ids[2] == set(range(23))
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    def test_remainder_goes_to_train(self):
        train, seed_part, test = split(self._docs(10), (1 / 3, 1 / 3, 1 / 3), 0)
        assert (len(train), len(seed_part), len(test)) == (4, 3, 3)


class TestMixLeakage:
    def _sets(self, n_true=60, n_dist=60):
        true = DocumentSet(Document(i, f"true {i}", 0) for i in range(n_true))
        dist = DocumentSet(Document(i, f"junk {i}") for i in range(n_dist))
        return true, dist

    def test_zero_fraction(self):
        true, dist = self._sets()
        pool = mix_leakage(true, dist, 0.0, 50, 1)
        assert pool.leak_count == 0

    def test_full_leak_is_true_set(self):
        true, dist = self._sets()
        pool = mix_leakage(true, dist, 1.0, 60, 1)
        assert pool.leak_count == 60
        assert sorted(d.text for d in pool.documents) == sorted(d.text for d in true)

    def test_exact_leak_count(self):
        true, dist = self._sets(600, 600)
        pool = mix_leakage(true, dist, 0.5, 1000, 2)
        assert pool.leak_count == 500

    def test_mask_marks_true_documents(self):
        true, dist = self._sets()
        pool = mix_leakage(true, dist, 0.4, 50, 3)
        for doc, leaked in zip(pool.documents, pool.leak_mask):
            assert doc.text.startswith("true" if leaked else "junk")

    def test_insufficient_true_set(self):
        true, dist = self._sets(5, 100)
        with pytest.raises(ValueError, match="true_set"):
            mix_leakage(true, dist, 0.5, 20, 0)

    def test_insufficient_distractors(self):
        true, dist = self._sets(100, 5)
        with pytest.raises(ValueError, match="distractors"):
            mix_leakage(true, dist, 0.1, 20, 0)

    def test_pool_is_unlabeled_and_reindexed(self):
        true, dist = self._sets()
        pool = mix_leakage(true, dist, 0.5, 40, 4)
        assert [d.id for d in pool.documents] == list(range(40))
        assert all(d.label is None for d in pool.documents)


class TestDocumentSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DocumentSet([Document(1, "a"), Document(1, "b")])

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty text"):
            DocumentSet([Document(0, "   ")])

    def test_encode_documents_shape(self, make_docs):
        docs = make_docs(["a b", "c"])
        vocab = build_vocab(docs, 16)
        batch = encode_documents(docs, vocab, 8)
        assert batch.ids.shape == (2, 8)
        assert batch.valid_len.tolist() == [2, 1]


class TestAtomicWrite:
    def test_nested_writers_of_one_path_keep_one_writers_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        with atomic_write(path) as outer:
            outer.write(b"A" * 8)
            outer.flush()
            with atomic_write(path) as inner:
                inner.write(b"B" * 4)
            assert path.read_bytes() == b"B" * 4
            outer.write(b"C" * 8)
        assert path.read_bytes() == b"A" * 8 + b"C" * 8
        assert not list(tmp_path.glob("*.tmp"))
