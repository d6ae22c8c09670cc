import gc
import json

import numpy as np
import pytest

from gradselect import corpus
from gradselect.corpus import (
    PAD_ID,
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
    Vocab,
)
from gradselect.metrics import token_set
from gradselect.toycorpus import (
    make_classification_corpus,
    make_lm_corpus,
    make_lm_pool,
    make_pool_corpus,
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

    @pytest.mark.parametrize("chunk", [3, 1024])
    def test_invalid_line_inside_a_chunk_names_its_own_line(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(corpus, "_JSONL_CHUNK_LINES", chunk)
        lines = ['{"text": "a"}', "", "  ", '{"text": "b"}', '{"text": "c"', '{"text": "d"}']
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 5: invalid JSON"):
            load_jsonl(path)

    @pytest.mark.parametrize(
        "lines",
        [
            ['{"text": "a"}', '{"text": "a"}, {"text": "b"}', '{"text": "c"}'],
            ['{"text": "a"}', '{"text":"a"} ,\t{"text":"b"}'],
            # One value over two lines and two values on one line keep the
            # count of values equal to the count of lines.
            ['{"text": "z", "x": [[{}', '{}]]}', '{"text": "b"}, {"text": "c"}'],
        ],
    )
    def test_line_that_is_not_one_value_rejected_at_that_line(self, tmp_path, lines):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        bad = next(i for i, line in enumerate(lines, start=1) if not _one_value(line))
        with pytest.raises(ValueError, match=f"line {bad}: invalid JSON"):
            load_jsonl(path)

    def test_first_bad_line_wins_across_kinds_of_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "a"}\n[1, 2]\nnot json\n')
        with pytest.raises(ValueError, match="line 2: missing text"):
            load_jsonl(path)

    def test_blank_lines_and_empty_text_skip_count(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        path.write_text('\n{"text": "a"}\n \t\n{"text": " "}\n\u00a0\n{"text": "b", "label": 2}\n{"text": ""}')
        with caplog.at_level("WARNING", logger="gradselect.corpus"):
            docs = load_jsonl(path)
        assert [(d.id, d.text, d.label) for d in docs] == [(0, "a", None), (1, "b", 2)]
        assert "skipped 2 empty-text records" in caplog.text

    @pytest.mark.parametrize("chunk", [1, 7, 1024])
    def test_chunked_parse_equals_one_line_at_a_time(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(corpus, "_JSONL_CHUNK_LINES", chunk)
        rng = np.random.default_rng(0)
        records = []
        for i in range(50):
            record = {"id": i, "text": f"doc {i} \u00e9\u65e5 {{}}, {{ [x]"}
            if i % 3:
                record["label"] = int(rng.integers(0, 4))
            records.append(record)
        records[10]["text"] = "  "
        path = tmp_path / "c.jsonl"
        write_jsonl(path, records)
        want = [r for r in records if r["text"].strip()]
        want = DocumentSet(Document(i, r["text"], r.get("label")) for i, r in enumerate(want))
        assert list(load_jsonl(path)) == list(want)

    @pytest.mark.parametrize("caller_gc", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("bad_line", [False, True], ids=["good", "bad_line"])
    def test_parses_with_gc_paused_and_restores_the_callers_state(
        self, tmp_path, monkeypatch, caller_gc, bad_line
    ):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "a"}\n' + ("not json\n" if bad_line else '{"text": "b"}\n'))
        parse, during = corpus._parse_lines, []

        def recording_parse(chunk):
            during.append(gc.isenabled())
            return parse(chunk)

        monkeypatch.setattr(corpus, "_parse_lines", recording_parse)
        was = gc.isenabled()
        (gc.enable if caller_gc else gc.disable)()
        try:
            if bad_line:
                with pytest.raises(ValueError, match="line 2"):
                    load_jsonl(path)
            else:
                assert [d.text for d in load_jsonl(path)] == ["a", "b"]
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]
        assert after is caller_gc

    def test_round_trip_with_leak_mask(self, tmp_path, make_docs):
        docs = make_docs(["x y", "z w"], [0, None])
        path = tmp_path / "out.jsonl"
        save_jsonl(docs, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {"id": 0, "text": "x y", "label": 0}
        assert lines[1] == {"id": 1, "text": "z w"}
        assert len(load_jsonl(path)) == 2


def _one_value(line):
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return False
    return True


class TestDerivedSets:
    """The derived sets skip the constructor's check; each equals what it would build."""

    @pytest.fixture
    def docs(self, make_docs):
        return make_docs(["a b", "c", "d e f", "g", "h i"], [0, None, 2, 1, None])

    def test_subset(self, docs):
        positions = np.array([4, 0, 2])
        got = docs.subset(positions)
        assert list(got) == list(DocumentSet(docs[int(p)] for p in positions))
        assert list(docs.subset([])) == []

    @pytest.mark.parametrize("positions", [[1, 3, 1], [0, -5]])
    def test_subset_with_a_repeated_document_raises(self, docs, positions):
        with pytest.raises(ValueError, match="duplicate document id"):
            docs.subset(positions)

    def test_with_labels(self, docs):
        labels = np.array([3, 1, 0, 2, 1])
        got = docs.with_labels(labels)
        want = DocumentSet(Document(d.id, d.text, int(y)) for d, y in zip(docs, labels))
        assert list(got) == list(want)
        assert all(type(d.label) is int for d in got)
        with pytest.raises(ValueError, match="label count"):
            docs.with_labels([1])

    @pytest.mark.parametrize("positions", [None, [4, 1, 3], []])
    def test_unlabeled(self, docs, positions):
        picked = range(len(docs)) if positions is None else positions
        want = DocumentSet(Document(i, docs[p].text, None) for i, p in enumerate(picked))
        assert list(docs.subset(picked).unlabeled()) == list(want)

    def test_unlabeled_keeps_a_set_that_already_is(self, make_docs):
        pool = make_docs(["a", "b"])
        assert pool.unlabeled() is pool
        assert list(pool.subset([1]).unlabeled()) == [Document(0, "b", None)]


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

    def test_keeps_every_counted_token(self, make_docs):
        docs = make_docs(["Red, green!", "green blue", "blue blue red"])
        vocab = build_vocab(docs, 4)
        assert vocab.tokens == ["blue", "green"]
        assert vocab.corpus_tokens == token_set(docs)
        assert Vocab(vocab.tokens).corpus_tokens is None


class TestTokenize:
    """One-document ``encode_documents`` calls."""

    def test_direct_mapping(self, make_docs):
        vocab = build_vocab(make_docs(["a a b"]), 10)
        batch = encode_documents(make_docs(["A b"]), vocab, 4)
        assert batch.ids[0].tolist() == [2, 3, 0, 0]
        assert batch.valid_len[0] == 2

    def test_truncation(self, make_docs):
        vocab = build_vocab(make_docs(["w"]), 10)
        batch = encode_documents(make_docs([" ".join(["w"] * 100)]), vocab, 64)
        assert batch.valid_len[0] == 64
        assert (batch.ids[0] == 2).all()

    def test_unknown_token(self, make_docs):
        vocab = build_vocab(make_docs(["a"]), 10)
        batch = encode_documents(make_docs(["a mystery"]), vocab, 4)
        assert batch.ids[0].tolist() == [2, 1, 0, 0]

    def test_deterministic(self, make_docs):
        vocab = build_vocab(make_docs(["a b c d"]), 10)
        b1 = encode_documents(make_docs(["a c d"]), vocab, 5)
        b2 = encode_documents(make_docs(["a c d"]), vocab, 5)
        assert np.array_equal(b1.ids, b2.ids) and np.array_equal(b1.valid_len, b2.valid_len)

    def test_punctuation_split(self):
        assert split_tokens("Hello, world!") == ["hello", ",", "world", "!"]


def tokenize_oracle(text, vocab, s):
    """One document's s token ids and valid length, one token at a time."""
    pieces = split_tokens(text)[:s]
    ids = np.full(s, PAD_ID, dtype=np.int32)
    for i, tok in enumerate(pieces):
        ids[i] = vocab.index(tok)
    return ids, len(pieces)


def assert_matches_oracle(docs, vocab, s):
    batch = encode_documents(docs, vocab, s)
    assert batch.ids.dtype == np.int32 and batch.valid_len.dtype == np.int32
    assert batch.ids.shape == (len(docs), s) and batch.valid_len.shape == (len(docs),)
    for i, d in enumerate(docs):
        ids, valid_len = tokenize_oracle(d.text, vocab, s)
        assert np.array_equal(batch.ids[i], ids), (i, d.text)
        assert batch.valid_len[i] == valid_len, (i, d.text)


class TestEncodeDocumentsOracle:
    """``encode_documents`` against a per-document loop over ``split_tokens``."""

    TEXTS = [
        "Caf\u00e9 na\u00efve \u65e5\u672c\u8a9e \u00c9COLE stra\u00dfe",
        "Hello, world! (a-b) [c]... \"quoted\" don't",
        "known words and never-seen-before zyzzyva tokens",
        "one",
        " ".join(f"w{i}" for i in range(40)),
        "?!",
    ]

    @pytest.mark.parametrize("s", [1, 2, 5, 64])
    def test_edge_texts(self, make_docs, s):
        known = "known words and one w3 w7 hello , ! caf\u00e9 \u65e5\u672c\u8a9e"
        vocab = build_vocab(make_docs([known]), 64)
        assert_matches_oracle(make_docs(self.TEXTS), vocab, s)

    def test_empty_set(self, make_docs):
        batch = encode_documents(DocumentSet([]), build_vocab(make_docs(["a"]), 4), 3)
        assert batch.ids.shape == (0, 3) and batch.ids.dtype == np.int32

    @pytest.mark.parametrize("s", [0, -1])
    def test_sequence_length_below_one_raises(self, make_docs, s):
        docs = make_docs(["a b"])
        with pytest.raises(ValueError, match="at least 1"):
            encode_documents(docs, build_vocab(docs, 4), s)

    @pytest.mark.parametrize("family", ["cls", "lm"])
    def test_full_seed_0_corpora(self, family):
        # The task and pool corpora of the cls_pipeline and lm_pipeline
        # benchmark workloads at seed 0, at their sequence lengths and at 8,
        # where most rows are truncated.
        if family == "cls":
            task = make_classification_corpus(
                3400, 4, seed=42, key_lo=3, key_hi=6, len_lo=8, len_hi=12
            )
            pool = make_pool_corpus(10_000, 4, seed=43, useful_fraction=0.06)
            s = 64
        else:
            task = make_lm_corpus(3400, seed=50)
            pool = make_lm_pool(10_000, seed=51, useful_fraction=0.25)
            s = 32
        train, _, _ = split(task, (0.65, 0.05, 0.30), 0)
        vocab = build_vocab(train, 2048)
        for docs in (task, pool):
            for width in (s, 8):
                assert_matches_oracle(docs, vocab, width)


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
        assert int(pool.leak_mask.sum()) == 0

    def test_full_leak_is_true_set(self):
        true, dist = self._sets()
        pool = mix_leakage(true, dist, 1.0, 60, 1)
        assert int(pool.leak_mask.sum()) == 60
        assert sorted(d.text for d in pool.documents) == sorted(d.text for d in true)

    def test_exact_leak_count(self):
        true, dist = self._sets(600, 600)
        pool = mix_leakage(true, dist, 0.5, 1000, 2)
        assert int(pool.leak_mask.sum()) == 500

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

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 0.9])
    def test_distractors_read_only_as_texts(self, fraction):
        # A labeled seed split and its unlabeled, renumbered candidate pool
        # give the same mixed pool.
        docs = make_classification_corpus(400, 4, seed=8)
        train, seed_split, _ = split(docs, (0.5, 0.3, 0.2), 3)
        labeled = mix_leakage(train, seed_split, fraction, 100, 11)
        unlabeled = mix_leakage(train, seed_split.unlabeled(), fraction, 100, 11)
        assert list(labeled.documents) == list(unlabeled.documents)
        assert np.array_equal(labeled.leak_mask, unlabeled.leak_mask)


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
