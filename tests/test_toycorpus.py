import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradselect.cli import main as cli_main
from gradselect.corpus import Document, DocumentSet, save_jsonl
from gradselect.toycorpus import (
    NUM_TOPICS,
    make_classification_corpus,
    make_lm_corpus,
    make_lm_pool,
    make_pool_corpus,
)

# case -> (generator, positional args, keyword args, sha256 of its save_jsonl bytes).
# The shapes are the task and pool corpora of the cls_pipeline and lm_pipeline
# benchmark workloads at seed 0 (FULL and TINY sizes), plus calls with a topic
# offset and one whose keyword count can reach the length (zero-size filler draws).
# The hashes were recorded from the generators that drew words with
# ``Generator.choice``; drawing by index must keep every byte.
CORPORA = {
    "cls_task_full": (
        make_classification_corpus, (3400, 4), dict(seed=42, key_lo=3, key_hi=6, len_lo=8, len_hi=12),
        "f53dca00995be98ddaba7370af819ce312bae68b7e2ada1fda489eb0b1fec694",
    ),
    "cls_pool_full": (
        make_pool_corpus, (10_000, 4), dict(seed=43, useful_fraction=0.06),
        "eed4975fd10b6047d129db6a58c7ef1be5dae541122c54a05d4fd7ec981aba1e",
    ),
    "cls_task_tiny": (
        make_classification_corpus, (300, 4), dict(seed=42, key_lo=3, key_hi=6, len_lo=8, len_hi=12),
        "3b10f152f44fae10f72e08ad7f481e841427b713a150519daa9a8f7dd785e42b",
    ),
    "cls_pool_tiny": (
        make_pool_corpus, (600, 4), dict(seed=43, useful_fraction=0.06),
        "03332bd7b0b8b6eb7a357bfd31b3b873734901ecab5e3b40ac1462bfc20d6913",
    ),
    "lm_task_full": (
        make_lm_corpus, (3400,), dict(seed=50),
        "03d1abf442a951bddd1cb6c328f85b9154483b865b6b1e25e5ddbf6d98f797dc",
    ),
    "lm_pool_full": (
        make_lm_pool, (10_000,), dict(seed=51, useful_fraction=0.25),
        "a17af49d62701a9d9bb8f7b2865de3124ffa5d10826e78d6767a8d15a2c0f704",
    ),
    "lm_task_tiny": (
        make_lm_corpus, (300,), dict(seed=50),
        "653fc881e1a6311713be596e9f7ec4eac3bcc12f7b9f5ba0d9dee37fd8f81b4d",
    ),
    "lm_pool_tiny": (
        make_lm_pool, (600,), dict(seed=51, useful_fraction=0.25),
        "2d94c8b3fc8acb3ea46b9010511fb9f86fd93ed217120d72e92e394d06f18218",
    ),
    "cls_task_offset": (
        make_classification_corpus, (200, 3), dict(seed=7, topic_offset=5),
        "7824a4ede6c4d97b676f8fc757b4c2501e95dabd2bd9c49d49f7a2c16f8f1afb",
    ),
    "cls_pool_offset": (
        make_pool_corpus, (400, 2), dict(seed=8, topic_offset=3),
        "fab3a121a42e724ef7b9a383ff86ae62414e06346d823d07df39efe74ad154e2",
    ),
    "lm_task_offset": (
        make_lm_corpus, (100,), dict(seed=9, topic_offset=2),
        "7e10c1d60e5f787b794e31e926c19560853ba2cf6457700acd9d64e73d7095e4",
    ),
    "lm_pool_offset": (
        make_lm_pool, (400,), dict(seed=10, topic_offset=1),
        "9f54d2f52458071e5770145a7e219c49a0fcfa38fcb6893c540b4d5f337c52cc",
    ),
    "cls_task_zero_filler": (
        make_classification_corpus, (200, 2), dict(seed=11, key_lo=4, key_hi=9, len_lo=3, len_hi=7),
        "187aed2af8d1d967c772679927c506109f74f7d08535672fb24c651e206ba41d",
    ),
}


def jsonl_sha256(docs: DocumentSet, path) -> str:
    save_jsonl(docs, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CORPORA)
def test_generated_corpus_bytes_are_pinned(tmp_path, case):
    make, args, kwargs, sha256 = CORPORA[case]
    assert jsonl_sha256(make(*args, **kwargs), tmp_path / "c.jsonl") == sha256


texts = st.text(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\n", "\r", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600"]),
    min_size=1,
)


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.integers(0, 2**63 - 1), texts, st.none() | st.integers(0, 2**63 - 1)
        ),
        unique_by=lambda r: r[0],
        max_size=8,
    )
)
@example(records=[(0, 'say "hi"\\', 0), (2**31, "a b\x01\U0001f600", None)])
def test_save_jsonl_writes_json_dumps_lines(tmp_path_factory, records):
    docs = DocumentSet(Document(i, t, y) for i, t, y in records if t.strip())
    path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
    save_jsonl(docs, path)
    want = "".join(
        json.dumps(
            {"id": d.id, "text": d.text} | ({} if d.label is None else {"label": d.label}),
            ensure_ascii=False,
        )
        + "\n"
        for d in docs
    )
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("num_classes", [0, NUM_TOPICS + 1])
@pytest.mark.parametrize("make", [make_classification_corpus, make_pool_corpus])
def test_more_classes_than_topics_rejected(make, num_classes):
    with pytest.raises(ValueError, match="num_classes"):
        make(40, num_classes, seed=0)


@pytest.mark.parametrize("make", [make_classification_corpus, make_pool_corpus])
def test_every_topic_is_one_class(make):
    assert len(make(40, NUM_TOPICS, seed=0)) == 40


def test_gen_corpus_rejects_a_ninth_class(tmp_path):
    out = tmp_path / "c.jsonl"
    with pytest.raises(ValueError, match="num_classes"):
        cli_main(["gen-corpus", "--kind", "classification", "--out", str(out), "--classes", "9"])
    assert not out.exists()
