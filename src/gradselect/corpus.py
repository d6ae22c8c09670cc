"""Corpus ingestion, vocabulary construction, tokenization and splits.

Documents come in as JSONL (one ``{"text": ..., "label": ...}`` record per
line). Everything downstream works on fixed-length token id sequences, so the
tokenizer is deliberately simple and has one entry point, ``encode_documents``:
it lowercases, splits on word/punctuation boundaries (``split_tokens``), maps
each token through a frequency-ranked vocabulary with reserved padding and
unknown ids, and truncates and right-pads every document to one length.
"""

from __future__ import annotations

import gc
import itertools
import json
import logging
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

PAD_ID = 0
UNK_ID = 1
NUM_RESERVED = 2

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
# Non-blank JSONL lines parsed by one json.loads (load_jsonl).
_JSONL_CHUNK_LINES = 1024
# "}" "," "{" with JSON whitespace between but no line break: two objects on one line.
_OBJECT_PAIR_RE = re.compile(r"\}[ \t\r]*,[ \t\r]*\{")


def split_tokens(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Document:
    id: int
    text: str
    label: int | None = None


class DocumentSet:
    """Ordered collection of documents with unique non-negative ids.

    The constructor checks every document. The derived sets (``subset``,
    ``with_labels``, ``unlabeled``) and ``load_jsonl`` build their documents
    valid by construction and skip that check; ``subset`` still rejects a
    repeated document.
    """

    def __init__(self, docs: Iterable[Document]):
        self._docs = tuple(docs)
        seen: set[int] = set()
        for d in self._docs:
            if d.id < 0:
                raise ValueError(f"document id {d.id} is negative")
            if d.id in seen:
                raise ValueError(f"duplicate document id {d.id}")
            if not d.text.strip():
                raise ValueError(f"document {d.id} has empty text")
            seen.add(d.id)

    @classmethod
    def _trusted(cls, docs: tuple[Document, ...]) -> "DocumentSet":
        """A set over documents whose ids and texts are valid by construction."""
        out = cls.__new__(cls)
        out._docs = docs
        return out

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs)

    def __getitem__(self, position: int) -> Document:
        return self._docs[position]

    @property
    def texts(self) -> list[str]:
        return [d.text for d in self._docs]

    def labels(self) -> np.ndarray:
        """Label array; raises if any document is unlabeled."""
        out = np.empty(len(self._docs), dtype=np.int64)
        for i, d in enumerate(self._docs):
            if d.label is None:
                raise ValueError(f"document {d.id} has no label")
            out[i] = d.label
        return out

    def subset(self, positions: Sequence[int]) -> "DocumentSet":
        docs = tuple(self._docs[int(p)] for p in positions)
        if len({d.id for d in docs}) < len(docs):
            return DocumentSet(docs)  # raises, naming the repeated id
        return DocumentSet._trusted(docs)

    def with_labels(self, labels: Sequence[int]) -> "DocumentSet":
        """Same documents with labels replaced (e.g. pseudolabels)."""
        if len(labels) != len(self._docs):
            raise ValueError("label count does not match document count")
        return DocumentSet._trusted(
            tuple(Document(d.id, d.text, int(y)) for d, y in zip(self._docs, labels))
        )

    def unlabeled(self) -> "DocumentSet":
        """The documents unlabeled, ids 0..n-1 in order.

        A set that already is so (an unlabeled corpus file) is returned as is.
        """
        if all(d.label is None and d.id == i for i, d in enumerate(self._docs)):
            return self
        return DocumentSet._trusted(tuple(Document(i, d.text) for i, d in enumerate(self._docs)))


@dataclass(frozen=True)
class SeedPool:
    """Candidate pool plus a per-document flag marking leaked true-set members."""

    documents: DocumentSet
    leak_mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.leak_mask, dtype=bool)
        if mask.shape != (len(self.documents),):
            raise ValueError("leak_mask length must equal document count")
        object.__setattr__(self, "leak_mask", mask)


class Vocab:
    """Frequency-ranked token vocabulary with reserved padding/unknown ids.

    ``corpus_tokens`` is every token of the documents ``build_vocab`` counted,
    kept or not (their ``metrics.token_set``); None for a vocabulary built
    from a token list.
    """

    def __init__(self, tokens: Sequence[str], corpus_tokens: frozenset[str] | None = None):
        self._tokens = list(tokens)
        self.corpus_tokens = corpus_tokens
        self._index = {t: i + NUM_RESERVED for i, t in enumerate(self._tokens)}

    @property
    def size(self) -> int:
        return len(self._tokens) + NUM_RESERVED

    def index(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"tokens": self._tokens}, ensure_ascii=False)
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "Vocab":
        data = json.loads(Path(path).read_text())
        return cls(data["tokens"])


@dataclass(frozen=True)
class TokenBatch:
    """Stacked token sequences: ids (n, s) and per-row valid lengths."""

    ids: np.ndarray
    valid_len: np.ndarray

    def __len__(self) -> int:
        return self.ids.shape[0]


def load_jsonl(path: str | Path) -> DocumentSet:
    """Load documents from JSONL; ids are assigned 0..n-1 in file order.

    Records whose text is empty after trimming are skipped (with a logged
    count); a record lacking "text" or failing to parse is an error naming
    the offending line. Lines are parsed ``_JSONL_CHUNK_LINES`` at a time
    (``_parse_lines``), with the cyclic garbage collector paused
    (``_gc_paused``).
    """
    docs: list[Document] = []
    skipped = 0
    with _gc_paused(), open(path, "r", encoding="utf-8") as fh:
        numbered = ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
        while chunk := list(itertools.islice(numbered, _JSONL_CHUNK_LINES)):
            for lineno, record in _parse_lines(chunk):
                if not isinstance(record, dict) or "text" not in record:
                    raise ValueError(f"line {lineno}: missing text")
                text = record["text"]
                if not isinstance(text, str):
                    raise ValueError(f"line {lineno}: text is not a string")
                if not text.strip():
                    skipped += 1
                    continue
                label = record.get("label")
                if label is not None:
                    label = int(label)
                docs.append(Document(len(docs), text, label))
    if skipped:
        logger.warning("skipped %d empty-text records in %s", skipped, path)
    return DocumentSet._trusted(tuple(docs))


@contextmanager
def _gc_paused() -> Iterator[None]:
    """The cyclic garbage collector off for the block, then as the caller had it.

    A parse allocates a dict and a ``Document`` per line, and those
    allocations trigger collections, a full one among them, that walk every
    object the process holds. The parse makes no reference cycles, so a
    collection inside it frees nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_lines(chunk: list[tuple[int, str]]) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each numbered line of ``chunk``.

    One ``json.loads`` parses the lines joined into a JSON array. Its
    elements are the lines' values when there is one element per line, every
    element is an object, and no line holds "}" "," "{" (with only
    whitespace between): a line that held two objects, or a value that
    spanned lines, would need such a comma inside a line. Otherwise each
    line is parsed alone, so an error names its own line.
    """
    joined = "[" + ",".join(line for _, line in chunk) + "]"
    try:
        values = json.loads(joined)
    except (ValueError, RecursionError):
        values = None
    if (
        values is not None
        and len(values) == len(chunk)
        and all(type(v) is dict for v in values)
        and not _OBJECT_PAIR_RE.search(joined)
    ):
        yield from zip((n for n, _ in chunk), values)
        return
    for lineno, line in chunk:
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
        yield lineno, value


@contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Binary file handle on a temporary file, renamed onto ``path`` when the block ends.

    Each writer gets its own ``<path>.<random>.tmp`` in the same directory, so
    two writers of one path (nested, or in two processes) never write into
    the same file: the last rename wins with that writer's complete bytes. On
    any error the writer's temporary file is removed and ``path`` is left as
    it was, so a reader never finds a partly written file there.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_jsonl(docs: DocumentSet, path: str | Path) -> None:
    """Persist documents as UTF-8 JSONL, one line per document in order, in one write.

    A line is ``{"id": <id>, "text": <text>, "label": <label>}\\n``, without the
    label key for an unlabeled document. The text is escaped by
    ``json.encoder.encode_basestring`` (quote, backslash and control characters
    only), so each line equals ``json.dumps(record, ensure_ascii=False)``.
    """
    quote = json.encoder.encode_basestring
    lines = [
        f'{{"id": {d.id}, "text": {quote(d.text)}}}\n'
        if d.label is None
        else f'{{"id": {d.id}, "text": {quote(d.text)}, "label": {d.label}}}\n'
        for d in docs
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def build_vocab(docs: DocumentSet, max_size: int) -> Vocab:
    """Keep the top (max_size - 2) tokens by frequency, ties broken lexically.

    Construction is deterministic and independent of document order. The
    vocabulary's ``corpus_tokens`` keeps every token counted, so the
    documents' token set needs no second tokenizing pass.
    """
    if max_size < NUM_RESERVED + 1:
        raise ValueError(f"max_size must be at least {NUM_RESERVED + 1}")
    counts: Counter[str] = Counter()
    for d in docs:
        counts.update(split_tokens(d.text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [t for t, _ in ranked[: max_size - NUM_RESERVED]]
    return Vocab(kept, frozenset(counts))


def encode_documents(docs: DocumentSet, vocab: Vocab, s: int) -> TokenBatch:
    """Map every document to exactly s token ids (truncate, right-pad with PAD_ID)."""
    if s < 1:
        raise ValueError("sequence length must be at least 1")
    ids = np.full((len(docs), s), PAD_ID, dtype=np.int32)
    lens = np.zeros(len(docs), dtype=np.int32)
    for i, d in enumerate(docs):
        row = [vocab.index(t) for t in split_tokens(d.text)[:s]]
        ids[i, : len(row)] = row
        lens[i] = len(row)
    return TokenBatch(ids, lens)


def split(
    docs: DocumentSet, fractions: tuple[float, float, float], seed: int
) -> tuple[DocumentSet, DocumentSet, DocumentSet]:
    """Deterministic three-way partition (train, seed, test).

    Sizes are floor allocations of the fractions with the remainder going to
    train; the shuffle depends only on the seed.
    """
    if len(fractions) != 3:
        raise ValueError("expected exactly three fractions")
    if any(f <= 0 for f in fractions):
        raise ValueError(f"fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(docs)
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(fractions[0] * n))
    n_seed = int(np.floor(fractions[1] * n))
    n_test = int(np.floor(fractions[2] * n))
    n_train += n - (n_train + n_seed + n_test)
    train = docs.subset(perm[:n_train])
    seed_part = docs.subset(perm[n_train : n_train + n_seed])
    test = docs.subset(perm[n_train + n_seed :])
    return train, seed_part, test


def mix_leakage(
    true_set: DocumentSet,
    distractors: DocumentSet,
    leak_fraction: float,
    pool_size: int,
    seed: int,
) -> SeedPool:
    """Build a candidate pool containing a controlled fraction of true-set docs.

    Pool documents are stripped of labels (candidates are unlabeled by
    construction) and reindexed 0..pool_size-1 in shuffled order.
    """
    if not 0.0 <= leak_fraction <= 1.0:
        raise ValueError(f"leak_fraction must be in [0, 1], got {leak_fraction}")
    if pool_size < 1:
        raise ValueError("pool_size must be positive")
    n_leak = int(round(leak_fraction * pool_size))
    n_dist = pool_size - n_leak
    if n_leak > len(true_set):
        raise ValueError(
            f"true_set has {len(true_set)} documents, need {n_leak} leaked"
        )
    if n_dist > len(distractors):
        raise ValueError(
            f"distractors has {len(distractors)} documents, need {n_dist}"
        )
    rng = np.random.default_rng(seed)
    leak_pos = rng.choice(len(true_set), size=n_leak, replace=False)
    dist_pos = rng.choice(len(distractors), size=n_dist, replace=False)
    docs = [true_set[int(p)] for p in leak_pos]
    docs += [distractors[int(p)] for p in dist_pos]
    mask = np.zeros(pool_size, dtype=bool)
    mask[:n_leak] = True
    order = rng.permutation(pool_size)
    shuffled = [Document(i, docs[int(p)].text, None) for i, p in enumerate(order)]
    return SeedPool(DocumentSet(shuffled), mask[order])
