"""Synthetic desk-scale corpora for demos and end-to-end checks.

Documents are bags of filler words salted with topic keywords. Classification
tasks assign one topic per class; next-token tasks draw from a fixed bank of
32 phrases (``phrase_bank`` seeded with 1234) so a model can actually learn
continuations. Pool generators mix "useful" on-topic documents with
filler-only junk, plus a fixed redundancy cluster that rewards selection rules
which penalize redundancy: in the classification pool, a quarter of the useful
documents are keyword-dense near-duplicates on the first three words of class
0's topic; in the next-token pool, 30% of the useful documents repeat phrase 0.

Words are drawn by index: one ``rng.integers(0, len(words), size=k)`` call per
word list and document, which is the stream ``Generator.choice`` draws for a
uniform choice with replacement, without its conversion of the list to an
array. ``tests/test_toycorpus.py`` pins the JSONL bytes of every generator.
"""

from __future__ import annotations

import numpy as np

from .corpus import Document, DocumentSet

FILLER_WORDS = (
    "the a an and or but if then while of in on at by for with about against "
    "between into through during before after above below to from up down out "
    "over under again further once here there all any both each few more most "
    "other some such only own same so than too very can will just should now "
    "never always often also one two three new old first last long little good "
    "great small high low early late young people world work part place case "
    "point number group fact day week year time way thing man woman child eye "
    "hand side head house service friend story month lot right study book word "
    "business issue kind door power hour game line end member law car city "
    "community name team minute idea body back level office"
).split()

TOPIC_WORDS = (
    "goal coach league match tournament striker referee stadium playoff champion".split(),
    "market stock profit investor trading shares dividend economy merger revenue".split(),
    "experiment laboratory quantum particle genome theory researcher telescope molecule physics".split(),
    "election senate parliament policy minister campaign ballot legislation governor diplomat".split(),
    "recipe kitchen flavor roasted delicious chef ingredient bakery spice cuisine".split(),
    "airport luggage itinerary passport destination hotel tourist voyage cruise expedition".split(),
    "melody concert orchestra guitar rhythm album chorus symphony lyrics tempo".split(),
    "storm forecast rainfall humidity thunder blizzard drought sunshine temperature breeze".split(),
)

NUM_TOPICS = len(TOPIC_WORDS)
# The phrase bank of the next-token corpora.
_NUM_PHRASES = 32
_PHRASE_SEED = 1234


def _topic(index: int, offset: int) -> list[str]:
    return TOPIC_WORDS[(index + offset) % NUM_TOPICS]


def _draw(rng: np.random.Generator, words: list[str], k: int) -> list[str]:
    """k words drawn uniformly with replacement: ``rng.choice(words, size=k)``'s stream."""
    return [words[i] for i in rng.integers(0, len(words), size=k).tolist()]


def _topical_text(
    rng: np.random.Generator,
    keywords: list[str],
    n_keywords: int,
    length: int,
) -> str:
    words = _draw(rng, keywords, n_keywords)
    words += _draw(rng, FILLER_WORDS, max(length - n_keywords, 0))
    rng.shuffle(words)
    return " ".join(words)


def _filler_text(rng: np.random.Generator, length: int) -> str:
    return " ".join(_draw(rng, FILLER_WORDS, length))


def _check_num_classes(num_classes: int) -> None:
    if not 1 <= num_classes <= NUM_TOPICS:
        raise ValueError(
            f"num_classes must be in [1, {NUM_TOPICS}] (one topic per class), got {num_classes}"
        )


def make_classification_corpus(
    n: int,
    num_classes: int,
    seed: int,
    topic_offset: int = 0,
    key_lo: int = 2,
    key_hi: int = 5,
    len_lo: int = 8,
    len_hi: int = 14,
) -> DocumentSet:
    """Balanced labeled corpus: class c documents carry topic-c keywords."""
    _check_num_classes(num_classes)
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        label = i % num_classes
        text = _topical_text(
            rng,
            _topic(label, topic_offset),
            int(rng.integers(key_lo, key_hi + 1)),
            int(rng.integers(len_lo, len_hi + 1)),
        )
        docs.append(Document(i, text, label))
    return DocumentSet(docs)


def make_pool_corpus(
    n: int,
    num_classes: int,
    seed: int,
    useful_fraction: float = 0.3,
    topic_offset: int = 0,
) -> DocumentSet:
    """Unlabeled candidate pool: on-topic documents diluted with junk.

    A quarter of the useful documents are keyword-dense near-duplicates of
    class 0, producing the redundant high-alignment cluster that trips plain
    top-k selection.
    """
    _check_num_classes(num_classes)
    rng = np.random.default_rng(seed)
    n_useful = int(round(useful_fraction * n))
    n_heavy = int(round(0.25 * n_useful))
    texts = []
    for i in range(n):
        if i < n_heavy:
            text = _topical_text(
                rng,
                _topic(0, topic_offset)[:3],
                int(rng.integers(6, 10)),
                int(rng.integers(8, 12)),
            )
        elif i < n_useful:
            label = int(rng.integers(0, num_classes))
            text = _topical_text(
                rng,
                _topic(label, topic_offset),
                int(rng.integers(2, 6)),
                int(rng.integers(8, 14)),
            )
        else:
            text = _filler_text(rng, int(rng.integers(8, 14)))
        texts.append(text)
    order = rng.permutation(n)
    return DocumentSet(
        Document(i, texts[int(p)], None) for i, p in enumerate(order)
    )


def phrase_bank(num_phrases: int, seed: int, topic_offset: int = 0) -> list[str]:
    """Deterministic bank of topical phrases with fixed word order."""
    rng = np.random.default_rng(seed)
    phrases = []
    for i in range(num_phrases):
        topic = _topic(i % NUM_TOPICS, topic_offset)
        keys = rng.choice(topic, size=4, replace=False)
        fillers = _draw(rng, FILLER_WORDS, 5)
        phrases.append(
            f"{fillers[0]} {keys[0]} {fillers[1]} {keys[1]} {keys[2]} "
            f"{fillers[2]} {fillers[3]} {keys[3]} {fillers[4]}"
        )
    return phrases


def make_lm_corpus(n: int, seed: int, topic_offset: int = 0) -> DocumentSet:
    """Next-token corpus: each document is one phrase from the bank."""
    bank = phrase_bank(_NUM_PHRASES, _PHRASE_SEED, topic_offset)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, _NUM_PHRASES, size=n)
    return DocumentSet(Document(i, bank[int(p)], None) for i, p in enumerate(picks))


def make_lm_pool(
    n: int,
    seed: int,
    useful_fraction: float = 0.25,
    topic_offset: int = 0,
) -> DocumentSet:
    """Unlabeled next-token pool: phrases plus shuffled-filler junk.

    30% of the useful slice repeats phrase 0, mirroring the redundancy trap
    of the classification pool.
    """
    bank = phrase_bank(_NUM_PHRASES, _PHRASE_SEED, topic_offset)
    rng = np.random.default_rng(seed)
    n_useful = int(round(useful_fraction * n))
    n_heavy = int(round(0.3 * n_useful))
    texts = []
    for i in range(n):
        if i < n_heavy:
            texts.append(bank[0])
        elif i < n_useful:
            texts.append(bank[int(rng.integers(0, _NUM_PHRASES))])
        else:
            texts.append(_filler_text(rng, int(rng.integers(8, 12))))
    order = rng.permutation(n)
    return DocumentSet(
        Document(i, texts[int(p)], None) for i, p in enumerate(order)
    )
