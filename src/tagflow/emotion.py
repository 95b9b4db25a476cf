"""Emotion flow: per-segment emotion/polarity percentages over a synopsis.

A synopsis is tokenized (before any stopword removal), split into N
contiguous word segments, and each segment is scored against a binary
word-emotion lexicon.  Entry d of a segment vector is the percentage of
the segment's words whose lexicon entry has dimension d set; a word
counts once per associated dimension.  All operations are pure.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .corpus import tokenize
from .errors import DataError, open_text

#: Fixed dimension order of every emotion vector and of the CSV export.
EMOTIONS = ("anger", "anticipation", "disgust", "fear", "joy",
            "sadness", "surprise", "trust", "negative", "positive")

_EMOTION_INDEX = {name: i for i, name in enumerate(EMOTIONS)}

DEFAULT_SEGMENTS = 20


class EmotionLexicon:
    """Word to 10-bit association vector (see ``EMOTIONS`` for the order)."""

    def __init__(self, associations=None):
        vectors = {}
        for word, vec in (associations or {}).items():
            vec = np.asarray(vec, dtype=np.uint8)
            if vec.shape != (len(EMOTIONS),):
                raise DataError(f"lexicon vector for '{word}' has shape {vec.shape}")
            vectors[word.lower()] = vec
        self._fill(list(vectors), np.array(list(vectors.values()), dtype=np.uint8))

    def _fill(self, words, bits):
        """Row i of the read-only table holds ``words[i - 1]``'s bits; row 0
        is the zeros that every absent word reads."""
        self._index = {word: i for i, word in enumerate(words, start=1)}
        self._table = np.zeros((len(words) + 1, len(EMOTIONS)), dtype=np.uint8)
        self._table[1:] = bits.reshape(-1, len(EMOTIONS))
        self._table.flags.writeable = False

    def __len__(self):
        return len(self._index)

    def __contains__(self, word):
        return word.lower() in self._index

    def vector(self, word):
        """Association bits for a word; zeros when absent."""
        return self._table[self._index.get(word.lower(), 0)]

    def rows(self, words):
        """(len(words), 10) association bits, one row per word; zeros when absent."""
        rows = np.fromiter(map(self._index.get, map(str.lower, words), repeat(0)), dtype=np.intp, count=len(words))
        return self._table[rows]

    @classmethod
    def _from_bits(cls, words, bits):
        """The lexicon where ``words[i]`` has dimension d set iff bit d of ``bits[i]`` is."""
        lex = cls.__new__(cls)
        lex._fill(words, np.asarray(bits, dtype=np.int64).reshape(-1, 1) >> np.arange(len(EMOTIONS)) & 1)
        return lex


def load_lexicon(path):
    """Parse the tab-separated triple format ``word<TAB>emotion<TAB>{0,1}``.

    Each word's lines fold into two 10-bit integers, the dimensions named so
    far and the ones set to 1, so a repeated (word, emotion) line is checked
    without a per-line key or array; the bit table is built once at the end.
    """
    named, ones = {}, {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            word, emotion, flag = parts[0].strip().lower(), parts[1].strip().lower(), parts[2].strip()
            if emotion not in _EMOTION_INDEX:
                raise DataError(f"{path}: line {lineno}: unknown emotion label '{emotion}'")
            if flag not in ("0", "1"):
                raise DataError(f"{path}: line {lineno}: association must be 0 or 1, got '{flag}'")
            bit = 1 << _EMOTION_INDEX[emotion]
            seen, set_ = named.get(word, 0), ones.get(word, 0)
            if seen & bit and bool(set_ & bit) != (flag == "1"):
                raise DataError(f"{path}: line {lineno}: conflicting duplicate for {(word, emotion)}")
            named[word] = seen | bit
            if flag == "1":
                ones[word] = set_ | bit
    return EmotionLexicon._from_bits(list(named), [ones.get(word, 0) for word in named])


def segment_words(tokens, n_segments=DEFAULT_SEGMENTS):
    """Split tokens into ``n_segments`` contiguous, order-preserving parts.

    With ``len(tokens) = q * n + r`` the first r segments hold q+1 tokens and
    the rest hold q; segments may be empty when there are fewer tokens than
    segments.
    """
    if n_segments < 1:
        raise ValueError(f"segment count must be >= 1, got {n_segments}")
    q, r = divmod(len(tokens), n_segments)
    segments = []
    start = 0
    for i in range(n_segments):
        size = q + 1 if i < r else q
        segments.append(tokens[start:start + size])
        start += size
    return segments


def emotion_vector(segment, lexicon):
    """Percentage of segment words associated with each dimension."""
    if not segment:
        return np.zeros(len(EMOTIONS), dtype=np.float64)
    counts = lexicon.rows(segment).sum(axis=0, dtype=np.int64)
    return 100.0 * counts / len(segment)


def emotion_flow(text, lexicon, n_segments=DEFAULT_SEGMENTS):
    """N x 10 matrix of per-segment emotion percentages for a raw text.

    Row i equals ``emotion_vector(segment_words(tokens)[i])``, bit for bit:
    each segment's counts are exact differences of integer prefix sums.
    """
    return _token_flow(tokenize(text), lexicon, n_segments)


def _token_flow(tokens, lexicon, n_segments):
    """``emotion_flow`` of an already tokenized text."""
    if n_segments < 1:
        raise ValueError(f"segment count must be >= 1, got {n_segments}")
    # segment_words' sizes, without its lists: r segments of q + 1 tokens, then q
    q, r = divmod(len(tokens), n_segments)
    sizes = np.full(n_segments, q, dtype=np.int64)
    sizes[:r] += 1
    totals = np.zeros((len(tokens) + 1, len(EMOTIONS)), dtype=np.int64)
    np.cumsum(lexicon.rows(tokens), axis=0, dtype=np.int64, out=totals[1:])
    ends = np.cumsum(sizes)
    counts = totals[ends] - totals[ends - sizes]
    return 100.0 * counts / np.maximum(sizes, 1)[:, None]


def flow_to_csv(flow):
    """Render a flow matrix as CSV with 1-based segment numbers."""
    lines = ["segment," + ",".join(EMOTIONS)]
    for i, row in enumerate(flow, start=1):
        lines.append(f"{i}," + ",".join(format(float(v), "g") for v in row))
    return "\n".join(lines) + "\n"
