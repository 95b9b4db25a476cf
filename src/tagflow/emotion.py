"""Emotion flow: per-segment emotion/polarity percentages over a synopsis.

A synopsis is tokenized (before any stopword removal), split into N
contiguous word segments, and each segment is scored against a binary
word-emotion lexicon.  Entry d of a segment vector is the percentage of
the segment's words whose lexicon entry has dimension d set; a word
counts once per associated dimension.  All operations are pure.
"""

from __future__ import annotations

from itertools import count, repeat

import numpy as np

from .corpus import tokenize
from .errors import DataError, open_text

#: Fixed dimension order of every emotion vector and of the CSV export.
EMOTIONS = ("anger", "anticipation", "disgust", "fear", "joy",
            "sadness", "surprise", "trust", "negative", "positive")

#: Each canonical label's bit in a word's 10-bit folds.
_EMOTION_BITS = {name: 1 << i for i, name in enumerate(EMOTIONS)}

DEFAULT_SEGMENTS = 20

#: Characters of lexicon text the bulk parse reads at a time, before it cuts
#: them back to the last newline.
_CHUNK_CHARS = 1 << 16

#: _LABEL_OF_CODE[len(label) * 256 + first byte] is the label's index in
#: ``EMOTIONS``, -1 for every other code: no two labels share both.
_LABEL_OF_CODE = np.full(16 * 256, -1, dtype=np.int8)
_LABEL_OF_CODE[[len(name) * 256 + ord(name[0]) for name in EMOTIONS]] = range(len(EMOTIONS))


def _eights(rows):
    """Byte strings of up to 8 bytes, each NUL-padded to 8 and read as one
    uint64 in native byte order."""
    return np.frombuffer(b"".join(row.ljust(8, b"\0") for row in rows), dtype=np.uint64)


#: _PREFIX_MASKS[n] keeps the first n bytes of an 8-byte uint64.
_PREFIX_MASKS = _eights(b"\xff" * n for n in range(9))

#: Each label's first 8 bytes and its last 8 bytes.
_LABEL_HEADS = _eights(name[:8].encode("ascii") for name in EMOTIONS)
_LABEL_TAILS = _eights(name[-8:].encode("ascii") for name in EMOTIONS)


class EmotionLexicon:
    """Word to 10-bit association vector (see ``EMOTIONS`` for the order).

    Words are stored lowercase; two keys of ``associations`` that lowercase
    to the same word must carry the same vector.
    """

    def __init__(self, associations=None):
        vectors = {}
        for word, vec in (associations or {}).items():
            vec = np.asarray(vec, dtype=np.uint8)
            if vec.shape != (len(EMOTIONS),):
                raise DataError(f"lexicon vector for '{word}' has shape {vec.shape}")
            word = word.lower()
            if word in vectors and not np.array_equal(vectors[word], vec):
                raise DataError(f"conflicting vectors for lexicon word '{word}'")
            vectors[word] = vec
        self._fill(list(vectors), np.array(list(vectors.values()), dtype=np.uint8))

    def _fill(self, words, bits):
        """Row i of the read-only table holds ``words[i - 1]``'s bits; row 0
        is the zeros that every absent word reads."""
        self._index = dict(zip(words, range(1, len(words) + 1)))
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
        return self._lowercase_rows([word.lower() for word in words])

    def _lowercase_rows(self, words):
        """``rows`` of words that are already lowercase."""
        rows = np.fromiter(map(self._index.get, words, repeat(0)), dtype=np.intp, count=len(words))
        return self._table[rows]

    @classmethod
    def _from_table(cls, words, table):
        """The lexicon where ``words[i]`` has row i of the (len(words), 10) 0/1 ``table``."""
        lex = cls.__new__(cls)
        lex._fill(words, table)
        return lex

    @classmethod
    def _from_bits(cls, words, bits):
        """The lexicon where ``words[i]`` has dimension d set iff bit d of ``bits[i]`` is."""
        bits = np.asarray(bits, dtype=np.int64).reshape(-1, 1)
        return cls._from_table(words, bits >> np.arange(len(EMOTIONS)) & 1)


def load_lexicon(path):
    """Parse the tab-separated triple format ``word<TAB>emotion<TAB>{0,1}``.

    A canonical file is parsed in bulk, a chunk of lines at a time (see
    ``_load_canonical``); any other file, or one whose lines conflict, is
    parsed again from the start by the line loop of ``_load_lines``, which
    normalizes fields and reports every error by line.  Both give the same
    lexicon.  A file with no entry line raises ``DataError``.
    """
    with open_text(path) as f:
        lexicon = _load_canonical(f)
    return lexicon if lexicon is not None else _load_lines(path)


def _load_canonical(f):
    """The lexicon of the text of ``f``, or None when it is not canonical,
    has two conflicting lines or has none.

    Canonical text is ASCII with no uppercase letter, space or control
    character but tab and newline, and each of its lines is
    ``word<TAB>label<TAB>flag``: a word that is not empty, one of
    ``EMOTIONS`` and ``0`` or ``1``.  The line loop would take such a line's
    fields as they are.  The text is read ``_CHUNK_CHARS`` at a time and cut
    at the last newline.  Each chunk is checked and parsed with numpy from
    the positions of its tabs and newlines and the 8 bytes at a position,
    read as one uint64.  A Python string is made only for the word of each
    run of consecutive lines with the same word.
    """
    index = {}  # word -> its row of ``cells``, in first-seen order
    # (row, label) cells: 0 unseen, 1 flag 0, 2 flag 1; rows are numbered by
    # run, so a word seen again in a later run leaves its new row unused
    cells = np.zeros(0, dtype=np.uint8)
    n_rows = 0
    try:
        for text in _whole_lines(f):
            if not text.isascii():
                return None
            padded = text.encode("ascii") + bytes(8)
            buf = np.frombuffer(padded, dtype=np.uint8)[:-8]
            # eights[i] holds the 8 bytes from position i, as one uint64
            eights = np.ndarray((len(buf) + 1,), dtype=np.uint64, buffer=padded, strides=(1,))
            if np.any(buf - np.uint8(ord("A")) < 26):  # an uppercase letter
                return None
            # Tabs, newlines and any other control byte or space; in canonical
            # text every line has two tabs before its newline.
            seps = np.flatnonzero(buf <= ord(" "))
            if buf[seps].tobytes() != b"\t\t\n" * (len(seps) // 3):
                return None
            first, second, ends = seps[0::3], seps[1::3], seps[2::3]
            starts = np.concatenate(([0], ends[:-1] + 1))
            widths = first - starts
            lengths = second - first - 1
            flags = buf[ends - 1] - np.uint8(ord("0"))
            labels = _LABEL_OF_CODE[np.minimum(lengths, 15) * 256 + buf[first + 1]]
            if not np.all((widths > 0) & (second == ends - 2) & (flags <= 1) & (labels >= 0)):
                return None
            # a label's first 8 bytes, and the last 8 of one longer than that
            longer = lengths > 8
            if (np.any((eights[first + 1] & _PREFIX_MASKS[np.minimum(lengths, 8)]) != _LABEL_HEADS[labels])
                    or np.any(eights[second[longer] - 8] != _LABEL_TAILS[labels[longer]])):
                return None

            # A line starts a run unless its word equals the line before's:
            # by width and first 8 bytes, then by the last 8 bytes of a
            # longer word, then by any bytes between.
            heads = eights[starts] & _PREFIX_MASKS[np.minimum(widths, 8)]
            same = (widths[1:] == widths[:-1]) & (heads[1:] == heads[:-1])
            longer = np.flatnonzero(same & (widths[1:] > 8))
            same[longer] = eights[first[longer + 1] - 8] == eights[first[longer] - 8]
            for i in longer[widths[longer] > 16].tolist():
                a, b, width = int(starts[i]), int(starts[i + 1]), int(widths[i])
                same[i] &= padded[a:a + width] == padded[b:b + width]
            new_run = np.concatenate(([True], ~same))
            runs = np.flatnonzero(new_run)
            words = [text[a:b] for a, b in zip(starts[runs].tolist(), first[runs].tolist())]
            rows = np.fromiter(map(index.setdefault, words, count(n_rows)), dtype=np.intp, count=len(words))
            n_rows += len(words)

            if len(cells) < n_rows * len(EMOTIONS):
                cells = np.concatenate((cells, np.zeros(max(len(cells), n_rows * len(EMOTIONS)), np.uint8)))
            keys = rows[np.cumsum(new_run) - 1] * len(EMOTIONS) + labels
            states = flags + np.uint8(1)
            before = cells[keys]
            cells[keys] = states
            # a line that disagrees with an earlier one, in this chunk or before
            if np.any((before != 0) & (before != states)) or np.any(cells[keys] != states):
                return None
    except UnicodeDecodeError:  # the line loop raises it at the line it reaches
        return None
    if not index:
        return None
    rows = np.fromiter(index.values(), dtype=np.intp, count=len(index))
    table = cells.reshape(-1, len(EMOTIONS))[rows] == 2
    return EmotionLexicon._from_table(list(index), table)


def _whole_lines(f):
    """The text of ``f`` in pieces of whole lines of about ``_CHUNK_CHARS``
    characters each; the last line gets a newline when it has none."""
    rest = []
    while block := f.read(_CHUNK_CHARS):
        cut = block.rfind("\n") + 1
        if cut:
            rest.append(block[:cut])
            yield "".join(rest)
            rest = []
        rest.append(block[cut:])
    tail = "".join(rest)
    if tail:
        yield tail + "\n"


def _load_lines(path):
    """``load_lexicon`` as a loop over lines, for any file.

    Every line's word, label and flag are normalized and folded into the
    word's two 10-bit integers, the dimensions named so far and the ones
    set to 1, so a repeated (word, emotion) line is checked without a
    per-line key or array; the bit table is built once at the end.
    """
    named, ones = {}, {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.strip().split("\t")
            if len(parts) != 3:
                if parts == [""]:  # a blank line
                    continue
                raise DataError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            word, emotion, flag = parts[0].strip().lower(), parts[1].strip().lower(), parts[2].strip()
            bit = _EMOTION_BITS.get(emotion)
            if bit is None:
                raise DataError(f"{path}: line {lineno}: unknown emotion label '{emotion}'")
            if flag not in ("0", "1"):
                raise DataError(f"{path}: line {lineno}: association must be 0 or 1, got '{flag}'")
            seen, set_ = named.get(word, 0), ones.get(word, 0)
            if seen & bit and bool(set_ & bit) != (flag == "1"):
                raise DataError(f"{path}: line {lineno}: conflicting duplicate for {(word, emotion)}")
            named[word] = seen | bit
            if flag == "1":
                ones[word] = set_ | bit
    if not named:
        raise DataError(f"{path}: no lexicon entries")
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
    """``emotion_flow`` of an already tokenized text.

    ``tokenize`` lowercases the whole text, so the tokens are looked up as
    they are: lowering a lowercase string again changes no code point.
    """
    if n_segments < 1:
        raise ValueError(f"segment count must be >= 1, got {n_segments}")
    # segment_words' sizes, without its lists: r segments of q + 1 tokens, then q
    q, r = divmod(len(tokens), n_segments)
    sizes = np.full(n_segments, q, dtype=np.int64)
    sizes[:r] += 1
    totals = np.zeros((len(tokens) + 1, len(EMOTIONS)), dtype=np.int64)
    np.cumsum(lexicon._lowercase_rows(tokens), axis=0, dtype=np.int64, out=totals[1:])
    ends = np.cumsum(sizes)
    counts = totals[ends] - totals[ends - sizes]
    return 100.0 * counts / np.maximum(sizes, 1)[:, None]


def flow_to_csv(flow):
    """Render a flow matrix as CSV with 1-based segment numbers."""
    lines = ["segment," + ",".join(EMOTIONS)]
    for i, row in enumerate(flow, start=1):
        lines.append(f"{i}," + ",".join(format(float(v), "g") for v in row))
    return "\n".join(lines) + "\n"
