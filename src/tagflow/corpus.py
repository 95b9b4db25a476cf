"""Corpus ingestion, preprocessing, vocabularies, and example encoding.

The corpus file is delimiter-separated UTF-8 text with a header row and
columns (movie_id, title, plot_synopsis, tags, split, synopsis_source);
the tags column holds a comma-separated list inside one quoted field.
All artifacts built here are immutable after construction.
"""

from __future__ import annotations

import csv
import enum
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat

import numpy as np

from .errors import DataError, open_text

PAD_INDEX = 0
OOV_INDEX = 1

#: What ``Vocabulary.decode`` writes for an out-of-vocabulary index.
OOV_MARKER = "<oov>"

MAX_VOCAB_WORDS = 5000
SEQUENCE_LENGTH = 1500
#: Share of the training records that ``validation_split`` holds out.
VALIDATION_FRACTION = 0.2


class Split(enum.Enum):
    TRAIN = "train"
    TEST = "test"


# the corpus distributes a held-out slice of the training data as "val";
# it belongs to the train side of the two-way enum
_SPLIT_ALIASES = {"train": Split.TRAIN, "val": Split.TRAIN, "test": Split.TEST}


@dataclass
class SynopsisRecord:
    movie_id: str
    title: str
    synopsis: str
    tags: frozenset
    split: Split
    source: str = ""


def load_stopwords():
    """The packaged stopword set, read from its one-word-per-line UTF-8 file."""
    text = resources.files("tagflow").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def tokenize(text):
    """Lowercase, split on whitespace, strip non-alphanumeric edges, drop empties."""
    out = []
    for piece in text.lower().split():
        if piece.isalnum():  # nothing to strip: most pieces
            out.append(piece)
            continue
        start, end = 0, len(piece)
        while start < end and not piece[start].isalnum():
            start += 1
        while end > start and not piece[end - 1].isalnum():
            end -= 1
        if end > start:
            out.append(piece[start:end])
    return out


def preprocess(text, stopwords):
    """Tokenize and drop stopwords, preserving order."""
    return _drop_stopwords(tokenize(text), stopwords)


def _drop_stopwords(tokens, stopwords):
    return [t for t in tokens if t not in stopwords]


def load_corpus(path):
    """Parse a corpus file into records; fails fast with the offending row number."""
    records = []
    first_row = {}
    with open_text(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty corpus file")
        fields = {name.strip(): name for name in reader.fieldnames}
        id_col = fields.get("movie_id") or fields.get("imdb_id")
        required = {"title", "plot_synopsis", "tags", "split"}
        missing = sorted(required - fields.keys())
        if id_col is None:
            missing.append("movie_id")
        if missing:
            raise DataError(f"{path}: missing corpus columns {missing}")
        source_col = fields.get("synopsis_source")
        for rownum, row in enumerate(reader, start=2):
            if any(row.get(fields[c]) is None for c in required):
                raise DataError(f"{path}: row {rownum}: malformed row")
            tags = frozenset(t.strip().lower() for t in row[fields["tags"]].split(",") if t.strip())
            if not tags:
                raise DataError(f"{path}: row {rownum}: empty tag set")
            synopsis = row[fields["plot_synopsis"]]
            if not synopsis.strip():
                raise DataError(f"{path}: row {rownum}: empty synopsis")
            split_raw = row[fields["split"]].strip().lower()
            if split_raw not in _SPLIT_ALIASES:
                raise DataError(f"{path}: row {rownum}: unknown split '{split_raw}'")
            movie_id = row[id_col].strip()
            if movie_id in first_row:
                raise DataError(f"{path}: row {rownum}: movie_id '{movie_id}' repeats row {first_row[movie_id]}")
            first_row[movie_id] = rownum
            records.append(SynopsisRecord(
                movie_id=movie_id,
                title=row[fields["title"]],
                synopsis=synopsis,
                tags=tags,
                split=_SPLIT_ALIASES[split_raw],
                source=(row.get(source_col) or "") if source_col else "",
            ))
    return records


class Vocabulary:
    """Word-to-index map: 0 = padding, 1 = out-of-vocabulary, content from 2.

    Content words are ordered by descending corpus frequency, ties broken
    lexicographically ascending.
    """

    def __init__(self, content_words):
        self.words = list(content_words)
        self._index = {w: i + 2 for i, w in enumerate(self.words)}

    @property
    def size(self):
        """Number of content words (excludes the two reserved indices)."""
        return len(self.words)

    def __contains__(self, word):
        return word in self._index

    def index(self, word):
        return self._index.get(word, OOV_INDEX)

    def decode(self, sequence):
        """Tokens for the non-padding entries of an encoded sequence."""
        out = []
        for i in sequence:
            i = int(i)
            if i == PAD_INDEX:
                continue
            out.append(OOV_MARKER if i == OOV_INDEX else self.words[i - 2])
        return out


def build_vocabulary(train_records, max_words=MAX_VOCAB_WORDS, *, stopwords):
    """Top ``max_words`` preprocessed tokens by per-token frequency."""
    if not train_records:
        raise DataError("cannot build a vocabulary from zero records")
    counts = Counter()
    for r in train_records:
        counts.update(preprocess(r.synopsis, stopwords))
    # by descending count, ties in ascending word order: a stable sort keeps
    # the word order among equal keys, with or without reverse=True
    ranked = sorted(counts)
    ranked.sort(key=counts.__getitem__, reverse=True)
    return Vocabulary(ranked[:max_words])


class TagVocabulary:
    """Ordered tag-to-index map over all distinct training tags."""

    def __init__(self, tags):
        self.tags = sorted(tags)
        self._index = {t: i for i, t in enumerate(self.tags)}

    @classmethod
    def from_records(cls, train_records):
        tags = set()
        for r in train_records:
            tags |= r.tags
        return cls(tags)

    def __len__(self):
        return len(self.tags)

    def __contains__(self, tag):
        return tag in self._index

    def index(self, tag):
        return self._index[tag]

    def counts(self, records):
        """How many records carry each tag, in vocabulary order; other tags are skipped."""
        counts = [0] * len(self.tags)
        for record in records:
            for tag in set(record.tags):
                if tag in self._index:
                    counts[self._index[tag]] += 1
        return counts


def make_target(tags, tag_vocab):
    """Uniform distribution over the record's known tags.

    Tags absent from ``tag_vocab`` are dropped without a warning; a record
    with no known tag at all raises ``DataError``.
    """
    known = [t for t in tags if t in tag_vocab]
    if not known:
        raise DataError(f"no known tags among {sorted(tags)}")
    target = np.zeros(len(tag_vocab), dtype=np.float64)
    mass = 1.0 / len(known)
    for t in known:
        target[tag_vocab.index(t)] = mass
    return target


def encode_synopsis(tokens, vocab, max_len=SEQUENCE_LENGTH):
    """Fixed-length index sequence: truncate from the left, left-pad with zeros."""
    kept = tokens[-max_len:] if len(tokens) > max_len else tokens
    seq = np.zeros(max_len, dtype=np.int64)
    if kept:
        seq[max_len - len(kept):] = np.fromiter(map(vocab._index.get, kept, repeat(OOV_INDEX)),
                                                dtype=np.int64, count=len(kept))
    return seq


def validation_split(train_records, seed):
    """Disjoint, exhaustive random partition; ``VALIDATION_FRACTION`` of the
    records, rounded down, go to validation."""
    n = len(train_records)
    n_val = int(n * VALIDATION_FRACTION)
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = set(perm[:n_val].tolist())
    train_part = [r for i, r in enumerate(train_records) if i not in val_idx]
    val_part = [r for i, r in enumerate(train_records) if i in val_idx]
    return train_part, val_part


@dataclass
class EncodedExample:
    """Model-ready encoding of one movie."""
    movie_id: str
    tokens: np.ndarray
    target: np.ndarray
    flow: np.ndarray | None = None
    tags: frozenset = field(default_factory=frozenset)


def _encode_text(text, vocab, stopwords, lexicon, max_len, n_segments):
    """``(index sequence, float32 emotion flow or None)`` of one raw text, tokenized once.

    The same as ``encode_synopsis(preprocess(text, stopwords), vocab,
    max_len)`` and ``emotion_flow(text, lexicon, n_segments)``, bit for bit;
    the flow is None when ``lexicon`` is.
    """
    tokens = tokenize(text)
    seq = encode_synopsis(_drop_stopwords(tokens, stopwords), vocab, max_len)
    if lexicon is None:
        return seq, None
    from .emotion import _token_flow

    return seq, _token_flow(tokens, lexicon, n_segments).astype(np.float32)


def encode_records(records, vocab, tag_vocab, stopwords, lexicon=None,
                   max_len=SEQUENCE_LENGTH, n_segments=20):
    """Encode records into examples; emotion flow only when a lexicon is given."""
    examples = []
    for r in records:
        tokens, flow = _encode_text(r.synopsis, vocab, stopwords, lexicon, max_len, n_segments)
        examples.append(EncodedExample(
            movie_id=r.movie_id,
            tokens=tokens,
            target=make_target(r.tags, tag_vocab),
            flow=flow,
            tags=r.tags,
        ))
    return examples
