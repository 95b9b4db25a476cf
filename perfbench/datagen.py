"""Seeded synthetic inputs in the file formats tagflow reads.

MPST and the NRC lexicon are not redistributable, so every workload runs
on generated text. One call writes three files:

* ``corpus.csv``: the MPST layout (movie_id, title, plot_synopsis, tags,
  split, synopsis_source), with train and test rows.
* ``lexicon.txt``: EmoLex triples ``word<TAB>emotion<TAB>0|1``, ten lines
  per listed word.
* ``synopses.tsv``: ``id<TAB>text`` lines, the ``tagflow predict --input``
  format.

Content words are pseudo-words drawn Zipfian from a vocabulary larger than
tagflow's 5,000-word cap; a fixed share of each synopsis is common English
stopwords, so stopword removal has work to do. Tags follow a skewed
popularity curve, and every tag occurs in at least one training row, so
the tag vocabulary always has all ``N_TAGS`` entries. The same seed and
spec give byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# EmoLex lists the ten labels of each word in alphabetical order.
EMOLEX_LABELS = ("anger", "anticipation", "disgust", "fear", "joy",
                 "negative", "positive", "sadness", "surprise", "trust")

CSV_FIELDS = ("movie_id", "title", "plot_synopsis", "tags", "split", "synopsis_source")

# Function words interleaved with the content words; all are tagflow stopwords.
STOPWORDS = ("the", "a", "an", "and", "of", "to", "in", "his", "her", "he", "she",
             "is", "was", "with", "that", "for", "on", "as", "by", "at", "from",
             "they", "it", "but", "their", "who", "when", "after", "into", "him")

VOCABULARY = 20000      # pseudo-words, more than tagflow's 5,000-word cap
ZIPF = 1.07             # exponent of the content words' rank-frequency curve
N_TAGS = 71             # the published tag count
STOPWORD_SHARE = 0.3    # share of each synopsis that is stopwords
LEXICON_STRIDE = 4      # one in four content words is listed in the lexicon

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Lengths:
    """Synopsis length in words (stopwords included): uniform or log-uniform."""

    kind: str
    lo: int
    hi: int

    def draw(self, rng, n):
        """``n`` lengths at evenly spaced quantiles, in an order set by ``rng``.

        Every seed gets the same lengths, so runs at different seeds do the
        same amount of text work and differ only in words and order.
        """
        u = (rng.permutation(n) + 0.5) / n
        if self.kind == "uniform":
            return np.rint(self.lo + u * (self.hi - self.lo)).astype(np.int64)
        if self.kind == "loguniform":
            return np.rint(np.exp(np.log(self.lo) + u * np.log(self.hi / self.lo))).astype(np.int64)
        raise ValueError(f"unknown length distribution '{self.kind}'")


@dataclass(frozen=True)
class CorpusSpec:
    n_train: int
    n_test: int
    n_predict: int
    train_words: Lengths
    test_words: Lengths
    predict_words: Lengths


def _pseudo_words(rng, n, exclude):
    words, seen = [], set(exclude)
    while len(words) < n:
        n_syllables = int(rng.integers(2, 5))
        word = "".join(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
                       + _VOWELS[int(rng.integers(len(_VOWELS)))] for _ in range(n_syllables))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _synopsis(rng, n_words, vocab, p_vocab):
    n_stop = int(round(n_words * STOPWORD_SHARE))
    content = [vocab[i] for i in rng.choice(len(vocab), size=n_words - n_stop, p=p_vocab)]
    stops = [STOPWORDS[i] for i in rng.integers(len(STOPWORDS), size=n_stop)]
    pool = content + stops
    tokens = [pool[i] for i in rng.permutation(n_words)]
    for i in range(int(rng.integers(8, 16)), n_words - 1, 15):
        tokens[i] += "."
        tokens[i + 1] = tokens[i + 1].capitalize()
    tokens[0] = tokens[0].capitalize()
    return " ".join(tokens) + "."


def _tags(rng, p_tags, forced):
    k = 1 + int(rng.binomial(4, 0.3))
    picked = set(rng.choice(len(p_tags), size=k, replace=False, p=p_tags).tolist())
    return sorted(picked | set(forced))


def generate(spec, seed, out_dir, exclude=()):
    """Write corpus.csv, lexicon.txt and synopses.tsv under ``out_dir``.

    ``exclude`` holds words no pseudo-word may equal (the program's
    stopword list), so content words survive stopword removal.
    Returns the three paths by name.
    """
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    words = _pseudo_words(rng, VOCABULARY + N_TAGS, set(exclude) | set(STOPWORDS))
    vocab, tag_names = words[:VOCABULARY], sorted(words[VOCABULARY:])
    p_vocab = np.arange(1, VOCABULARY + 1, dtype=np.float64) ** -ZIPF
    p_vocab /= p_vocab.sum()
    p_tags = np.arange(1, N_TAGS + 1, dtype=np.float64) ** -1.0
    p_tags /= p_tags.sum()

    paths = {"corpus": out / "corpus.csv", "lexicon": out / "lexicon.txt",
             "synopses": out / "synopses.tsv"}
    with open(paths["corpus"], "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_FIELDS)
        rows = [("train", spec.train_words.draw(rng, spec.n_train)),
                ("test", spec.test_words.draw(rng, spec.n_test))]
        movie = 0
        for split, lengths in rows:
            for i, n_words in enumerate(lengths):
                # every tag occurs in some training row
                forced = range(i, N_TAGS, spec.n_train) if split == "train" else ()
                tags = _tags(rng, p_tags, forced)
                text = _synopsis(rng, int(n_words), vocab, p_vocab)
                writer.writerow((f"m{movie:06d}", f"{vocab[movie % 500].capitalize()} {movie}", text,
                                 ", ".join(tag_names[t] for t in tags), split, "synthetic"))
                movie += 1

    # Every LEXICON_STRIDE-th frequency rank is listed, so the share of
    # tokens the lexicon covers is the same at every seed.
    listed = np.arange(VOCABULARY) % LEXICON_STRIDE == 1
    with open(paths["lexicon"], "w", encoding="utf-8", newline="\n") as f:
        for word in sorted(w for w, keep in zip(vocab, listed) if keep):
            flags = dict(zip(EMOLEX_LABELS, (rng.random(len(EMOLEX_LABELS)) < 0.15).astype(int)))
            polarity = rng.random()
            flags["negative"], flags["positive"] = int(polarity < 0.3), int(polarity > 0.7)
            f.writelines(f"{word}\t{label}\t{flags[label]}\n" for label in EMOLEX_LABELS)

    with open(paths["synopses"], "w", encoding="utf-8", newline="\n") as f:
        for i, n_words in enumerate(spec.predict_words.draw(rng, spec.n_predict)):
            f.write(f"p{i:05d}\t{_synopsis(rng, int(n_words), vocab, p_vocab)}\n")
    return paths


def read_synopses(path):
    """(id, text) pairs of a synopses.tsv file."""
    with open(path, encoding="utf-8") as f:
        return [tuple(line.rstrip("\n").split("\t", 1)) for line in f if line.strip()]
