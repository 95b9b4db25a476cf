"""Shared builders for the test suite: corpora, lexicons, and text, prediction and LSTM oracles."""

from __future__ import annotations

import csv

import numpy as np

from tagflow.autodiff import add, concat, constant, matmul, mul, reshape, tanh
from tagflow.corpus import Split, SynopsisRecord
from tagflow.emotion import EMOTIONS, EmotionLexicon, segment_words
from tagflow.errors import DataError, open_text

CORPUS_COLUMNS = ("movie_id", "title", "plot_synopsis", "tags", "split", "synopsis_source")

#: Synthetic three-word emotion lexicon used across emotion tests.
SYNTHETIC_LEXICON = """\
gleam\tjoy\t1
gleam\tpositive\t1
dread\tfear\t1
dread\tnegative\t1
mourn\tsadness\t1
mourn\tnegative\t1
calm\tanger\t0
"""

#: 80-token synopsis whose 20-segment flow is hand-computed in the golden CSV:
#: segments 1-5 all "gleam", 6-10 half "gleam" half "dread", 11-15 one
#: "mourn" in four words, 16-20 lexicon-free.
GOLDEN_SYNOPSIS = " ".join(
    ["gleam"] * 20
    + ["gleam", "gleam", "dread", "dread"] * 5
    + ["mourn", "table", "table", "table"] * 5
    + ["table"] * 20
)


def reference_tokenize(text):
    """``tokenize`` as a plain loop that strips every piece's edges: the oracle for its fast path."""
    out = []
    for piece in text.lower().split():
        start, end = 0, len(piece)
        while start < end and not piece[start].isalnum():
            start += 1
        while end > start and not piece[end - 1].isalnum():
            end -= 1
        if end > start:
            out.append(piece[start:end])
    return out


def reference_encoding(text, vocab, stopwords, lexicon, max_len, n_segments):
    """One text's (index sequence, float32 flow), a word at a time from ``reference_tokenize``."""
    tokens = reference_tokenize(text)
    content = [t for t in tokens if t not in stopwords][-max_len:]
    seq = np.zeros(max_len, dtype=np.int64)
    for i, word in enumerate(content, start=max_len - len(content)):
        seq[i] = vocab.index(word)
    flow = np.zeros((n_segments, 10))
    for row, segment in zip(flow, segment_words(tokens, n_segments)):
        for word in segment:
            row += lexicon.vector(word)
        if segment:
            row[:] = 100.0 * row / len(segment)
    return seq, flow.astype(np.float32)


def reference_load_lexicon(path):
    """``load_lexicon`` as a loop that normalizes and looks up every field of
    every line: the oracle for its bulk parse and its once-per-run loop."""
    index = {name: i for i, name in enumerate(EMOTIONS)}
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
            if emotion not in index:
                raise DataError(f"{path}: line {lineno}: unknown emotion label '{emotion}'")
            if flag not in ("0", "1"):
                raise DataError(f"{path}: line {lineno}: association must be 0 or 1, got '{flag}'")
            bit = 1 << index[emotion]
            seen, set_ = named.get(word, 0), ones.get(word, 0)
            if seen & bit and bool(set_ & bit) != (flag == "1"):
                raise DataError(f"{path}: line {lineno}: conflicting duplicate for {(word, emotion)}")
            named[word] = seen | bit
            if flag == "1":
                ones[word] = set_ | bit
    if not named:
        raise DataError(f"{path}: no lexicon entries")
    return EmotionLexicon._from_bits(list(named), [ones.get(word, 0) for word in named])


def write_lexicon(path, text=SYNTHETIC_LEXICON):
    path.write_text(text, encoding="utf-8")
    return path


def write_corpus_csv(path, records):
    """Serialize records in the corpus column layout."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CORPUS_COLUMNS)
        for r in records:
            split = r.split.value if isinstance(r.split, Split) else r.split
            writer.writerow([r.movie_id, r.title, r.synopsis, ", ".join(sorted(r.tags)), split, r.source])
    return path


def make_record(movie_id, synopsis, tags, split=Split.TRAIN, title=None):
    return SynopsisRecord(
        movie_id=movie_id,
        title=title or movie_id,
        synopsis=synopsis,
        tags=frozenset(tags),
        split=split,
    )


def separable_records(n=50, n_tags=5, seed=0, words_per_synopsis=40, split=Split.TRAIN):
    """Synthetic corpus whose tags are recoverable from signature words.

    Each tag owns six signature words; an example carries one or two tags
    and its synopsis is drawn almost entirely from their signatures, so a
    model that overfits the training set can rank the true tags on top.
    """
    rng = np.random.default_rng(seed)
    tags = [f"tone{chr(ord('a') + i)}" for i in range(n_tags)]
    signatures = {t: [f"{t}mark{j}" for j in range(6)] for t in tags}
    records = []
    for i in range(n):
        chosen = [tags[j] for j in rng.choice(n_tags, size=1 + (i % 2), replace=False)]
        words = []
        for _ in range(words_per_synopsis - 4):
            tag = chosen[int(rng.integers(len(chosen)))]
            words.append(signatures[tag][int(rng.integers(6))])
        words.extend(["common"] * 4)
        records.append(make_record(f"m{i:03d}", " ".join(words), chosen, split=split))
    return records


def brute_force_micro_f1(preds, truths):
    """Independent re-derivation: walk every (movie, tag) pair separately."""
    tp = fp = fn = 0
    for movie in preds:
        for tag in set(preds[movie]):
            if tag in truths[movie]:
                tp += 1
            else:
                fp += 1
        for tag in truths[movie]:
            if tag not in set(preds[movie]):
                fn += 1
    if 2 * tp + fp + fn == 0:
        return 0.0
    # 2PR/(P+R) simplified over pooled counts
    return 2 * tp / (2 * tp + fp + fn)


def brute_force_tag_recall(preds, truths, all_tags):
    """Independent re-derivation of mean per-tag recall with zero-fill."""
    recalls = []
    for tag in all_tags:
        instances = [movie for movie in preds if tag in truths[movie]]
        if not instances:
            recalls.append(0.0)
            continue
        hit = sum(1 for movie in instances if tag in set(preds[movie]))
        recalls.append(hit / len(instances))
    return sum(recalls) / len(all_tags), recalls


def brute_force_tags_learned(preds):
    seen = set()
    for tags in preds.values():
        for tag in tags:
            seen.add(tag)
    return len(seen)


def random_metric_instance(rng, max_movies=10, max_tags=10):
    """One random toy (preds, truths, vocab) triple for oracle comparison."""
    n_tags = int(rng.integers(2, max_tags + 1))
    vocab = [f"t{i}" for i in range(n_tags)]
    n_movies = int(rng.integers(1, max_movies + 1))
    k = int(rng.integers(1, n_tags + 1))
    preds = {}
    truths = {}
    for m in range(n_movies):
        movie = f"m{m}"
        preds[movie] = [vocab[i] for i in rng.choice(n_tags, size=k, replace=False)]
        n_truth = int(rng.integers(0, n_tags + 1))
        truths[movie] = {vocab[i] for i in rng.choice(n_tags, size=n_truth, replace=False)}
    return preds, truths, vocab


def total(x):
    """The sum of ``x``'s entries as a 0-d tape node: its flat row times a ones column."""
    row = reshape(x, (1, x.data.size))
    return reshape(matmul(row, constant(np.ones((x.data.size, 1)), dtype=x.dtype)), ())


def _sigmoid_graph(x):
    """sigmoid(x) = (1 + tanh(x / 2)) / 2 on the autodiff primitives."""
    half = constant(np.asarray(0.5, dtype=x.dtype))
    return mul(add(tanh(mul(x, half)), constant(np.asarray(1.0, dtype=x.dtype))), half)


def _reference_lstm_step(cell, s_t, h_prev, c_prev):
    """One step of the ``LstmCell`` docstring equations, one tape node per operation."""
    i_t = _sigmoid_graph(s_t @ cell.W_si + h_prev @ cell.W_hi + c_prev @ cell.W_ci + cell.b_i)
    f_t = _sigmoid_graph(s_t @ cell.W_sf + h_prev @ cell.W_hf + c_prev @ cell.W_cf + cell.b_f)
    candidate = tanh(s_t @ cell.W_sc + h_prev @ cell.W_hc + cell.b_c)
    c_t = mul(f_t, c_prev) + mul(i_t, candidate)
    o_t = _sigmoid_graph(s_t @ cell.W_so + h_prev @ cell.W_ho + cell.b_o)
    return mul(o_t, tanh(c_t)), c_t


def reference_bilstm(flow, fwd_cell, bwd_cell):
    """``bilstm_forward`` as a per-step graph of autodiff primitives.

    Same ``(states, final)`` contract; the oracle the fused node is
    checked against.
    """
    flow = np.asarray(flow)
    n_steps = flow.shape[0]
    rows = [constant(flow[t:t + 1], dtype=fwd_cell.dtype) for t in range(n_steps)]
    zeros = np.zeros((1, fwd_cell.hidden_dim), dtype=fwd_cell.dtype)

    h, c = constant(zeros), constant(zeros)
    fwd_states = []
    for t in range(n_steps):
        h, c = _reference_lstm_step(fwd_cell, rows[t], h, c)
        fwd_states.append(h)

    h, c = constant(zeros), constant(zeros)
    bwd_states = [None] * n_steps
    for t in reversed(range(n_steps)):
        h, c = _reference_lstm_step(bwd_cell, rows[t], h, c)
        bwd_states[t] = h

    states = concat([concat(fwd_states, axis=0), concat(bwd_states, axis=0)], axis=-1)
    final = concat([fwd_states[-1], bwd_states[0]], axis=-1)
    return states, final


def fuzzed_token_lists(rng, n, seq_len, n_ids):
    """``n`` left-padded token sequences of ``seq_len`` ids below ``n_ids``, cycling through the kinds
    a tape-free conv must score alike: a random pad lead (none to all but one row) before random
    ids; random ids with no padding; a few ids repeated; all padding; one id throughout; and a
    pad lead before a single real id."""
    out = []
    for i in range(n):
        tokens = np.zeros(seq_len, dtype=np.intp)
        kind = i % 6
        if kind == 0:
            n_real = int(rng.integers(1, seq_len))
            tokens[seq_len - n_real:] = rng.integers(1, n_ids, size=n_real)
        elif kind == 1:
            tokens[:] = rng.integers(0, n_ids, size=seq_len)
        elif kind == 2:
            lead = int(rng.integers(0, seq_len // 2))
            tokens[lead:] = rng.choice(rng.integers(1, n_ids, size=3), size=seq_len - lead)
        elif kind == 4:  # kind 3 stays all padding
            tokens[:] = rng.integers(1, n_ids)
        elif kind == 5:
            tokens[-1] = rng.integers(1, n_ids)
        out.append(tokens)
    return out

