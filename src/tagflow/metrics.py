"""Tag-prediction metrics, trivial baselines, and comparison diagnostics.

A prediction set maps movie_id -> ranked tag list (one shared k); truths
map movie_id -> tag set.  Metrics are returned as fractions in [0, 1];
reports render them as percentages only at presentation time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError

OVERLAP_BANDS = (">=80%", "40-80%", "20-40%", "<20%")


def _check_movies(preds, truths):
    missing = [m for m in preds if m not in truths]
    if missing:
        raise DataError(f"movies without truth entries: {sorted(missing)[:5]}")


def micro_f1(preds, truths):
    """F1 over (movie, tag) pairs pooled across all movies."""
    _check_movies(preds, truths)
    tp = fp = fn = 0
    for movie, tags in preds.items():
        predicted = set(tags)
        truth = set(truths[movie])
        tp += len(predicted & truth)
        fp += len(predicted - truth)
        fn += len(truth - predicted)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def tag_recall(preds, truths, tag_vocab):
    """Mean per-tag recall over the *full* tag vocabulary.

    Returns ``(mean, per_tag)``; a tag with no truth instances among the
    evaluated movies contributes recall 0 to the mean.
    """
    _check_movies(preds, truths)
    n_tags = len(tag_vocab)
    hits = np.zeros(n_tags, dtype=np.int64)
    totals = np.zeros(n_tags, dtype=np.int64)
    for movie, tags in preds.items():
        predicted = set(tags)
        for tag in truths[movie]:
            if tag not in tag_vocab:
                continue
            idx = tag_vocab.index(tag)
            totals[idx] += 1
            if tag in predicted:
                hits[idx] += 1
    per_tag = np.where(totals > 0, hits / np.maximum(totals, 1), 0.0)
    return float(per_tag.sum() / n_tags), per_tag


def tags_learned(preds):
    """Number of distinct tags appearing anywhere in the predictions."""
    seen = set()
    for tags in preds.values():
        seen.update(tags)
    return len(seen)


@dataclass
class MetricsReport:
    k: int
    tags_learned: int
    micro_f1: float
    tag_recall: float
    per_tag_recall: list
    tags: list
    metadata: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))

    def summary_line(self):
        """Table-style one-liner with percentages."""
        return (
            f"k={self.k}  tags_learned={self.tags_learned}  "
            f"micro_f1={100 * self.micro_f1:.1f}  tag_recall={100 * self.tag_recall:.2f}"
        )


def evaluate_predictions(preds, truths, tag_vocab, k, metadata=None):
    """Bundle the three headline metrics for one prediction set."""
    mean_recall, per_tag = tag_recall(preds, truths, tag_vocab)
    return MetricsReport(
        k=k,
        tags_learned=tags_learned(preds),
        micro_f1=micro_f1(preds, truths),
        tag_recall=mean_recall,
        per_tag_recall=[float(r) for r in per_tag],
        tags=list(tag_vocab.tags),
        metadata=metadata or {},
    )


def _check_k(k, tag_vocab):
    if not 1 <= k <= len(tag_vocab):
        raise ValueError(f"k must be in [1, {len(tag_vocab)}], got {k}")


def baseline_most_frequent(train_records, tag_vocab, k, movie_ids):
    """Constant predictor: every movie gets the k most frequent training tags,
    frequency ties broken lexicographically."""
    _check_k(k, tag_vocab)
    counts = dict(zip(tag_vocab.tags, tag_vocab.counts(train_records)))
    top = sorted(tag_vocab.tags, key=lambda t: (-counts[t], t))[:k]
    return {movie: list(top) for movie in movie_ids}


def baseline_random(tag_vocab, movie_ids, k, seed):
    """k distinct uniformly random tags per movie, deterministic per seed."""
    _check_k(k, tag_vocab)
    rng = np.random.default_rng(seed)
    tags = tag_vocab.tags
    return {
        movie: [tags[i] for i in rng.choice(len(tags), size=k, replace=False)]
        for movie in movie_ids
    }


def recall_delta(report_a, report_b):
    """Per-tag recall differences a - b, largest magnitude first (stable)."""
    if list(report_a.tags) != list(report_b.tags):
        raise DataError("reports use different tag vocabularies")
    deltas = [
        (tag, ra - rb)
        for tag, ra, rb in zip(report_a.tags, report_a.per_tag_recall, report_b.per_tag_recall)
    ]
    return sorted(deltas, key=lambda pair: -abs(pair[1]))


def prediction_overlap(preds_a, preds_b):
    """Per-movie overlap |a & b| / k plus a four-band histogram.

    Returns ``(overlaps, bands)``: a movie -> fraction map and a band ->
    fraction-of-movies map over >=80%, 40-80%, 20-40%, <20%.
    """
    if set(preds_a) != set(preds_b):
        raise DataError("prediction sets cover different movies")
    if not preds_a:
        raise DataError("prediction sets are empty")
    k_values = {len(tags) for tags in preds_a.values()} | {len(tags) for tags in preds_b.values()}
    if len(k_values) != 1:
        raise DataError(f"prediction lists have mixed lengths {sorted(k_values)}")
    k = k_values.pop()
    overlaps = {}
    counts = dict.fromkeys(OVERLAP_BANDS, 0)
    for movie, tags in preds_a.items():
        overlap = len(set(tags) & set(preds_b[movie])) / k
        overlaps[movie] = overlap
        if overlap >= 0.8:
            band = ">=80%"
        elif overlap >= 0.4:
            band = "40-80%"
        elif overlap >= 0.2:
            band = "20-40%"
        else:
            band = "<20%"
        counts[band] += 1
    bands = {band: counts[band] / len(overlaps) for band in OVERLAP_BANDS}
    return overlaps, bands
