"""
Scoring multi-label tag predictions
===================================

The evaluation suite reports three complementary numbers: micro-averaged
F1 (pooled precision/recall), tag recall (how well each tag is served,
averaged over the whole vocabulary), and tags learned (how much of the
vocabulary the system uses at all).  Two reference baselines calibrate
them: always predicting the most frequent tags, and predicting uniformly
at random.
"""

from tagflow.corpus import SynopsisRecord, Split, TagVocabulary
from tagflow.metrics import (
    baseline_most_frequent,
    baseline_random,
    evaluate_predictions,
    micro_f1,
    prediction_overlap,
    recall_delta,
    tag_recall,
    tags_learned,
)

# 1. hand-sized predictions against known truths
truths = {
    "m1": {"murder", "noir"},
    "m2": {"romantic"},
    "m3": {"noir", "romantic"},
    "m4": {"murder"},
}
preds = {
    "m1": ["murder", "romantic"],
    "m2": ["romantic", "noir"],
    "m3": ["noir", "murder"],
    "m4": ["murder", "noir"],
}
vocab = TagVocabulary({"murder", "noir", "romantic"})

f1 = micro_f1(preds, truths)
mean_tr, per_tag = tag_recall(preds, truths, vocab)
print(f"micro-F1 {100 * f1:.1f}   tag recall {100 * mean_tr:.2f}   "
      f"tags learned {tags_learned(preds)}/{len(vocab)}")
for tag, r in zip(vocab.tags, per_tag):
    print(f"  recall[{tag}] = {r:.2f}")

# evaluate_predictions bundles the three into a serializable report
report = evaluate_predictions(preds, truths, vocab, k=2)
print("report:", report.summary_line())

# 2. baselines need a training corpus to count tag frequencies
train = [
    SynopsisRecord(f"t{i}", f"t{i}", "plot words here",
                   frozenset(["murder"] if i % 2 else ["murder", "noir"]),
                   Split.TRAIN)
    for i in range(10)
]
movie_ids = sorted(truths)
frequent = baseline_most_frequent(train, vocab, 2, movie_ids)
print("\nmost-frequent predicts", frequent["m1"], "for every movie")
print("most-frequent report:", evaluate_predictions(frequent, truths, vocab, k=2).summary_line())

random_preds = baseline_random(vocab, movie_ids, 2, seed=0)
print("random report:       ", evaluate_predictions(random_preds, truths, vocab, k=2).summary_line())

# 3. comparing two prediction sets: where does the recall move, and how
# much do the ranked lists actually overlap?
report_b = evaluate_predictions(frequent, truths, vocab, k=2)
print("\nper-tag recall shift (model minus most-frequent), largest first:")
for tag, delta in recall_delta(report, report_b):
    print(f"  {tag:<9} {delta:+.2f}")
overlaps, bands = prediction_overlap(preds, frequent)
print("per-movie overlap with most-frequent:", overlaps)
print("overlap bands:", {band: f"{100 * frac:.0f}%" for band, frac in bands.items()})
