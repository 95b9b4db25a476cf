"""
Training a tag predictor on a toy corpus
========================================

End to end at miniature scale: build vocabularies from a handful of
synthetic synopses, encode them, train the convolution-plus-emotion-flow
variant for a few epochs, and read back ranked tag predictions.  Runs in
well under a minute on a laptop.
"""

import numpy as np

from tagflow import (
    EmotionLexicon,
    ModelConfig,
    TagVocabulary,
    TrainConfig,
    build_model,
    build_vocabulary,
    encode_records,
    load_stopwords,
    predict_top_k,
    train,
)
from tagflow.corpus import SynopsisRecord, Split
from tagflow.training import evaluate_loss

# 1. a synthetic corpus where each tag owns a few signature words, so a
# model that learns anything at all can separate them
rng = np.random.default_rng(7)
tags = ["grim", "tender", "eerie"]
signatures = {
    "grim": ["murder", "revenge", "bleak", "ruthless"],
    "tender": ["love", "wedding", "reunion", "forgive"],
    "eerie": ["ghost", "haunted", "whisper", "fog"],
}
records = []
for i in range(30):
    tag = tags[i % 3]
    words = [signatures[tag][int(j)] for j in rng.integers(0, 4, size=25)]
    records.append(SynopsisRecord(
        movie_id=f"toy{i:02d}", title=f"toy{i:02d}",
        synopsis=" ".join(words), tags=frozenset([tag]), split=Split.TRAIN,
    ))

# 2. vocabularies and model-ready encodings; an empty lexicon gives a
# flat emotion flow, which is fine for a mechanics walkthrough
stopwords = load_stopwords()
vocab = build_vocabulary(records, stopwords=stopwords)
tag_vocab = TagVocabulary.from_records(records)
examples = encode_records(records, vocab, tag_vocab, stopwords,
                          lexicon=EmotionLexicon(), max_len=64)
print(f"{len(examples)} examples, {vocab.size} content words, tags: {tag_vocab.tags}")

# 3. a narrow model: same architecture as full scale, tiny widths
config = ModelConfig(
    variant="cnn_fe", vocab_size=vocab.size, seq_len=64, embed_dim=32,
    filter_sizes=(2, 3), filters_per_size=16, lstm_units=4,
    dense_sizes=(32, 16), n_tags=len(tag_vocab), dropout=0.1,
    lr=1e-3, seed=0,
)
model = build_model(config)
model.vocab, model.tag_vocab = vocab, tag_vocab
n_params = sum(t.data.size for t in model.parameters().values())
print(f"model: {n_params:,} parameters across {len(model.parameters())} tensors")

# 4. train briefly; the corpus doubles as its own validation set here
schedule = TrainConfig(batch_size=8, max_epochs=12, patience=11, lr=1e-3, seed=0)
_, history = train(model, examples, examples, schedule)
print("\nepoch  train KL  val KL")
for stats in history.epochs[::3] + history.epochs[-1:]:
    print(f"{stats.epoch:>5}  {stats.train_loss:>8.4f}  {stats.val_loss:>6.4f}")
print(f"kept weights from epoch {history.best_epoch}; "
      f"final unweighted KL {evaluate_loss(model, examples):.4f}")

# 5. ranked predictions for a few training movies
print("\nmovie   truth    top-2 predictions")
for ex in examples[:6]:
    probs = model.forward(ex.tokens, ex.flow)
    top = predict_top_k(probs, 2, tag_vocab)
    truth = next(iter(ex.tags))
    print(f"{ex.movie_id}  {truth:<8} {top}")
