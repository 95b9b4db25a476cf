"""
Tracing a plot's emotion flow
=============================

A synopsis is split into equal word segments; each segment becomes a
10-dimensional vector of emotion-word percentages (eight elementary
emotions plus the two polarities).  Stacking the segments gives the
"flow": how the narrative's emotional tone moves from start to finish.
"""

import numpy as np

from tagflow.corpus import tokenize
from tagflow.emotion import EMOTIONS, EmotionLexicon, emotion_flow, emotion_vector, flow_to_csv, segment_words

# A miniature lexicon: real runs use the NRC word-emotion association
# lexicon (~14k words), but four entries are enough to see the mechanics.
lexicon = EmotionLexicon({
    "radiant": [0, 0, 0, 0, 1, 0, 0, 0, 0, 1],   # joy + positive
    "dread":   [0, 0, 0, 1, 0, 0, 0, 0, 1, 0],   # fear + negative
    "grief":   [0, 0, 0, 0, 0, 1, 0, 0, 1, 0],   # sadness + negative
    "betray":  [1, 0, 0, 0, 0, 0, 1, 0, 1, 0],   # anger + surprise + negative
})

synopsis = (
    "A radiant summer wedding opens the story. Radiant days follow until "
    "letters surface and betray a hidden debt. Dread builds as the couple "
    "confronts the lender, dread and grief trade blows through a bitter "
    "winter, and grief lingers after the farm is sold."
)

# 1. tokenization: lowercase words, punctuation stripped
tokens = tokenize(synopsis)
print(f"{len(tokens)} tokens, first eight: {tokens[:8]}")

# 2. segmentation: order-preserving, sizes differ by at most one
segments = segment_words(tokens, n_segments=5)
print("segment sizes:", [len(s) for s in segments])

# 3. one segment -> one percentage vector
vec = emotion_vector(segments[0], lexicon)
for name, value in zip(EMOTIONS, vec):
    if value:
        print(f"  segment 1 {name}: {value:.1f}% of words")

# 4. the full trajectory, one row per segment
flow = emotion_flow(synopsis, lexicon, n_segments=5)
print("\nflow matrix (segments x emotions):", flow.shape)
joy, sadness = EMOTIONS.index("joy"), EMOTIONS.index("sadness")
print("joy column:    ", np.round(flow[:, joy], 1))
print("sadness column:", np.round(flow[:, sadness], 1))

# 5. the CSV rendering used by the command-line tool
print("\n" + flow_to_csv(flow))
