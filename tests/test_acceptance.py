"""Acceptance gate: one test per shipping criterion.

Each test prints one pass/fail line via the ``acceptance criteria`` block the
conftest hook appends to the terminal summary.  Criteria that need the full
MPST corpus or the real NRC lexicon are gated on environment variables and
skip (with instructions) when the data is not present:

* ``MPST_CSV``      path to the full MPST corpus CSV (criteria 1, 2, 7)
* ``NRC_LEXICON``   path to the NRC word-emotion association lexicon
* ``RUN_FULL_SCALE=1`` opt-in for the multi-hour full-scale run (criterion 8)
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    GOLDEN_SYNOPSIS,
    brute_force_micro_f1,
    brute_force_tag_recall,
    brute_force_tags_learned,
    random_metric_instance,
    total,
)
from tagflow.autodiff import Tensor, constant, gradcheck, kl_divergence, mul
from tagflow.checkpoint import load_checkpoint, save_checkpoint
from tagflow.corpus import (
    Split,
    TagVocabulary,
    build_vocabulary,
    encode_records,
    load_corpus,
    tokenize,
)
from tagflow.emotion import (
    EMOTIONS,
    EmotionLexicon,
    emotion_flow,
    emotion_vector,
    flow_to_csv,
    segment_words,
)
from tagflow.layers import (
    Attention,
    attention_forward,
    bilstm_forward,
    ConvBank,
    conv_bank_forward,
    compute_class_weights,
    Dense,
    LstmCell,
)
from tagflow.model import ModelConfig, build_model, predict_top_k
from tagflow.training import TrainConfig, evaluate_loss, train

GOLDEN_CSV = Path(__file__).parent / "fixtures" / "emotion_flow_golden.csv"

MPST_TRAIN_SIZE = 11_862
MPST_TAG_COUNT = 71


# -- shared full-corpus loading (criteria 1, 2, 7) ---------------------------

@pytest.fixture(scope="module")
def mpst_splits():
    path = os.environ.get("MPST_CSV")
    if not path:
        pytest.skip("set MPST_CSV to the full corpus CSV to enable")
    records = load_corpus(path)
    train = [r for r in records if r.split is Split.TRAIN]
    test = [r for r in records if r.split is Split.TEST]
    return train, test


@pytest.fixture(scope="module")
def mpst_eval(mpst_splits):
    train, test = mpst_splits
    tag_vocab = TagVocabulary.from_records(train)
    truths = {r.movie_id: set(r.tags) for r in test}
    movie_ids = sorted(truths)
    return train, tag_vocab, truths, movie_ids


# -- criterion 1: deterministic most-frequent baseline ------------------------

def test_criterion_1_most_frequent_baseline(mpst_eval):
    """Top-k most-frequent tags reproduce the published baseline row.

    Expected (percent): k=3 micro-F1 29.7 / TR 4.23, k=5 28.4 / 14.08,
    k=10 28.4 / 13.73, each within +-1.0 absolute point.
    """
    from tagflow.metrics import baseline_most_frequent, micro_f1, tag_recall

    train, tag_vocab, truths, movie_ids = mpst_eval
    expected = {3: (29.7, 4.23), 5: (28.4, 14.08), 10: (28.4, 13.73)}
    for k, (want_f1, want_tr) in expected.items():
        preds = baseline_most_frequent(train, tag_vocab, k, movie_ids)
        got_f1 = 100.0 * micro_f1(preds, truths)
        got_tr = 100.0 * tag_recall(preds, truths, tag_vocab)[0]
        assert abs(got_f1 - want_f1) <= 1.0, f"k={k}: micro-F1 {got_f1:.2f} vs {want_f1}"
        assert abs(got_tr - want_tr) <= 1.0, f"k={k}: tag recall {got_tr:.2f} vs {want_tr}"


# -- criterion 2: random baseline behaviour -----------------------------------

def test_criterion_2_random_baseline(mpst_eval):
    """Random tags hit the full vocabulary and the published mean micro-F1.

    tags_learned must equal 71 for at least 19 of 20 seeds at every k; the
    seed-averaged micro-F1 must land within +-1.0 point of 4.2 / 6.4 / 6.6.
    """
    from tagflow.metrics import baseline_random, micro_f1, tags_learned

    _, tag_vocab, truths, movie_ids = mpst_eval
    expected = {3: 4.2, 5: 6.4, 10: 6.6}
    for k, want_f1 in expected.items():
        full_vocab = 0
        f1s = []
        for seed in range(20):
            preds = baseline_random(tag_vocab, movie_ids, k, seed)
            full_vocab += tags_learned(preds) == MPST_TAG_COUNT
            f1s.append(100.0 * micro_f1(preds, truths))
        assert full_vocab >= 19, f"k={k}: only {full_vocab}/20 seeds covered all tags"
        mean_f1 = sum(f1s) / len(f1s)
        assert abs(mean_f1 - want_f1) <= 1.0, f"k={k}: mean micro-F1 {mean_f1:.2f} vs {want_f1}"


# -- criterion 3: gradient verification ---------------------------------------

def test_criterion_3_gradient_verification():
    """Finite differences confirm every layer and the end-to-end model.

    Layers are checked in 64-bit mode at reduced shapes with rtol 1e-4; the
    reduced end-to-end model passes at rtol 1e-3.  Budget: five minutes.
    """
    started = time.monotonic()

    # conv bank, both filter widths
    rng = np.random.default_rng(5)
    bank = ConvBank((2, 3), 3, 4, rng, dtype=np.float64)
    x = constant(rng.standard_normal((7, 4)))
    gradcheck(lambda: total(conv_bank_forward(x, bank, tokens=np.arange(1, 8))),
              list(bank.parameters().values()), np.random.default_rng(0))

    # LSTM cell through two steps (state feedback active), in both directions
    rng = np.random.default_rng(6)
    cell = LstmCell(10, 16, rng, dtype=np.float64)
    two_steps = np.concatenate([rng.standard_normal((1, 10)), rng.standard_normal((1, 10))])

    def lstm_loss():
        states, final = bilstm_forward(two_steps, cell, cell)
        return total(states) + total(final)

    gradcheck(lstm_loss, list(cell.parameters().values()), np.random.default_rng(1), samples=4)

    # bidirectional wrapper
    rng = np.random.default_rng(8)
    fwd = LstmCell(10, 3, rng, dtype=np.float64)
    bwd = LstmCell(10, 3, rng, dtype=np.float64)
    flow = rng.standard_normal((4, 10))

    def bilstm_loss():
        states, final = bilstm_forward(flow, fwd, bwd)
        return total(states) + total(final)

    gradcheck(bilstm_loss, list(fwd.parameters().values()) + list(bwd.parameters().values()),
              np.random.default_rng(2), samples=3)

    # attention (nonlinear readout so weight gradients matter)
    rng = np.random.default_rng(9)
    attn = Attention(5, 4, rng, dtype=np.float64)
    states = constant(rng.standard_normal((6, 5)))

    def attention_loss():
        r, _ = attention_forward(states, attn)
        return total(mul(r, r))

    gradcheck(attention_loss, list(attn.parameters().values()), np.random.default_rng(3))

    # dense, relu and identity
    rng = np.random.default_rng(4)
    hidden = Dense(5, 3, rng, activation="relu", dtype=np.float64)
    out = Dense(3, 2, rng, activation="identity", dtype=np.float64)
    xd = constant(rng.standard_normal((1, 5)))
    gradcheck(lambda: total(out.forward(hidden.forward(xd))),
              list(hidden.parameters().values()) + list(out.parameters().values()),
              np.random.default_rng(4))

    # softmax + KL composite, the training objective's final stage
    rng = np.random.default_rng(7)
    logits = Tensor(rng.standard_normal((1, 7)), requires_grad=True)
    target = np.zeros(7)
    target[2] = target[5] = 0.5

    def kl_loss():
        from tagflow.autodiff import reshape, softmax_last_axis
        probs = reshape(softmax_last_axis(logits), (-1,))
        return kl_divergence(constant(target), probs)

    gradcheck(kl_loss, [logits], np.random.default_rng(5))

    # end-to-end reduced model: real forward pass, percent-scale flow input.
    # The smaller step keeps the finite-difference truncation error below
    # rtol 1e-3 on the 0-100 scale; float64 keeps round-off out of the way.
    config = ModelConfig(
        variant="cnn_fe", vocab_size=30, seq_len=24, embed_dim=6,
        filter_sizes=(2, 3), filters_per_size=4, n_segments=4,
        lstm_units=3, dense_sizes=(10, 8), n_tags=5, dropout=0.0, seed=0,
    )
    model = build_model(config, dtype=np.float64)
    rng = np.random.default_rng(11)
    tokens = rng.integers(0, config.vocab_size + 2, size=config.seq_len)
    flow = 100.0 * rng.random((config.n_segments, len(EMOTIONS)))
    target = rng.random(config.n_tags)
    target /= target.sum()

    def model_loss():
        return kl_divergence(constant(target), model.forward(tokens, flow))

    gradcheck(model_loss, list(model.parameters().values()),
              np.random.default_rng(6), samples=2, h=1e-5, rtol=1e-3)

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"gradient verification took {elapsed:.0f}s"


# -- criterion 4: metric oracle equivalence -----------------------------------

def test_criterion_4_metric_oracle_equivalence():
    """Metrics agree with brute-force reimplementations on 1,000 random cases."""
    from tagflow.metrics import micro_f1, tag_recall, tags_learned

    rng = np.random.default_rng(4)
    for _ in range(1000):
        preds, truths, vocab = random_metric_instance(rng)
        assert abs(micro_f1(preds, truths) - brute_force_micro_f1(preds, truths)) <= 1e-12
        want_tr, want_per_tag = brute_force_tag_recall(preds, truths, vocab)
        got_tr, got_per_tag = tag_recall(preds, truths, vocab)
        assert abs(got_tr - want_tr) <= 1e-12
        assert np.abs(got_per_tag - np.asarray(want_per_tag)).max() <= 1e-12
        assert tags_learned(preds) == brute_force_tags_learned(preds)


# -- criterion 5: emotion-flow golden and properties --------------------------

def test_criterion_5_emotion_flow_golden_and_properties(synthetic_lexicon):
    """The golden trajectory matches byte-for-byte; invariants hold broadly.

    Properties on 1,000 random texts: the flow has shape (segments, 10),
    every value sits in [0, 100], the segmenter partitions the tokens in
    order with near-equal sizes, and each row equals the emotion vector of
    its own segment.
    """
    flow = emotion_flow(GOLDEN_SYNOPSIS, synthetic_lexicon)
    assert flow_to_csv(flow) == GOLDEN_CSV.read_text(encoding="utf-8")

    words = ["gleam", "dread", "mourn", "calm", "table", "lantern", "so", "it's", "Gleam!"]
    rng = np.random.default_rng(55)
    for _ in range(1000):
        n_words = int(rng.integers(0, 120))
        text = " ".join(words[i] for i in rng.integers(0, len(words), size=n_words))
        n_segments = int(rng.integers(1, 24))
        flow = emotion_flow(text, synthetic_lexicon, n_segments)
        assert flow.shape == (n_segments, len(EMOTIONS))
        assert (flow >= 0.0).all() and (flow <= 100.0).all()
        tokens = tokenize(text)
        segments = segment_words(tokens, n_segments)
        assert [w for seg in segments for w in seg] == tokens
        sizes = [len(seg) for seg in segments]
        assert max(sizes) - min(sizes) <= 1
        rows = np.stack([emotion_vector(seg, synthetic_lexicon) for seg in segments])
        np.testing.assert_array_equal(flow, rows)


# -- criterion 6: overfit smoke test ------------------------------------------

def test_criterion_6_overfit_smoke(separable_corpus, stopwords):
    """A reduced-width flow model memorizes a 50-example corpus.

    Training KL must drop below 0.05 within 200 epochs and the top-3
    predictions must contain every true tag for at least 90% of examples.
    Training runs in short bursts so it can stop as soon as the loss target
    is met.
    """
    vocab = build_vocabulary(separable_corpus, stopwords=stopwords)
    tag_vocab = TagVocabulary.from_records(separable_corpus)
    examples = encode_records(separable_corpus, vocab, tag_vocab, stopwords,
                              lexicon=EmotionLexicon(), max_len=256)
    config = ModelConfig(variant="cnn_fe", vocab_size=vocab.size, seq_len=256,
                         filters_per_size=64, n_tags=len(tag_vocab),
                         dropout=0.0, lr=1e-3, seed=0)
    model = build_model(config)
    model.vocab, model.tag_vocab = vocab, tag_vocab

    epoch_budget = 200
    chunk = 10
    epochs_run = 0
    kl = float("inf")
    while epochs_run < epoch_budget:
        schedule = TrainConfig(batch_size=32, max_epochs=chunk, patience=chunk - 1,
                               lr=config.lr, seed=epochs_run)
        _, history = train(model, examples, examples, schedule)
        epochs_run += len(history.epochs)
        kl = evaluate_loss(model, examples)
        if kl < 0.05:
            break
    assert kl < 0.05, f"training KL {kl:.4f} after {epochs_run} epochs"

    covered = 0
    for ex in examples:
        probs = model.forward(ex.tokens, ex.flow)
        top3 = set(predict_top_k(probs, 3, tag_vocab))
        covered += set(ex.tags) <= top3
    assert covered >= 0.9 * len(examples), f"top-3 covered {covered}/{len(examples)}"


# -- criterion 7: class-weight exactness --------------------------------------

def test_criterion_7_class_weight_exactness(mpst_splits):
    """CW_t * 71 * M_t recovers 11,862 exactly, in integer arithmetic.

    The weights are stored as exact integer counts, so the identity can be
    checked with rational arithmetic rather than float round-trips.
    """
    train, _ = mpst_splits
    tag_vocab = TagVocabulary.from_records(train)
    cw = compute_class_weights(train, tag_vocab)
    assert cw.n_examples == MPST_TRAIN_SIZE
    assert cw.n_tags == MPST_TAG_COUNT
    for m, w in zip(cw.tag_counts, cw.weights):
        assert m >= 1
        weight = Fraction(cw.n_examples, cw.n_tags * m)
        assert weight * cw.n_tags * m == MPST_TRAIN_SIZE
        assert w == float(weight)  # the float vector is the same ratio


# -- criterion 8: optional full-scale run --------------------------------------

def test_criterion_8_full_scale_reproduction():
    """Documented long run at full scale (opt-in; hours at desk scale).

    Targets for the flow variant at k=5: micro-F1 within +-3.0 points of
    36.7, tags_learned >= 55, and strictly more tags learned than the
    class-weighted plain variant under the same seed and budget.  Exact
    reproduction is not expected (random initialization, unreported batch
    size, framework differences).
    """
    if os.environ.get("RUN_FULL_SCALE") != "1":
        pytest.skip("opt-in: RUN_FULL_SCALE=1 MPST_CSV=... NRC_LEXICON=... "
                    "(see demos/full_scale_run.py; takes hours)")
    corpus = os.environ.get("MPST_CSV")
    lexicon = os.environ.get("NRC_LEXICON")
    if not (corpus and lexicon):
        pytest.skip("full-scale run needs MPST_CSV and NRC_LEXICON")

    import importlib.util

    script = Path(__file__).resolve().parents[1] / "demos" / "full_scale_run.py"
    spec = importlib.util.spec_from_file_location("full_scale_run", script)
    full_scale_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(full_scale_run)

    results = full_scale_run.run(corpus, lexicon, out_dir=os.environ.get("FULL_SCALE_OUT"))
    flow_report = results["cnn_fe"][5]
    weighted_report = results["cnn_cw"][5]
    assert abs(100.0 * flow_report.micro_f1 - 36.7) <= 3.0
    assert flow_report.tags_learned >= 55
    assert flow_report.tags_learned > weighted_report.tags_learned


# -- criterion 9: checkpoint round-trip ----------------------------------------

def test_criterion_9_checkpoint_round_trip(tmp_path):
    """Save -> load reproduces predictions bit-for-bit on 100 random inputs."""
    config = ModelConfig(variant="cnn_fe", vocab_size=40, seq_len=20, embed_dim=6,
                         filter_sizes=(2, 3), filters_per_size=5, n_segments=4,
                         lstm_units=3, dense_sizes=(12, 9), n_tags=7, seed=3)
    model = build_model(config)
    rng = np.random.default_rng(77)
    for tensor in model.parameters().values():
        tensor.data[:] = rng.standard_normal(tensor.data.shape).astype(np.float32)
    model.enforce_constraints()

    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)

    for _ in range(100):
        tokens = rng.integers(0, config.vocab_size + 2, size=config.seq_len)
        flow = (100.0 * rng.random((config.n_segments, len(EMOTIONS)))).astype(np.float32)
        before = model.forward(tokens, flow).data
        after = loaded.forward(tokens, flow).data
        assert np.array_equal(before, after)
