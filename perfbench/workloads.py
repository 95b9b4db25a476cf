"""The benchmark's workloads and the closed loop that runs one of them.

Every workload runs the same four kinds of operation on its own shape and
inputs, one at a time with a single caller:

* encode: ``encode_records`` on one corpus row (preprocess, encode,
  emotion flow, target);
* train: a one-epoch ``train`` call over a fixed slice of the encoded
  training rows at the default batch size of 32, starting from the initial
  weights each time, then a ``gc.collect()`` inside the timed region;
* evaluate: ``tagflow evaluate`` through ``cli.main`` in-process on the
  trained checkpoint and the corpus's test split;
* infer: the ``tagflow predict`` path for one synopsis, through the
  functions ``cmd_predict`` calls: ``cli._model_inputs`` (preprocess,
  ``encode_synopsis``, ``emotion_flow``), ``TagModel.forward`` with no
  tape, ``predict_top_k`` with the tag vocabulary.

After one set-up, one encode pass over the corpus and one training op,
the run repeats rounds of one train, ``evaluate_ops`` evaluates and
``infer_ops`` inferences, with ``encode_rows`` encodes and the further
set-ups spread between them, until its time is up; the run stops at the
first op boundary past that. Interleaving spreads every metric's samples
over the whole run, so a slow spell of a shared machine moves all metrics
a little rather than one metric a lot. A round infers every synopsis of
the predict file once, so every round does the same work. A workload's
shape and round mix decide which operation dominates it.

Every operation's output is checked outside its timed region; a failed
check or an exception counts toward the error rate.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tagflow import checkpoint, cli, corpus, emotion, layers, training
from tagflow import model as tagmodel

from . import datagen, reference
from .datagen import CorpusSpec, Lengths

# Each operation's latency metric, by the key of ``Run.latencies``. A
# training op's latency is its time per example.
OP_METRICS = {"train": "train_step_ms", "infer": "infer_ms", "encode": "encode_ms", "evaluate": "evaluate_ms"}
RATES = {"train": "train_examples_per_s", "infer": "infer_synopses_per_s", "encode": "encode_synopses_per_s"}

# (name, unit, better, bound): what a user of tagflow sees. Latencies are
# upper quartiles, not medians: on the shared host the bounds were set on,
# pure-Python code runs in a fast and a slow state, about 1.8x apart, that
# alternate every few tenths of a second. The share of fast time changes
# from run to run, and the median (and the mean behind any rate) moves with
# it, while the upper quartile stays in the slow state. Medians, p90s and
# rates are printed beside them.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    *((f"{name}_p75", "ms", "lower", 0.25) for name in OP_METRICS.values()),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

SETUP_REPEATS = 11
MIN_ROUNDS = 3
TOP_K = 5
EVALUATE_KS = (3, 5, 10)
# float32 model against the float64 reference
PROB_ATOL = 1e-4
LOSS_RTOL = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: dict              # ModelConfig fields other than the defaults
    corpus: CorpusSpec
    train_examples: int      # rows per training epoch
    val_examples: int
    encode_rows: int         # encodes per round
    evaluate_ops: int        # evaluates per round
    infer_ops: int           # inferences per round, one per predict-file synopsis
    reference_examples: int  # rows (test first) compared with the float64 reference


_FILL = Lengths("uniform", 2300, 3000)   # >= 1,610 content words: no padding at seq 1500
_SPREAD = Lengths("loguniform", 50, 3000)
_SMALL = Lengths("uniform", 400, 700)     # 280-490 content words: every synopsis fills seq 200

WORKLOADS = {w.name: w for w in [
    Workload(
        name="train_full",
        why="published cnn_fe shape, unpadded 1500-token synopses: the conv bank forward+backward dominates a step",
        shape={},
        corpus=CorpusSpec(n_train=40, n_test=1, n_predict=8,
                          train_words=_FILL, test_words=_FILL, predict_words=_FILL),
        train_examples=4, val_examples=1, encode_rows=24, evaluate_ops=2, infer_ops=8, reference_examples=2,
    ),
    Workload(
        name="infer_full",
        why="predict path on a full-shape checkpoint, 50-3000 word synopses: tape-free conv forward dominates",
        shape={},
        corpus=CorpusSpec(n_train=40, n_test=1, n_predict=16,
                          train_words=_FILL, test_words=_SPREAD, predict_words=_SPREAD),
        train_examples=1, val_examples=1, encode_rows=24, evaluate_ops=2, infer_ops=16, reference_examples=2,
    ),
    Workload(
        name="pipeline_small",
        why="test-scale shape, 316 synopses of 400-700 words: text pipeline, Bi-LSTM tape overhead and evaluate dominate",
        shape={"seq_len": 200, "embed_dim": 32, "filters_per_size": 32, "dense_sizes": (64, 32)},
        corpus=CorpusSpec(n_train=300, n_test=16, n_predict=25,
                          train_words=_SMALL, test_words=_SMALL, predict_words=_SMALL),
        train_examples=8, val_examples=2, encode_rows=12, evaluate_ops=1, infer_ops=25, reference_examples=8,
    ),
]}


@dataclass
class State:
    """What set-up builds from the generated files."""
    train_records: list
    test_records: list
    stopwords: frozenset
    lexicon: object
    class_weights: object
    model: object


def params_digest(model):
    h = hashlib.sha256()
    for name, tensor in model.parameters().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensor.data).tobytes())
    return h.hexdigest()


class Run:
    """One workload at one seed: set-up, rounds of operations, then the reference check."""

    def __init__(self, workload, seed, seconds, work_dir, tracer=None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = Path(work_dir)
        self.tracer = tracer
        self.latencies = {"encode": [], "train": [], "evaluate": [], "infer": []}
        self.setup_times = []
        self.attempted = 0
        self.failures = []
        self.param_digest = None
        self.prediction_digest = None
        self.padded_share = {}
        self.evaluated_examples = 0

    # -- plumbing -----------------------------------------------------------

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _fail(self, what, message):
        self.failures.append(f"{what}: {message}")

    def _op(self, kind, fn, check):
        """Time ``fn()`` as one operation, then run ``check(result)`` untimed.

        ``check`` returns None when the output is right, otherwise a message.
        """
        self.attempted += 1
        result, error = None, None
        with self._span(f"op.{kind}"):
            start = time.perf_counter()
            try:
                result = fn()
            except Exception:  # one failed operation must not end the run
                error = traceback.format_exc(limit=4)
            self.latencies[kind].append(time.perf_counter() - start)
        if error is None:
            with self._untraced():
                error = check(result)
        if error is not None:
            self._fail(f"{kind} op {len(self.latencies[kind])}", error)
        return None if error is not None else result

    # -- set-up -------------------------------------------------------------

    def setup(self, paths):
        records = corpus.load_corpus(paths["corpus"])
        train_records = [r for r in records if r.split is corpus.Split.TRAIN]
        test_records = [r for r in records if r.split is corpus.Split.TEST]
        stopwords = corpus.load_stopwords()
        vocab = corpus.build_vocabulary(train_records, stopwords=stopwords)
        tag_vocab = corpus.TagVocabulary.from_records(train_records)
        lexicon = emotion.load_lexicon(paths["lexicon"])
        class_weights = layers.compute_class_weights(train_records, tag_vocab)
        config = tagmodel.ModelConfig(variant="cnn_fe", vocab_size=vocab.size, n_tags=len(tag_vocab),
                                      seed=self.seed, **self.w.shape)
        model = tagmodel.build_model(config)
        model.vocab, model.tag_vocab, model.class_weights = vocab, tag_vocab, class_weights
        checkpoint.save_checkpoint(model, self.dir / "init.ckpt")
        model = checkpoint.load_checkpoint(self.dir / "init.ckpt")
        return State(train_records, test_records, stopwords, lexicon, class_weights, model)

    def _timed_setup(self, paths):
        with self._span("op.setup"):
            start = time.perf_counter()
            state = self.setup(paths)
            self.setup_times.append(time.perf_counter() - start)
        return state

    # -- checks -------------------------------------------------------------

    def _check_example(self, ex):
        cfg = self.state.model.config
        if ex.tokens.shape != (cfg.seq_len,) or ex.tokens.min() < 0 or ex.tokens.max() >= cfg.vocab_size + 2:
            return f"token sequence out of range or shape {ex.tokens.shape}"
        if ex.flow.shape != (cfg.n_segments, 10) or not np.all((ex.flow >= 0) & (ex.flow <= 100)):
            return f"emotion flow out of [0, 100] or shape {ex.flow.shape}"
        if abs(float(ex.target.sum()) - 1.0) > 1e-9 or (ex.target < 0).any():
            return "target is not a distribution"
        return None

    def _check_trained(self, result):
        model, history = result
        if not np.isfinite(history.epochs[-1].val_loss):
            return "non-finite validation loss"
        digest = params_digest(model)
        if self.param_digest is None:
            self.param_digest = digest
        elif digest != self.param_digest:
            return "trained parameters differ from the first training op's"
        return None

    def _check_evaluation(self, code):
        if code != 0:
            return f"tagflow evaluate exited {code}"
        h = hashlib.sha256()
        for k in EVALUATE_KS:
            try:
                report = json.loads((self.dir / "eval" / f"metrics_k{k}.json").read_text("utf-8"))
                lines = (self.dir / "eval" / f"predictions_k{k}.tsv").read_bytes()
            except (OSError, json.JSONDecodeError) as e:
                return f"evaluate output for k={k} unreadable: {e}"
            if report.get("k") != k or not 0.0 <= report.get("micro_f1", -1.0) <= 1.0:
                return f"metrics_k{k}.json has k={report.get('k')} micro_f1={report.get('micro_f1')}"
            n_lines = lines.count(b"\n")
            if n_lines != k * len(self.state.test_records):
                return f"predictions_k{k}.tsv has {n_lines} lines"
            h.update(lines)
        if self.prediction_digest is None:
            self.prediction_digest = h.hexdigest()
        elif h.hexdigest() != self.prediction_digest:
            return "predictions differ from the first evaluate op's"
        return None

    @staticmethod
    def _check_prediction(result):
        probs, tags, tag_vocab = result
        if not np.isfinite(probs).all() or abs(float(probs.sum(dtype=np.float64)) - 1.0) > 1e-5:
            return f"probabilities not finite or sum to {float(probs.sum(dtype=np.float64))}"
        top = [tag_vocab.index(tag) for tag in tags]
        ranked = probs[top]
        if len(set(top)) != TOP_K or (np.diff(ranked) > 0).any() or ranked[-1] < np.sort(probs)[-TOP_K]:
            return f"top-{TOP_K} {top} is not the {TOP_K} highest probabilities in order"
        return None

    def _check_reference(self, model, examples):
        """Compare probabilities and loss with the float64 reference."""
        params = {name: t.data for name, t in model.parameters().items()}
        weights = self.state.class_weights
        for ex in examples:
            self.attempted += 1
            probs = model.forward(ex.tokens, ex.flow).data
            loss = training.evaluate_loss(model, [ex], weights)
            ref = reference.forward(params, model.config, ex.tokens, ex.flow)
            ref_loss = reference.weighted_kl(ex.target, ref, weights.weights)
            gap = float(np.abs(probs - ref).max())
            if not gap <= PROB_ATOL or not abs(loss - ref_loss) <= LOSS_RTOL * max(1.0, abs(ref_loss)):
                self._fail(f"reference {ex.movie_id}",
                           f"max probability gap {gap:.3g}, loss {loss:.6g} vs {ref_loss:.6g}")

    # -- the run ------------------------------------------------------------

    def run(self, paths):
        run_start = time.perf_counter()
        deadline = run_start + self.seconds
        self.state = s = self._timed_setup(paths)
        model, cfg = s.model, s.model.config

        def setups_due():
            """Further set-ups, timed and discarded, fall due evenly over the
            run, so their median samples the whole run like the other ops."""
            while (len(self.setup_times) < SETUP_REPEATS and time.perf_counter()
                   >= run_start + self.seconds * len(self.setup_times) / SETUP_REPEATS):
                self._timed_setup(paths)

        def encode(record):
            return corpus.encode_records([record], model.vocab, model.tag_vocab, s.stopwords, lexicon=s.lexicon,
                                         max_len=cfg.seq_len, n_segments=cfg.n_segments)[0]

        rows = s.train_records + s.test_records
        encoded = [self._op("encode", lambda r=r: encode(r), self._check_example) for r in rows]
        train_ex = [e for e in encoded[:len(s.train_records)] if e is not None]
        test_ex = [e for e in encoded[len(s.train_records):] if e is not None]
        for split, examples in (("train", train_ex), ("test", test_ex)):
            self.padded_share[split] = float(np.mean([e.tokens[0] == corpus.PAD_INDEX for e in examples]))

        initial = {name: t.data.copy() for name, t in model.parameters().items()}
        fit = train_ex[:self.w.train_examples]
        val = train_ex[self.w.train_examples:self.w.train_examples + self.w.val_examples]
        config = training.TrainConfig(max_epochs=1, patience=0, lr=cfg.lr, seed=self.seed)

        def train_and_collect():
            result = training.train(model, fit, val, config, class_weights=s.class_weights)
            # Each example's tape and its outputs form a reference cycle, so a
            # finished tape (~460 MB at full shape) lives until the cyclic
            # collector runs. Collecting inside the timed op makes the op that
            # left the garbage pay for freeing it, and starts the next op clean.
            gc.collect()
            return result

        def train_op():
            for name, t in model.parameters().items():
                t.data = initial[name].copy()
            self._op("train", train_and_collect, self._check_trained)

        train_op()
        trained = self.dir / "trained.ckpt"
        with self._untraced():
            checkpoint.save_checkpoint(model, trained)
            infer_model = checkpoint.load_checkpoint(trained)
        argv = ["evaluate", "--checkpoint", str(trained), "--corpus", str(paths["corpus"]),
                "--lexicon", str(paths["lexicon"]), "--k", ",".join(map(str, EVALUATE_KS)),
                "--out", str(self.dir / "eval")]

        def evaluate():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        inputs = [text for _, text in datagen.read_synopses(paths["synopses"])]

        def predict(text):
            # the loop body of cli.cmd_predict
            tokens, flow = cli._model_inputs(infer_model, text, s.stopwords, s.lexicon)
            probs = infer_model.forward(tokens, flow).data
            return probs, cli.predict_top_k(probs, TOP_K, infer_model.tag_vocab), infer_model.tag_vocab

        def encodes(slot, slots):
            """The round's encodes due before its ``slot``-th other op."""
            for _ in range(self.w.encode_rows * (slot + 1) // slots - self.w.encode_rows * slot // slots):
                r = rows[len(self.latencies["encode"]) % len(rows)]
                self._op("encode", lambda: encode(r), self._check_example)

        def evaluate_op():
            self._op("evaluate", evaluate, self._check_evaluation)
            self.evaluated_examples += len(s.test_records)

        def infer_op():
            text = inputs[len(self.latencies["infer"]) % len(inputs)]
            self._op("infer", lambda: predict(text), self._check_prediction)

        # A round: train, then the inferences with the evaluates spread
        # between them. Encodes are short, so they are spread over the round
        # too: a burst of them at one point would sample the machine's speed
        # at that moment.
        n_eval, n_infer = self.w.evaluate_ops, self.w.infer_ops
        round_ops = [train_op]
        for i in range(n_eval):
            round_ops += [evaluate_op] + [infer_op] * (n_infer * (i + 1) // n_eval - n_infer * i // n_eval)
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for slot, op in enumerate(round_ops):
                if rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                    break
                setups_due()
                encodes(slot, len(round_ops))
                op()
            rounds += 1
        while len(self.setup_times) < SETUP_REPEATS:
            self._timed_setup(paths)

        with self._untraced():
            self._check_reference(infer_model, (test_ex + train_ex)[:self.w.reference_examples])

    # -- results ------------------------------------------------------------

    def latencies_ms(self):
        """Each kind of operation's latencies in ms; a training op's per
        example. The first training op, made before the rounds to write the
        checkpoint, is a cold start and is left out."""
        lat = {kind: np.asarray(times) * 1e3 for kind, times in self.latencies.items()}
        lat["train"] = lat["train"][1:] / self.w.train_examples
        return lat

    def end_to_end(self):
        e2e = {"setup_s": statistics.median(self.setup_times)}
        for kind, times in self.latencies_ms().items():
            e2e[f"{OP_METRICS[kind]}_p75"] = float(np.percentile(times, 75))
        e2e["peak_rss_mb"] = peak_rss_mb()
        return e2e

    def report_rows(self):
        """(name, value, unit, sample count) rows: every end-to-end metric,
        then each operation's median and p90, and the rates of summed time."""
        e2e = self.end_to_end()
        lat = self.latencies_ms()
        rows = [("setup_s", e2e["setup_s"], "s", len(self.setup_times))]
        rows += [(f"{OP_METRICS[kind]}_p75", e2e[f"{OP_METRICS[kind]}_p75"], "ms", len(lat[kind]))
                 for kind in OP_METRICS]
        rows.append(("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1))
        for kind, name in OP_METRICS.items():
            rows += [(f"{name}_p50", float(np.median(lat[kind])), "ms", len(lat[kind])),
                     (f"{name}_p90", float(np.percentile(lat[kind], 90)), "ms", len(lat[kind]))]
        for kind, name in RATES.items():
            rows.append((name, 1e3 * len(lat[kind]) / float(lat[kind].sum()), "1/s", len(lat[kind])))
        return rows

    @property
    def fingerprint(self):
        return f"params:{(self.param_digest or 'none')[:16]} predictions:{(self.prediction_digest or 'none')[:16]}"


def peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024
