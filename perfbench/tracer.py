"""Spans around tagflow's public functions, recorded from outside ``src/``.

A traced run patches each public function at every module or class where
it is looked up (``tagflow.model.conv_bank_forward``, ``tagflow.cli.train``
and so on), so a call through any path opens a span: name, start, end and
the span that was open when it started. Spans stay in memory and are
written out when the run ends.

Backward time per layer comes from the tape. The patched ``Tape.record``
tags each backward closure with the innermost span open when the closure
was recorded, and times the closure when ``Tape.backward`` runs it. A span
inside which anything was recorded, directly or in a child, is a taped
call (a training forward); the others are tape-free (validation, evaluate,
predict). Forward times are reported for the two kinds apart.

``Tracer`` is a context manager: leaving it restores every patched name,
so nothing of the tracer remains for an untraced run in the same process.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


def self_times(spans):
    """Duration of each span minus the part of it that its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with parent an
    index into the sequence, or -1 for a root.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # [name, start, end, parent]
        self.extra = {}        # span index -> {count name: value}
        self.backward_s = {}   # span index (-1: none open) -> seconds of its backward closures
        self.recorded = set()  # span indices that were innermost at some Tape.record
        self.enabled = True
        self._stack = []
        self._installed = []
        self._tape_stats = {}

    # -- spans --------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (correctness checks run here)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- patching -----------------------------------------------------------

    def spanning(self, name, annotate=None):
        """Wrapper factory: each call opens a span; ``annotate(args, result)`` adds counts."""
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if annotate is not None:
                    self.extra[idx] = annotate(args, result)
                return result
            return wrapper
        return factory

    def tape_recording(self, record):
        """Wrapper for ``Tape.record``: tag and time every backward closure."""
        stack, stats, backward_s, clock = self._stack, self._tape_stats, self.backward_s, self.clock
        recorded = self.recorded

        @functools.wraps(record)
        def wrapper(tape, out, backward_fn):
            if not self.enabled:
                return record(tape, out, backward_fn)
            owner = stack[-1] if stack else -1
            recorded.add(owner)
            counts = stats.get(id(tape))
            if counts is None:
                counts = stats[id(tape)] = [0, 0]
            counts[0] += 1
            counts[1] += out.data.nbytes

            def timed(g):
                start = clock()
                backward_fn(g)
                backward_s[owner] = backward_s.get(owner, 0.0) + clock() - start

            return record(tape, out, timed)
        return wrapper

    def tape_counts(self, args, _result):
        nodes, nbytes = self._tape_stats.pop(id(args[0]), (0, 0))
        return {"nodes": nodes, "mb": nbytes / 2**20}

    def install(self, owner, attr, factory):
        original = vars(owner)[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, factory(original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def op_of(self):
        """Index of each span's nearest enclosing ``op.*`` span (-1: none)."""
        out = []
        for i, (name, _, _, parent) in enumerate(self.spans):
            out.append(i if name.startswith("op.") else (out[parent] if parent >= 0 else -1))
        return out

    def taped(self):
        """Indices of the spans inside which something was recorded on a tape."""
        out = set()
        for i in self.recorded:
            while i >= 0 and i not in out:
                out.add(i)
                i = self.spans[i][3]
        return out

    def by_name(self, name):
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
            "extra": {str(k): v for k, v in self.extra.items()},
            "backward_s": {str(k): v for k, v in self.backward_s.items()},
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def install_tagflow(tracer):
    """Patch tagflow's public functions at each place they are looked up."""
    from tagflow import autodiff, checkpoint, cli, corpus, emotion, layers, metrics, model, optim, training

    def conv_gflop(args, _result):
        embedded, bank = args
        seq_len, dim = embedded.data.shape
        flop = sum(2 * (seq_len - c + 1) * c * dim * bank.n_filters for c in bank.filter_sizes)
        return {"gflop": flop / 1e9}

    def checkpoint_mb(args, _result):
        return {"mb": Path(args[1]).stat().st_size / 2**20}

    def optimizer_params(args, _result):
        return {"params": sum(p.data.size for p in args[0].params.values())}

    sites = [
        ("corpus.load", [corpus, cli], "load_corpus", None),
        ("corpus.build_vocabulary", [corpus, cli], "build_vocabulary", None),
        ("corpus.preprocess", [corpus, cli], "preprocess", None),
        ("corpus.encode_synopsis", [corpus, cli], "encode_synopsis", None),
        ("corpus.encode_records", [corpus, cli], "encode_records", None),
        ("emotion.load_lexicon", [emotion, cli], "load_lexicon", None),
        ("emotion.flow", [emotion, cli], "emotion_flow", None),
        ("layers.embedding", [layers.Embedding], "lookup", None),
        ("layers.conv", [model, layers], "conv_bank_forward", conv_gflop),
        ("layers.bilstm", [model, layers], "bilstm_forward", None),
        ("layers.attention", [model, layers], "attention_forward", None),
        ("layers.dense", [layers.Dense], "forward", None),
        ("autodiff.loss", [training, layers], "kl_divergence", None),
        ("autodiff.backward", [autodiff.Tape], "backward", tracer.tape_counts),
        ("model.forward", [model.TagModel], "forward", None),
        ("model.predict_top_k", [model, cli], "predict_top_k", None),
        ("optim.step", [optim.RmsProp], "step", optimizer_params),
        ("training.train", [training, cli], "train", None),
        ("training.evaluate_loss", [training, cli], "evaluate_loss", None),
        ("checkpoint.save", [checkpoint, cli], "save_checkpoint", checkpoint_mb),
        ("checkpoint.load", [checkpoint, cli], "load_checkpoint", None),
        ("metrics.evaluate_predictions", [metrics, cli], "evaluate_predictions", None),
        ("cli.main", [cli], "main", None),
    ]
    for name, owners, attr, annotate in sites:
        for owner in owners:
            tracer.install(owner, attr, tracer.spanning(name, annotate))
    tracer.install(autodiff.Tape, "record", tracer.tape_recording)


# (metric, unit, better, span, statistic): "call" is the mean duration per
# call, "taped" and "free" the same over taped and tape-free calls only,
# "backward" the mean backward-closure time per call that recorded any, and
# any other statistic the mean of that count per call.
PER_LAYER = [
    ("layers.embedding.fwd_ms", "ms", "lower", "layers.embedding", "taped"),
    ("layers.embedding.bwd_ms", "ms", "lower", "layers.embedding", "backward"),
    ("layers.embedding.nograd_fwd_ms", "ms", "lower", "layers.embedding", "free"),
    ("layers.conv.fwd_ms", "ms", "lower", "layers.conv", "taped"),
    ("layers.conv.bwd_ms", "ms", "lower", "layers.conv", "backward"),
    ("layers.conv.nograd_fwd_ms", "ms", "lower", "layers.conv", "free"),
    ("layers.conv.gemm_gflop", "GFLOP", "lower", "layers.conv", "gflop"),
    ("layers.bilstm.fwd_ms", "ms", "lower", "layers.bilstm", "taped"),
    ("layers.bilstm.bwd_ms", "ms", "lower", "layers.bilstm", "backward"),
    ("layers.bilstm.nograd_fwd_ms", "ms", "lower", "layers.bilstm", "free"),
    ("layers.attention.fwd_ms", "ms", "lower", "layers.attention", "taped"),
    ("layers.attention.bwd_ms", "ms", "lower", "layers.attention", "backward"),
    ("layers.attention.nograd_fwd_ms", "ms", "lower", "layers.attention", "free"),
    ("layers.dense.fwd_ms", "ms", "lower", "layers.dense", "taped"),
    ("layers.dense.bwd_ms", "ms", "lower", "layers.dense", "backward"),
    ("layers.dense.nograd_fwd_ms", "ms", "lower", "layers.dense", "free"),
    ("autodiff.loss.fwd_ms", "ms", "lower", "autodiff.loss", "taped"),
    ("autodiff.loss.bwd_ms", "ms", "lower", "autodiff.loss", "backward"),
    ("autodiff.backward_ms", "ms", "lower", "autodiff.backward", "call"),
    ("autodiff.tape_nodes", "count", "lower", "autodiff.backward", "nodes"),
    ("autodiff.tape_mb", "MB", "lower", "autodiff.backward", "mb"),
    ("optim.step_ms", "ms", "lower", "optim.step", "call"),
    ("optim.params", "count", "lower", "optim.step", "params"),
    ("corpus.load_s", "s", "lower", "corpus.load", "call"),
    ("corpus.build_vocabulary_s", "s", "lower", "corpus.build_vocabulary", "call"),
    ("corpus.preprocess_ms", "ms", "lower", "corpus.preprocess", "call"),
    ("corpus.encode_synopsis_ms", "ms", "lower", "corpus.encode_synopsis", "call"),
    ("emotion.load_lexicon_s", "s", "lower", "emotion.load_lexicon", "call"),
    ("emotion.flow_ms", "ms", "lower", "emotion.flow", "call"),
    ("model.forward_ms", "ms", "lower", "model.forward", "free"),
    ("metrics.evaluate_predictions_ms", "ms", "lower", "metrics.evaluate_predictions", "call"),
    ("checkpoint.save_s", "s", "lower", "checkpoint.save", "call"),
    ("checkpoint.load_s", "s", "lower", "checkpoint.load", "call"),
    ("checkpoint.mb", "MB", "lower", "checkpoint.save", "mb"),
]

# model.forward_calls: forward passes per test example inside `tagflow evaluate`.
FORWARD_CALLS = ("model.forward_calls", "count", "lower")

_SCALE = {"ms": 1e3, "s": 1.0}


def per_layer_metrics(tracer, evaluated_examples):
    """``{metric: (value, calls)}`` for every per-layer metric.

    ``evaluated_examples`` is the number of test examples that all
    ``op.evaluate`` spans scored between them.
    """
    out = {}
    taped = tracer.taped()
    for metric, unit, _, name, stat in PER_LAYER:
        idx = tracer.by_name(name)
        if stat in ("taped", "free"):
            idx = [i for i in idx if (i in taped) == (stat == "taped")]
        if stat in ("call", "taped", "free"):
            values = [(tracer.spans[i][2] - tracer.spans[i][1]) * _SCALE[unit] for i in idx]
        elif stat == "backward":
            values = [tracer.backward_s[i] * 1e3 for i in idx if i in tracer.backward_s]
        else:
            values = [tracer.extra[i][stat] for i in idx if i in tracer.extra]
        out[metric] = (statistics.fmean(values) if values else 0.0, len(values))
    op_of = tracer.op_of()
    calls = sum(1 for i in tracer.by_name("model.forward")
                if op_of[i] >= 0 and tracer.spans[op_of[i]][0] == "op.evaluate")
    out[FORWARD_CALLS[0]] = (calls / evaluated_examples if evaluated_examples else 0.0, calls)
    return out


def breakdown(tracer, op_name):
    """Seconds of self time by span name inside ``op_name`` spans.

    Backward closures are moved out of ``autodiff.backward`` and booked to
    the span that recorded them, as ``<name> (backward)``. The values sum
    to the total duration of the ``op_name`` spans.
    """
    selfs = self_times(tracer.spans)
    op_of = tracer.op_of()
    out = {}
    for i, (name, *_rest) in enumerate(tracer.spans):
        op = op_of[i]
        if op < 0 or tracer.spans[op][0] != op_name:
            continue
        out[name] = out.get(name, 0.0) + selfs[i]
    for owner, seconds in tracer.backward_s.items():
        op = op_of[owner] if owner >= 0 else -1
        if op < 0 or tracer.spans[op][0] != op_name:
            continue
        label = f"{tracer.spans[owner][0]} (backward)"
        out[label] = out.get(label, 0.0) + seconds
        out["autodiff.backward"] = out.get("autodiff.backward", 0.0) - seconds
    return out
