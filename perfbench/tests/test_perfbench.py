"""Tests of the benchmark harness itself, at tiny shapes."""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tagflow import autodiff, cli, corpus, layers, model as tagmodel, training  # noqa: E402
from tagflow.corpus import load_stopwords  # noqa: E402

from perfbench import datagen, reference, tracer as tracing, workloads  # noqa: E402
from perfbench.datagen import CorpusSpec, Lengths  # noqa: E402

TINY_TEXT = Lengths("uniform", 20, 60)
TINY_SPEC = CorpusSpec(n_train=20, n_test=4, n_predict=3, train_words=TINY_TEXT,
                       test_words=TINY_TEXT, predict_words=Lengths("loguniform", 5, 80))
TINY = workloads.Workload(
    name="tiny", why="harness tests", corpus=TINY_SPEC,
    shape={"seq_len": 16, "embed_dim": 6, "filters_per_size": 4, "lstm_units": 3, "dense_sizes": (8,)},
    train_examples=12, val_examples=4, encode_rows=5, evaluate_ops=2, infer_ops=3, reference_examples=2,
)


def tiny_run(tmp_path, seed=5, traced=False):
    paths = datagen.generate(TINY_SPEC, seed, tmp_path / "data", exclude=load_stopwords())
    tracer = tracing.Tracer() if traced else None
    run = workloads.Run(TINY, seed, 0.0, tmp_path, tracer)
    with tracer if traced else contextlib.nullcontext():
        if traced:
            tracing.install_tagflow(tracer)
        run.run(paths)
    return run, tracer


def test_generator_is_deterministic(tmp_path):
    first = datagen.generate(TINY_SPEC, 7, tmp_path / "a", exclude=load_stopwords())
    again = datagen.generate(TINY_SPEC, 7, tmp_path / "b", exclude=load_stopwords())
    other = datagen.generate(TINY_SPEC, 8, tmp_path / "c", exclude=load_stopwords())
    for name in first:
        assert first[name].read_bytes() == again[name].read_bytes()
        assert first[name].read_bytes() != other[name].read_bytes()
    records = corpus.load_corpus(first["corpus"])
    train = [r for r in records if r.split is corpus.Split.TRAIN]
    assert len(train) == TINY_SPEC.n_train and len(records) == TINY_SPEC.n_train + TINY_SPEC.n_test
    assert len(corpus.TagVocabulary.from_records(train)) == datagen.N_TAGS
    assert len(datagen.read_synopses(first["synopses"])) == TINY_SPEC.n_predict
    # Seeds change words and order, not the amount of text.
    lengths = [sorted(len(r.synopsis.split()) for r in corpus.load_corpus(paths["corpus"]))
               for paths in (first, other)]
    assert lengths[0] == lengths[1]


@pytest.mark.parametrize("variant", ["cnn_fe", "cnn"])
def test_reference_matches_model_in_float64(variant):
    config = tagmodel.ModelConfig(variant=variant, vocab_size=40, seq_len=14, embed_dim=5,
                                  filters_per_size=4, lstm_units=3, dense_sizes=(7, 6), n_tags=9,
                                  n_segments=5)
    model = tagmodel.build_model(config, dtype=np.float64)
    params = {name: t.data for name, t in model.parameters().items()}
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.5, 3.0, size=9)
    for _ in range(5):
        tokens = rng.integers(0, 42, size=14)
        flow = rng.uniform(0, 40, size=(5, 10)) if config.uses_flow else None
        target = np.zeros(9)
        target[rng.choice(9, size=3, replace=False)] = 1 / 3
        probs = model.forward(tokens, flow)
        ref = reference.forward(params, config, tokens, flow)
        assert np.abs(probs.data - ref).max() <= 1e-10
        loss = float(autodiff.kl_divergence(target, probs, weights=weights).data)
        assert abs(loss - reference.weighted_kl(target, ref, weights)) <= 1e-10


def test_self_times_on_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),    # overlaps a: the union is counted once
        ("a.x", 2.0, 3.0, 1),
        ("c", 9.0, 12.0, 0),   # runs past its parent: only [9, 10] is covered
        ("other", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_breakdown_books_backward_to_recording_span():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op.train"):          # 0 .. 7
        with tracer.span("layers.conv"):   # 1 .. 2
            pass
        tracer.backward_s[1] = 1.5
        with tracer.span("autodiff.backward"):  # 3 .. 4
            pass
        with tracer.span("layers.dense"):  # 5 .. 6
            pass
    split = tracing.breakdown(tracer, "op.train")
    assert split["layers.conv (backward)"] == 1.5
    assert split["autodiff.backward"] == -0.5
    assert sum(split.values()) == pytest.approx(7.0)


def test_taped_and_tape_free_calls_are_timed_apart():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("op.train"):             # 0 .. 5
        with tracer.span("model.forward"):    # 1 .. 4
            with tracer.span("layers.conv"):  # 2 .. 3
                tracer.recorded.add(2)
    with tracer.span("op.infer"):             # 6 .. 13
        with tracer.span("model.forward"):    # 7 .. 12
            with tracer.span("layers.conv"):  # 8 .. 11: tape-free, so no record
                tracer.clock(), tracer.clock()
    assert tracer.taped() == {0, 1, 2}
    metrics = tracing.per_layer_metrics(tracer, 0)
    assert metrics["layers.conv.fwd_ms"] == (1e3, 1)
    assert metrics["layers.conv.nograd_fwd_ms"] == (3e3, 1)
    assert metrics["model.forward_ms"] == (5e3, 1)


def _peak_rss_child(work_dir, break_cycle):
    """Print peak_rss_mb of a short run at sequence length 800, 8 examples a training op."""
    if break_cycle:
        backward = autodiff.Tape.backward

        def backward_then_drop(tape, loss):
            backward(tape, loss)
            tape._entries.clear()

        autodiff.Tape.backward = backward_then_drop
    shape = {"seq_len": 800, "embed_dim": 300, "filters_per_size": 8, "lstm_units": 3, "dense_sizes": (8,)}
    workload = workloads.Workload(name="tape-cycle", why="peak RSS test", corpus=TINY_SPEC, shape=shape,
                                  train_examples=8, val_examples=2, encode_rows=2, evaluate_ops=1, infer_ops=2,
                                  reference_examples=1)
    paths = datagen.generate(TINY_SPEC, 3, Path(work_dir) / "data", exclude=load_stopwords())
    run = workloads.Run(workload, 3, 0.0, work_dir)
    run.run(paths)
    assert not run.failures, run.failures
    print(run.end_to_end()["peak_rss_mb"])


def test_breaking_the_tape_cycle_lowers_peak_rss(tmp_path):
    """A training op's tapes stay alive until its closing collection, so
    peak_rss_mb falls when the tape no longer holds its outputs after
    backward."""
    peaks = []
    for break_cycle in (0, 1):
        child = subprocess.run([sys.executable, __file__, str(tmp_path / str(break_cycle)), str(break_cycle)],
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        peaks.append(float(child.stdout.split()[-1]))
    assert peaks[1] < 0.5 * peaks[0], peaks


def test_counts_and_fingerprints_repeat_exactly(tmp_path):
    runs = [tiny_run(tmp_path / str(i), traced=True) for i in range(2)]
    counts = ["autodiff.tape_nodes", "layers.conv.gemm_gflop", "optim.params", "model.forward_calls"]
    metrics = [tracing.per_layer_metrics(tracer, run.evaluated_examples) for run, tracer in runs]
    for name in counts:
        assert metrics[0][name] == metrics[1][name]
    assert metrics[0]["model.forward_calls"][0] == 2.0
    assert runs[0][0].fingerprint == runs[1][0].fingerprint
    assert "none" not in runs[0][0].fingerprint
    assert all(not run.failures for run, _ in runs)


def test_tracer_restores_every_patched_name(tmp_path):
    sites = [(tagmodel, "conv_bank_forward"), (cli, "train"), (training, "kl_divergence"),
             (autodiff.Tape, "record"), (autodiff.Tape, "backward"), (tagmodel.TagModel, "forward"),
             (layers.Dense, "forward"), (corpus, "preprocess")]
    before = [vars(owner)[attr] for owner, attr in sites]
    run, tracer = tiny_run(tmp_path, traced=True)
    assert tracer.spans and not run.failures
    assert [vars(owner)[attr] for owner, attr in sites] == before


def test_untraced_run_is_correct_and_reports_every_metric(tmp_path):
    run, _ = tiny_run(tmp_path)
    assert not run.failures and run.attempted > 0
    e2e = run.end_to_end()
    assert set(e2e) == {name for name, *_ in workloads.END_TO_END}
    assert all(np.isfinite(v) and v > 0 for v in e2e.values())


def test_corrupted_model_output_is_reported(tmp_path, monkeypatch):
    forward = tagmodel.TagModel.forward

    def reversed_probs(self, *args, **kwargs):
        return autodiff.Tensor(forward(self, *args, **kwargs).data[::-1].copy())

    monkeypatch.setattr(tagmodel.TagModel, "forward", reversed_probs)
    run, _ = tiny_run(tmp_path)
    assert any(f.startswith("reference") for f in run.failures)
    assert any(f.startswith("train") for f in run.failures)


def test_benchmark_json_lists_the_harness_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        [tuple(m) for m in workloads.END_TO_END]
    per_layer = [tuple(m[:3]) for m in tracing.PER_LAYER] + [tracing.FORWARD_CALLS]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == per_layer


if __name__ == "__main__":
    _peak_rss_child(sys.argv[1], sys.argv[2] == "1")
