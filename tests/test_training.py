"""Training loop: loss bookkeeping, early stopping, determinism, failures."""

from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import numpy.testing as npt
import pytest

from test_model import small_config
from tagflow.autodiff import Tensor, kl_divergence
from tagflow.corpus import EncodedExample, TagVocabulary
from tagflow.errors import ConfigError, NumericError
from tagflow.layers import ClassWeights
from tagflow.model import build_model
from tagflow.training import (
    TrainConfig,
    TrainHistory,
    evaluate_loss,
    train,
)
import tagflow.training as training


def tiny_config(**overrides):
    base = dict(variant="cnn", vocab_size=10, seq_len=8, embed_dim=4,
                filter_sizes=(2,), filters_per_size=3, dense_sizes=(6, 4),
                n_tags=3, dropout=0.4, seed=0)
    base.update(overrides)
    return small_config(**base)


def make_examples(config, n, seed=0, tag_names=None):
    rng = np.random.default_rng(seed)
    tags = tag_names or [f"t{i}" for i in range(config.n_tags)]
    examples = []
    for i in range(n):
        tokens = rng.integers(0, config.vocab_size + 2, size=config.seq_len)
        hot = int(rng.integers(0, config.n_tags))
        target = np.zeros(config.n_tags)
        target[hot] = 1.0
        flow = (100.0 * rng.random((config.n_segments, 10))).astype(np.float32) \
            if config.uses_flow else None
        examples.append(EncodedExample(movie_id=f"m{i}", tokens=tokens, target=target,
                                       flow=flow, tags=frozenset({tags[hot]})))
    return examples


def quick_train_config(**overrides):
    base = dict(batch_size=4, max_epochs=3, patience=2, lr=1e-3, seed=0)
    base.update(overrides)
    if "patience" not in overrides:
        base["patience"] = min(base["patience"], base["max_epochs"] - 1)
    return TrainConfig(**base)


class TestEvaluateLoss:
    def test_uniform_predictions_score_log_n_tags(self):
        config = tiny_config(n_tags=71)
        model = build_model(config)
        model.dense_out.weight.data[:] = 0.0
        model.dense_out.bias.data[:] = 0.0
        examples = make_examples(config, 5)
        loss = evaluate_loss(model, examples)
        npt.assert_allclose(loss, math.log(71), rtol=1e-5)

    def test_repeat_evaluations_are_bitwise_equal(self):
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 4)
        assert evaluate_loss(model, examples) == evaluate_loss(model, examples)

    def test_unit_class_weights_match_unweighted(self):
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 4)
        cw = ClassWeights(n_examples=3, tag_counts=(1,) * config.n_tags)
        npt.assert_allclose(evaluate_loss(model, examples, class_weights=cw),
                            evaluate_loss(model, examples), rtol=1e-12)

    def test_empty_example_list_rejected(self):
        with pytest.raises(ValueError):
            evaluate_loss(build_model(tiny_config()), [])

    def test_given_conv_gives_one_forward_per_example_bit_for_bit(self):
        config = small_config(n_tags=3, vocab_size=40, seq_len=30, filters_per_size=16)
        model = build_model(config)
        examples = make_examples(config, 12)
        weights = ClassWeights(n_examples=12, tag_counts=(3, 4, 5))
        expected = 0.0
        for ex in examples:
            expected += float(kl_divergence(ex.target, model.forward(ex.tokens, ex.flow),
                                            weights=weights.weights).data)
        assert evaluate_loss(model, examples, weights) == expected / len(examples)
        conv = [model.conv_features(ex.tokens).data for ex in examples]
        assert evaluate_loss(model, examples, weights, conv=conv) == expected / len(examples)
        with pytest.raises(ValueError):
            evaluate_loss(model, examples, weights, conv=conv[:-1])


class TestEarlyStopping:
    def test_patience_zero_stops_at_first_non_improvement(self):
        # lr = 0 freezes the model, so epoch 2 cannot strictly improve
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 6)
        _, history = train(model, examples, examples,
                           quick_train_config(lr=0.0, max_epochs=10, patience=0))
        assert len(history.epochs) == 2
        assert history.best_epoch == 1

    def test_patience_counts_consecutive_stale_epochs(self):
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 6)
        _, history = train(model, examples, examples,
                           quick_train_config(lr=0.0, max_epochs=10, patience=2))
        assert len(history.epochs) == 4  # best at 1, stale at 2, 3, 4

    def test_max_epochs_caps_the_run(self):
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 6)
        _, history = train(model, examples, examples,
                           quick_train_config(lr=0.0, max_epochs=3, patience=2))
        assert len(history.epochs) == 3

    def test_best_epoch_parameters_are_restored(self):
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 8)
        val = make_examples(config, 4, seed=1)
        model.tag_vocab = TagVocabulary([f"t{i}" for i in range(config.n_tags)])
        trained, history = train(model, examples, val,
                                 quick_train_config(lr=1e-2, max_epochs=5, patience=4))
        restored_loss = evaluate_loss(trained, val)
        val_losses = [e.val_loss for e in history.epochs]
        assert restored_loss == min(val_losses)
        assert restored_loss == val_losses[history.best_epoch - 1]


class TestDeterminism:
    def test_same_seed_reproduces_history_and_parameters(self):
        config = tiny_config()
        examples = make_examples(config, 6)
        val = make_examples(config, 3, seed=2)
        runs = []
        for _ in range(2):
            model = build_model(config)
            trained, history = train(model, examples, val, quick_train_config())
            runs.append((trained, history))
        a, b = runs
        assert [(e.train_loss, e.val_loss) for e in a[1].epochs] == [(e.train_loss, e.val_loss) for e in b[1].epochs]
        for name, p in a[0].parameters().items():
            npt.assert_array_equal(p.data, b[0].parameters()[name].data, err_msg=name)

    def test_same_seed_reproduces_cnn_fe_parameters(self):
        # the emotion branch's hand-written Bi-LSTM backward is on this path
        config = small_config(n_tags=3, dropout=0.4)
        examples = make_examples(config, 6)
        val = make_examples(config, 3, seed=2)
        weights = ClassWeights(n_examples=9, tag_counts=(2, 3, 4))
        runs = []
        for _ in range(2):
            trained, history = train(build_model(config), examples, val, quick_train_config(),
                                     class_weights=weights)
            runs.append((trained, history))
        a, b = runs
        assert [e.train_loss for e in a[1].epochs] == [e.train_loss for e in b[1].epochs]
        for name, p in a[0].parameters().items():
            npt.assert_array_equal(p.data, b[0].parameters()[name].data, err_msg=name)
        assert any(name.startswith("lstm_") for name in a[0].parameters())

    def test_different_train_seed_changes_the_run(self):
        config = tiny_config()
        examples = make_examples(config, 6)
        val = make_examples(config, 3, seed=2)
        losses = []
        for seed in (0, 1):
            model = build_model(config)
            _, history = train(model, examples, val, quick_train_config(seed=seed))
            losses.append([e.train_loss for e in history.epochs])
        assert losses[0] != losses[1]

    def test_zero_lr_leaves_parameters_bitwise_untouched(self):
        config = tiny_config()
        model = build_model(config)
        before = {name: p.data.copy() for name, p in model.parameters().items()}
        examples = make_examples(config, 6)
        train(model, examples, examples, quick_train_config(lr=0.0, max_epochs=2, patience=1))
        for name, p in model.parameters().items():
            npt.assert_array_equal(p.data, before[name], err_msg=name)


class TestOptimizationEffect:
    def test_single_small_step_does_not_increase_loss(self):
        config = tiny_config(dropout=0.0)
        model = build_model(config)
        examples = make_examples(config, 4)
        before = evaluate_loss(model, examples)
        train(model, examples, examples,
              quick_train_config(lr=1e-6, max_epochs=1, patience=0, batch_size=4))
        # the restored weights are the best seen, so never worse than epoch 0's
        assert evaluate_loss(model, examples) <= before + 1e-12

    def test_training_reduces_loss_on_a_learnable_set(self):
        config = tiny_config(dropout=0.0)
        model = build_model(config)
        examples = make_examples(config, 6)
        before = evaluate_loss(model, examples)
        train(model, examples, examples,
              quick_train_config(lr=1e-2, max_epochs=10, patience=9))
        assert evaluate_loss(model, examples) < before


class TestFailureModes:
    def test_non_finite_loss_names_epoch_and_batch(self, monkeypatch):
        def poisoned(model, example, weights, dropout_rng=None):
            return Tensor(np.float64("nan"))

        monkeypatch.setattr(training, "_example_loss", poisoned)
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 4)
        with pytest.raises(NumericError, match="epoch 1, batch 1"):
            train(model, examples, examples, quick_train_config())

    def test_optimizer_abort_is_wrapped_with_position(self, monkeypatch):
        class ExplodingOptimizer:
            def __init__(self, params, lr):
                pass

            def zero_grad(self):
                pass

            def step(self):
                raise NumericError("gradient for 'dense_out.weight' is not finite")

        monkeypatch.setattr(training, "RmsProp", ExplodingOptimizer)
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 4)
        with pytest.raises(NumericError, match=r"epoch 1, batch 1: .*dense_out\.weight"):
            train(model, examples, examples, quick_train_config())

    def test_non_finite_validation_loss_names_the_epoch(self, monkeypatch):
        losses = iter([0.5, float("nan")])
        monkeypatch.setattr(training, "evaluate_loss", lambda model, examples, class_weights=None: next(losses))
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 4)
        with pytest.raises(NumericError, match="non-finite validation loss at epoch 2"):
            train(model, examples, examples, quick_train_config())

    def test_empty_datasets_rejected(self):
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 2)
        with pytest.raises(ValueError):
            train(model, [], examples, quick_train_config())
        with pytest.raises(ValueError):
            train(model, examples, [], quick_train_config())


class TestMemoryBehaviour:
    """What a run leaves behind: the best epoch's weights, copied no more
    than needed, and no gradients."""

    @staticmethod
    def scripted_run(monkeypatch, val_losses, patience):
        """Train with ``evaluate_loss`` replaced by ``val_losses``, one per
        epoch. Return the trained model, its history, the parameter arrays
        it started with and copies of each epoch's weights."""
        config = tiny_config()
        model = build_model(config)
        arrays = {name: t.data for name, t in model.parameters().items()}
        examples = make_examples(config, 6)
        losses = iter(val_losses)
        after_epoch = []

        def scripted(model, examples, class_weights=None):
            after_epoch.append({name: t.data.tobytes() for name, t in model.parameters().items()})
            return next(losses)

        monkeypatch.setattr(training, "evaluate_loss", scripted)
        train_config = quick_train_config(lr=1e-2, max_epochs=len(val_losses), patience=patience)
        trained, history = train(model, examples, examples, train_config)
        return trained, history, arrays, after_epoch

    def test_one_epoch_copies_nothing_and_frees_the_gradients(self):
        config = tiny_config(variant="cnn_fe")
        model = build_model(config)
        model.tag_vocab = TagVocabulary([f"t{i}" for i in range(config.n_tags)])
        examples = make_examples(config, 12)
        arrays = {name: t.data for name, t in model.parameters().items()}
        train(model, examples, examples, quick_train_config(max_epochs=1, patience=0))
        for name, t in model.parameters().items():
            assert t.data is arrays[name], name
            assert t._grad is None, name

    def test_an_earlier_best_epoch_is_restored_bit_for_bit(self, monkeypatch):
        trained, history, _, after_epoch = self.scripted_run(monkeypatch, [0.5, 0.6, 0.4, 0.45, 0.47], patience=1)
        assert history.best_epoch == 3 and len(history.epochs) == 5
        assert after_epoch[2] != after_epoch[4]
        assert {name: t.data.tobytes() for name, t in trained.parameters().items()} == after_epoch[2]
        assert all(t._grad is None for t in trained.parameters().values())

    def test_a_best_last_epoch_keeps_the_trained_arrays(self, monkeypatch):
        trained, history, arrays, after_epoch = self.scripted_run(monkeypatch, [0.5, 0.6, 0.4], patience=1)
        assert history.best_epoch == 3
        assert {name: t.data.tobytes() for name, t in trained.parameters().items()} == after_epoch[2]
        assert all(t.data is arrays[name] for name, t in trained.parameters().items())


class TestClassWeightResolution:
    def test_plain_variant_trains_without_weights(self):
        config = tiny_config()  # cnn: unweighted by default
        model = build_model(config)
        examples = make_examples(config, 4)
        trained, _ = train(model, examples, examples, quick_train_config(max_epochs=1))
        assert trained.class_weights is None

    def test_weighted_variant_needs_tag_vocabulary_or_weights(self):
        config = tiny_config(variant="cnn_cw")
        model = build_model(config)
        examples = make_examples(config, 4)
        with pytest.raises(ConfigError, match="tag vocabulary"):
            train(model, examples, examples, quick_train_config(max_epochs=1))

    def test_weighted_variant_counts_tags_from_examples(self):
        # counted over train and validation together: the whole training split
        config = tiny_config(variant="cnn_cw")
        model = build_model(config)
        model.tag_vocab = TagVocabulary(["t0", "t1", "t2"])
        examples = make_examples(config, 6, seed=4)
        trained, _ = train(model, examples[:4], examples[4:], quick_train_config(max_epochs=1))
        expected = [0, 0, 0]
        for e in examples:
            for tag in e.tags:
                expected[int(tag[1])] += 1
        assert trained.class_weights.tag_counts == tuple(expected)
        assert trained.class_weights.n_examples == 6

    def test_explicit_weights_take_precedence(self):
        config = tiny_config(variant="cnn_cw")
        model = build_model(config)
        examples = make_examples(config, 4)
        cw = ClassWeights(n_examples=9, tag_counts=(3, 3, 3))
        trained, _ = train(model, examples, examples, quick_train_config(max_epochs=1),
                           class_weights=cw)
        assert trained.class_weights is cw

    def test_plain_variant_ignores_explicit_weights(self):
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 4)
        cw = ClassWeights(n_examples=9, tag_counts=(3, 3, 3))
        trained, _ = train(model, examples, examples, quick_train_config(max_epochs=1),
                           class_weights=cw)
        assert trained.class_weights is None


class TestHistoryAndConfig:
    def test_log_is_one_json_record_per_epoch(self, tmp_path):
        config = tiny_config()
        model = build_model(config)
        examples = make_examples(config, 4)
        log = tmp_path / "history.jsonl"
        _, history = train(model, examples, examples, quick_train_config(max_epochs=2, patience=1))
        history.write_log(log)
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(history.epochs)
        for lineno, (line, stats) in enumerate(zip(lines, history.epochs), start=1):
            record = json.loads(line)
            assert record["epoch"] == lineno == stats.epoch
            assert record["train_loss"] == stats.train_loss
            assert record["val_loss"] == stats.val_loss
            assert record["seconds"] >= 0
        # a history before any epoch keeps no weights and logs nothing
        empty = TrainHistory()
        assert empty.best_epoch == -1
        empty.write_log(log)
        assert log.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("overrides", [
        {"batch_size": 0},
        {"max_epochs": 0},
        {"patience": -1},
        {"patience": 5, "max_epochs": 5},
        {"lr": -1e-4},
        {"seed": -1},
    ])
    def test_invalid_train_config_rejected(self, overrides):
        with pytest.raises(ConfigError):
            quick_train_config(**overrides)

    @pytest.mark.parametrize("name,value", [
        ("batch_size", "8"), ("batch_size", 2.0), ("max_epochs", True),
        ("patience", None), ("lr", True), ("lr", "x"), ("seed", 1.5),
    ])
    def test_wrong_type_rejected_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=name):
            quick_train_config(**{name: value})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig.from_dict({"lr": 0.1, "momentum": 0.9})

    def test_dict_round_trip(self):
        config = quick_train_config(lr=5e-4, patience=0)
        assert TrainConfig.from_dict(asdict(config)) == config

    def test_fields_cannot_be_assigned(self):
        config = quick_train_config()
        with pytest.raises(FrozenInstanceError):
            config.lr = 1.0
        assert config.lr == 1e-3

    def test_replace_checks_the_new_values(self):
        config = quick_train_config()
        assert replace(config, patience=0).patience == 0
        with pytest.raises(ConfigError, match="patience"):
            replace(config, patience=config.max_epochs)
