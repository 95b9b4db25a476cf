"""Model assembly: variants, forward contract, top-k, pretrained vectors."""

from __future__ import annotations

import json
import re
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import PADDING_CASE_IDS, PADDING_CASES, fuzzed_token_lists, left_padded
from tagflow import layers
from tagflow import model as model_module
from tagflow.autodiff import Tape, Tensor, constant, gradcheck, kl_divergence, window_max_pool
from tagflow.corpus import Vocabulary
from tagflow.errors import ConfigError, DataError
from tagflow.layers import ClassWeights, Embedding
from tagflow.model import (
    CLASS_WEIGHTED_VARIANTS,
    VARIANTS,
    ModelConfig,
    TagModel,
    build_model,
    load_pretrained_embeddings,
    predict_top_k,
)


def small_config(variant="cnn_fe", **overrides):
    base = dict(variant=variant, vocab_size=30, seq_len=16, embed_dim=5,
                filter_sizes=(2, 3), filters_per_size=4, n_segments=4,
                lstm_units=3, dense_sizes=(11, 7), n_tags=5, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def random_inputs(config, seed=0):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, config.vocab_size + 2, size=config.seq_len)
    flow = (100.0 * rng.random((config.n_segments, 10))) if config.uses_flow else None
    return tokens, flow


def closed_form_param_count(config):
    emb = (config.vocab_size + 2) * config.embed_dim
    conv = sum(c * config.embed_dim * config.filters_per_size + config.filters_per_size
               for c in config.filter_sizes)
    total = emb + conv
    feature_dim = len(config.filter_sizes) * config.filters_per_size
    if config.uses_flow:
        h = config.lstm_units
        per_direction = 4 * (10 * h) + 6 * h * h + 4 * h
        s = 2 * h
        attention = s * s + s + s
        total += 2 * per_direction + attention
        feature_dim += 2 * s
    in_dim = feature_dim
    for width in config.dense_sizes:
        total += in_dim * width + width
        in_dim = width
    total += in_dim * config.n_tags + config.n_tags
    return total


class TestModelConfig:
    def test_defaults_describe_the_full_scale_network(self):
        config = ModelConfig()
        assert config.variant == "cnn_fe"
        assert (config.vocab_size, config.seq_len, config.embed_dim) == (5000, 1500, 300)
        assert config.filter_sizes == (2, 3, 4, 5)
        assert config.filters_per_size == 1024
        assert (config.n_segments, config.lstm_units) == (20, 16)
        assert config.dense_sizes == (500, 200)
        assert (config.n_tags, config.dropout, config.lr) == (71, 0.4, 1e-4)

    def test_round_trip_through_dict(self):
        config = small_config(dropout=0.25, seed=9)
        clone = ModelConfig.from_dict(json.loads(json.dumps(asdict(config))))  # as a checkpoint stores it
        assert clone == config
        assert isinstance(clone.filter_sizes, tuple) and isinstance(clone.dense_sizes, tuple)

    def test_fields_cannot_be_assigned(self):
        config = small_config()
        with pytest.raises(FrozenInstanceError):
            config.n_tags = 3
        assert config.n_tags == 5

    def test_replace_checks_the_new_values(self):
        config = small_config()
        assert replace(config, n_tags=9).n_tags == 9
        with pytest.raises(ConfigError, match="n_tags"):
            replace(config, n_tags=0)
        with pytest.raises(ConfigError, match="seq_len"):
            replace(config, seq_len=2)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            ModelConfig.from_dict({"variant": "cnn", "momentum": 0.9})

    def test_variant_table(self):
        assert VARIANTS == ("cnn", "cnn_cw", "cnn_fe", "cnn_fe_pretrained")
        assert CLASS_WEIGHTED_VARIANTS == ("cnn_cw", "cnn_fe", "cnn_fe_pretrained")
        flows = {v: ModelConfig(variant=v).uses_flow for v in VARIANTS}
        assert flows == {"cnn": False, "cnn_cw": False, "cnn_fe": True, "cnn_fe_pretrained": True}
        weighted = {v: ModelConfig(variant=v).uses_class_weights for v in VARIANTS}
        assert weighted == {"cnn": False, "cnn_cw": True, "cnn_fe": True, "cnn_fe_pretrained": True}

    @pytest.mark.parametrize("overrides,fragment", [
        ({"variant": "lstm"}, "variant"),
        ({"vocab_size": 0}, "vocab_size"),
        ({"n_tags": -1}, "n_tags"),
        ({"dropout": 1.0}, "dropout"),
        ({"lr": 0.0}, "lr"),
        ({"seq_len": 2}, "seq_len"),
        ({"filter_sizes": ()}, "filter_sizes"),
        ({"dense_sizes": (0,)}, "dense_sizes"),
        ({"lstm_units": 2.5}, "lstm_units"),
        ({"lstm_units": True}, "lstm_units"),
        ({"dropout": "x"}, "dropout"),
        ({"lr": False}, "lr"),
        ({"filter_sizes": ["a"]}, "filter_sizes"),
        ({"filter_sizes": 5}, "filter_sizes"),
        ({"dense_sizes": (8, True)}, "dense_sizes"),
        ({"seed": True}, "seed"),
    ])
    def test_invalid_values_rejected(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            small_config(**overrides)


class TestParameterInventory:
    def test_full_scale_count_matches_closed_form(self):
        config = ModelConfig()
        model = build_model(config)
        enumerated = sum(p.data.size for p in model.parameters().values())
        assert enumerated == closed_form_param_count(config) == 8_006_035
        # classifier reads 4096 conv features + 32 attention + 32 final states
        assert model.dense[0].weight.data.shape == (4160, 500)

    def test_small_configs_match_closed_form(self):
        for variant in VARIANTS:
            model = build_model(small_config(variant=variant))
            enumerated = sum(p.data.size for p in model.parameters().values())
            assert enumerated == closed_form_param_count(model.config), variant

    def test_flow_free_variants_have_no_recurrent_parameters(self):
        model = build_model(small_config(variant="cnn"))
        assert model.lstm_fwd is None and model.attention is None
        prefixes = {name.split(".")[0] for name in model.parameters()}
        assert prefixes == {"embedding", "conv", "dense1", "dense2", "dense_out"}

    def test_flow_variants_add_recurrent_parameters(self):
        model = build_model(small_config(variant="cnn_fe"))
        prefixes = {name.split(".")[0] for name in model.parameters()}
        assert prefixes == {"embedding", "conv", "lstm_fwd", "lstm_bwd", "attention",
                            "dense1", "dense2", "dense_out"}

    def test_same_seed_builds_identical_parameters(self):
        a = build_model(small_config(seed=5))
        b = build_model(small_config(seed=5))
        for name, p in a.parameters().items():
            npt.assert_array_equal(p.data, b.parameters()[name].data, err_msg=name)

    def test_different_seeds_differ(self):
        a = build_model(small_config(seed=5))
        b = build_model(small_config(seed=6))
        assert any(not np.array_equal(p.data, b.parameters()[name].data)
                   for name, p in a.parameters().items())

    def test_enforce_constraints_repins_padding_row(self):
        model = build_model(small_config())
        model.embedding.table.data[0] = 3.0
        model.enforce_constraints()
        npt.assert_array_equal(model.embedding.table.data[0], np.zeros(5, dtype=np.float32))


class TestForward:
    def test_output_is_a_distribution(self):
        for variant in ("cnn", "cnn_fe"):
            config = small_config(variant=variant)
            model = build_model(config)
            tokens, flow = random_inputs(config)
            out = model.forward(tokens, flow=flow)
            assert out.data.shape == (config.n_tags,)
            assert (out.data >= 0).all()
            assert abs(out.data.sum() - 1.0) < 1e-6

    def test_evaluation_forward_is_deterministic(self):
        config = small_config()
        model = build_model(config)
        tokens, flow = random_inputs(config)
        first = model.forward(tokens, flow=flow).data.copy()
        npt.assert_array_equal(model.forward(tokens, flow=flow).data, first)

    def test_zeroed_output_layer_gives_uniform_distribution(self):
        config = small_config()
        model = build_model(config)
        model.dense_out.weight.data[:] = 0.0
        model.dense_out.bias.data[:] = 0.0
        tokens, flow = random_inputs(config)
        out = model.forward(tokens, flow=flow).data
        assert np.unique(out).size == 1
        npt.assert_allclose(out, 1.0 / config.n_tags, rtol=1e-6)

    def test_flow_required_exactly_for_flow_variants(self):
        fe = build_model(small_config(variant="cnn_fe"))
        tokens, flow = random_inputs(fe.config)
        with pytest.raises(ValueError, match="requires"):
            fe.forward(tokens)
        plain = build_model(small_config(variant="cnn"))
        with pytest.raises(ValueError, match="does not take"):
            plain.forward(tokens, flow=flow)

    def test_flow_shape_validated(self):
        model = build_model(small_config())
        tokens, _ = random_inputs(model.config)
        with pytest.raises(ValueError, match="shape"):
            model.forward(tokens, flow=np.zeros((3, 10)))

    @pytest.mark.parametrize("shape", [(10,), (17,), (16, 1), ()])
    def test_token_sequence_shape_validated(self, shape):
        model = build_model(small_config())
        _, flow = random_inputs(model.config)
        with pytest.raises(ValueError, match=r"token sequence shape .* != \(16,\)"):
            model.forward(np.ones(shape, dtype=np.intp), flow=flow)

    @pytest.mark.parametrize("variant, dtype", [("cnn", np.float32), ("cnn_fe", np.float32),
                                                ("cnn_fe", np.float64)])
    def test_conv_features_give_forwards_bits(self, variant, dtype, monkeypatch):
        """A trunk is [conv features | flow features], and a head-only forward
        given it has the bits of a full forward, whether the flows run in one
        Bi-LSTM call or in several."""
        config = small_config(variant=variant, vocab_size=58, seq_len=80, embed_dim=24, filter_sizes=(2, 3, 5),
                              filters_per_size=40, n_segments=6, dense_sizes=(16,), n_tags=7)
        model = build_model(config, dtype=dtype)
        rng = np.random.default_rng(1)
        token_lists = fuzzed_token_lists(rng, 36, config.seq_len, config.vocab_size + 2)
        flows = [100.0 * rng.random((config.n_segments, 10)) if config.uses_flow else None for _ in token_lists]
        inputs = list(zip(token_lists, flows))
        trunks = list(model.trunks(inputs))
        monkeypatch.setattr(model_module, "FLOW_BATCH", 5)
        assert [t.tobytes() for t in model.trunks(inputs)] == [t.tobytes() for t in trunks]
        for (tokens, flow), trunk in zip(inputs, trunks):
            with Tape():
                row = model.conv_features(tokens).data
                full = model.forward(tokens, flow).data
            assert row.shape == (model.conv.output_dim,) and row.dtype == dtype
            assert trunk.shape == (model.trunk_dim,) and trunk.dtype == dtype
            assert trunk[:len(row)].tobytes() == row.tobytes()
            probs = model.forward(tokens, flow, trunk=trunk).data
            assert probs.tobytes() == full.tobytes(), tokens

    @pytest.mark.parametrize("n_real, sign", PADDING_CASES, ids=PADDING_CASE_IDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_trunk_conv_part_equals_taped_conv_features(self, n_real, sign, dtype):
        """``trunks`` drops leading pads before the lookup, and only rows whose windows change no max."""
        config = small_config(variant="cnn", vocab_size=12, seq_len=12, embed_dim=4, filter_sizes=(2, 3, 5),
                              filters_per_size=6)
        model = build_model(config, dtype=dtype)
        rng = np.random.default_rng(7)
        for b in model.conv.biases.values():
            b.data[:] = rng.normal(scale=3.0, size=(1, 6))
        real = model.embedding.table.data[1:n_real + 1]  # the rows of the real tokens 1, 2, ...
        real[:] = rng.standard_normal((n_real, 4))
        if sign:
            real[:] = np.abs(real) + 0.1
            for w in model.conv.weights.values():
                w.data[:] = sign * np.abs(w.data)
        tokens = left_padded(12, n_real)
        with Tape() as tape:
            taped = model.conv_features(tokens).data
        assert len(tape) > 0
        (trunk,) = model.trunks([(tokens, None)])
        assert trunk.dtype == dtype and trunk.tobytes() == taped.tobytes()
        if sign < 0:
            relu_b = np.maximum(np.concatenate([model.conv.biases[c].data[0] for c in config.filter_sizes]), 0)
            if n_real < 12:
                npt.assert_array_equal(trunk, relu_b)
            else:
                assert (trunk <= relu_b).all() and (trunk < relu_b).any()

    # a pad lead of 5 (the widest filter) drops nothing, of 16 or 20 drops rows
    @pytest.mark.parametrize("n_real", [15, 4, 0])
    def test_only_tape_free_forwards_drop_leading_padding(self, n_real, monkeypatch):
        model = build_model(small_config(seq_len=20, filter_sizes=(2, 3, 5)))
        tokens, (_, flow) = left_padded(20, n_real), random_inputs(model.config)
        looked_up, window_rows = [], []
        lookup = Embedding.lookup

        def lookup_spy(self, indices):
            looked_up.append(len(indices))
            return lookup(self, indices)

        def pool_spy(xw, w, b, distinct):
            window_rows.append(xw.data.shape[0])
            return window_max_pool(xw, w, b, distinct)

        monkeypatch.setattr(Embedding, "lookup", lookup_spy)
        monkeypatch.setattr(layers, "window_max_pool", pool_spy)

        def rows_seen(run):
            looked_up.clear()
            window_rows.clear()
            run()
            return looked_up[:], window_rows[:]

        def scored(n_rows):
            return [n_rows], [n_rows - c + 1 for c in (2, 3, 5)]

        # n_real rows plus the widest filter's 5 pad rows
        assert rows_seen(lambda: model.forward(tokens, flow)) == scored(min(n_real + 5, 20))
        assert rows_seen(lambda: model.forward(tokens, flow, trunk=next(model.trunks([(tokens, flow)])))) \
            == scored(min(n_real + 5, 20))
        with Tape():
            assert rows_seen(lambda: model.forward(tokens, flow)) == scored(20)

    @pytest.mark.parametrize("variant", ["cnn", "cnn_fe"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tape_free_forward_is_the_trunks_path(self, variant, dtype, monkeypatch):
        """One one-flow ``trunks`` call per tape-free forward, with the taped forward's bits, on padded,
        all-pad, one-token and repeated-token inputs; so too under a tape whose parameters need no grad."""
        config = small_config(variant=variant, vocab_size=58, seq_len=40, embed_dim=8, filter_sizes=(2, 3, 5),
                              filters_per_size=12, n_segments=6)
        model = build_model(config, dtype=dtype)
        rng = np.random.default_rng(3)
        calls, batches = [], []
        trunks, bilstm_forward = TagModel.trunks, model_module.bilstm_forward
        monkeypatch.setattr(TagModel, "trunks", lambda self, inputs: calls.append(1) or trunks(self, inputs))
        monkeypatch.setattr(model_module, "bilstm_forward",
                            lambda flow, fwd, bwd: batches.append(np.shape(flow)) or bilstm_forward(flow, fwd, bwd))
        one_flow = [(1, 6, 10)] if config.uses_flow else []
        for tokens in fuzzed_token_lists(rng, 24, config.seq_len, config.vocab_size + 2):
            flow = 100.0 * rng.random((6, 10)) if config.uses_flow else None
            with Tape() as tape:
                taped = model.forward(tokens, flow).data
            assert len(tape) > 0 and not calls
            batches.clear()
            free = model.forward(tokens, flow)
            assert free.tape is None and len(calls) == 1 and batches == one_flow
            assert free.data.tobytes() == taped.tobytes(), tokens
            calls.clear()
        for p in model.parameters().values():
            p.requires_grad = False
        batches.clear()
        with Tape() as tape:
            frozen = model.forward(tokens, flow)
        assert len(tape) == 0 and len(calls) == 1 and batches == one_flow
        assert frozen.data.tobytes() == taped.tobytes()

    def test_trunk_refused_while_a_tape_records(self):
        model = build_model(small_config())
        tokens, flow = random_inputs(model.config)
        (trunk,) = model.trunks([(tokens, flow)])
        assert trunk.shape == (8 + 12,)
        with Tape(), pytest.raises(ValueError, match="no tape records"):
            model.forward(tokens, flow, trunk=trunk)
        with pytest.raises(ValueError, match=r"trunk of shape \(19,\) != \(20,\)"):
            model.forward(tokens, flow, trunk=trunk[:19])
        with pytest.raises(ValueError, match="emotion flow shape"):
            model.forward(tokens, flow[:3], trunk=trunk)
        with Tape(), pytest.raises(ValueError, match="no gradient"):
            next(model.trunks([(tokens, flow)]))

    def test_trunks_check_their_input(self):
        model = build_model(small_config())
        tokens, flow = random_inputs(model.config)
        assert [t.shape for t in model.trunks([(tokens, flow), (tokens, flow)])] == [(20,), (20,)]
        with pytest.raises(ValueError, match="at least one"):
            next(model.trunks([]))
        # every input is checked before the first trunk
        for bad in (flow[0], flow[:3], np.zeros((4, 9)), None):
            with pytest.raises(ValueError, match="emotion flow"):
                next(model.trunks([(tokens, flow), (tokens, bad)]))
        with pytest.raises(ValueError, match=r"token sequence shape \(15,\) != \(16,\)"):
            next(model.trunks([(tokens[:15], flow)]))
        with pytest.raises(ValueError, match="does not take an emotion flow"):
            next(build_model(small_config(variant="cnn")).trunks([(tokens, flow)]))

    def test_dropout_perturbs_training_forward(self):
        config = small_config()
        model = build_model(config)
        tokens, flow = random_inputs(config)
        eval_out = model.forward(tokens, flow=flow).data
        train_out = model.forward(tokens, flow=flow, dropout_rng=np.random.default_rng(1)).data
        assert not np.array_equal(eval_out, train_out)

    def test_same_dropout_seed_reproduces_training_forward(self):
        config = small_config()
        model = build_model(config)
        tokens, flow = random_inputs(config)
        a = model.forward(tokens, flow=flow, dropout_rng=np.random.default_rng(7)).data.copy()
        b = model.forward(tokens, flow=flow, dropout_rng=np.random.default_rng(7)).data
        npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", ["cnn", "cnn_fe"])
    def test_gradcheck_of_every_coordinate(self, variant):
        """Every parameter coordinate of a reduced float64 model, through the
        class-weighted KL, on left-padded tokens that repeat within a conv
        window (5 _ 5) and across windows (the bigrams 5 3 and 7 2)."""
        config = small_config(variant=variant, vocab_size=8, seq_len=14, embed_dim=3, filters_per_size=3,
                              n_segments=3, lstm_units=2, dense_sizes=(5, 4), n_tags=4, dropout=0.0)
        model = build_model(config, dtype=np.float64)
        tokens = np.array([0, 0, 0, 0, 5, 3, 5, 3, 7, 2, 7, 2, 5, 1])
        rng = np.random.default_rng(3)
        flow = 100.0 * rng.random((config.n_segments, 10)) if config.uses_flow else None
        target = constant(rng.dirichlet(np.ones(config.n_tags)))
        weights = ClassWeights(n_examples=10, tag_counts=(1, 2, 3, 4)).weights
        params = list(model.parameters().values())
        gradcheck(lambda: kl_divergence(target, model.forward(tokens, flow), weights=weights), params,
                  samples=max(p.data.size for p in params))


class TestPredictTopK:
    def test_uniform_ties_break_by_ascending_index(self):
        assert predict_top_k(np.full(71, 1.0 / 71.0), 3) == [0, 1, 2]

    def test_peak_comes_first(self):
        probs = np.full(6, 0.1)
        probs[4] = 0.5
        assert predict_top_k(probs, 5) == [4, 0, 1, 2, 3]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            probs = rng.random(n).round(2)  # rounding forces frequent ties
            k = int(rng.integers(1, n + 1))
            expected = sorted(range(n), key=lambda i: (-probs[i], i))[:k]
            assert predict_top_k(probs, k) == expected

    def test_tensor_input_and_tag_names(self, toy_corpus_records):
        from tagflow.corpus import TagVocabulary
        tv = TagVocabulary(["alpha", "beta", "gamma"])
        probs = Tensor(np.array([0.2, 0.5, 0.3]))
        assert predict_top_k(probs, 2, tag_vocab=tv) == ["beta", "gamma"]

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            predict_top_k(np.ones(3) / 3, 0)
        with pytest.raises(ValueError):
            predict_top_k(np.ones(3) / 3, 4)


class TestPretrainedEmbeddings:
    @staticmethod
    def setup_pair():
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        embedding = Embedding(vocab.size + 2, 3, np.random.default_rng(0))
        return vocab, embedding

    def test_full_coverage_replaces_exact_rows(self, tmp_path):
        vocab, emb = self.setup_pair()
        path = tmp_path / "vec.txt"
        path.write_text("alpha 1 2 3\nbeta 4 5 6\ngamma 7 8 9\n", encoding="utf-8")
        coverage = load_pretrained_embeddings(path, vocab, emb)
        assert coverage == 1.0
        npt.assert_array_equal(emb.table.data[vocab.index("alpha")], [1, 2, 3])
        npt.assert_array_equal(emb.table.data[vocab.index("gamma")], [7, 8, 9])
        npt.assert_array_equal(emb.table.data[0], np.zeros(3, dtype=np.float32))

    def test_count_dim_header_skipped(self, tmp_path):
        vocab, emb = self.setup_pair()
        path = tmp_path / "vec.txt"
        path.write_text("3 3\nalpha 1 2 3\n", encoding="utf-8")
        assert load_pretrained_embeddings(path, vocab, emb) == pytest.approx(1.0 / 3.0)

    def test_header_dimension_mismatch_rejected(self, tmp_path):
        vocab, emb = self.setup_pair()
        path = tmp_path / "vec.txt"
        path.write_text("100 300\nalpha 1 2 3\n", encoding="utf-8")
        with pytest.raises(DataError, match="300"):
            load_pretrained_embeddings(path, vocab, emb)

    def test_wrong_vector_width_reports_line(self, tmp_path):
        vocab, emb = self.setup_pair()
        path = tmp_path / "vec.txt"
        path.write_text("alpha 1 2 3\nbeta 4 5\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_pretrained_embeddings(path, vocab, emb)

    def test_non_numeric_component_reports_line(self, tmp_path):
        vocab, emb = self.setup_pair()
        path = tmp_path / "vec.txt"
        path.write_text("alpha 1 two 3\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_pretrained_embeddings(path, vocab, emb)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_component_reports_line(self, value, tmp_path):
        vocab, emb = self.setup_pair()
        path = tmp_path / "vec.txt"
        path.write_text(f"alpha 1 2 3\nbeta 4 {value} 6\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: non-finite vector component$"):
            load_pretrained_embeddings(path, vocab, emb)

    def test_out_of_vocabulary_words_ignored(self, tmp_path):
        vocab, emb = self.setup_pair()
        before = emb.table.data.copy()
        path = tmp_path / "vec.txt"
        path.write_text("zzz 1 2 3\nqqq 4 5 6\n", encoding="utf-8")
        assert load_pretrained_embeddings(path, vocab, emb) == 0.0
        npt.assert_array_equal(emb.table.data, before)

    def test_duplicate_word_counts_once_and_last_wins(self, tmp_path):
        vocab, emb = self.setup_pair()
        path = tmp_path / "vec.txt"
        path.write_text("alpha 1 2 3\nalpha 9 9 9\n", encoding="utf-8")
        assert load_pretrained_embeddings(path, vocab, emb) == pytest.approx(1.0 / 3.0)
        npt.assert_array_equal(emb.table.data[vocab.index("alpha")], [9, 9, 9])

    def test_empty_file_covers_nothing(self, tmp_path):
        vocab, emb = self.setup_pair()
        path = tmp_path / "vec.txt"
        path.write_text("", encoding="utf-8")
        assert load_pretrained_embeddings(path, vocab, emb) == 0.0
