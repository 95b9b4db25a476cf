"""Layer mechanics: init, conv bank, LSTM cell, attention, class weights."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import make_record, reference_bilstm, total
from tagflow import layers
from tagflow.autodiff import (
    Tape,
    Tensor,
    backward,
    constant,
    gradcheck,
    mul,
    window_max_pool,
)
from tagflow.corpus import TagVocabulary
from tagflow.errors import DataError
from tagflow.layers import (
    Attention,
    ClassWeights,
    ConvBank,
    Dense,
    Embedding,
    LstmCell,
    attention_forward,
    bilstm_forward,
    compute_class_weights,
    conv_bank_forward,
    glorot_uniform,
)


class TestGlorotUniform:
    def test_bounds_and_default_shape(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, 300, 100)
        limit = math.sqrt(6.0 / 400)
        assert w.shape == (300, 100)
        assert (np.abs(w) <= limit).all()
        assert np.abs(w).max() > 0.9 * limit  # actually spans the range

    def test_same_seed_same_draw(self):
        a = glorot_uniform(np.random.default_rng(7), 10, 10)
        b = glorot_uniform(np.random.default_rng(7), 10, 10)
        npt.assert_array_equal(a, b)


class TestEmbedding:
    def test_padding_row_starts_at_zero(self):
        emb = Embedding(12, 4, np.random.default_rng(0))
        npt.assert_array_equal(emb.table.data[0], np.zeros(4, dtype=np.float32))
        assert np.abs(emb.table.data[1:]).max() > 0

    def test_lookup_returns_table_rows(self):
        emb = Embedding(12, 4, np.random.default_rng(0))
        indices = np.array([3, 0, 7, 3])
        out = emb.lookup(indices)
        npt.assert_array_equal(out.data, emb.table.data[indices])

    def test_reset_padding_row_restores_zero(self):
        emb = Embedding(12, 4, np.random.default_rng(0))
        emb.table.data[0] = 1.5
        emb.reset_padding_row()
        npt.assert_array_equal(emb.table.data[0], np.zeros(4, dtype=np.float32))
        assert np.abs(emb.table.data[1:]).max() > 0  # other rows untouched

    def test_gradient_reaches_gathered_rows(self):
        emb = Embedding(6, 3, np.random.default_rng(0), dtype=np.float64)
        indices = np.array([2, 4, 2])
        gradcheck(lambda: total(emb.lookup(indices)), [emb.table])


def _left_padded(seq_len, n_real):
    """Token ids for ``seq_len`` rows whose last ``n_real`` are real: pad ids, then 1, 2, ..."""
    tokens = np.zeros(seq_len, dtype=np.intp)
    tokens[seq_len - n_real:] = np.arange(1, n_real + 1)
    return tokens


class TestConvBank:
    def test_output_dim_counts_all_widths(self):
        bank = ConvBank((2, 3, 4, 5), 1024, 300, np.random.default_rng(0))
        assert bank.output_dim == 4096
        assert set(bank.parameters()) == {"w2", "b2", "w3", "b3", "w4", "b4", "w5", "b5"}
        assert bank.weights[3].data.shape == (900, 1024)
        assert bank.biases[3].data.shape == (1, 1024)

    def test_hand_computed_single_filter(self):
        bank = ConvBank((2,), 1, 2, np.random.default_rng(0))
        bank.weights[2].data[:] = np.array([[0.5], [-0.25], [1.0], [0.5]], dtype=np.float32)
        bank.biases[2].data[:] = -6.0
        x = constant(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        # window dots: (1,2,3,4) -> 5.0 and (3,4,5,6) -> 8.5; relu(. - 6) -> (0, 2.5)
        out = conv_bank_forward(x, bank, tokens=[1, 2, 3])
        npt.assert_allclose(out.data, [2.5], rtol=1e-6)

    def test_output_is_concat_in_declared_width_order(self):
        rng = np.random.default_rng(3)
        bank = ConvBank((2, 3), 4, 5, rng)
        x = constant(rng.standard_normal((9, 5)).astype(np.float32))
        out = conv_bank_forward(x, bank, tokens=np.arange(1, 10))
        assert out.data.shape == (8,)
        solo2 = ConvBank((2,), 4, 5, np.random.default_rng(0))
        solo2.weights[2], solo2.biases[2] = bank.weights[2], bank.biases[2]
        npt.assert_array_equal(out.data[:4], conv_bank_forward(x, solo2, tokens=np.arange(1, 10)).data)

    def test_all_padding_input_yields_relu_bias(self):
        bank = ConvBank((2,), 3, 4, np.random.default_rng(1))
        bank.biases[2].data[:] = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        out = conv_bank_forward(constant(np.zeros((6, 4), dtype=np.float32)), bank, tokens=np.zeros(6, int))
        npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sequence_shorter_than_largest_filter_rejected(self):
        bank = ConvBank((2, 5), 3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="5"):
            conv_bank_forward(constant(np.zeros((4, 4), dtype=np.float32)), bank, tokens=np.zeros(4, int))

    def test_embedding_width_mismatch_rejected(self):
        bank = ConvBank((2,), 3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="width"):
            conv_bank_forward(constant(np.zeros((6, 5), dtype=np.float32)), bank, tokens=np.zeros(6, int))

    def test_tokens_that_do_not_match_the_rows_rejected(self):
        bank = ConvBank((2,), 3, 4, np.random.default_rng(0))
        x = constant(np.zeros((6, 4), dtype=np.float32))
        for tokens in (np.zeros(5, int), np.zeros(7, int), np.zeros((6, 1), int)):
            with pytest.raises(ValueError, match="tokens"):
                conv_bank_forward(x, bank, tokens=tokens)

    def test_gradcheck_all_widths(self):
        rng = np.random.default_rng(5)
        bank = ConvBank((2, 3), 3, 4, rng, dtype=np.float64)
        x = constant(rng.standard_normal((7, 4)))
        params = list(bank.parameters().values())
        gradcheck(lambda: total(conv_bank_forward(x, bank, tokens=np.arange(1, 8))), params, np.random.default_rng(0))

    def test_gradcheck_through_the_embedded_input(self):
        rng = np.random.default_rng(6)
        bank = ConvBank((2, 3), 3, 4, rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((7, 4)), requires_grad=True, dtype=np.float64)
        g = constant(rng.normal(size=6))
        params = [x, *bank.parameters().values()]
        # every row its own token: perturbing one copy of a repeated token would break the contract
        gradcheck(lambda: total(mul(conv_bank_forward(x, bank, tokens=np.arange(1, 8)), g)), params,
                  np.random.default_rng(0), samples=10)

    def test_records_two_tape_nodes_per_filter_width(self):
        rng = np.random.default_rng(9)
        bank = ConvBank((2, 3, 5), 4, 3, rng)
        x = Tensor(rng.standard_normal((9, 3)), requires_grad=True)
        with Tape() as tape:
            conv_bank_forward(x, bank, tokens=np.arange(1, 10))
        assert len(tape) == 2 * 3 + 1  # windows and window_max_pool per width, one concat

    def test_winning_all_padding_window_trains_only_the_bias(self):
        bank = ConvBank((2,), 2, 3, np.random.default_rng(2), dtype=np.float64)
        bank.weights[2].data[:] = -np.abs(bank.weights[2].data)
        bank.biases[2].data[:] = [[0.5, -0.5]]
        x = Tensor(np.zeros((6, 3)), requires_grad=True, dtype=np.float64)
        x.data[3:] = np.abs(np.random.default_rng(3).standard_normal((3, 3))) + 0.1
        # every window touching a real row scores < 0, so the first all-padding window wins
        with Tape():
            out = conv_bank_forward(x, bank, tokens=[0, 0, 0, 1, 2, 3])
            loss = total(mul(out, constant([3.0, 4.0])))
        backward(loss)
        npt.assert_array_equal(out.data, [0.5, 0.0])
        npt.assert_array_equal(bank.biases[2].grad, [[3.0, 0.0]])
        npt.assert_array_equal(bank.weights[2].grad, 0.0)
        w = bank.weights[2].data
        npt.assert_array_equal(x.grad[:2], 3.0 * w[:, 0].reshape(2, 3))
        npt.assert_array_equal(x.grad[2:], 0.0)

    # (real rows of 12, sign of real rows and weights: +1, -1 or 0 for mixed)
    @pytest.mark.parametrize("n_real, sign", [
        (12, 0),   # no padding
        (12, -1),  # no padding, every window scores < 0: no zero candidate
        (10, 0),   # 2 pad rows: fewer than c - 1 for width 5
        (5, -1),   # every window touching a real row scores < 0: relu(b) wins
        (5, 1),    # every window touching a real row scores > 0
        (0, 0),    # all padding
        (3, 0),    # fewer real rows than the widest filter
        (7, -1),   # exactly as many pad rows as the widest filter: nothing to drop
        (6, -1),   # one more pad row than the widest filter: one row dropped
    ], ids=["no-padding", "no-padding-negative", "short-padding", "long-padding-negative",
            "long-padding-positive", "all-padding", "shorter-than-widest",
            "widest-padding-negative", "widest-plus-one-padding-negative"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tape_free_path_matches_taped_graph(self, n_real, sign, dtype):
        rng = np.random.default_rng(7)
        bank = ConvBank((2, 3, 5), 6, 4, rng, dtype=dtype)
        for b in bank.biases.values():
            b.data[:] = rng.normal(scale=3.0, size=(1, 6))
        x = np.zeros((12, 4), dtype=dtype)
        real = rng.standard_normal((n_real, 4))
        if sign:
            real = np.abs(real) + 0.1
            for w in bank.weights.values():
                w.data[:] = sign * np.abs(w.data)
        x[12 - n_real:] = real
        tokens = _left_padded(12, n_real)
        with Tape() as tape:
            taped = conv_bank_forward(constant(x, dtype=dtype), bank, tokens=tokens)
        assert len(tape) > 0
        free = conv_bank_forward(constant(x, dtype=dtype), bank, tokens=tokens)
        assert free.tape is None and free.dtype == dtype
        # the trimmed rows hold the same distinct tokens, so the bits agree
        npt.assert_array_equal(free.data, taped.data)
        if sign < 0:
            relu_b = np.maximum(np.concatenate([bank.biases[c].data[0] for c in bank.filter_sizes]), 0)
            if n_real < 12:
                npt.assert_array_equal(free.data, relu_b)
            else:
                assert (free.data <= relu_b).all() and (free.data < relu_b).any()

    # a pad lead of 5 (the widest filter) drops nothing, of 16 or 20 drops rows
    @pytest.mark.parametrize("n_real", [15, 4, 0])
    def test_only_a_tape_free_call_drops_leading_padding(self, n_real, monkeypatch):
        rng = np.random.default_rng(10)
        bank = ConvBank((2, 3, 5), 4, 3, rng)
        x = np.zeros((20, 3), dtype=np.float32)
        x[20 - n_real:] = rng.standard_normal((n_real, 3))
        window_rows = []

        def spy(xw, w, b, distinct):
            window_rows.append(xw.data.shape[0])
            return window_max_pool(xw, w, b, distinct)

        monkeypatch.setattr(layers, "window_max_pool", spy)
        conv_bank_forward(constant(x), bank, tokens=_left_padded(20, n_real))
        # n_real rows plus the widest filter's 5 pad rows
        assert window_rows == [n_real + 5 - c + 1 for c in bank.filter_sizes]
        window_rows.clear()
        with Tape():
            conv_bank_forward(constant(x), bank, tokens=_left_padded(20, n_real))
        assert window_rows == [20 - c + 1 for c in bank.filter_sizes]

    @pytest.mark.parametrize("taped", [False, True])
    def test_projects_one_row_per_distinct_kept_token(self, taped, monkeypatch):
        rng = np.random.default_rng(13)
        bank = ConvBank((2, 3, 5), 4, 3, rng)
        table = rng.standard_normal((10, 3)).astype(np.float32)
        table[0] = 0.0
        tokens = np.r_[np.zeros(9, dtype=np.intp), [3, 5, 3, 7, 5, 5, 9, 3, 1, 7, 7]]
        seen = []

        def spy(xw, w, b, distinct):
            seen.append(distinct)
            return window_max_pool(xw, w, b, distinct)

        monkeypatch.setattr(layers, "window_max_pool", spy)
        with Tape() if taped else contextlib.nullcontext():
            conv_bank_forward(Tensor(table[tokens], requires_grad=taped), bank, tokens=tokens)
        # a tape-free call keeps the widest filter's 5 pad rows of the 9
        kept = tokens if taped else tokens[4:]
        assert len(seen) == 3 and all(d is seen[0] for d in seen)
        rows, inverse = seen[0]
        assert rows.shape == (6, 3)  # the pad id and 1, 3, 5, 7, 9
        npt.assert_array_equal(rows[inverse], table[kept])

    @pytest.mark.parametrize("taped", [False, True])
    def test_nan_embedding_row_makes_every_filter_nan(self, taped):
        rng = np.random.default_rng(11)
        bank = ConvBank((2, 3), 4, 5, rng)
        x = np.zeros((12, 5), dtype=np.float32)
        x[4:] = rng.standard_normal((8, 5))
        x[8, 2] = np.nan
        # every filter scores every window, and the windows over row 8 score NaN
        with Tape() if taped else contextlib.nullcontext():
            out = conv_bank_forward(Tensor(x, requires_grad=taped), bank, tokens=_left_padded(12, 8))
        assert (out.tape is not None) == taped
        assert np.isnan(out.data).all()

    def test_negative_zero_rows_give_the_same_outputs(self):
        rng = np.random.default_rng(12)
        bank = ConvBank((2, 3, 5), 6, 4, rng)
        x = np.zeros((16, 4), dtype=np.float32)
        x[6:] = rng.standard_normal((10, 4))
        x[9, 1] = x[12, :2] = 0.0
        signed = x.copy()
        signed[:6:2] = -0.0  # padding rows of both signs, distinct as bytes
        signed[9, 1] = signed[12, 0] = -0.0
        assert signed.tobytes() != x.tobytes()
        tokens = _left_padded(16, 10)
        expected = conv_bank_forward(constant(x), bank, tokens=tokens).data
        npt.assert_array_equal(conv_bank_forward(constant(signed), bank, tokens=tokens).data, expected)
        with Tape():
            taped = conv_bank_forward(Tensor(signed, requires_grad=True), bank, tokens=tokens)
        npt.assert_array_equal(taped.data, expected)

    def test_tape_free_path_records_nothing_under_an_active_tape(self):
        rng = np.random.default_rng(8)
        bank = ConvBank((2, 3), 4, 5, rng)
        x = constant(rng.standard_normal((9, 5)).astype(np.float32))
        expected = conv_bank_forward(x, bank, tokens=np.arange(1, 10)).data
        for p in bank.parameters().values():
            p.requires_grad = False
        with Tape() as tape:
            out = conv_bank_forward(x, bank, tokens=np.arange(1, 10))
        assert len(tape) == 0 and out.tape is None
        npt.assert_array_equal(out.data, expected)


class TestLstmCell:
    def test_parameter_set_matches_gate_structure(self):
        cell = LstmCell(10, 16, np.random.default_rng(0))
        names = set(cell.parameters())
        assert names == {"W_si", "W_hi", "W_ci", "b_i", "W_sf", "W_hf", "W_cf", "b_f",
                         "W_sc", "W_hc", "b_c", "W_so", "W_ho", "b_o"}
        assert cell.W_ci.data.shape == (16, 16)
        assert cell.W_si.data.shape == (10, 16)
        assert cell.b_f.data[0, 0] == 1.0
        assert cell.b_i.data[0, 0] == 0.0

    # The cell's behaviour is read through bilstm_forward with the cell in
    # both directions: the forward half of row t is h_{t+1} of one cell run.
    def test_zero_input_and_state_stay_zero(self):
        cell = LstmCell(10, 16, np.random.default_rng(2))
        # two steps: a nonzero c_1 would show in h_2
        states, final = bilstm_forward(np.zeros((2, 10), dtype=np.float32), cell, cell)
        npt.assert_array_equal(states.data, np.zeros((2, 32), dtype=np.float32))
        npt.assert_array_equal(final.data, np.zeros((1, 32), dtype=np.float32))

    def test_hidden_state_is_bounded(self):
        rng = np.random.default_rng(3)
        cell = LstmCell(10, 16, rng)
        flow = (100.0 * rng.random((30, 10))).astype(np.float32)
        states, final = bilstm_forward(flow, cell, cell)
        # strict in exact arithmetic; float32 saturates to 1 at this scale
        assert np.abs(states.data).max() <= 1.0
        assert np.abs(final.data).max() <= 1.0

    def test_cell_state_feeds_input_and_forget_gates(self):
        rng = np.random.default_rng(4)
        cell = LstmCell(3, 4, rng)
        x1 = rng.standard_normal((1, 3)).astype(np.float32)
        x2 = rng.standard_normal((1, 3)).astype(np.float32)

        def second_step():
            states, _ = bilstm_forward(np.concatenate([x1, x2]), cell, cell)
            return states.data[1, :4].copy()

        base = second_step()
        for peephole in (cell.W_ci, cell.W_cf):
            saved = peephole.data.copy()
            peephole.data[:] = 0.0
            assert np.abs(second_step() - base).max() > 0
            peephole.data[:] = saved

    def test_gradcheck_through_two_steps(self):
        rng = np.random.default_rng(6)
        cell = LstmCell(10, 16, rng, dtype=np.float64)
        flow = np.concatenate([rng.standard_normal((1, 10)), rng.standard_normal((1, 10))])

        def loss():
            states, final = bilstm_forward(flow, cell, cell)
            return total(states) + total(final)

        gradcheck(loss, list(cell.parameters().values()), np.random.default_rng(1), samples=4)


class TestBilstm:
    def test_single_step_final_equals_states(self):
        rng = np.random.default_rng(0)
        fwd, bwd = LstmCell(10, 4, rng), LstmCell(10, 4, rng)
        states, final = bilstm_forward(rng.standard_normal((1, 10)).astype(np.float32), fwd, bwd)
        assert states.data.shape == (1, 8)
        npt.assert_array_equal(final.data, states.data)

    def test_final_takes_each_directions_last_state(self):
        rng = np.random.default_rng(1)
        fwd, bwd = LstmCell(10, 4, rng), LstmCell(10, 4, rng)
        states, final = bilstm_forward(rng.standard_normal((6, 10)).astype(np.float32), fwd, bwd)
        assert states.data.shape == (6, 8)
        npt.assert_array_equal(final.data[0, :4], states.data[-1, :4])
        npt.assert_array_equal(final.data[0, 4:], states.data[0, 4:])

    def test_direction_swap_on_reversed_input(self):
        rng = np.random.default_rng(2)
        a, b = LstmCell(10, 4, rng), LstmCell(10, 4, rng)
        flow = rng.standard_normal((5, 10)).astype(np.float32)
        states, final = bilstm_forward(flow, a, b)
        states_r, final_r = bilstm_forward(flow[::-1], b, a)
        swapped = np.concatenate([states_r.data[::-1, 4:], states_r.data[::-1, :4]], axis=1)
        npt.assert_array_equal(states.data, swapped)
        npt.assert_array_equal(final.data, np.concatenate([final_r.data[:, 4:], final_r.data[:, :4]], axis=1))

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bilstm_forward(np.zeros((0, 10), dtype=np.float32),
                           LstmCell(10, 4, rng), LstmCell(10, 4, rng))

    def test_gradcheck_states_and_final(self):
        rng = np.random.default_rng(8)
        fwd = LstmCell(10, 3, rng, dtype=np.float64)
        bwd = LstmCell(10, 3, rng, dtype=np.float64)
        flow = rng.standard_normal((4, 10))
        params = list(fwd.parameters().values()) + list(bwd.parameters().values())

        def loss():
            states, final = bilstm_forward(flow, fwd, bwd)
            return total(states) + total(final)

        gradcheck(loss, params, np.random.default_rng(2), samples=3)

    def test_gates_stable_at_extremes(self):
        rng = np.random.default_rng(9)
        fwd, bwd = LstmCell(10, 4, rng), LstmCell(10, 4, rng)
        flow = np.concatenate([np.full((3, 10), 1e4), np.full((3, 10), -1e4)]).astype(np.float32)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            states, final = bilstm_forward(flow, fwd, bwd)
        assert np.isfinite(states.data).all() and np.abs(states.data).max() <= 1.0


def _cells(seed, n_in=10, hidden=16, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return LstmCell(n_in, hidden, rng, dtype), LstmCell(n_in, hidden, rng, dtype)


def _lstm_params(fwd, bwd):
    return list(fwd.parameters().values()) + list(bwd.parameters().values())


class TestFusedBilstm:
    """The fused node against the per-step graph in ``helpers.reference_bilstm``."""

    @staticmethod
    def _run(forward, flow, fwd, bwd, coef_states, coef_final):
        params = _lstm_params(fwd, bwd)
        for p in params:
            p.zero_grad()
        with Tape():
            states, final = forward(flow, fwd, bwd)
            loss = total(mul(states, constant(coef_states))) + total(mul(final, constant(coef_final)))
        backward(loss)
        return states.data, final.data, [p.grad.copy() for p in params]

    def test_matches_per_step_graph_in_float32(self):
        fwd, bwd = _cells(0)
        rng = np.random.default_rng(1)
        flow = rng.random((20, 10)).astype(np.float32)
        coef_states = rng.standard_normal((20, 32)).astype(np.float32)
        coef_final = rng.standard_normal((1, 32)).astype(np.float32)
        states, final, grads = self._run(bilstm_forward, flow, fwd, bwd, coef_states, coef_final)
        ref_states, ref_final, ref_grads = self._run(reference_bilstm, flow, fwd, bwd, coef_states, coef_final)
        npt.assert_allclose(states, ref_states, rtol=0, atol=1e-6)
        npt.assert_allclose(final, ref_final, rtol=0, atol=1e-6)
        assert len(grads) == 28
        scale = max(np.abs(g).max() for g in ref_grads)
        for g, ref in zip(grads, ref_grads):
            npt.assert_allclose(g, ref, rtol=0, atol=1e-6 * scale)
            assert np.abs(ref).max() > 0  # every parameter is reached

    def test_records_at_most_three_tape_nodes(self):
        fwd, bwd = _cells(2)
        flow = np.random.default_rng(3).random((20, 10)).astype(np.float32)
        with Tape() as tape:
            bilstm_forward(flow, fwd, bwd)
        assert 1 <= len(tape) <= 3

    def test_tape_free_call_matches_taped(self):
        fwd, bwd = _cells(4)
        flow = np.random.default_rng(5).random((20, 10)).astype(np.float32)
        free_states, free_final = bilstm_forward(flow, fwd, bwd)
        with Tape():
            states, final = bilstm_forward(flow, fwd, bwd)
        npt.assert_array_equal(free_states.data, states.data)
        npt.assert_array_equal(free_final.data, final.data)

    @pytest.mark.parametrize("case", ["one_step", "zero_flow", "saturated"])
    def test_gradcheck(self, case):
        fwd, bwd = _cells(10, hidden=3, dtype=np.float64)
        rng = np.random.default_rng(11)
        flow = {
            "one_step": rng.standard_normal((1, 10)),
            "zero_flow": np.zeros((5, 10)),
            "saturated": 100.0 * rng.standard_normal((5, 10)),
        }[case]

        def loss():
            states, final = bilstm_forward(flow, fwd, bwd)
            return total(states) + total(final)

        # a W_s step of h moves a pre-activation by h * |flow|, so shrink h by
        # the flow's scale to keep the central difference's error small
        h = 1e-3 / max(1.0, np.abs(flow).max())
        gradcheck(loss, _lstm_params(fwd, bwd), np.random.default_rng(12), samples=3, h=h)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradcheck_at_the_flow_scale(self, seed):
        # Percentages up to 100, as real flows are, with a step h = 1e-3 for
        # every coordinate: a plain central difference's h**2 error fails
        # this check; the Richardson-extrapolated one passes.
        rng = np.random.default_rng(seed)
        fwd, bwd = LstmCell(10, 4, rng, np.float64), LstmCell(10, 4, rng, np.float64)
        flow = rng.uniform(0, 1, (6, 10)) * 100

        def loss():
            states, _ = bilstm_forward(flow, fwd, bwd)
            return total(mul(states, states))

        gradcheck(loss, _lstm_params(fwd, bwd), np.random.default_rng(seed))

    def test_gradcheck_weights_every_row_of_states_and_final(self):
        fwd, bwd = _cells(13, hidden=3, dtype=np.float64)
        rng = np.random.default_rng(14)
        flow = rng.standard_normal((6, 10))
        coef_states = constant(rng.standard_normal((6, 6)))
        coef_final = constant(rng.standard_normal((1, 6)))

        def loss():
            states, final = bilstm_forward(flow, fwd, bwd)
            return total(mul(states, coef_states)) + total(mul(final, coef_final))

        gradcheck(loss, _lstm_params(fwd, bwd), np.random.default_rng(15), samples=4)

    def test_mismatched_cells_rejected(self):
        rng = np.random.default_rng(17)
        flow = np.zeros((3, 10), dtype=np.float32)
        with pytest.raises(ValueError, match="shape mismatch"):
            bilstm_forward(flow, LstmCell(10, 4, rng), LstmCell(10, 5, rng))
        with pytest.raises(ValueError, match="shape mismatch"):
            bilstm_forward(np.zeros((3, 9), dtype=np.float32), LstmCell(10, 4, rng), LstmCell(10, 4, rng))


class TestAttention:
    def test_single_state_gets_full_weight(self):
        rng = np.random.default_rng(0)
        layer = Attention(6, 3, rng)
        states = constant(rng.standard_normal((1, 6)).astype(np.float32))
        r, weights = attention_forward(states, layer)
        npt.assert_array_equal(weights.data, [1.0])
        npt.assert_allclose(r.data, states.data[0], rtol=1e-6)

    def test_identical_states_weighted_uniformly(self):
        rng = np.random.default_rng(1)
        layer = Attention(6, 3, rng)
        row = rng.standard_normal((1, 6)).astype(np.float32)
        states = constant(np.repeat(row, 5, axis=0))
        r, weights = attention_forward(states, layer)
        npt.assert_allclose(weights.data, np.full(5, 0.2), rtol=1e-6)
        npt.assert_allclose(r.data, row[0], rtol=1e-5)

    def test_matches_plain_numpy_reimplementation(self):
        rng = np.random.default_rng(2)
        layer = Attention(32, 32, rng, dtype=np.float64)
        states = rng.standard_normal((5, 32))
        r, weights = attention_forward(constant(states), layer)

        scores = np.tanh(states @ layer.W_a.data + layer.b_a.data) @ layer.v.data
        e = np.exp(scores[:, 0] - scores[:, 0].max())
        alpha = e / e.sum()
        npt.assert_allclose(weights.data, alpha, rtol=1e-12)
        npt.assert_allclose(r.data, alpha @ states, rtol=1e-12)

    def test_weights_form_a_distribution(self):
        rng = np.random.default_rng(3)
        layer = Attention(8, 4, rng)
        for n in (2, 7, 20):
            _, weights = attention_forward(constant(rng.standard_normal((n, 8)).astype(np.float32)), layer)
            assert weights.data.shape == (n,)
            assert (weights.data >= 0).all()
            assert abs(weights.data.sum() - 1.0) < 1e-6

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        layer = Attention(5, 4, rng, dtype=np.float64)
        states = constant(rng.standard_normal((6, 5)))
        gradcheck(lambda: total(attention_forward(states, layer)[0]),
                  list(layer.parameters().values()), np.random.default_rng(3))


class TestDense:
    def test_identity_forward(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, rng)
        layer.weight.data[:] = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        layer.bias.data[:] = np.array([[0.5, -0.5]], dtype=np.float32)
        out = layer.forward(constant(np.array([[1.0, 2.0, 3.0]], dtype=np.float32)))
        npt.assert_allclose(out.data, [[4.5, 4.5]])

    def test_relu_clamps_negative_preactivations(self):
        rng = np.random.default_rng(0)
        layer = Dense(2, 2, rng, activation="relu")
        layer.weight.data[:] = np.eye(2, dtype=np.float32)
        layer.bias.data[:] = np.array([[0.0, -10.0]], dtype=np.float32)
        out = layer.forward(constant(np.array([[3.0, 4.0]], dtype=np.float32)))
        npt.assert_allclose(out.data, [[3.0, 0.0]])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="sigmoid"):
            Dense(2, 2, np.random.default_rng(0), activation="sigmoid")

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        layer = Dense(5, 3, rng, dtype=np.float64)
        x = constant(rng.standard_normal((1, 5)))
        gradcheck(lambda: total(layer.forward(x)),
                  [layer.weight, layer.bias], np.random.default_rng(4))


class TestClassWeights:
    def test_single_count_substitution(self):
        cw = ClassWeights(n_examples=71, tag_counts=(1,) * 71)
        npt.assert_allclose(cw.weights, np.ones(71))

    def test_full_scale_value(self):
        counts = [100] * 71
        cw = ClassWeights(n_examples=11862, tag_counts=tuple(counts))
        npt.assert_allclose(cw.weights, np.full(71, 11862.0 / 7100.0), rtol=1e-15)

    def test_rarer_tags_weigh_more(self):
        cw = ClassWeights(n_examples=100, tag_counts=(10, 50, 100))
        assert cw.weights[0] > cw.weights[1] > cw.weights[2]
        # weight * n_tags * count recovers n_examples exactly
        npt.assert_allclose(cw.weights * 3 * np.array([10, 50, 100]), 100.0, rtol=1e-15)

    def test_zero_count_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ClassWeights(n_examples=5, tag_counts=(1, 0, 2))

    def test_n_tags(self):
        assert ClassWeights(3, (1, 1, 1, 1)).n_tags == 4


class TestComputeClassWeights:
    def test_hand_counted_example(self):
        records = [make_record("a", "x", ["ta", "tb"]),
                   make_record("b", "x", ["tb"]),
                   make_record("c", "x", ["tb", "tc"])]
        cw = compute_class_weights(records, TagVocabulary(["ta", "tb", "tc"]))
        assert cw.n_examples == 3
        assert cw.tag_counts == (1, 3, 1)
        npt.assert_allclose(cw.weights, [1.0, 1.0 / 3.0, 1.0], rtol=1e-15)

    def test_tags_outside_vocabulary_ignored(self):
        records = [make_record("a", "x", ["ta", "stray"]), make_record("b", "x", ["ta"])]
        cw = compute_class_weights(records, TagVocabulary(["ta"]))
        assert cw.tag_counts == (2,)

    def test_absent_tag_named_in_error(self):
        records = [make_record("a", "x", ["ta"])]
        with pytest.raises(DataError, match="tb"):
            compute_class_weights(records, TagVocabulary(["ta", "tb"]))
