"""Neural layers built on the autodiff engine.

Everything flows as row-major 2-D matrices: a sequence is (T, dim), a
single hidden state is (1, dim), and weight matrices are stored
(fan_in, fan_out) so application is ``x @ W + b``.  Layers hold their
parameters as grad-requiring tensors and expose them through
``parameters()`` as a flat name -> Tensor mapping.

Initialization: matrices are uniform in +-sqrt(6 / (fan_in + fan_out)),
biases start at zero except the LSTM forget-gate bias, which starts at +1
to keep early memory open.  Each layer draws from the ``rng`` it is given;
with ``rng=None`` it draws nothing and every parameter is an unfilled
stand-in of its shape (see ``_unfilled``), for a checkpoint to fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    _grad_buffer,
    _make,
    concat,
    constant,
    embedding_gather,
    kl_divergence,  # noqa: F401 -- not called here; perfbench's tracer patches it in this module
    recording,
    relu,
    reshape,
    softmax_last_axis,
    tanh,
    window_max_pool,
    windows,
)
from .corpus import PAD_INDEX
from .errors import DataError


def glorot_uniform(rng, fan_in, fan_out):
    """A (fan_in, fan_out) matrix uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _unfilled(shape, dtype):
    """A read-only, zero-strided array of ``shape`` that holds no memory."""
    try:
        return np.broadcast_to(np.zeros((), dtype), shape)
    except ValueError:  # numpy's "iterator is too large"
        raise ValueError(f"a parameter of shape {shape} has more elements than an array can index") from None


def _param(rng, fan_in, fan_out, dtype):
    data = _unfilled((fan_in, fan_out), dtype) if rng is None else glorot_uniform(rng, fan_in, fan_out)
    return Tensor(data, requires_grad=True, dtype=dtype)


def _bias(rng, width, dtype, fill=0.0):
    data = _unfilled((1, width), dtype) if rng is None else np.full((1, width), fill)
    return Tensor(data, requires_grad=True, dtype=dtype)


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
        if rng is not None:
            self.reset_padding_row()

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
            self.biases[c] = _bias(rng, n_filters, dtype)

    @property
    def output_dim(self):
        return len(self.filter_sizes) * self.n_filters

    def parameters(self):
        out = {}
        for c in self.filter_sizes:
            out[f"w{c}"] = self.weights[c]
            out[f"b{c}"] = self.biases[c]
        return out


# ``tokens`` is keyword-only: perfbench's tracer unpacks the positional arguments as (embedded, bank).
def conv_bank_forward(embedded, bank, *, tokens):
    """relu(conv) + max-over-time per filter width, concatenated.

    ``embedded`` is a (T, embed_dim) tensor and ``tokens`` the (T,) ids it
    was looked up from; the result is a 1-D tensor of width
    ``len(filter_sizes) * n_filters``, filter widths in declared order.
    Equal tokens must have equal rows, as they do when ``embedded`` is
    ``table[tokens]``.

    Each width c is two nodes, ``windows`` and ``window_max_pool``, whose
    backward reaches only each filter's winning window.  The scores come from
    the rows of the distinct tokens (``np.unique``, once per call): each of
    them is projected by each of the c row blocks of the
    (c * embed_dim, n_filters) weights, and window t sums c of those
    projections.  Per width that is U * c * embed_dim * n_filters
    multiply-adds for U distinct tokens plus c row gathers, where a GEMM of
    the (T - c + 1, c * embed_dim) window matrix would take
    (T - c + 1) * c * embed_dim * n_filters.  The windows are scored a
    cache-sized block at a time, keeping only each filter's running max
    and first winner (see ``autodiff.window_max``).

    Sequences are left-padded with ``PAD_INDEX``.  When no tape records, the
    rows before the last ``max(filter_sizes)`` leading pad tokens are
    dropped: each window they start holds only the pad row, and so does one
    window every width keeps, which scores the same, so no max changes.  The
    kept tokens have the same distinct ids, so both calls give the same bits.
    """
    seq_len, embed_dim = embedded.data.shape
    tokens = np.asarray(tokens)
    if tokens.shape != (seq_len,):
        raise ValueError(f"tokens of shape {tokens.shape} do not match {seq_len} embedded rows")
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
        real = np.flatnonzero(tokens != PAD_INDEX)
        start = max((int(real[0]) if real.size else seq_len) - largest, 0)
        x = constant(embedded.data[start:], dtype=embedded.dtype)
        tokens = tokens[start:]
    _, first, inverse = np.unique(tokens, return_index=True, return_inverse=True)
    distinct = (x.data[first], inverse)
    pooled = [window_max_pool(windows(x, c), bank.weights[c], bank.biases[c], distinct)
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
        self.b_i = _bias(rng, h, dtype)
        self.W_sf, self.W_hf, self.W_cf = _param(rng, d, h, dtype), _param(rng, h, h, dtype), _param(rng, h, h, dtype)
        self.b_f = _bias(rng, h, dtype, fill=1.0)
        self.W_sc, self.W_hc = _param(rng, d, h, dtype), _param(rng, h, h, dtype)
        self.b_c = _bias(rng, h, dtype)
        self.W_so, self.W_ho = _param(rng, d, h, dtype), _param(rng, h, h, dtype)
        self.b_o = _bias(rng, h, dtype)

    def parameters(self):
        return {
            "W_si": self.W_si, "W_hi": self.W_hi, "W_ci": self.W_ci, "b_i": self.b_i,
            "W_sf": self.W_sf, "W_hf": self.W_hf, "W_cf": self.W_cf, "b_f": self.b_f,
            "W_sc": self.W_sc, "W_hc": self.W_hc, "b_c": self.b_c,
            "W_so": self.W_so, "W_ho": self.W_ho, "b_o": self.b_o,
        }


#: Column order of the four gates in the stacked weights: the three sigmoid
#: gates, then the tanh candidate, so each activation reads one contiguous run.
_GATES = "ifoc"


def _sigmoid(x):
    z = np.exp(-np.abs(x))  # never overflows
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def _stacked_blocks(cells, h):
    """Where each cell parameter sits in the stacked matrices.

    Yields ``(tensor, matrix, (direction, rows, cols))`` for all 14
    parameters of each cell.  Matrix 0 is the input projection W_s
    (2, d, 4h), matrix 1 the recurrent W (2, 2h, 4h) that multiplies
    [h_{t-1} ; c_{t-1}] (its c rows feed only the input and forget gates),
    and matrix 2 the bias (2, 1, 4h).
    """
    for direction, cell in enumerate(cells):
        for j, gate in enumerate(_GATES):
            cols = slice(j * h, (j + 1) * h)
            yield getattr(cell, f"W_s{gate}"), 0, (direction, slice(None), cols)
            yield getattr(cell, f"W_h{gate}"), 1, (direction, slice(0, h), cols)
            yield getattr(cell, f"b_{gate}"), 2, (direction, slice(None), cols)
            if gate in "if":
                yield getattr(cell, f"W_c{gate}"), 1, (direction, slice(h, 2 * h), cols)


def bilstm_forward(flow, fwd_cell, bwd_cell):
    """Run both directions over an (N, input_dim) sequence.

    Returns ``(states, final)`` where ``states`` is (N, 2 * hidden) with row t
    equal to [forward h_t ; backward h_t], and ``final`` is (1, 2 * hidden)
    holding each direction's last computed state, i.e. [forward h_N ;
    backward h_1].

    Both directions run together on a leading axis of 2, the backward one
    over the reversed rows, with each cell's gate weights stacked as in
    ``_stacked_blocks``.  The input projection ``flow @ W_s + b`` is one GEMM
    before the loop; each step is one (1, 2h) x (2h, 4h) product per
    direction plus the gate arithmetic.  On a tape the recurrence is one
    node over the 28 cell parameters whose backward is hand-written BPTT
    over the gate activations, which only that node keeps, and ``final`` is
    a second node that adds its gradient into the rows of ``states`` it
    copied.
    """
    flow = np.asarray(flow)
    n_steps = flow.shape[0]
    if n_steps < 1:
        raise ValueError("bilstm_forward requires at least one timestep")
    h, dim, dtype = fwd_cell.hidden_dim, fwd_cell.input_dim, fwd_cell.dtype
    if (bwd_cell.hidden_dim, bwd_cell.input_dim) != (h, dim) or flow.shape[1:] != (dim,):
        raise ValueError(
            f"bilstm_forward shape mismatch: flow {flow.shape}, cells "
            f"{fwd_cell.input_dim}->{fwd_cell.hidden_dim} and {bwd_cell.input_dim}->{bwd_cell.hidden_dim}"
        )
    blocks = list(_stacked_blocks((fwd_cell, bwd_cell), h))
    params = [p for p, _, _ in blocks]
    stacked = (np.empty((2, dim, 4 * h), dtype), np.zeros((2, 2 * h, 4 * h), dtype),
               np.empty((2, 1, 4 * h), dtype))
    for p, m, where in blocks:
        stacked[m][where] = p.data
    w_s, w_rec, bias = stacked

    x = flow.astype(dtype, copy=False)
    xs = np.stack([x, x[::-1]])                            # (2, N, d) in step order
    pre = np.matmul(xs, w_s) + bias                        # (2, N, 4h)
    hc = np.zeros((2, n_steps + 1, 2 * h), dtype)          # [h ; c] before step k is hc[:, k]
    gates = np.empty((2, n_steps, 4 * h), dtype)           # i, f, o, candidate after activation
    tanh_c = np.empty((2, n_steps, h), dtype)
    for k in range(n_steps):
        z = pre[:, k:k + 1] + np.matmul(hc[:, k:k + 1], w_rec)
        a = gates[:, k:k + 1]
        a[..., :3 * h] = _sigmoid(z[..., :3 * h])
        a[..., 3 * h:] = np.tanh(z[..., 3 * h:])
        c = a[..., h:2 * h] * hc[:, k:k + 1, h:] + a[..., :h] * a[..., 3 * h:]
        hc[:, k + 1:k + 2, h:] = c
        t = tanh_c[:, k:k + 1]
        np.tanh(c, out=t)
        np.multiply(a[..., 2 * h:3 * h], t, out=hc[:, k + 1:k + 2, :h])
    states_data = np.concatenate([hc[0, 1:, :h], hc[1, :0:-1, :h]], axis=1)

    def bwd(g):
        dh_out = np.stack([g[:, :h], g[::-1, h:]])         # (2, N, h) in step order
        dz = np.empty((2, n_steps, 4 * h), dtype)
        dh = np.zeros((2, 1, h), dtype)
        dc = np.zeros((2, 1, h), dtype)
        w_rec_t = w_rec.transpose(0, 2, 1)
        for k in reversed(range(n_steps)):
            a = gates[:, k:k + 1]
            i, f, o, cand = a[..., :h], a[..., h:2 * h], a[..., 2 * h:3 * h], a[..., 3 * h:]
            t = tanh_c[:, k:k + 1]
            dh = dh + dh_out[:, k:k + 1]
            dc = dc + dh * o * (1 - t * t)
            dz_k = dz[:, k:k + 1]                          # gate pre-activation gradients
            dz_k[..., :h] = dc * cand * i * (1 - i)
            dz_k[..., h:2 * h] = dc * hc[:, k:k + 1, h:] * f * (1 - f)
            dz_k[..., 2 * h:3 * h] = dh * t * o * (1 - o)
            dz_k[..., 3 * h:] = dc * i * (1 - cand * cand)
            d_hc = np.matmul(dz_k, w_rec_t)
            dh = d_hc[..., :h]
            dc = dc * f + d_hc[..., h:]
        grads = (np.matmul(xs.transpose(0, 2, 1), dz),
                 np.matmul(hc[:, :-1].transpose(0, 2, 1), dz),
                 dz.sum(axis=1, keepdims=True))
        for p, m, where in blocks:
            if p.requires_grad:
                _grad_buffer(p)[...] += grads[m][where]

    states = _make(states_data, params, bwd)
    final_data = np.concatenate([states_data[-1:, :h], states_data[:1, h:]], axis=1)

    def final_bwd(g):
        buf = _grad_buffer(states)
        buf[-1, :h] += g[0, :h]
        buf[0, h:] += g[0, h:]

    return states, _make(final_data, (states,), final_bwd)


class Attention:
    """Additive attention: score_t = v^T tanh(h_t W_a + b_a)."""

    def __init__(self, state_dim, proj_dim, rng, dtype=np.float32):
        self.state_dim = state_dim
        self.proj_dim = proj_dim
        self.W_a = _param(rng, state_dim, proj_dim, dtype)
        self.b_a = _bias(rng, proj_dim, dtype)
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
        self.bias = _bias(rng, out_dim, dtype)

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
    counts = tag_vocab.counts(train_records)
    for tag, m in zip(tag_vocab.tags, counts):
        if m == 0:
            raise DataError(f"tag '{tag}' never occurs in the training records; its weight is undefined")
    return ClassWeights(n_examples=len(train_records), tag_counts=tuple(counts))
