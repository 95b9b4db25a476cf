"""Reverse-mode automatic differentiation over dense numpy buffers.

A ``Tensor`` wraps a float array (float32 by default, float64
for verification runs) plus an optional gradient buffer.  While a ``Tape``
is active, every primitive that touches a grad-requiring input appends a
backward closure to it; the tape's entry order is the execution order, so
replaying it in exact reverse implements the chain rule without an extra
topological sort.  One tape per training step; inference runs with no tape
and records nothing.

Gradients accumulate: a tensor consumed twice receives the sum of both
contributions.  ``Tensor.grad`` reads as zeros for parameters the last
backward pass never reached.
"""

from __future__ import annotations

import numpy as np

_TAPES: list["Tape"] = []


def _active_tape():
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Execution-ordered record of primitive applications."""

    def __init__(self):
        self._entries = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        if _TAPES and _TAPES[-1] is self:
            _TAPES.pop()
        return False

    def __len__(self):
        return len(self._entries)

    def record(self, out, backward_fn):
        self._entries.append((out, backward_fn))

    def backward(self, loss):
        if loss.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        loss._grad = np.ones_like(loss.data)
        for out, fn in reversed(self._entries):
            if out._grad is not None:
                fn(out._grad)


class Tensor:
    """Shape-tagged numeric array participating in reverse-mode AD."""

    __slots__ = ("data", "requires_grad", "_grad", "tape")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif not (isinstance(data, np.ndarray) and arr.dtype == np.float64):
            # float32 unless the caller handed in an explicit float64 array
            arr = arr.astype(np.float32, copy=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad = None
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self):
        """Accumulated gradient; zeros when backward never reached this tensor."""
        if self._grad is not None:
            return self._grad
        return np.zeros_like(self.data)

    def zero_grad(self):
        self._grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar over the primitive set
    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)


def constant(data, dtype=None):
    """Wrap raw data as a non-trainable tensor."""
    return Tensor(data, requires_grad=False, dtype=dtype)


def _lift(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def backward(loss):
    """Populate gradients of every tensor reachable from ``loss``.

    The loss must be a scalar produced while a tape was active.
    """
    if loss.tape is None:
        raise ValueError("loss is not connected to a tape; run the forward pass inside `with Tape():`")
    loss.tape.backward(loss)


def recording(*tensors):
    """Whether an active tape would record a primitive over ``tensors``."""
    return _active_tape() is not None and any(t.requires_grad for t in tensors)


def _grad_buffer(t):
    if t._grad is None:
        t._grad = np.zeros_like(t.data)
    return t._grad


def _make(out_data, inputs, backward_fn):
    rg = any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = rg
    out._grad = None
    out.tape = None
    tape = _active_tape()
    if rg and tape is not None:
        out.tape = tape
        tape.record(out, backward_fn)
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            _grad_buffer(a)[...] += g @ b.data.T
        if b.requires_grad:
            _grad_buffer(b)[...] += a.data.T @ g

    return _make(out_data, (a, b), bwd)


def add(a, b):
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ValueError(f"add shape mismatch: {a.data.shape} + {b.data.shape}") from None

    def bwd(g):
        if a.requires_grad:
            _grad_buffer(a)[...] += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            _grad_buffer(b)[...] += _unbroadcast(g, b.data.shape)

    return _make(out_data, (a, b), bwd)


def mul(a, b):
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}") from None

    def bwd(g):
        if a.requires_grad:
            _grad_buffer(a)[...] += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            _grad_buffer(b)[...] += _unbroadcast(g * a.data, b.data.shape)

    return _make(out_data, (a, b), bwd)


def tanh(x):
    out_data = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            _grad_buffer(x)[...] += g * (1.0 - out_data * out_data)

    return _make(out_data, (x,), bwd)


def relu(x):
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        if x.requires_grad:
            _grad_buffer(x)[...] += g * (x.data > 0)

    return _make(out_data, (x,), bwd)


def concat(tensors, axis=-1):
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        hi = 0
        for t in tensors:
            lo, hi = hi, hi + t.data.shape[axis]
            if t.requires_grad:
                key = [slice(None)] * g.ndim
                key[axis] = slice(lo, hi)
                _grad_buffer(t)[...] += g[tuple(key)]

    return _make(out_data, tuple(tensors), bwd)


def reshape(x, shape):
    out_data = x.data.reshape(shape).copy()

    def bwd(g):
        if x.requires_grad:
            _grad_buffer(x)[...] += g.reshape(x.data.shape)

    return _make(out_data, (x,), bwd)


def window_matrix(data, c):
    """The c-row windows of a (T, E) array as a (T - c + 1, c * E) matrix.

    Row t is ``data[t:t + c]`` flattened.  Consecutive rows overlap in the
    array's own memory, so this is a read-only strided view that copies
    nothing (of a C-contiguous copy when ``data`` is not contiguous).
    """
    data = np.ascontiguousarray(data)
    seq_len, dim = data.shape
    view = np.ndarray((seq_len - c + 1, c * dim), data.dtype, buffer=data, strides=data.strides)
    view.flags.writeable = False
    return view


def windows(x, c):
    """The (T - c + 1, c * E) window matrix of a (T, E) tensor (see ``window_matrix``).

    The backward adds each window's gradient back onto its c rows.
    """
    seq_len, dim = x.data.shape
    if not 1 <= c <= seq_len:
        raise ValueError(f"windows of {c} rows do not fit a sequence of {seq_len}")
    n_windows = seq_len - c + 1

    def bwd(g):
        if x.requires_grad:
            buf = _grad_buffer(x)
            for j in range(c):
                buf[j:j + n_windows] += g[:, j * dim:(j + 1) * dim]

    return _make(window_matrix(x.data, c), (x,), bwd)


def distinct_rows(data):
    """The distinct rows of a (T, E) array, and which one each row is.

    Returns ``(rows, inverse)``: ``rows`` is (U, E) and ``rows[inverse[t]]``
    has the bytes of ``data[t]``.  Rows compare as bytes, through a void
    view, so a NaN row is kept as it is and 0.0 and -0.0 count as different
    values.  ``rows`` comes out in byte order, so two arrays that hold the
    same set of rows give the same ``rows``.
    """
    data = np.ascontiguousarray(data)
    dim = data.shape[1]
    keys = data.view(np.dtype((np.void, dim * data.itemsize))).ravel()
    # np.unique(keys, return_inverse=True), with its byte-wise != on void
    # keys replaced by a compare of the sorted rows as integers.
    order = keys.argsort(kind="stable")
    ordered = data[order]
    words = ordered.view(np.dtype(f"i{data.itemsize}"))
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    np.any(words[1:] != words[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def window_scores(distinct, w):
    """``window_matrix(data, c) @ w`` for a (T, E) array, from its ``distinct_rows``.

    ``w`` is (c * E, F) and the result (T - c + 1, F).  Each distinct row is
    projected once by each of w's c row blocks, ``proj = rows @ w.reshape(c,
    E, F)``, and window t sums ``proj[0, inverse[t]] + ... + proj[c - 1,
    inverse[t + c - 1]]``.  That is U c E F multiply-adds for U distinct rows
    plus c row gathers, where the window GEMM takes (T - c + 1) c E F, and
    two windows with the same rows score bit-identically.
    """
    rows, inverse = distinct
    dim = rows.shape[1]
    width, n_filters = w.shape[0] // dim, w.shape[1]
    n_windows = inverse.shape[0] - width + 1
    proj = rows @ w.reshape(width, dim, n_filters)
    scores = np.empty((n_windows, n_filters), dtype=proj.dtype)
    # Summed in blocks of ~256 KiB of windows, so that a block stays in cache
    # through its c gathers.  Every index is in range, so mode="clip" changes
    # nothing but lets take write straight into its out buffer.
    step = max(1, (1 << 18) // (n_filters * proj.itemsize))
    gathered = np.empty((min(step, n_windows), n_filters), dtype=proj.dtype)
    for t in range(0, n_windows, step):
        block = scores[t:t + step]
        part = gathered[:len(block)]
        proj[0].take(inverse[t:t + len(block)], axis=0, out=block, mode="clip")
        for j in range(1, width):
            proj[j].take(inverse[t + j:t + j + len(block)], axis=0, out=part, mode="clip")
            block += part
    return scores


def window_max_pool(xw, w, b, distinct):
    """One conv width, max-pooled over time: ``relu(max_t (xw @ w)[t] + b)``.

    ``xw`` is the (n, c * E) window matrix of a (T, E) sequence (see
    ``windows``), ``distinct`` that sequence's ``distinct_rows``, ``w``
    (c * E, F) and ``b`` (1, F); the result is (F,).  The scores ``xw @ w``
    come from the distinct rows (see ``window_scores``), so equal windows
    score the same bits.  Bias and relu go on after the max, once per
    filter: both are monotone, and so is float rounding, so
    ``max_t relu(a_t + b) == relu(max_t a_t + b)`` exactly.  A NaN score
    makes its filter's output NaN.

    The backward is argmax-sparse.  Filter f's gradient reaches only its
    first maximising window t_f: ``dw[:, f] += xw[t_f] g_f``,
    ``dxw[t_f] += g_f w[:, f]`` and ``db[f] += g_f``, with g_f taken as 0
    where the output is 0 or NaN.  That is O(F K) work, not the O(n K F)
    of a dense backward.
    """
    rows, inverse = distinct
    n_filters = w.data.shape[-1]
    if (xw.data.ndim != 2 or w.data.shape != (xw.data.shape[1], n_filters) or b.data.shape != (1, n_filters)
            or rows.ndim != 2 or xw.data.shape[1] % rows.shape[1]
            or inverse.shape[0] - xw.data.shape[1] // rows.shape[1] + 1 != xw.data.shape[0]):
        raise ValueError(f"window_max_pool shape mismatch: {xw.data.shape} x {w.data.shape} + {b.data.shape}, "
                         f"{rows.shape[-1]}-wide rows of a {inverse.shape[0]}-row sequence")
    scores = window_scores(distinct, w.data)
    best = scores.max(axis=0)
    # Each filter's first maximising window, read off the row-major hits (a
    # column argmax on a C-order array copies it first).  A NaN column has no
    # hit and keeps window 0, which its masked gradient never uses.  Only the
    # backward reads the winners, so a tape-free call skips them.
    out_data = np.maximum(best + b.data[0], 0)
    if not recording(xw, w, b):
        return _make(out_data, (xw, w, b), None)
    hits = np.flatnonzero(scores == best)
    filters, first = np.unique(hits % n_filters, return_index=True)
    winner = np.zeros(n_filters, dtype=np.intp)
    winner[filters] = hits[first] // n_filters

    def bwd(g):
        g = np.where(out_data > 0, g, 0)
        if w.requires_grad:
            rows = xw.data[winner]
            rows *= g[:, None]
            _grad_buffer(w)[...] += rows.T
        if b.requires_grad:
            _grad_buffer(b)[...] += g
        if xw.requires_grad:
            # (w * g).T, written through a row-padded buffer: with 1024
            # float32 filters a row of w spans 4 KiB, and reading the product
            # column by column then maps every element to the same few cache
            # sets (a plain transposed copy is ~8x slower at the full shape).
            scaled = np.empty((w.data.shape[0], n_filters + 16), dtype=w.data.dtype)[:, :n_filters]
            np.multiply(w.data, g, out=scaled)
            _scatter_add_rows(_grad_buffer(xw), winner, np.ascontiguousarray(scaled.T))

    return _make(out_data, (xw, w, b), bwd)


def _scatter_add_rows(buf, idx, rows):
    """``buf[idx[i]] += rows[i]`` for every i in turn, repeated indices included.

    A fancy ``+=`` keeps only one of the rows that share an index, so the
    rows go in rounds: round k adds each index's k-th row, and no index
    repeats within a round.  Every row of ``buf`` receives its terms in
    order of i, the sums ``np.add.at`` forms, several times faster.
    """
    order = np.argsort(idx, kind="stable")
    ranked = idx[order]
    first = np.ones(idx.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    position = np.arange(idx.size)
    occurrence = np.empty_like(position)
    occurrence[order] = position - np.maximum.accumulate(np.where(first, position, 0))
    for k in range(occurrence.max(initial=-1) + 1):
        chosen = occurrence == k
        buf[idx[chosen]] += rows[chosen]


def sum_(x, axis=None):
    out_data = x.data.sum(axis=axis)

    def bwd(g):
        if x.requires_grad:
            if axis is None:
                _grad_buffer(x)[...] += g
            else:
                _grad_buffer(x)[...] += np.expand_dims(g, axis)

    return _make(np.asarray(out_data), (x,), bwd)


def softmax_last_axis(x):
    d = x.data
    shifted = d - d.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            _grad_buffer(x)[...] += out_data * (g - dot)

    return _make(out_data, (x,), bwd)


def embedding_gather(table, idx):
    """Rows of ``table`` at integer positions ``idx`` (1-D numpy array)."""
    idx = np.asarray(idx)
    if idx.ndim != 1:
        raise ValueError(f"embedding_gather expects 1-D indices, got shape {idx.shape}")
    out_data = table.data[idx]

    def bwd(g):
        if table.requires_grad:
            np.add.at(_grad_buffer(table), idx, g)

    return _make(out_data, (table,), bwd)


def dropout(x, p, rng):
    """Inverted dropout: keeps scale at train time, identity when p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
    mask = keep.astype(x.data.dtype) * scale
    out_data = x.data * mask

    def bwd(g):
        if x.requires_grad:
            _grad_buffer(x)[...] += g * mask

    return _make(out_data, (x,), bwd)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def kl_divergence(true_dist, pred_dist, weights=None, eps=1e-8):
    """KL(true || pred) with optional per-component weights, as one tape node.

    ``sum_t w_t * true_t * log(true_t / pred_t)`` with ``0 * log 0 == 0`` and
    predictions clamped to at least ``eps`` before the log.  Differentiable
    with respect to ``pred_dist``; ``true_dist`` is treated as a constant.
    A component with ``pred_t <= eps`` sits on the clamp and gets exactly
    zero gradient.
    """
    t = true_dist.data if isinstance(true_dist, Tensor) else np.asarray(true_dist)
    pred = pred_dist if isinstance(pred_dist, Tensor) else constant(pred_dist)
    p = pred.data
    if (t < 0).any() or (p < 0).any():
        raise ValueError("kl_divergence requires non-negative entries")
    if abs(float(t.sum()) - 1.0) > 1e-6 or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError(
            f"kl_divergence requires distributions summing to 1 "
            f"(got {float(t.sum()):.8f} and {float(p.sum()):.8f})"
        )
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=t.dtype)
    wt = (w * t).astype(p.dtype)
    support = t > 0
    const_term = float((wt[support] * np.log(t[support])).sum())
    clamped = np.maximum(p, eps)
    out_data = np.asarray(const_term, dtype=p.dtype) - np.asarray((wt * np.log(clamped)).sum())

    def bwd(g):
        if pred.requires_grad:
            _grad_buffer(pred)[...] += ((-g * wt) / clamped) * (p > eps)

    return _make(out_data, (pred,), bwd)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def gradcheck(fn, params, rng=None, samples=6, h=1e-3, rtol=1e-4, atol=1e-6):
    """Check analytic gradients of ``fn()`` against finite differences.

    ``fn`` rebuilds the graph from the given parameter tensors and returns a
    scalar loss.  For each parameter, up to ``samples`` coordinates are
    perturbed, and the numeric slope is compared with the gradient from one
    backward pass.  The slope is the Richardson extrapolation ``(4 D(h/2) -
    D(h)) / 3`` of central differences ``D(s) = (f(x + s) - f(x - s)) / 2s``,
    which cancels their h**2 error term: at inputs of the emotion flow's
    scale (percentages up to 100) that term alone can exceed the tolerance.
    Parameters should be float64 for the stated tolerances to be
    meaningful.  Raises AssertionError on the first violation; returns the
    worst absolute discrepancy otherwise.
    """
    rng = rng or np.random.default_rng(0)
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = fn()
    backward(loss)
    analytic = [p.grad.copy() for p in params]

    def central(p, i, step):
        orig = p.data.flat[i]
        p.data.flat[i] = orig + step
        f_hi = float(fn().data)
        p.data.flat[i] = orig - step
        f_lo = float(fn().data)
        p.data.flat[i] = orig
        return (f_hi - f_lo) / (2.0 * step)

    worst = 0.0
    for p, ana in zip(params, analytic):
        n = p.data.size
        coords = range(n) if n <= samples else sorted(rng.choice(n, size=samples, replace=False))
        for i in coords:
            numeric = (4.0 * central(p, i, h / 2) - central(p, i, h)) / 3.0
            err = abs(ana.flat[i] - numeric)
            worst = max(worst, err)
            if err > atol + rtol * abs(numeric):
                raise AssertionError(
                    f"gradient mismatch at param shape {p.data.shape} flat index {i}: "
                    f"analytic {ana.flat[i]:.8g} vs numeric {numeric:.8g}"
                )
    return worst
