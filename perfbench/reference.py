"""Plain-numpy float64 forward pass and loss, independent of tagflow's engine.

The checks compare ``TagModel`` against this on sampled examples. It reads
the model's parameters by name but uses neither ``autodiff`` nor
``layers``: the convolution builds an explicit window matrix, the LSTM
follows the equations in the ``LstmCell`` docstring, and the loss is the
weighted KL with predictions clamped at ``eps`` before the log.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _conv_max_pool(embedded, w, b, width):
    n_windows = embedded.shape[0] - width + 1
    # row t is [e_t ; e_{t+1} ; ... ; e_{t+width-1}], matching w's (width*dim, filters) layout
    windows = np.concatenate([embedded[j:j + n_windows] for j in range(width)], axis=1)
    return np.maximum(windows @ w + b, 0.0).max(axis=0)


def _lstm(flow, p, prefix, order):
    h = np.zeros(p[f"{prefix}.b_i"].shape[1])
    c = np.zeros_like(h)
    states = {}
    for t in order:
        s = flow[t]
        i = _sigmoid(s @ p[f"{prefix}.W_si"] + h @ p[f"{prefix}.W_hi"] + c @ p[f"{prefix}.W_ci"] + p[f"{prefix}.b_i"][0])
        f = _sigmoid(s @ p[f"{prefix}.W_sf"] + h @ p[f"{prefix}.W_hf"] + c @ p[f"{prefix}.W_cf"] + p[f"{prefix}.b_f"][0])
        candidate = np.tanh(s @ p[f"{prefix}.W_sc"] + h @ p[f"{prefix}.W_hc"] + p[f"{prefix}.b_c"][0])
        c = f * c + i * candidate
        o = _sigmoid(s @ p[f"{prefix}.W_so"] + h @ p[f"{prefix}.W_ho"] + p[f"{prefix}.b_o"][0])
        h = o * np.tanh(c)
        states[t] = h
    return np.stack([states[t] for t in range(len(flow))]), h


def forward(params, config, tokens, flow=None):
    """Tag probabilities (float64) for one encoded example in evaluation mode.

    ``params`` maps ``model.parameters()`` names to arrays; ``config`` is the
    model's ``ModelConfig``.
    """
    p = {name: np.asarray(a, dtype=np.float64) for name, a in params.items()}
    embedded = p["embedding.table"][np.asarray(tokens)]
    features = [_conv_max_pool(embedded, p[f"conv.w{c}"], p[f"conv.b{c}"][0], c)
                for c in config.filter_sizes]
    if config.uses_flow:
        flow = np.asarray(flow, dtype=np.float64)
        n = len(flow)
        fwd_states, fwd_final = _lstm(flow, p, "lstm_fwd", range(n))
        bwd_states, bwd_final = _lstm(flow, p, "lstm_bwd", reversed(range(n)))
        states = np.concatenate([fwd_states, bwd_states], axis=1)
        scores = np.tanh(states @ p["attention.W_a"] + p["attention.b_a"][0]) @ p["attention.v"][:, 0]
        features += [_softmax(scores) @ states, fwd_final, bwd_final]
    x = np.concatenate(features)
    for i in range(len(config.dense_sizes)):
        x = np.maximum(x @ p[f"dense{i + 1}.weight"] + p[f"dense{i + 1}.bias"][0], 0.0)
    return _softmax(x @ p["dense_out.weight"] + p["dense_out.bias"][0])


def weighted_kl(target, probs, weights=None, eps=1e-8):
    """sum_t w_t * target_t * log(target_t / max(probs_t, eps)) over target_t > 0."""
    target = np.asarray(target, dtype=np.float64)
    w = np.ones_like(target) if weights is None else np.asarray(weights, dtype=np.float64)
    support = target > 0
    q = np.maximum(np.asarray(probs, dtype=np.float64)[support], eps)
    return float((w[support] * target[support] * (np.log(target[support]) - np.log(q))).sum())
