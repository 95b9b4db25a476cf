"""Model assembly: four experiment variants over a shared trunk.

Variants:

* ``cnn``                -- convolution bank over token embeddings only.
* ``cnn_cw``             -- same network; training weights the loss by tag
                            frequency.
* ``cnn_fe``             -- adds the emotion-flow branch: Bi-LSTM over the
                            segment emotion matrix, additive attention, and
                            the last states of both directions.
* ``cnn_fe_pretrained``  -- ``cnn_fe`` with the embedding table seeded from
                            a pretrained word-vector file.

The classifier input (the trunk) is the concatenation [conv features |
attention vector | final Bi-LSTM states], feeding two relu layers with
dropout and a softmax output layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _active_tape, concat, constant, dropout, recording, reshape, softmax_last_axis
from .corpus import OOV_INDEX, PAD_INDEX, SEQUENCE_LENGTH
from .emotion import DEFAULT_SEGMENTS, EMOTIONS
from .errors import ConfigError, DataError, check_keys, check_types, open_text
from .layers import (
    Attention,
    ConvBank,
    Dense,
    Embedding,
    LstmCell,
    attention_forward,
    bilstm_forward,
    conv_bank_forward,
)

VARIANTS = ("cnn", "cnn_cw", "cnn_fe", "cnn_fe_pretrained")

#: Variants whose training loss is tag-frequency weighted by default.
CLASS_WEIGHTED_VARIANTS = ("cnn_cw", "cnn_fe", "cnn_fe_pretrained")

#: Largest ``seq_len`` and ``n_segments``. Every input is encoded to that many
#: rows, so a larger value fails validation rather than the first encode.
MAX_INPUT_ROWS = 10**6

#: Flows per Bi-LSTM call in ``TagModel.trunks``. Past a few dozen
#: flows a call's time grows with N, so larger batches would only hold more
#: activations and weight copies (~50 KB per flow at 16 LSTM units).
FLOW_BATCH = 64


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "cnn_fe"
    vocab_size: int = 5000
    seq_len: int = SEQUENCE_LENGTH
    embed_dim: int = 300
    filter_sizes: tuple = (2, 3, 4, 5)
    filters_per_size: int = 1024
    n_segments: int = DEFAULT_SEGMENTS
    lstm_units: int = 16
    dense_sizes: tuple = (500, 200)
    n_tags: int = 71
    dropout: float = 0.4
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("filter_sizes", "dense_sizes"):
            if isinstance(getattr(self, name), list):  # as JSON gives them
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant '{self.variant}'; choose from {', '.join(VARIANTS)}")
        positive = ("vocab_size", "seq_len", "embed_dim", "filters_per_size", "n_segments",
                    "lstm_units", "n_tags")
        check_types(self, ints=positive + ("seed",), numbers=("dropout", "lr"),
                    int_tuples=("filter_sizes", "dense_sizes"))
        for name in positive:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        for name in ("seq_len", "n_segments"):
            value = getattr(self, name)
            if value > MAX_INPUT_ROWS:
                raise ConfigError(f"{name} must be at most {MAX_INPUT_ROWS}, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.filter_sizes or any(c < 1 for c in self.filter_sizes):
            raise ConfigError(f"filter_sizes must be positive integers, got {self.filter_sizes!r}")
        if self.seq_len < max(self.filter_sizes):
            raise ConfigError(
                f"seq_len {self.seq_len} is shorter than the largest filter {max(self.filter_sizes)}"
            )
        if not self.dense_sizes or any(d < 1 for d in self.dense_sizes):
            raise ConfigError(f"dense_sizes must be positive integers, got {self.dense_sizes!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")

    @property
    def uses_flow(self):
        return self.variant in ("cnn_fe", "cnn_fe_pretrained")

    @property
    def uses_class_weights(self):
        return self.variant in CLASS_WEIGHTED_VARIANTS

    @classmethod
    def from_dict(cls, d):
        check_keys(d, cls, "model config")
        return cls(**d)


class TagModel:
    """End-to-end network for one variant, with named parameters.

    ``vocab``, ``tag_vocab``, and ``class_weights`` ride along so that a
    checkpoint is self-contained; they are attached by the training entry
    points and are not consulted by ``forward`` itself.
    """

    def __init__(self, config, dtype=np.float32):
        self._assemble(config, dtype, np.random.default_rng(config.seed))

    @classmethod
    def _unfilled(cls, config):
        """The float32 model with every parameter an unfilled stand-in of its shape.

        Nothing is drawn and nothing in proportion to the parameter count is
        allocated, so ``load_checkpoint`` can check a file's manifest against
        ``parameters()`` before it reads any array into place.
        """
        model = cls.__new__(cls)
        model._assemble(config, np.float32, None)
        return model

    def _assemble(self, config, dtype, rng):
        self.config = config
        self.dtype = dtype
        self.vocab = None
        self.tag_vocab = None
        self.class_weights = None
        # construction order is fixed: it defines the rng draw sequence
        self.embedding = Embedding(config.vocab_size + 2, config.embed_dim, rng, dtype)
        self.conv = ConvBank(config.filter_sizes, config.filters_per_size, config.embed_dim, rng, dtype)
        feature_dim = self.conv.output_dim
        if config.uses_flow:
            flow_dim = len(EMOTIONS)
            self.lstm_fwd = LstmCell(flow_dim, config.lstm_units, rng, dtype)
            self.lstm_bwd = LstmCell(flow_dim, config.lstm_units, rng, dtype)
            state_dim = 2 * config.lstm_units
            self.attention = Attention(state_dim, state_dim, rng, dtype)
            feature_dim += 2 * state_dim  # attention vector + final states
        else:
            self.lstm_fwd = self.lstm_bwd = self.attention = None
        self.trunk_dim = feature_dim
        self.dense = []
        in_dim = feature_dim
        for width in config.dense_sizes:
            self.dense.append(Dense(in_dim, width, rng, activation="relu", dtype=dtype))
            in_dim = width
        self.dense_out = Dense(in_dim, config.n_tags, rng, activation="identity", dtype=dtype)

    # -- parameters ---------------------------------------------------------

    def _components(self):
        parts = [("embedding", self.embedding), ("conv", self.conv)]
        if self.config.uses_flow:
            parts += [("lstm_fwd", self.lstm_fwd), ("lstm_bwd", self.lstm_bwd), ("attention", self.attention)]
        parts += [(f"dense{i + 1}", layer) for i, layer in enumerate(self.dense)]
        parts.append(("dense_out", self.dense_out))
        return parts

    def parameters(self):
        """Flat ``{"component.param": Tensor}`` map in a stable order."""
        out = {}
        for prefix, component in self._components():
            for name, tensor in component.parameters().items():
                out[f"{prefix}.{name}"] = tensor
        return out

    def enforce_constraints(self):
        """Re-pin invariant parameter entries after an optimizer step."""
        self.embedding.reset_padding_row()

    # -- forward ------------------------------------------------------------

    def conv_features(self, tokens):
        """The conv bank's pooled features of one token sequence, taped exactly when a tape records."""
        return conv_bank_forward(self.embedding.lookup(tokens), self.conv, tokens=tokens)

    def _recording(self):
        """Whether a tape records this model's forward; the parameter map is built only under an active tape."""
        return _active_tape() is not None and recording(*self.parameters().values())

    def _checked(self, tokens, flow):
        """``tokens`` and ``flow`` as arrays, refused unless they are one example's inputs."""
        tokens = np.asarray(tokens)
        if tokens.shape != (self.config.seq_len,):
            raise ValueError(f"token sequence shape {tokens.shape} != ({self.config.seq_len},)")
        if self.config.uses_flow:
            if flow is None:
                raise ValueError(f"variant '{self.config.variant}' requires an emotion flow input")
            flow = np.asarray(flow)
            expected = (self.config.n_segments, len(EMOTIONS))
            if flow.shape != expected:
                raise ValueError(f"emotion flow shape {flow.shape} != {expected}")
        elif flow is not None:
            raise ValueError(f"variant '{self.config.variant}' does not take an emotion flow input")
        return tokens, flow

    def trunks(self, inputs):
        """Yield each ``(tokens, flow)`` pair's classifier input, in order, recording nothing.

        Each is the ``trunk`` that ``forward`` takes; every forward that
        records nothing gets its features here.  One Bi-LSTM call runs over
        each chunk of up to ``FLOW_BATCH`` flows, then each example's conv and
        attention run just before its trunk is yielded.  The leading pads
        before the last ``max(filter_sizes)`` are dropped before the lookup:
        each window they start holds only the pad row, as does a window that
        every width keeps, so no max changes and the trunk has the taped
        forward's bits.  Taped forwards never come here: training scores every row.
        """
        if self._recording():
            raise ValueError("a trunk carries no gradient; build trunks only when no tape records")
        inputs = [self._checked(tokens, flow) for tokens, flow in inputs]
        if not inputs:
            raise ValueError("trunks requires at least one (tokens, flow) input")
        largest = max(self.config.filter_sizes)
        for lo in range(0, len(inputs), FLOW_BATCH):
            chunk = inputs[lo:lo + FLOW_BATCH]
            if self.config.uses_flow:
                states, final = bilstm_forward(np.stack([flow for _, flow in chunk]), self.lstm_fwd, self.lstm_bwd)
            for i, (tokens, _) in enumerate(chunk):
                real = np.flatnonzero(tokens != PAD_INDEX)
                start = max((int(real[0]) if real.size else len(tokens)) - largest, 0)
                features = [self.conv_features(tokens[start:]).data]
                if self.config.uses_flow:
                    r, _ = attention_forward(constant(states.data[i]), self.attention)
                    features += [r.data, final.data[i]]
                yield np.concatenate(features)

    def forward(self, tokens, flow=None, dropout_rng=None, *, trunk=None):
        """Probability vector over tags for one encoded example.

        ``tokens`` is the (seq_len,) index sequence; ``flow`` is the
        (n_segments, 10) emotion matrix, required exactly when the variant
        has the emotion branch (flow-less variants refuse one outright, so
        their output cannot depend on it).  Dropout follows each hidden
        dense layer exactly when ``dropout_rng`` is given.

        ``trunk`` is the example's (trunk_dim,) classifier input, as
        ``trunks`` yields it, for a forward that records nothing: with it
        only the dense head runs, and the result has the bits of a full
        forward.  Without it such a forward takes its trunk from ``trunks``.
        """
        tokens, flow = self._checked(tokens, flow)
        taped = self._recording()
        if trunk is None and not taped:
            (trunk,) = self.trunks([(tokens, flow)])
        if trunk is None:
            features = [self.conv_features(tokens)]
            if self.config.uses_flow:
                states, final = bilstm_forward(flow.astype(self.dtype), self.lstm_fwd, self.lstm_bwd)
                r, _ = attention_forward(states, self.attention)
                features += [r, reshape(final, (-1,))]
            x = reshape(concat(features, axis=-1), (1, -1))
        else:
            if taped:
                raise ValueError("a precomputed trunk carries no gradient; pass trunk only when no tape records")
            trunk = np.asarray(trunk)
            if trunk.shape != (self.trunk_dim,):
                raise ValueError(f"trunk of shape {trunk.shape} != ({self.trunk_dim},)")
            x = constant(trunk.reshape(1, -1), dtype=self.dtype)
        for layer in self.dense:
            x = layer.forward(x)
            if dropout_rng is not None:
                x = dropout(x, self.config.dropout, dropout_rng)
        logits = self.dense_out.forward(x)
        return reshape(softmax_last_axis(logits), (-1,))


def build_model(config, dtype=np.float32):
    """Construct a model with freshly initialized parameters (seeded)."""
    return TagModel(config, dtype=dtype)


def predict_top_k(probs, k, tag_vocab=None):
    """Indices (or tags) of the k highest probabilities, descending.

    Equal probabilities rank by ascending index, via a stable sort on the
    negated values.
    """
    probs = probs.data if isinstance(probs, Tensor) else np.asarray(probs)
    probs = probs.reshape(-1)
    if not 1 <= k <= probs.size:
        raise ValueError(f"k must be in [1, {probs.size}], got {k}")
    order = np.argsort(-probs, kind="stable")[:k]
    if tag_vocab is None:
        return [int(i) for i in order]
    return [tag_vocab.tags[i] for i in order]


def load_pretrained_embeddings(path, vocab, embedding):
    """Overwrite table rows with vectors from a word-vector text file.

    The file is UTF-8, one ``word v1 ... vD`` entry per line, optionally
    preceded by a ``count dim`` header.  In-vocabulary words replace their
    rows; everything else (including the padding and unknown-word rows)
    keeps its current value.  Returns the fraction of vocabulary words
    found.  An in-vocabulary vector with a non-numeric or non-finite
    component (``nan``, ``inf``, or beyond float32's range) raises
    ``DataError`` naming its line.
    """
    dim = embedding.dim
    replaced = set()
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split(" ")
            if lineno == 1 and len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
                if int(parts[1]) != dim:
                    raise DataError(f"{path}: header declares dimension {parts[1]}, expected {dim}")
                continue
            if lineno > 1 and not line.strip():
                continue
            word, values = parts[0], parts[1:]
            if len(values) != dim:
                raise DataError(f"{path}: line {lineno}: {len(values)} vector components, expected {dim}")
            idx = vocab.index(word)
            if idx in (PAD_INDEX, OOV_INDEX):
                continue
            try:
                # a component beyond float32's range is stored as inf, rejected below
                with np.errstate(over="ignore"):
                    embedding.table.data[idx] = [float(v) for v in values]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric vector component") from None
            if not np.isfinite(embedding.table.data[idx]).all():
                raise DataError(f"{path}: line {lineno}: non-finite vector component")
            replaced.add(idx)
    embedding.reset_padding_row()
    return len(replaced) / vocab.size if vocab.size else 0.0
