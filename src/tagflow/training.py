"""Mini-batch training with RMSprop, early stopping, and run logging.

Determinism contract: for a fixed seed and dataset, every run visits the
same example order (epoch shuffles come from a generator keyed by
(seed, epoch)) and applies the same dropout masks (per-example streams
keyed by (seed, epoch, example index)), so two runs produce identical
histories and parameters.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .autodiff import Tape, backward, kl_divergence
from .errors import ConfigError, NumericError, check_keys, check_types
from .layers import compute_class_weights
from .optim import RmsProp

BATCH_SIZE = 32
MAX_EPOCHS = 100
PATIENCE = 5


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = BATCH_SIZE
    max_epochs: int = MAX_EPOCHS
    patience: int = PATIENCE
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_types(self, ints=("batch_size", "max_epochs", "patience", "seed"), numbers=("lr",))
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0 <= self.patience < self.max_epochs:
            raise ConfigError(
                f"patience must be in [0, max_epochs), got {self.patience} with max_epochs {self.max_epochs}"
            )
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, d):
        check_keys(d, cls, "train config")
        return cls(**d)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainHistory:
    """Per-epoch losses and timing, plus the epoch whose weights were kept."""

    epochs: list = field(default_factory=list)
    best_epoch: int = -1

    def write_log(self, path):
        """One JSON record per line: epoch, train_loss, val_loss, seconds."""
        with open(path, "w", encoding="utf-8") as f:
            for stats in self.epochs:
                f.write(json.dumps(asdict(stats)) + "\n")


def _example_loss(model, example, weights, dropout_rng=None, trunk=None):
    flow = example.flow if model.config.uses_flow else None
    probs = model.forward(example.tokens, flow, dropout_rng=dropout_rng, trunk=trunk)
    return kl_divergence(example.target, probs, weights=weights)


def evaluate_loss(model, examples, class_weights=None):
    """Mean per-example KL in evaluation mode (no dropout, no recording).

    Each forward takes its example's trunk from ``model.trunks``, so the
    Bi-LSTM runs once over every example's flow and the conv once per
    example, with the bits of one full forward per example.
    """
    if not examples:
        raise ValueError("evaluate_loss requires at least one example")
    weights = class_weights.weights if class_weights is not None else None
    trunks = model.trunks((ex.tokens, ex.flow if model.config.uses_flow else None) for ex in examples)
    total = 0.0
    for example, trunk in zip(examples, trunks):
        total += float(_example_loss(model, example, weights, trunk=trunk).data)
    return total / len(examples)


def train(model, train_examples, val_examples, config, class_weights=None):
    """Optimize the model; return it with its best-validation-epoch weights.

    Each epoch shuffles the training set, steps RMSprop once per batch on
    the mean KL, then measures validation loss.  Training stops after
    `patience + 1` consecutive epochs without a strict validation
    improvement, or at `max_epochs`.  The best epoch's parameters are
    returned.  They are copied only at the start of the epoch after an
    improvement, just before training overwrites them, so a run holds at
    most one copy, and none when its last epoch is the best.  Each batch's
    gradients are freed once the optimizer has applied them.

    A non-finite validation loss raises ``NumericError``: it would compare
    false against every loss, so no epoch could be kept.

    The KL is class-weighted exactly when the model's variant is.  The
    weights are ``class_weights`` when given, else tag counts over the
    whole training split (``train_examples + val_examples``), so a rare
    tag cannot lose its only example to the validation set.
    """
    if not train_examples or not val_examples:
        raise ValueError("train requires non-empty train and validation sets")
    if not model.config.uses_class_weights:
        class_weights = None
    else:
        if class_weights is None:
            if model.tag_vocab is None:
                raise ConfigError(
                    "class-weighted training needs explicit class weights or a model with a tag vocabulary"
                )
            class_weights = compute_class_weights(train_examples + val_examples, model.tag_vocab)
        model.class_weights = class_weights
    weight_vec = class_weights.weights if class_weights is not None else None

    params = model.parameters()
    optimizer = RmsProp(params, lr=config.lr)
    history = TrainHistory()
    best_val = np.inf
    best_state = None
    stale_epochs = 0
    optimizer.zero_grad()

    n = len(train_examples)
    for epoch in range(1, config.max_epochs + 1):
        if epoch > 1 and stale_epochs == 0:
            # the weights of the best epoch so far, about to be overwritten
            best_state = {name: t.data.copy() for name, t in params.items()}
        started = time.perf_counter()
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size), start=1):
            batch = order[start:start + config.batch_size]
            scale = 1.0 / len(batch)
            for example_idx in batch:
                example = train_examples[int(example_idx)]
                rng = np.random.default_rng([config.seed, epoch, int(example_idx)])
                with Tape():
                    loss = _example_loss(model, example, weight_vec, dropout_rng=rng)
                    scaled = loss * scale
                value = float(loss.data)
                if not np.isfinite(value):
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {batch_no}")
                backward(scaled)
                epoch_loss += value
            try:
                optimizer.step()
            except NumericError as e:
                raise NumericError(f"epoch {epoch}, batch {batch_no}: {e}") from None
            optimizer.zero_grad()
            model.enforce_constraints()

        val_loss = evaluate_loss(model, val_examples, class_weights)
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        history.epochs.append(EpochStats(
            epoch=epoch,
            train_loss=epoch_loss / n,
            val_loss=val_loss,
            seconds=time.perf_counter() - started,
        ))
        if val_loss < best_val:
            best_val = val_loss
            history.best_epoch = epoch
            best_state = None
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs > config.patience:
                break

    if best_state is not None:
        for name, tensor in params.items():
            tensor.data = best_state[name]
    return model, history
