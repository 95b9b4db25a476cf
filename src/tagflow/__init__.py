"""Predict descriptive tags for movies from their plot synopses.

The package pairs a convolutional encoder over the synopsis text with a
Bi-LSTM-plus-attention encoder over the plot's emotion flow, trained with
a class-weighted KL objective on a from-scratch reverse-mode autodiff
engine.  Everything is numpy; there is no framework dependency.
"""

from .autodiff import Tape, Tensor, backward, constant, gradcheck, kl_divergence
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    SynopsisRecord,
    Split,
    TagVocabulary,
    Vocabulary,
    build_vocabulary,
    encode_records,
    encode_synopsis,
    load_corpus,
    load_stopwords,
    make_target,
    preprocess,
    tokenize,
    validation_split,
)
from .emotion import (
    EMOTIONS,
    EmotionLexicon,
    emotion_flow,
    emotion_vector,
    flow_to_csv,
    load_lexicon,
    segment_words,
)
from .errors import ConfigError, DataError, NumericError
from .layers import ClassWeights, compute_class_weights
from .metrics import (
    MetricsReport,
    baseline_most_frequent,
    baseline_random,
    evaluate_predictions,
    micro_f1,
    prediction_overlap,
    recall_delta,
    tag_recall,
    tags_learned,
)
from .model import (
    ModelConfig,
    TagModel,
    build_model,
    load_pretrained_embeddings,
    predict_top_k,
)
from .optim import RmsProp
from .training import TrainConfig, TrainHistory, evaluate_loss, train

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "backward", "constant", "gradcheck", "kl_divergence",
    "load_checkpoint", "save_checkpoint",
    "SynopsisRecord", "Split", "TagVocabulary", "Vocabulary",
    "build_vocabulary", "encode_records", "encode_synopsis", "load_corpus",
    "load_stopwords", "make_target", "preprocess", "tokenize", "validation_split",
    "EMOTIONS", "EmotionLexicon", "emotion_flow", "emotion_vector",
    "flow_to_csv", "load_lexicon", "segment_words",
    "ConfigError", "DataError", "NumericError",
    "ClassWeights", "compute_class_weights",
    "MetricsReport", "baseline_most_frequent", "baseline_random",
    "evaluate_predictions", "micro_f1", "prediction_overlap", "recall_delta",
    "tag_recall", "tags_learned",
    "ModelConfig", "TagModel", "build_model", "load_pretrained_embeddings",
    "predict_top_k",
    "RmsProp",
    "TrainConfig", "TrainHistory", "evaluate_loss", "train",
]
