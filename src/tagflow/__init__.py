"""Predict descriptive tags for movies from their plot synopses.

The package pairs a convolutional encoder over the synopsis text with a
Bi-LSTM-plus-attention encoder over the plot's emotion flow, trained with
a class-weighted KL objective on a from-scratch reverse-mode autodiff
engine.  Everything is numpy; there is no framework dependency.

The package exports what README's Library section documents; every other
name is imported from its module, as in ``from tagflow.autodiff import Tape``.
"""

from .corpus import TagVocabulary, build_vocabulary, encode_records, load_corpus, load_stopwords
from .emotion import EmotionLexicon, emotion_flow, load_lexicon
from .errors import ConfigError, DataError, NumericError
from .model import ModelConfig, TagModel, build_model, predict_top_k
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "TagVocabulary", "build_vocabulary", "encode_records", "load_corpus", "load_stopwords",
    "EmotionLexicon", "emotion_flow", "load_lexicon",
    "ConfigError", "DataError", "NumericError",
    "ModelConfig", "TagModel", "build_model", "predict_top_k",
    "TrainConfig", "train",
]
