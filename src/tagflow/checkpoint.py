"""Self-describing binary checkpoint: header, JSON metadata, raw arrays.

Layout, all integers little-endian:

    bytes 0..3    magic  b"TGFW"
    bytes 4..5    format version (uint16), currently 1
    bytes 6..13   metadata length in bytes (uint64)
    ...           UTF-8 JSON metadata
    ...           parameter buffers, float32 little-endian, packed in
                  metadata manifest order

The metadata carries the model config, vocabularies, optional class
weights, and an array manifest of (name, shape) pairs, so a file can be
inspected without loading it and validated before any array is read.
Arrays are stored as float32 regardless of the in-memory precision.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .corpus import Vocabulary, TagVocabulary
from .errors import ConfigError, DataError
from .layers import ClassWeights
from .model import ModelConfig, TagModel

MAGIC = b"TGFW"
VERSION = 1

_HEADER = struct.Struct("<4sHQ")


def save_checkpoint(model, path):
    """Write the model, its vocabularies, and any class weights to ``path``."""
    params = model.parameters()
    manifest = [{"name": name, "shape": list(t.data.shape)} for name, t in params.items()]
    meta = {
        "config": asdict(model.config),
        "vocab": model.vocab.words if model.vocab is not None else None,
        "tag_vocab": model.tag_vocab.tags if model.tag_vocab is not None else None,
        "class_weights": asdict(model.class_weights) if model.class_weights is not None else None,
        "arrays": manifest,
    }
    meta_bytes = json.dumps(meta).encode("utf-8")
    # write beside the target and rename over it, so a failed save leaves
    # any earlier checkpoint at ``path`` intact
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_HEADER.pack(MAGIC, VERSION, len(meta_bytes)))
            f.write(meta_bytes)
            for tensor in params.values():
                f.write(np.ascontiguousarray(tensor.data, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _manifest(path, meta):
    """The array manifest, after checking the metadata keys the loader reads."""
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise DataError(f"{path}: checkpoint metadata lacks a 'config' object")
    manifest = meta.get("arrays")
    if not isinstance(manifest, list):
        raise DataError(f"{path}: checkpoint metadata lacks an 'arrays' list")
    for i, entry in enumerate(manifest):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(d, int) and d >= 0 for d in entry["shape"])):
            raise DataError(f"{path}: array entry {i} needs a string 'name' and an integer 'shape' list")
    return manifest


def _string_list(path, meta, key):
    """``meta[key]``: None or a list of strings."""
    value = meta.get(key)
    if value is not None and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise DataError(f"{path}: checkpoint '{key}' must be a list of strings")
    return value


def _class_weights(path, meta):
    """The stored ClassWeights, or None; counts must be positive integers."""
    cw = meta.get("class_weights")
    if cw is None:
        return None
    if not (isinstance(cw, dict) and isinstance(cw.get("tag_counts"), list)
            and all(type(v) is int and v >= 1 for v in [cw.get("n_examples"), *cw["tag_counts"]])):
        raise DataError(
            f"{path}: checkpoint 'class_weights' needs a positive integer 'n_examples' "
            f"and a list of positive integer 'tag_counts'"
        )
    return ClassWeights(n_examples=cw["n_examples"], tag_counts=tuple(cw["tag_counts"]))


def _check_vocabularies(path, config, vocab, tag_vocab, class_weights):
    """The stored vocabularies and class weights must fit the model's widths.

    The tags must ascend strictly, since ``TagVocabulary`` sorts them and an
    output column's tag is its place in that order; no word may repeat.
    """
    for i in range(1, len(tag_vocab or ())):
        if tag_vocab[i - 1] >= tag_vocab[i]:
            raise DataError(f"{path}: checkpoint 'tag_vocab' must ascend strictly, "
                            f"but entry {i} '{tag_vocab[i]}' follows '{tag_vocab[i - 1]}'")
    if vocab is not None and len(set(vocab)) < len(vocab):
        first = {}
        for i, word in enumerate(vocab):
            if first.setdefault(word, i) != i:
                raise DataError(f"{path}: checkpoint 'vocab' entry {i} '{word}' repeats entry {first[word]}")
    if vocab is not None and len(vocab) > config.vocab_size:
        raise DataError(f"{path}: checkpoint 'vocab' holds {len(vocab)} words, "
                        f"more than vocab_size {config.vocab_size}")
    for key, n in (("tag_vocab", None if tag_vocab is None else len(tag_vocab)),
                   ("class_weights", None if class_weights is None else class_weights.n_tags)):
        if n is not None and n != config.n_tags:
            raise DataError(f"{path}: checkpoint '{key}' covers {n} tags, but n_tags is {config.n_tags}")


def load_checkpoint(path):
    """Rebuild a float32 model whose forward outputs match the saved one bit-for-bit.

    Nothing is drawn: the model starts with unfilled parameters, and every
    name, shape and size in the manifest is checked against them and against
    the file's length before any array is allocated.  Each array is then read
    straight into its own fresh buffer.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataError(f"{path}: truncated checkpoint (no header)")
        magic, version, meta_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DataError(f"{path}: not a checkpoint file (bad magic bytes)")
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version} (expected {VERSION})")
        meta_end = _HEADER.size + meta_len
        if size < meta_end:
            raise DataError(f"{path}: truncated checkpoint (incomplete metadata)")
        try:
            meta = json.loads(f.read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"{path}: corrupt checkpoint metadata: {e}") from None

        manifest = _manifest(path, meta)
        vocab = _string_list(path, meta, "vocab")
        tag_vocab = _string_list(path, meta, "tag_vocab")
        class_weights = _class_weights(path, meta)
        stored = meta["config"]
        try:
            config = ModelConfig.from_dict(stored)
            model = TagModel._unfilled(config)
        except (ConfigError, TypeError, ValueError) as e:
            if not set(stored) <= set(ModelConfig.__dataclass_fields__):
                raise ConfigError(f"{path}: {e}") from None  # unknown keys stay config errors
            raise DataError(f"{path}: malformed model config: {e}") from None
        _check_vocabularies(path, config, vocab, tag_vocab, class_weights)
        params = model.parameters()
        names = [entry["name"] for entry in manifest]
        if set(names) != set(params):
            missing = sorted(set(params) - set(names))
            extra = sorted(set(names) - set(params))
            raise DataError(f"{path}: parameter mismatch (missing {missing}, unexpected {extra})")

        offset = meta_end
        for entry in manifest:
            shape = tuple(entry["shape"])
            expected = params[entry["name"]].data.shape
            if shape != expected:
                raise DataError(f"{path}: array '{entry['name']}' has shape {shape}, expected {expected}")
            offset += 4 * math.prod(shape)
            if offset > size:
                raise DataError(f"{path}: truncated checkpoint (array '{entry['name']}' incomplete)")
        if offset != size:
            raise DataError(f"{path}: {size - offset} trailing bytes after the last array")

        for entry in manifest:
            raw = np.empty(entry["shape"], dtype="<f4")
            if f.readinto(raw) != raw.nbytes:  # the file shrank since it was measured
                raise DataError(f"{path}: truncated checkpoint (array '{entry['name']}' incomplete)")
            params[entry["name"]].data = raw.astype(np.float32, copy=False)  # a no-op on little-endian hosts

    if vocab is not None:
        model.vocab = Vocabulary(vocab)
    if tag_vocab is not None:
        model.tag_vocab = TagVocabulary(tag_vocab)
    model.class_weights = class_weights
    return model
