"""Checkpoint format: bit-exact round trips and corruption detection."""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import numpy.testing as npt
import pytest

from test_model import random_inputs, small_config
from tagflow import layers
from tagflow.autodiff import Tape, kl_divergence
from tagflow.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from tagflow.cli import main
from tagflow.corpus import TagVocabulary, Vocabulary
from tagflow.errors import DataError
from tagflow.layers import ClassWeights
from tagflow.model import ModelConfig, build_model
from tagflow.optim import RmsProp

_HEADER = struct.Struct("<4sHQ")


def build_fitted_model(variant="cnn_fe", seed=3):
    """A model that looks like it came out of training: extras attached."""
    model = build_model(small_config(variant=variant, seed=seed))
    rng = np.random.default_rng(seed)
    for p in model.parameters().values():
        p.data = rng.standard_normal(p.data.shape).astype(np.float32)
    model.enforce_constraints()
    model.vocab = Vocabulary([f"word{i}" for i in range(model.config.vocab_size)])
    model.tag_vocab = TagVocabulary([f"tag{i}" for i in range(model.config.n_tags)])
    model.class_weights = ClassWeights(n_examples=40, tag_counts=(5, 10, 8, 12, 5))
    return model


def rewrite_metadata(path, mutate):
    """Apply ``mutate(meta_dict)`` to a checkpoint's JSON block in place."""
    blob = path.read_bytes()
    magic, version, meta_len = _HEADER.unpack_from(blob)
    meta = json.loads(blob[_HEADER.size:_HEADER.size + meta_len].decode("utf-8"))
    mutate(meta)
    meta_bytes = json.dumps(meta).encode("utf-8")
    path.write_bytes(_HEADER.pack(magic, version, len(meta_bytes))
                     + meta_bytes + blob[_HEADER.size + meta_len:])


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["cnn", "cnn_fe"])
    def test_forward_is_bit_identical_after_reload(self, tmp_path, variant):
        model = build_fitted_model(variant=variant)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        tokens, flow = random_inputs(model.config, seed=11)
        npt.assert_array_equal(clone.forward(tokens, flow=flow).data,
                               model.forward(tokens, flow=flow).data)

    def test_parameters_round_trip_exactly(self, tmp_path):
        model = build_fitted_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        cloned = clone.parameters()
        for name, p in model.parameters().items():
            npt.assert_array_equal(cloned[name].data, p.data, err_msg=name)
            assert cloned[name].data.dtype == np.float32

    def test_vocabularies_and_weights_round_trip(self, tmp_path):
        model = build_fitted_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        assert clone.config == model.config
        assert clone.vocab.words == model.vocab.words
        assert clone.tag_vocab.tags == model.tag_vocab.tags
        assert clone.class_weights == model.class_weights

    def test_extras_stay_none_when_never_attached(self, tmp_path):
        model = build_model(small_config(variant="cnn"))
        path = tmp_path / "bare.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        assert clone.vocab is None and clone.tag_vocab is None and clone.class_weights is None

    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path):
        class Unwritable:
            shape = (1,)

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        model = build_fitted_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        params = model.parameters()
        list(params.values())[-1].data = Unwritable()
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert load_checkpoint(path).config == model.config
        assert list(tmp_path.iterdir()) == [path]

    def test_save_is_deterministic(self, tmp_path):
        model = build_fitted_model()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, a)
        save_checkpoint(model, b)
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_array_section_is_the_little_endian_float32_bytes_of_each_parameter(self, tmp_path, dtype):
        model = build_model(small_config(variant="cnn_fe", seed=5), dtype=dtype)
        # a non-contiguous parameter is written in C order too
        model.embedding.table.data = np.asfortranarray(model.embedding.table.data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        _, _, meta_len = _HEADER.unpack_from(blob)
        expected = b"".join(np.ascontiguousarray(p.data, dtype="<f4").tobytes()
                            for p in model.parameters().values())
        assert blob[_HEADER.size + meta_len:] == expected


class TestDrawFreeLoad:
    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        model = build_fitted_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew initial values")

        monkeypatch.setattr(layers, "glorot_uniform", refuse)
        cloned = load_checkpoint(path).parameters()
        for name, p in model.parameters().items():
            npt.assert_array_equal(cloned[name].data, p.data, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32])
    def test_loaded_arrays_are_fresh_writable_buffers(self, tmp_path, dtype):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_fitted_model(), path)
        for name, p in load_checkpoint(path).parameters().items():
            flags = p.data.flags
            assert flags.c_contiguous and flags.aligned and flags.writeable and flags.owndata, name
            assert p.data.dtype == dtype, name

    def test_rmsprop_step_from_a_loaded_checkpoint_matches_the_in_memory_model(self, tmp_path):
        model = build_model(small_config(seed=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        tokens, flow = random_inputs(model.config, seed=4)
        target = np.full(model.config.n_tags, 1.0 / model.config.n_tags)

        def one_step(m):
            with Tape() as tape:
                loss = kl_divergence(target, m.forward(tokens, flow=flow))
            tape.backward(loss)
            opt = RmsProp(m.parameters(), lr=1e-3)
            opt.step()
            return {name: (p.data, opt.square_avg[name]) for name, p in m.parameters().items()}

        before = {name: p.data.copy() for name, p in model.parameters().items()}
        expected, got = one_step(model), one_step(clone)
        assert not np.array_equal(expected["dense_out.weight"][0], before["dense_out.weight"])
        for name, (data, square_avg) in expected.items():
            npt.assert_array_equal(got[name][0], data, err_msg=name)
            npt.assert_array_equal(got[name][1], square_avg, err_msg=name)


class TestCorruptionDetection:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_fitted_model(variant="cnn"), path)
        return path

    def test_bad_magic(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(saved)

    def test_unsupported_version(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(MAGIC + struct.pack("<H", VERSION + 1) + blob[6:])
        with pytest.raises(DataError, match="version"):
            load_checkpoint(saved)

    def test_file_shorter_than_header(self, saved):
        saved.write_bytes(saved.read_bytes()[:7])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(saved)

    def test_truncated_metadata(self, saved):
        blob = saved.read_bytes()
        meta_len = _HEADER.unpack_from(blob)[2]
        saved.write_bytes(blob[:_HEADER.size + meta_len // 2])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(saved)

    def test_truncated_arrays(self, saved):
        saved.write_bytes(saved.read_bytes()[:-10])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(saved)

    def test_trailing_garbage(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(saved)

    def test_corrupt_metadata_json(self, saved):
        blob = saved.read_bytes()
        meta_len = _HEADER.unpack_from(blob)[2]
        clobbered = (blob[:_HEADER.size] + b"{" * meta_len + blob[_HEADER.size + meta_len:])
        saved.write_bytes(clobbered)
        with pytest.raises(DataError, match="metadata"):
            load_checkpoint(saved)

    def test_renamed_array_reported_both_ways(self, saved):
        def mutate(meta):
            meta["arrays"][0]["name"] = "embedding.tablx"
        rewrite_metadata(saved, mutate)
        with pytest.raises(DataError, match=r"embedding\.table.*embedding\.tablx"):
            load_checkpoint(saved)

    def test_wrong_shape_reported(self, saved):
        def mutate(meta):
            meta["arrays"][0]["shape"] = meta["arrays"][0]["shape"][::-1]
        rewrite_metadata(saved, mutate)
        with pytest.raises(DataError, match="shape"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("mutate", [
        lambda meta: meta.pop("config"),
        lambda meta: meta.pop("arrays"),
        lambda meta: meta["arrays"][0].pop("name"),
        lambda meta: meta["arrays"][0].pop("shape"),
        lambda meta: meta.update(config=[]),
        lambda meta: meta.update(arrays={}),
        lambda meta: meta["arrays"][0].update(shape="5x4"),
        lambda meta: meta.update(vocab=5),
        lambda meta: meta.update(tag_vocab="xy"),
        lambda meta: meta.update(tag_vocab=["a", 1]),
        lambda meta: meta["class_weights"].pop("tag_counts"),
        lambda meta: meta["class_weights"]["tag_counts"].__setitem__(0, 0),
        lambda meta: meta["class_weights"].update(n_examples="40"),
        lambda meta: meta.update(class_weights=[40]),
        lambda meta: meta["config"].update(filter_sizes=5),
        lambda meta: meta["config"].update(filter_sizes=["2"]),
        lambda meta: meta["config"].update(dropout="0.4"),
        lambda meta: meta["config"].update(dropout="x"),
        lambda meta: meta["config"].update(lr=True),
        lambda meta: meta["config"].update(vocab_size=0),
        lambda meta: meta["config"].update(seed="x"),
        lambda meta: meta["config"].update(seq_len=10**12),
        lambda meta: meta["config"].update(n_segments=10**12),
        lambda meta: meta["config"].update(dense_sizes=[10**12, 10**12]),
    ], ids=["no-config", "no-arrays", "no-name", "no-shape",
            "config-list", "arrays-dict", "shape-string",
            "vocab-int", "tag-vocab-string", "tag-vocab-mixed",
            "no-tag-counts", "zero-tag-count", "n-examples-string", "class-weights-list",
            "filter-sizes-int", "filter-sizes-strings", "dropout-string", "dropout-x", "lr-bool", "vocab-size-zero",
            "seed-string", "seq-len-huge", "n-segments-huge", "dense-sizes-huge"])
    def test_missing_or_mistyped_metadata_exits_2(self, saved, mutate, capsys):
        rewrite_metadata(saved, mutate)
        assert main(["predict", "--checkpoint", str(saved), "--k", "1", "--text", "x"]) == 2
        assert str(saved) in capsys.readouterr().err

    def test_oversized_vocabulary_exits_2_naming_the_file(self, saved, capsys):
        rewrite_metadata(saved, lambda meta: meta["config"].update(vocab_size=10**12))
        assert main(["predict", "--checkpoint", str(saved), "--k", "1", "--text", "x"]) == 2
        assert str(saved) in capsys.readouterr().err

    @pytest.mark.parametrize("key, mutate, message", [
        ("tag_vocab", lambda tags: tags.__setitem__(1, tags[0]), "entry 1 'tag0' follows 'tag0'"),
        ("tag_vocab", lambda tags: tags.__setitem__(slice(1, 3), tags[2:0:-1]), "entry 2 'tag1' follows 'tag2'"),
        ("vocab", lambda words: words.__setitem__(3, words[1]), "entry 3 'word1' repeats entry 1"),
    ], ids=["repeated-tag", "swapped-tags", "repeated-word"])
    def test_misordered_or_repeated_vocabulary_exits_2_naming_the_entry(self, saved, key, mutate, message,
                                                                        capsys):
        # tags out of order would put the wrong tag on each output column
        rewrite_metadata(saved, lambda meta: mutate(meta[key]))
        assert main(["predict", "--checkpoint", str(saved), "--k", "3", "--text", "x"]) == 2
        err = capsys.readouterr().err
        assert f"{saved}: checkpoint '{key}'" in err and message in err

    def test_manifest_larger_than_the_file_exits_2_before_allocating(self, saved, capsys):
        # 10**15 rows of 5 floats is more than any address space holds, so
        # only a size check made before allocating can report it
        def mutate(meta):
            meta["config"]["vocab_size"] = 10**15
            meta["arrays"][0]["shape"][0] = 10**15 + 2
        rewrite_metadata(saved, mutate)
        assert main(["predict", "--checkpoint", str(saved), "--k", "1", "--text", "x"]) == 2
        err = capsys.readouterr().err
        assert str(saved) in err and "truncated" in err and "embedding.table" in err

    def test_config_key_smuggling_rejected(self, saved):
        def mutate(meta):
            meta["config"]["hidden_knob"] = 3
        rewrite_metadata(saved, mutate)
        from tagflow.errors import ConfigError
        with pytest.raises(ConfigError, match="hidden_knob"):
            load_checkpoint(saved)


def _fuzzed_checkpoints(blob, seed):
    """``(label, bytes)`` for ~220 seeded corruptions of a saved checkpoint."""
    rng = np.random.default_rng(seed)
    magic, version, meta_len = _HEADER.unpack_from(blob)
    meta_end = _HEADER.size + meta_len
    meta = json.loads(blob[_HEADER.size:meta_end].decode("utf-8"))

    def with_meta(mutate):
        doc = json.loads(json.dumps(meta))
        mutate(doc)
        meta_bytes = json.dumps(doc).encode("utf-8")
        return _HEADER.pack(magic, version, len(meta_bytes)) + meta_bytes + blob[meta_end:]

    def flipped(pos):
        out = bytearray(blob)
        out[pos] ^= int(rng.integers(1, 256))
        return bytes(out)

    boundaries = [0, 4, 6, _HEADER.size, meta_end]
    for entry in meta["arrays"]:
        boundaries.append(boundaries[-1] + 4 * math.prod(entry["shape"]))
    cuts = boundaries[:-1] + sorted(rng.integers(1, len(blob), size=30).tolist())
    for n in cuts:
        yield f"truncate@{n}", blob[:n]
    for pos in range(_HEADER.size):
        yield f"flip-header@{pos}", flipped(pos)
    for pos in sorted(rng.integers(_HEADER.size, meta_end, size=60).tolist()):
        yield f"flip-meta@{pos}", flipped(pos)

    retypes = [None, 7, 1.5, "x", [], {}, True]
    for key in ("config", "vocab", "tag_vocab", "class_weights", "arrays"):
        yield f"drop-{key}", with_meta(lambda d, key=key: d.pop(key))
        for value in retypes:
            yield f"{key}={value!r}", with_meta(lambda d, key=key, value=value: d.update({key: value}))
    for key in meta["config"]:
        yield f"drop-config.{key}", with_meta(lambda d, key=key: d["config"].pop(key))
        for value in retypes[::2]:
            yield f"config.{key}={value!r}", with_meta(
                lambda d, key=key, value=value: d["config"].update({key: value}))
    for key in ("name", "shape"):
        yield f"drop-arrays[0].{key}", with_meta(lambda d, key=key: d["arrays"][0].pop(key))
        yield f"arrays[0].{key}=7", with_meta(lambda d, key=key: d["arrays"][0].update({key: 7}))
    huge = 10**12
    for field in ModelConfig.__dataclass_fields__:
        if isinstance(meta["config"][field], int):
            yield f"config.{field}=10**12", with_meta(
                lambda d, field=field: d["config"].update({field: huge}))
    for field in ("filter_sizes", "dense_sizes"):
        yield f"config.{field}=[10**12]*2", with_meta(
            lambda d, field=field: d["config"].update({field: [huge, huge]}))


def test_fuzzed_checkpoints_exit_cleanly_and_name_the_file(tmp_path, synthetic_lexicon_path, capsys):
    """No corruption of a checkpoint escapes as an exception from ``predict``."""
    model = build_fitted_model(variant="cnn_fe")
    model.tag_vocab = TagVocabulary(["anger", "joy", "murder", "romantic", "violence"])
    source = tmp_path / "source.ckpt"
    save_checkpoint(model, source)
    blob = source.read_bytes()
    path = tmp_path / "fuzzed.ckpt"
    outcomes = {0: 0, 1: 0, 2: 0}
    for label, data in _fuzzed_checkpoints(blob, seed=8):
        path.write_bytes(data)
        code = main(["predict", "--checkpoint", str(path), "--lexicon", str(synthetic_lexicon_path),
                     "--k", "1", "--text", "word3 word7 joy murder"])
        err = capsys.readouterr().err
        assert code in outcomes, (label, code, err)
        assert code == 0 or str(path) in err, (label, code, err)
        outcomes[code] += 1
    assert sum(outcomes.values()) >= 200
    assert outcomes[2] > outcomes[0] > 0
