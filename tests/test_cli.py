"""End-to-end command-line flows on a six-movie corpus with tiny models."""

from __future__ import annotations

import json
import runpy
import shutil
import warnings
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import GOLDEN_SYNOPSIS, brute_force_micro_f1, make_record, write_corpus_csv
from tagflow import cli
from tagflow import model as model_module
from tagflow.autodiff import kl_divergence
from tagflow.checkpoint import load_checkpoint, save_checkpoint
from tagflow.cli import main
from tagflow.corpus import Split, encode_records, load_corpus, load_stopwords
from tagflow.emotion import load_lexicon
from tagflow.metrics import MetricsReport
from tagflow.model import MAX_INPUT_ROWS, TagModel

TINY_DIMS = [
    "--set", "model.seq_len=12",
    "--set", "model.embed_dim=5",
    "--set", "model.filter_sizes=[2,3]",
    "--set", "model.filters_per_size=3",
    "--set", "model.n_segments=4",
    "--set", "model.lstm_units=2",
    "--set", "model.dense_sizes=[8,6]",
    "--set", "model.dropout=0.1",
    "--set", "train.max_epochs=2",
    "--set", "train.patience=1",
    "--set", "train.batch_size=4",
]


def main_without_warnings(argv):
    """``main(argv)``'s exit status; the run must emit no Python warning.

    pytest captures warnings, so a test reading stderr alone would not see one.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(argv)
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    return status


@pytest.fixture(scope="session")
def workspace(tmp_path_factory, toy_corpus_records, synthetic_lexicon_path):
    """One trained cnn_fe and one trained cnn checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    corpus = write_corpus_csv(root / "corpus.csv", toy_corpus_records)
    lexicon = str(synthetic_lexicon_path)

    fe_dir = root / "fe"
    status = main(["train", "--corpus", str(corpus), "--out", str(fe_dir),
                   "--variant", "cnn_fe", "--lexicon", lexicon, *TINY_DIMS])
    assert status == 0

    cnn_dir = root / "cnn"
    status = main(["train", "--corpus", str(corpus), "--out", str(cnn_dir),
                   "--variant", "cnn", *TINY_DIMS])
    assert status == 0

    return SimpleNamespace(
        corpus=str(corpus),
        lexicon=lexicon,
        fe_dir=fe_dir,
        fe_ckpt=str(fe_dir / "model.ckpt"),
        cnn_ckpt=str(cnn_dir / "model.ckpt"),
    )


class TestArgumentHandling:
    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 1
        assert "command" in capsys.readouterr().err

    def test_unknown_command_fails(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_fails(self, capsys):
        assert main(["train", "--bogus"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_bad_variant_choice_fails(self, capsys):
        assert main(["train", "--variant", "transformer"]) == 1

    @pytest.mark.parametrize("command", ["predict", "emotion-flow"])
    def test_text_and_input_together_exit_1(self, command, workspace, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text("ghosts in the manor\n", encoding="utf-8")
        flags = ["--checkpoint", workspace.fe_ckpt, "--k", "2"] if command == "predict" else []
        status = main([command, *flags, "--lexicon", workspace.lexicon,
                       "--text", "the detective hunts a killer", "--input", str(batch)])
        assert status == 1
        assert "error: argument --input: not allowed with argument --text" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "  \t "], ids=["empty", "whitespace"])
    @pytest.mark.parametrize("command", ["predict", "emotion-flow"])
    def test_blank_text_exits_1(self, command, text, workspace, tmp_path, capsys):
        out = tmp_path / "out.txt"
        flags = ["--checkpoint", workspace.fe_ckpt, "--k", "2"] if command == "predict" else []
        status = main([command, *flags, "--lexicon", workspace.lexicon, "--text", text, "--out", str(out)])
        err = capsys.readouterr().err
        assert status == 1
        assert "--text is blank" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["m1\t", "m1\t   "], ids=["empty", "whitespace"])
    @pytest.mark.parametrize("command", ["predict", "emotion-flow"])
    def test_blank_input_text_exits_2_naming_the_line(self, command, line, workspace, tmp_path, capsys):
        batch = tmp_path / "batch.tsv"
        batch.write_text(f"\n{line}\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        flags = ["--checkpoint", workspace.fe_ckpt, "--k", "2"] if command == "predict" else []
        status = main([command, *flags, "--lexicon", workspace.lexicon, "--input", str(batch), "--out", str(out)])
        err = capsys.readouterr().err
        assert status == 2
        assert f"{batch}: line 2: movie 'm1' has a blank text" in err and "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["predict", "emotion-flow"])
    def test_text_with_no_word_exits_1(self, command, workspace, tmp_path, capsys):
        out = tmp_path / "out.txt"
        flags = ["--checkpoint", workspace.fe_ckpt, "--k", "2"] if command == "predict" else ["--n-segments", "2"]
        status = main([command, *flags, "--lexicon", workspace.lexicon, "--text", "!!! ... -- ?", "--out", str(out)])
        err = capsys.readouterr().err
        assert status == 1
        assert "--text has no word" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line, movie", [("m1\t!!! ...", "m1"), ("-- ?!", "input-2")], ids=["tsv", "raw"])
    @pytest.mark.parametrize("command", ["predict", "emotion-flow"])
    def test_input_text_with_no_word_exits_2_naming_the_line(self, command, line, movie, workspace, tmp_path,
                                                             capsys):
        batch = tmp_path / "batch.tsv"
        batch.write_text(f"\n{line}\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        flags = ["--checkpoint", workspace.fe_ckpt, "--k", "2"] if command == "predict" else []
        status = main([command, *flags, "--lexicon", workspace.lexicon, "--input", str(batch), "--out", str(out)])
        err = capsys.readouterr().err
        assert status == 2
        assert f"{batch}: line 2: movie '{movie}' has no word" in err and "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_artifacts_and_adapted_config(self, workspace):
        assert (workspace.fe_dir / "model.ckpt").exists()
        assert (workspace.fe_dir / "history.jsonl").exists()
        doc = json.loads((workspace.fe_dir / "config.json").read_text(encoding="utf-8"))
        assert doc["model"]["variant"] == "cnn_fe"
        assert doc["model"]["n_tags"] == 4       # murder, paranormal, romantic, violence
        assert doc["model"]["lstm_units"] == 2   # --set override took hold
        assert doc["train"]["max_epochs"] == 2
        history = [json.loads(line)
                   for line in (workspace.fe_dir / "history.jsonl").read_text().splitlines()]
        assert [h["epoch"] for h in history] == list(range(1, len(history) + 1))

    def test_class_weights_count_the_full_training_split(self, workspace):
        # t4 is the only "paranormal" record; even when the validation split
        # takes it, the stored weights still count it
        from tagflow.checkpoint import load_checkpoint
        model = load_checkpoint(workspace.fe_ckpt)
        assert model.tag_vocab.tags == ["murder", "paranormal", "romantic", "violence"]
        assert model.class_weights.n_examples == 6
        assert model.class_weights.tag_counts == (3, 1, 2, 2)

    def test_flow_variant_requires_lexicon(self, toy_corpus_path, tmp_path, capsys):
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                       "--variant", "cnn_fe", *TINY_DIMS])
        assert status == 1
        assert "--lexicon" in capsys.readouterr().err

    def test_pretrained_variant_requires_embeddings(self, toy_corpus_path, tmp_path,
                                                    synthetic_lexicon_path, capsys):
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                       "--variant", "cnn_fe_pretrained", "--lexicon", str(synthetic_lexicon_path),
                       *TINY_DIMS])
        assert status == 1
        assert "--embeddings" in capsys.readouterr().err

    def test_missing_corpus_file_is_a_data_error(self, tmp_path, capsys):
        status = main(["train", "--corpus", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "m"), "--variant", "cnn", *TINY_DIMS])
        assert status == 2

    def test_too_few_train_records_for_a_validation_set_is_a_data_error(self, tmp_path, toy_corpus_records,
                                                                        capsys):
        records = [r for r in toy_corpus_records if r.movie_id in ("t1", "t2", "t3", "t4", "x1")]
        corpus = write_corpus_csv(tmp_path / "four.csv", records)
        status = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m"),
                       "--variant", "cnn", *TINY_DIMS])
        err = capsys.readouterr().err
        assert status == 2
        assert str(corpus) in err and "4 train records" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("below", ["", "sub/dir"], ids=["a-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_the_corpus_is_read(
            self, below, toy_corpus_path, tmp_path, monkeypatch, capsys):
        # a file as --out, and a path under a file
        blocker = tmp_path / "notadir"
        blocker.write_text("kept\n", encoding="utf-8")
        reads = []
        monkeypatch.setattr(cli, "load_corpus", lambda path: reads.append(path))
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(blocker / below),
                       "--variant", "cnn", *TINY_DIMS])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: ") and f"{blocker} is not a directory" in err
        assert "Traceback" not in err
        assert reads == []
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    def test_invalid_config_json_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["train", "--config", str(bad)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_config_with_a_byte_order_mark_is_read(self, toy_corpus_path, tmp_path, capsys):
        # the file's variant is parsed, so the missing --lexicon is what fails
        config = tmp_path / "bom.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"model": {"variant": "cnn_fe"}}).encode("utf-8"))
        status = main(["train", "--config", str(config), "--corpus", str(toy_corpus_path),
                       "--out", str(tmp_path / "m")])
        assert status == 1
        err = capsys.readouterr().err
        assert "--lexicon" in err and "BOM" not in err

    def test_config_file_drives_the_run(self, toy_corpus_path, tmp_path, capsys):
        # the file selects cnn_fe, so the missing --lexicon must be noticed
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": {"variant": "cnn_fe"}}), encoding="utf-8")
        status = main(["train", "--config", str(config), "--corpus", str(toy_corpus_path),
                       "--out", str(tmp_path / "m")])
        assert status == 1
        assert "--lexicon" in capsys.readouterr().err

    def test_seed_flag_reaches_both_configs(self, toy_corpus_path, tmp_path):
        out = tmp_path / "seeded"
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(out),
                       "--variant", "cnn", "--seed", "7", *TINY_DIMS])
        assert status == 0
        doc = json.loads((out / "config.json").read_text(encoding="utf-8"))
        assert doc["model"]["seed"] == 7
        assert doc["train"]["seed"] == 7

    def test_model_lr_warns_that_train_lr_is_the_one_used(self, toy_corpus_path, tmp_path, capsys):
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                       "--variant", "cnn", *TINY_DIMS, "--set", "model.lr=0.01"])
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert status == 0
        assert len(warnings) == 1
        assert "model.lr=0.01" in warnings[0] and "train.lr" in warnings[0]

    def test_default_model_lr_gives_no_warning(self, toy_corpus_path, tmp_path, capsys):
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                       "--variant", "cnn", *TINY_DIMS, "--set", "train.lr=0.01"])
        assert status == 0
        assert "model.lr" not in capsys.readouterr().err

    @pytest.mark.parametrize("max_epochs", [1, 2])
    def test_non_finite_validation_loss_exits_3_naming_the_epoch(self, max_epochs, toy_corpus_path,
                                                                 tmp_path, capsys):
        # one batch per epoch, and a step this large overflows the float32 weights
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                       "--variant", "cnn", *TINY_DIMS, "--set", "train.lr=1e38", "--set", "train.batch_size=32",
                       "--set", f"train.max_epochs={max_epochs}", "--set", "train.patience=0"])
        err = capsys.readouterr().err
        assert status == 3
        assert "non-finite validation loss at epoch 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m").exists()

    def test_failed_rerun_leaves_the_earlier_run_as_it_was(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(workspace.fe_dir, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == ["config.json", "history.jsonl", "model.ckpt"]
        # one batch per epoch, and a step this large overflows the float32 weights
        status = main(["train", "--config", str(out / "config.json"), "--out", str(out), "--set", "train.lr=1e38",
                       "--set", "train.batch_size=32", "--set", "train.max_epochs=1", "--set", "train.patience=0"])
        assert status == 3
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_embedding_exits_2_naming_the_line(self, value, toy_corpus_path, synthetic_lexicon_path,
                                                         tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"killer 0.1 0.2 0.3 0.4 0.5\ndetective 0.1 {value} 0.3 0.4 0.5\n", encoding="utf-8")
        out = tmp_path / "m"
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(out),
                       "--variant", "cnn_fe_pretrained", "--lexicon", str(synthetic_lexicon_path),
                       "--embeddings", str(vectors), *TINY_DIMS])
        assert status == 2
        assert capsys.readouterr().err == f"error: [model] {vectors}: line 2: non-finite vector component\n"
        assert not out.exists()

    def test_overflowing_step_prints_only_the_error_line(self, toy_corpus_path, tmp_path, capsys):
        status = main_without_warnings([
            "train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"), "--variant", "cnn",
            *TINY_DIMS, "--set", "train.lr=1e38", "--set", "train.batch_size=32",
            "--set", "train.max_epochs=1", "--set", "train.patience=0"])
        assert status == 3
        assert capsys.readouterr().err == "error: [train] non-finite validation loss at epoch 1\n"

    @pytest.mark.parametrize("via", ["set", "file"])
    def test_configured_n_tags_other_than_the_tag_count_exits_1_writing_nothing(
            self, via, toy_corpus_path, tmp_path, capsys):
        if via == "set":
            given = ["--set", "model.n_tags=3"]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"model": {"n_tags": 3}}), encoding="utf-8")
            given = ["--config", str(config)]
        out = tmp_path / "m"
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(out),
                       "--variant", "cnn", *TINY_DIMS, *given])
        assert status == 1
        err = capsys.readouterr().err
        assert "error: model.n_tags is 3, but the training split" in err and "has 4 tags" in err
        assert not out.exists()

    def test_written_config_reruns_to_the_same_checkpoint(self, workspace, tmp_path, capsys):
        # config.json records n_tags as the tag count, which a rerun accepts
        out = tmp_path / "rerun"
        status = main(["train", "--config", str(workspace.fe_dir / "config.json"), "--out", str(out)])
        assert status == 0
        assert (out / "model.ckpt").read_bytes() == Path(workspace.fe_ckpt).read_bytes()
        first, again = (json.loads((d / "config.json").read_text(encoding="utf-8"))
                        for d in (workspace.fe_dir, out))
        assert {**again, "out": None} == {**first, "out": None}

    @pytest.mark.parametrize("assignment,named", [
        ("model.dropout=x", "[model] dropout"),
        ('train.batch_size="8"', "[train] batch_size"),
        ('model.filter_sizes=["a"]', "[model] filter_sizes"),
        ('model.lr="x"', "[model] lr"),
        ("train.lr=true", "[train] lr"),
    ])
    def test_config_value_of_the_wrong_type_exits_1(self, assignment, named, toy_corpus_path,
                                                    tmp_path, capsys):
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                       "--variant", "cnn", *TINY_DIMS, "--set", assignment])
        err = capsys.readouterr().err
        assert status == 1
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc,key", [
        ({"model": 3}, "model"),
        ({"train": 3}, "train"),
        ({"model": [1, 2]}, "model"),
        ({"out": 5}, "out"),
        ({"corpus": 5}, "corpus"),
        ({"corpus": True}, "corpus"),
        ({"lexicon": 7}, "lexicon"),
        ({"embeddings": 1.5}, "embeddings"),
    ], ids=["model-int", "train-int", "model-list", "out-int", "corpus-int", "corpus-bool",
            "lexicon-int", "embeddings-float"])
    @pytest.mark.parametrize("via", ["file", "set"])
    def test_config_section_or_path_of_the_wrong_type_exits_1(self, doc, key, via, tmp_path, capsys):
        if via == "file":
            config = tmp_path / "run.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            source = ["--config", str(config)]
        else:
            source = ["--set", f"{key}={json.dumps(doc[key])}"]
        status = main(["train", "--variant", "cnn", *source])
        err = capsys.readouterr().err
        assert status == 1
        assert f"'{key}'" in err
        assert "Traceback" not in err

    def test_unknown_config_key_is_rejected(self, toy_corpus_path, tmp_path, capsys):
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                       "--variant", "cnn", "--set", "model.hidden_size=9", *TINY_DIMS])
        assert status == 1
        assert "hidden_size" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment", ["modle.seq_len=9", "trian.lr=5", "seq_len=9"])
    @pytest.mark.parametrize("via", ["file", "set"])
    def test_unknown_top_level_config_key_exits_1_naming_it(self, assignment, via, toy_corpus_path,
                                                            tmp_path, capsys):
        key, _, raw = assignment.partition("=")
        if via == "file":
            doc = json.loads(raw)
            for part in reversed(key.split(".")):
                doc = {part: doc}
            config = tmp_path / "run.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            source = ["--config", str(config)]
        else:
            source = ["--set", assignment]
        status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                       "--variant", "cnn", *TINY_DIMS, *source])
        err = capsys.readouterr().err
        assert status == 1
        assert f"'{key.split('.')[0]}'" in err
        assert not (tmp_path / "m").exists()


@pytest.fixture
def nan_checkpoint(workspace, tmp_path):
    """The trained cnn_fe checkpoint with one output bias set to NaN."""
    model = load_checkpoint(workspace.fe_ckpt)
    model.dense_out.bias.data[0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path)
    return str(path)


class TestPredict:
    def test_output_is_a_ranked_distribution(self, workspace, capsys):
        status = main(["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                       "--k", "4", "--text", "the detective hunts a killer"])
        assert status == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == ["input-1"] * 4
        assert [int(r[1]) for r in rows] == [1, 2, 3, 4]
        probs = [float(r[3]) for r in rows]
        assert sorted(probs, reverse=True) == probs
        assert abs(sum(probs) - 1.0) < 1e-4  # k equals the tag count here
        assert len({r[2] for r in rows}) == 4

    def test_same_input_same_output(self, workspace, capsys):
        argv = ["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                "--k", "2", "--text", "ghosts haunt the manor"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_batch_file_keeps_input_order_and_ids(self, workspace, tmp_path, capsys):
        batch = tmp_path / "batch.tsv"
        batch.write_text("movieA\tthe killer strikes again\n"
                         "a love story in the village\n"
                         "movieC\tghosts in the manor\n", encoding="utf-8")
        status = main(["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                       "--k", "1", "--input", str(batch)])
        assert status == 0
        ids = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
        assert ids == ["movieA", "input-2", "movieC"]

    def test_out_flag_writes_instead_of_printing(self, workspace, tmp_path, capsys):
        out = tmp_path / "preds.tsv"
        status = main(["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                       "--k", "2", "--text", "a charming summer", "--out", str(out)])
        assert status == 0
        assert capsys.readouterr().out == ""
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2

    def test_plain_variant_needs_no_lexicon(self, workspace, capsys):
        status = main(["predict", "--checkpoint", workspace.cnn_ckpt,
                       "--k", "2", "--text", "the detective hunts a killer"])
        assert status == 0

    def test_flow_variant_without_lexicon_fails(self, workspace, capsys):
        status = main(["predict", "--checkpoint", workspace.fe_ckpt,
                       "--k", "2", "--text", "something"])
        assert status == 1
        assert "--lexicon" in capsys.readouterr().err

    def test_default_k_exceeding_tag_count_fails(self, workspace, capsys):
        # default k is 5 but the toy corpus trains only 4 tags
        status = main(["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                       "--text", "something"])
        assert status == 1
        assert "[1, 4]" in capsys.readouterr().err

    def test_k_list_rejected(self, workspace, capsys):
        status = main(["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                       "--k", "2,3", "--text", "something"])
        assert status == 1

    def test_text_or_input_required(self, workspace, capsys):
        status = main(["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                       "--k", "2"])
        assert status == 1

    def test_checkpoint_flag_required(self, capsys):
        assert main(["predict", "--k", "2", "--text", "x"]) == 1

    def test_missing_checkpoint_file_is_a_data_error(self, tmp_path, capsys):
        status = main(["predict", "--checkpoint", str(tmp_path / "nope.ckpt"),
                       "--k", "2", "--text", "x"])
        assert status == 2

    def test_repeated_movie_id_exits_2_naming_both_lines(self, workspace, tmp_path, capsys):
        batch = tmp_path / "batch.tsv"
        batch.write_text("movieA\tthe killer strikes again\n"
                         "movieB\ta love story\n"
                         "\n"
                         "movieA\tghosts in the manor\n", encoding="utf-8")
        out = tmp_path / "preds.tsv"
        status = main(["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                       "--k", "2", "--input", str(batch), "--out", str(out)])
        assert status == 2
        assert f"error: [predict] {batch}: line 4: movie id 'movieA' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_prediction_exits_3_naming_the_movie(self, workspace, nan_checkpoint, tmp_path, capsys):
        batch = tmp_path / "batch.tsv"
        batch.write_text("movieA\tthe killer strikes again\nmovieB\tghosts in the manor\n", encoding="utf-8")
        out = tmp_path / "preds.tsv"
        status = main(["predict", "--checkpoint", nan_checkpoint, "--lexicon", workspace.lexicon,
                       "--k", "2", "--input", str(batch), "--out", str(out)])
        assert status == 3
        captured = capsys.readouterr()
        assert "error: [predict] non-finite tag probability for movie 'movieA'" in captured.err
        assert captured.out == "" and not out.exists()


class TestEvaluate:
    def test_reports_and_prediction_files_per_k(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        status = main(["evaluate", "--checkpoint", workspace.fe_ckpt, "--corpus", workspace.corpus,
                       "--lexicon", workspace.lexicon, "--k", "1,2", "--out", str(out)])
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("k=1") and lines[1].startswith("k=2")
        for k in (1, 2):
            report = MetricsReport.from_json((out / f"metrics_k{k}.json").read_text(encoding="utf-8"))
            assert report.k == k
            assert report.metadata["variant"] == "cnn_fe"
            assert report.metadata["n_movies"] == 3
            assert report.metadata["mean_kl"] > 0
            assert 0.0 <= report.micro_f1 <= 1.0
            pred_lines = (out / f"predictions_k{k}.tsv").read_text(encoding="utf-8").splitlines()
            assert len(pred_lines) == 3 * k
            assert {line.split("\t")[0] for line in pred_lines} == {"x1", "x2", "x3"}

    @staticmethod
    def _evaluate(workspace, corpus, out):
        status = main(["evaluate", "--checkpoint", workspace.fe_ckpt, "--corpus", str(corpus),
                       "--lexicon", workspace.lexicon, "--k", "1,2", "--out", str(out)])
        assert status == 0
        return {k: MetricsReport.from_json((out / f"metrics_k{k}.json").read_text(encoding="utf-8"))
                for k in (1, 2)}

    def test_movie_without_a_training_tag_is_ranked_and_scored_but_not_in_the_kl(
            self, workspace, toy_corpus_records, tmp_path, capsys):
        western = make_record("x4", "a lone rider crosses the desert town", ["western"], split=Split.TEST)
        corpus = write_corpus_csv(tmp_path / "corpus.csv", [*toy_corpus_records, western])
        reports = self._evaluate(workspace, corpus, tmp_path / "eval")
        known = self._evaluate(workspace, workspace.corpus, tmp_path / "known")
        truths = {r.movie_id: set(r.tags) for r in [*toy_corpus_records, western] if r.split is Split.TEST}
        for k in (1, 2):
            assert reports[k].metadata["n_movies"] == 4
            assert reports[k].metadata["mean_kl"] == known[k].metadata["mean_kl"]
            lines = (tmp_path / "eval" / f"predictions_k{k}.tsv").read_text(encoding="utf-8").splitlines()
            known_lines = (tmp_path / "known" / f"predictions_k{k}.tsv").read_text(encoding="utf-8").splitlines()
            assert lines[:3 * k] == known_lines and [line.split("\t")[0] for line in lines[3 * k:]] == ["x4"] * k
            preds = {}
            for line in lines:
                preds.setdefault(line.split("\t")[0], []).append(line.split("\t")[2])
            # 'western' counts as a miss in micro-F1 and is skipped by the per-tag recall
            assert reports[k].micro_f1 == pytest.approx(brute_force_micro_f1(preds, truths))
            assert reports[k].per_tag_recall == known[k].per_tag_recall

    def test_mean_kl_is_null_when_no_test_movie_has_a_training_tag(self, workspace, toy_corpus_records,
                                                                  tmp_path, capsys):
        train = [r for r in toy_corpus_records if r.split is Split.TRAIN]
        unseen = [make_record("x1", "a lone rider crosses the desert town", ["western"], split=Split.TEST)]
        corpus = write_corpus_csv(tmp_path / "corpus.csv", train + unseen)
        reports = self._evaluate(workspace, corpus, tmp_path / "eval")
        assert all(r.metadata["mean_kl"] is None and r.micro_f1 == 0.0 for r in reports.values())
        assert '"mean_kl": null' in (tmp_path / "eval" / "metrics_k1.json").read_text(encoding="utf-8")

    def test_mean_kl_is_the_unweighted_kl_of_each_forward_bit_for_bit(self, workspace, tmp_path, capsys):
        reports = self._evaluate(workspace, workspace.corpus, tmp_path / "eval")
        model = load_checkpoint(workspace.fe_ckpt)
        assert model.class_weights is not None  # a class-weighted variant, yet the reported KL is unweighted
        test_records = [r for r in load_corpus(workspace.corpus) if r.split is Split.TEST]
        examples = encode_records(test_records, model.vocab, model.tag_vocab, load_stopwords(),
                                  lexicon=load_lexicon(workspace.lexicon), max_len=model.config.seq_len,
                                  n_segments=model.config.n_segments)
        total = weighted = 0.0
        for ex in examples:
            probs = model.forward(ex.tokens, ex.flow)
            total += float(kl_divergence(ex.target, probs).data)
            weighted += float(kl_divergence(ex.target, probs, weights=model.class_weights.weights).data)
        for report in reports.values():
            assert report.metadata["mean_kl"] == total / len(examples)
            assert report.metadata["mean_kl"] != weighted / len(examples)

    def test_movie_with_an_unseen_tag_emits_no_warning(self, workspace, toy_corpus_records, tmp_path,
                                                        capsys):
        western = make_record("x4", "a lone rider crosses the desert town", ["murder", "western"],
                              split=Split.TEST)
        corpus = write_corpus_csv(tmp_path / "corpus.csv", [*toy_corpus_records, western])
        status = main_without_warnings(["evaluate", "--checkpoint", workspace.fe_ckpt, "--corpus", str(corpus),
                                        "--lexicon", workspace.lexicon, "--k", "1"])
        assert status == 0
        assert capsys.readouterr().err == ""

    def test_repeated_k_exits_1_before_writing_anything(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        status = main(["evaluate", "--checkpoint", workspace.fe_ckpt, "--corpus", workspace.corpus,
                       "--lexicon", workspace.lexicon, "--k", "3,1,3", "--out", str(out)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.err == "error: --k repeats 3 in '3,1,3'\n"
        assert captured.out == "" and not out.exists()

    def test_oversized_k_fails_cleanly(self, workspace, capsys):
        status = main(["evaluate", "--checkpoint", workspace.fe_ckpt, "--corpus", workspace.corpus,
                       "--lexicon", workspace.lexicon, "--k", "9"])
        assert status == 1

    def test_oversized_k_in_a_list_fails_before_writing_anything(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        out.mkdir()
        status = main(["evaluate", "--checkpoint", workspace.fe_ckpt, "--corpus", workspace.corpus,
                       "--lexicon", workspace.lexicon, "--k", "1,9", "--out", str(out)])
        assert status == 1
        assert "error: --k must be in [1, 4]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_non_finite_prediction_exits_3_naming_the_movie(self, workspace, nan_checkpoint, tmp_path, capsys):
        out = tmp_path / "eval"
        status = main(["evaluate", "--checkpoint", nan_checkpoint, "--corpus", workspace.corpus,
                       "--lexicon", workspace.lexicon, "--k", "1,2", "--out", str(out)])
        assert status == 3
        captured = capsys.readouterr()
        assert "error: [evaluate] non-finite tag probability for movie 'x1'" in captured.err
        assert captured.out == "" and not out.exists()

    def test_non_integer_k_fails(self, workspace, capsys):
        status = main(["evaluate", "--checkpoint", workspace.fe_ckpt, "--corpus", workspace.corpus,
                       "--lexicon", workspace.lexicon, "--k", "two"])
        assert status == 1

    def test_corpus_required(self, workspace, capsys):
        status = main(["evaluate", "--checkpoint", workspace.fe_ckpt,
                       "--lexicon", workspace.lexicon, "--k", "2"])
        assert status == 1
        assert "--corpus" in capsys.readouterr().err


class TestSharedConv:
    """``evaluate`` runs one Bi-LSTM over every test movie's flow and one conv
    per test movie, and hands each movie's trunk to both its probabilities
    and its KL; every output must keep the bits of one full forward per pass,
    and ``predict --input`` those of one ``--text`` run per synopsis."""

    #: Test synopses of every kind: long and short (padded), repeated words, all
    #: stopwords (all padding), one unknown word throughout, one word after padding.
    TEXTS = [
        "a detective chases a killer through the rainy city",
        "a charming love story blooms in the village " * 3,
        "ghosts haunt the manor and violence follows",
        "killer killer love killer love love killer killer love",
        "the and of a",
        "zorblax " * 20,
        "ghosts",
        "violence erupts as rival gangs fight for the city while a detective sets a trap for the ruthless killer",
    ]

    @staticmethod
    def one_forward_per_movie(monkeypatch):
        """Make every forward run its own lookup, conv and flow branch, ignoring a given trunk."""
        forward = TagModel.forward
        monkeypatch.setattr(TagModel, "forward", lambda self, tokens, flow=None, dropout_rng=None, *, trunk=None:
                            forward(self, tokens, flow, dropout_rng))

    def evaluate(self, checkpoint, corpus, out, lexicon):
        status = main(["evaluate", "--checkpoint", checkpoint, "--corpus", str(corpus),
                       "--lexicon", lexicon, "--k", "1,3", "--out", str(out)])
        assert status == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    def check_evaluate(self, checkpoint, uses_flow, workspace, toy_corpus_records, tmp_path, monkeypatch):
        tags = [["murder"], ["romantic"], ["paranormal", "violence"], ["murder", "romantic"], ["violence"],
                ["western"], ["paranormal"], ["murder", "violence"]]
        records = [*(r for r in toy_corpus_records if r.split is Split.TRAIN),
                   *(make_record(f"y{i}", text, t, split=Split.TEST) for i, (text, t) in enumerate(zip(self.TEXTS, tags)))]
        corpus = write_corpus_csv(tmp_path / "corpus.csv", records)
        calls = {"conv": 0, "bilstm": 0, "forward": 0}
        conv_bank_forward, bilstm_forward, forward = (model_module.conv_bank_forward, model_module.bilstm_forward,
                                                      TagModel.forward)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(model_module, "conv_bank_forward", counted("conv", conv_bank_forward))
            m.setattr(model_module, "bilstm_forward", counted("bilstm", bilstm_forward))
            m.setattr(TagModel, "forward", counted("forward", forward))
            shared = self.evaluate(checkpoint, corpus, tmp_path / "shared", workspace.lexicon)
        # 8 test movies, 7 of them with a training tag and so in the KL
        assert calls == {"conv": 8, "bilstm": int(uses_flow), "forward": 15}
        self.one_forward_per_movie(monkeypatch)
        assert self.evaluate(checkpoint, corpus, tmp_path / "alone", workspace.lexicon) == shared
        assert len(shared) == 4 and MetricsReport.from_json(shared["metrics_k1.json"].decode()).metadata["mean_kl"] > 0

    def test_evaluate_files_equal_the_one_at_a_time_path(self, workspace, toy_corpus_records, tmp_path,
                                                         monkeypatch, capsys):
        self.check_evaluate(workspace.fe_ckpt, True, workspace, toy_corpus_records, tmp_path, monkeypatch)

    def test_flowless_evaluate_files_equal_the_one_at_a_time_path(self, workspace, toy_corpus_records, tmp_path,
                                                                  monkeypatch, capsys):
        self.check_evaluate(workspace.cnn_ckpt, False, workspace, toy_corpus_records, tmp_path, monkeypatch)

    def test_predict_input_equals_a_text_run_per_synopsis(self, workspace, tmp_path, capsys):
        batch = tmp_path / "batch.tsv"
        batch.write_text("".join(f"m{i}\t{text}\n" for i, text in enumerate(self.TEXTS)), encoding="utf-8")
        argv = ["predict", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon, "--k", "3"]
        assert main([*argv, "--input", str(batch)]) == 0
        batched = capsys.readouterr().out
        alone = ""
        for i, text in enumerate(self.TEXTS):
            assert main([*argv, "--text", text]) == 0
            alone += capsys.readouterr().out.replace("input-1\t", f"m{i}\t")
        assert batched == alone and len(batched.splitlines()) == 3 * len(self.TEXTS)

    def test_nan_row_exits_3_naming_the_first_movie_it_reaches(self, workspace, tmp_path, capsys):
        """Only movies holding 'violence' score NaN, and the first of them in input order is named."""
        model = load_checkpoint(workspace.fe_ckpt)
        assert "violence" in model.vocab
        model.embedding.table.data[model.vocab.index("violence")] = np.nan
        checkpoint = tmp_path / "nan.ckpt"
        save_checkpoint(model, checkpoint)
        out = tmp_path / "eval"
        status = main(["evaluate", "--checkpoint", str(checkpoint), "--corpus", workspace.corpus,
                       "--lexicon", workspace.lexicon, "--k", "1", "--out", str(out)])
        assert status == 3
        captured = capsys.readouterr()
        assert "error: [evaluate] non-finite tag probability for movie 'x3'" in captured.err
        assert captured.out == "" and not out.exists()
        batch = tmp_path / "batch.tsv"
        batch.write_text("".join(f"m{i}\t{text}\n" for i, text in enumerate(self.TEXTS)), encoding="utf-8")
        preds = tmp_path / "preds.tsv"
        status = main(["predict", "--checkpoint", str(checkpoint), "--lexicon", workspace.lexicon,
                       "--k", "1", "--input", str(batch), "--out", str(preds)])
        assert status == 3
        captured = capsys.readouterr()
        assert "error: [predict] non-finite tag probability for movie 'm2'" in captured.err
        assert captured.out == "" and not preds.exists()


class TestBaselines:
    def test_reports_for_both_baselines(self, workspace, tmp_path, capsys):
        out = tmp_path / "base"
        status = main(["baselines", "--corpus", workspace.corpus, "--k", "2",
                       "--seed", "3", "--out", str(out)])
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.lstrip().startswith("most_frequent") for line in lines)
        assert any(line.lstrip().startswith("random") for line in lines)
        frequent = MetricsReport.from_json((out / "most_frequent_k2.json").read_text(encoding="utf-8"))
        assert frequent.k == 2
        assert frequent.tags_learned == 2  # a constant predictor shows exactly k tags
        random_report = MetricsReport.from_json((out / "random_k2.json").read_text(encoding="utf-8"))
        assert random_report.metadata["seed"] == 3

    def test_works_without_out_dir(self, workspace, capsys):
        assert main(["baselines", "--corpus", workspace.corpus, "--k", "1"]) == 0

    def test_negative_seed_exits_1_naming_the_flag_and_the_value(self, workspace, capsys):
        assert main(["baselines", "--corpus", workspace.corpus, "--k", "1", "--seed", "-3"]) == 1
        assert "error: --seed must be >= 0, got -3" in capsys.readouterr().err

    def test_repeated_k_exits_1_before_writing_anything(self, workspace, tmp_path, capsys):
        out = tmp_path / "base"
        status = main(["baselines", "--corpus", workspace.corpus, "--k", "2,2", "--out", str(out)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.err == "error: --k repeats 2 in '2,2'\n"
        assert captured.out == "" and not out.exists()

    def test_oversized_k_in_a_list_fails_before_writing_anything(self, workspace, tmp_path, capsys):
        out = tmp_path / "base"
        out.mkdir()
        status = main(["baselines", "--corpus", workspace.corpus, "--k", "1,9", "--out", str(out)])
        assert status == 1
        assert "error: --k must be in [1, 4]" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestReportJson:
    def test_every_written_report_has_the_bytes_of_its_asdict_json(self, workspace, tmp_path, monkeypatch, capsys):
        """``to_json`` of each report that evaluate, baselines and the metrics demo build."""
        reports = []
        to_json = MetricsReport.to_json
        with monkeypatch.context() as m:
            m.setattr(MetricsReport, "to_json", lambda self: reports.append(self) or to_json(self))
            for argv in (["evaluate", "--checkpoint", workspace.fe_ckpt, "--lexicon", workspace.lexicon,
                          "--k", "1,3"],
                         ["evaluate", "--checkpoint", workspace.cnn_ckpt, "--k", "2"],
                         ["baselines", "--k", "1,2", "--seed", "3"]):
                assert main([*argv, "--corpus", workspace.corpus, "--out", str(tmp_path / argv[0])]) == 0
        assert len(reports) == 7
        demo = runpy.run_path(str(Path(__file__).resolve().parents[1] / "demos" / "metrics_and_baselines.py"))
        reports += [value for value in demo.values() if isinstance(value, MetricsReport)]
        assert len(reports) == 9
        for report in reports:
            text = report.to_json()
            assert text == json.dumps(asdict(report), indent=2) + "\n"
            assert MetricsReport.from_json(text) == report


class TestCompare:
    @pytest.fixture
    def prediction_file(self, workspace, tmp_path):
        out = tmp_path / "eval"
        status = main(["evaluate", "--checkpoint", workspace.fe_ckpt, "--corpus", workspace.corpus,
                       "--lexicon", workspace.lexicon, "--k", "2", "--out", str(out)])
        assert status == 0
        return out / "predictions_k2.tsv"

    def test_file_against_itself_is_total_overlap(self, workspace, prediction_file,
                                                  tmp_path, capsys):
        out = tmp_path / "compare.json"
        status = main(["compare", str(prediction_file), str(prediction_file),
                       "--corpus", workspace.corpus, "--out", str(out)])
        assert status == 0
        stdout = capsys.readouterr().out
        assert ">=80%: 100.0%" in stdout
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["micro_f1_a"] == payload["micro_f1_b"]
        assert all(v == 1.0 for v in payload["per_movie_overlap"].values())
        assert all(d["delta"] == 0.0 for d in payload["recall_delta"])

    def test_disjoint_movie_sets_fail(self, workspace, prediction_file, tmp_path, capsys):
        other = tmp_path / "other.tsv"
        other.write_text("zz\t1\tmurder\t0.500000\nzz\t2\tromantic\t0.300000\n", encoding="utf-8")
        status = main(["compare", str(prediction_file), str(other),
                       "--corpus", workspace.corpus])
        assert status == 2
        assert "different movies" in capsys.readouterr().err

    def test_malformed_prediction_file_reports_line(self, workspace, prediction_file,
                                                    tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("x1\t1\tmurder\n", encoding="utf-8")
        status = main(["compare", str(prediction_file), str(bad), "--corpus", workspace.corpus])
        assert status == 2
        assert "line 1" in capsys.readouterr().err


    @pytest.mark.parametrize("second, repeated", [("x1\t1\tromantic\t0.3", "rank 1"),
                                                  ("x1\t2\tmurder\t0.3", "tag 'murder'")],
                             ids=["rank", "tag"])
    def test_repeated_rank_or_tag_within_a_movie_exits_2_naming_the_line(
            self, workspace, prediction_file, second, repeated, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"x2\t1\tromantic\t0.6\nx1\t1\tmurder\t0.5\n{second}\n", encoding="utf-8")
        status = main(["compare", str(prediction_file), str(bad), "--corpus", workspace.corpus])
        assert status == 2
        assert f"error: [predictions] {bad}: line 3: movie 'x1' repeats {repeated}" in capsys.readouterr().err


    @pytest.mark.parametrize("line, field, value, message", [
        (1, 1, "3", "movie '{movie}' has rank 3 but no rank 2"),
        (0, 1, "0", "line 1: rank 0 is below 1"),
        (0, 1, "-4", "line 1: rank -4 is below 1"),
        (0, 3, "notanumber", "line 1: probability 'notanumber' is not a number in [0, 1]"),
        (0, 3, "nan", "line 1: probability 'nan' is not a number in [0, 1]"),
        (0, 3, "inf", "line 1: probability 'inf' is not a number in [0, 1]"),
        (0, 3, "1.5", "line 1: probability '1.5' is not a number in [0, 1]"),
        (0, 3, "-0.25", "line 1: probability '-0.25' is not a number in [0, 1]"),
    ], ids=["rank-gap", "rank-0", "rank-negative", "probability-text", "probability-nan", "probability-inf",
            "probability-above-1", "probability-negative"])
    def test_ranks_not_1_to_n_or_probability_outside_0_1_exit_2(
            self, workspace, prediction_file, line, field, value, message, tmp_path, capsys):
        rows = [row.split("\t") for row in prediction_file.read_text(encoding="utf-8").splitlines()]
        assert [row[1] for row in rows[:2]] == ["1", "2"] and rows[0][0] == rows[1][0]
        rows[line][field] = value
        bad = tmp_path / "bad.tsv"
        bad.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        status = main(["compare", str(prediction_file), str(bad), "--corpus", workspace.corpus])
        assert status == 2
        expected = f"error: [predictions] {bad}: {message.format(movie=rows[0][0])}"
        assert expected in capsys.readouterr().err


class TestEmotionFlowCommand:
    def test_golden_synopsis_byte_exact(self, synthetic_lexicon_path, golden_synopsis,
                                        tmp_path, capsys):
        import pathlib
        golden = pathlib.Path(__file__).parent / "fixtures" / "emotion_flow_golden.csv"
        status = main(["emotion-flow", "--lexicon", str(synthetic_lexicon_path),
                       "--text", golden_synopsis])
        assert status == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

        out = tmp_path / "flow.csv"
        status = main(["emotion-flow", "--lexicon", str(synthetic_lexicon_path),
                       "--text", golden_synopsis, "--out", str(out)])
        assert status == 0
        assert out.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")

    def test_custom_segment_count(self, synthetic_lexicon_path, capsys):
        status = main(["emotion-flow", "--lexicon", str(synthetic_lexicon_path),
                       "--text", "gleam dread mourn", "--n-segments", "5"])
        assert status == 0
        assert len(capsys.readouterr().out.splitlines()) == 6

    @pytest.mark.parametrize("n_segments", [0, -3, MAX_INPUT_ROWS + 1])
    def test_segment_count_out_of_range_exits_1_naming_the_flag(self, n_segments, synthetic_lexicon_path,
                                                                capsys):
        status = main(["emotion-flow", "--lexicon", str(synthetic_lexicon_path),
                       "--text", "gleam dread mourn", "--n-segments", str(n_segments)])
        err = capsys.readouterr().err
        assert status == 1
        assert "--n-segments" in err and str(MAX_INPUT_ROWS) in err
        assert "Traceback" not in err

    def test_requires_exactly_one_text(self, synthetic_lexicon_path, tmp_path, capsys):
        batch = tmp_path / "two.txt"
        batch.write_text("first text\nsecond text\n", encoding="utf-8")
        status = main(["emotion-flow", "--lexicon", str(synthetic_lexicon_path),
                       "--input", str(batch)])
        assert status == 1

    def test_several_texts_exit_1_naming_the_file_and_the_count(self, synthetic_lexicon_path, tmp_path, capsys):
        batch = tmp_path / "three.tsv"
        batch.write_text("m1\tfirst text\n\nm2\tsecond text\nthird text\n", encoding="utf-8")
        status = main(["emotion-flow", "--lexicon", str(synthetic_lexicon_path), "--input", str(batch)])
        err = capsys.readouterr().err
        assert status == 1
        assert f"error: {batch}: emotion-flow takes exactly one text, found 3" in err
        assert "Traceback" not in err

    def test_requires_lexicon(self, capsys):
        assert main(["emotion-flow", "--text", "x"]) == 1
        assert "--lexicon" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n\n  \n"])
    def test_lexicon_without_entries_exits_2_naming_the_file(self, text, tmp_path, capsys):
        lexicon = tmp_path / "empty.txt"
        lexicon.write_text(text, encoding="utf-8")
        assert main(["emotion-flow", "--lexicon", str(lexicon), "--text", "gleam"]) == 2
        assert f"error: [lexicon] {lexicon}: no lexicon entries" in capsys.readouterr().err


class TestNonUtf8DataFiles:
    @pytest.mark.parametrize("role", ["corpus", "lexicon", "input", "predictions", "embeddings"])
    def test_exits_2_naming_the_file(self, role, toy_corpus_path, synthetic_lexicon_path, tmp_path, capsys):
        corpus, lexicon = str(toy_corpus_path), str(synthetic_lexicon_path)
        valid = {
            "corpus": toy_corpus_path.read_bytes(),
            "lexicon": synthetic_lexicon_path.read_bytes(),
            "input": b"m1\ta grim detective hunts the killer\n",
            "predictions": b"x1\t1\tmurder\t0.500000\n",
            "embeddings": b"killer 0.1 0.2 0.3 0.4 0.5\n",
        }[role]
        bad = tmp_path / f"{role}.latin1"
        bad.write_bytes(valid.replace(b"e", b"\xe9", 1))  # a Latin-1 e-acute
        argv = {
            "corpus": ["baselines", "--corpus", str(bad)],
            "lexicon": ["emotion-flow", "--lexicon", str(bad), "--text", "a grim tale"],
            "input": ["emotion-flow", "--lexicon", lexicon, "--input", str(bad)],
            "predictions": ["compare", str(bad), str(bad), "--corpus", corpus],
            "embeddings": ["train", "--corpus", corpus, "--out", str(tmp_path / "m"),
                           "--variant", "cnn_fe_pretrained", "--lexicon", lexicon,
                           "--embeddings", str(bad), *TINY_DIMS],
        }[role]
        status = main(argv)
        err = capsys.readouterr().err
        assert status == 2
        assert str(bad) in err and "not UTF-8" in err and "0xe9" in err
        assert "Traceback" not in err


def test_non_utf8_config_exits_1_naming_the_file(toy_corpus_path, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes('{"model": {"variant": "caf\u00e9"}}'.encode("latin-1"))
    status = main(["train", "--corpus", str(toy_corpus_path), "--out", str(tmp_path / "m"),
                   "--config", str(config)])
    err = capsys.readouterr().err
    assert status == 1
    assert f"{config}: not UTF-8 text: byte 0xe9: invalid continuation byte" in err
    assert "Traceback" not in err


def _fuzzed(data, rng, fields=b"\t"):
    """``(label, bytes)`` corruptions of one data file: truncations, XOR-flipped
    bytes, each field of the first (header) line and one field of every other
    line dropped, and inserted NUL and non-UTF-8 bytes."""
    for cut in sorted({0, 1, len(data) // 2, len(data) - 1, *rng.integers(1, len(data), 8).tolist()}):
        yield f"truncate@{cut}", data[:cut]
    for at in rng.integers(0, len(data), 16).tolist():
        flipped = bytearray(data)
        flipped[at] ^= int(rng.integers(1, 256))
        yield f"xor@{at}", bytes(flipped)
    lines = data.split(b"\n")
    for i, line in enumerate(lines):
        parts = line.split(fields)
        for j in range(len(parts)) if len(parts) > 1 else ():
            if i == 0 or j == int(rng.integers(len(parts))):
                yield f"drop line {i + 1} field {j}", b"\n".join(
                    lines[:i] + [fields.join(parts[:j] + parts[j + 1:])] + lines[i + 1:])
    for junk in (b"\x00", b"\xff", b"\xc3", b"\x80\x80"):
        for at in rng.integers(0, len(data), 3).tolist():
            yield f"insert {junk!r}@{at}", data[:at] + junk + data[at:]


def test_fuzzed_data_files_exit_cleanly_and_name_the_file(workspace, synthetic_lexicon_path, tmp_path,
                                                          capsys):
    """No corruption of a corpus, lexicon, --input or prediction file escapes
    ``main`` as an exception, and every failure names the file."""
    good_preds = tmp_path / "good.tsv"
    good_preds.write_text("x1\t1\tmurder\t0.5\nx1\t2\tviolence\t0.3\n"
                          "x2\t1\tromantic\t0.6\nx2\t2\tmurder\t0.2\n"
                          "x3\t1\tparanormal\t0.4\nx3\t2\tviolence\t0.4\n", encoding="utf-8")
    sources = {
        "corpus": (Path(workspace.corpus).read_bytes(), b",",
                   lambda bad: ["baselines", "--corpus", bad, "--k", "1"]),
        "lexicon": (synthetic_lexicon_path.read_bytes(), b"\t",
                    lambda bad: ["emotion-flow", "--lexicon", bad, "--text", GOLDEN_SYNOPSIS]),
        "input": (b"m1\ta grim detective hunts the killer\nm2\tghosts haunt the manor\nlove in summer\n",
                  b"\t", lambda bad: ["predict", "--checkpoint", workspace.cnn_ckpt, "--k", "1", "--input", bad]),
        "predictions": (good_preds.read_bytes(), b"\t",
                        lambda bad: ["compare", bad, str(good_preds), "--corpus", workspace.corpus]),
    }
    rng = np.random.default_rng(5)
    for role, (data, fields, argv) in sources.items():
        bad = tmp_path / f"fuzzed.{role}"
        codes = set()
        for label, corrupted in _fuzzed(data, rng, fields):
            bad.write_bytes(corrupted)
            try:
                code = main(argv(str(bad)))
            except Exception as e:  # any escape is the failure under test
                pytest.fail(f"{role} {label}: {e!r} escaped main")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (role, label, code, err)
            assert code == 0 or str(bad) in err, (role, label, code, err)
            codes.add(code)
        assert 0 in codes and 2 in codes, (role, codes)
