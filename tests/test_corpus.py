"""Corpus pipeline: parsing, tokenization, vocabularies, encoding, splits."""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from helpers import make_record, reference_encoding, reference_tokenize, write_corpus_csv
from tagflow import cli
from tagflow.corpus import (
    OOV_INDEX,
    PAD_INDEX,
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
from tagflow.emotion import emotion_flow, load_lexicon
from tagflow.errors import DataError
from tagflow.model import ModelConfig

sys.path.append(str(Path(__file__).resolve().parents[1]))
from perfbench import datagen  # noqa: E402

#: Characters where a piece's edges decide its token: ASCII letters, digits,
#: punctuation and whitespace; "_" (not alphanumeric); NEL, NBSP, LINE
#: SEPARATOR, ideographic space and a file separator (whitespace to split);
#: a zero-width space (neither); "İ" (lowercases to "i" plus U+0307, a
#: combining dot that is not alphanumeric); capital and final sigma (which
#: lowercases by context); "²" and "½" (numeric, not decimal); Arabic-Indic
#: digits; "ß".
FUZZ_ALPHABET = ("a", "Q", "7", " ", "\t", "\n", ".", ",", "'", "-", "!", "_",
                 "\x85", "\xa0", "\u2028", "\u3000", "\x1c", "\u200b", "\u0130", "\u0307",
                 "\u03a3", "\u03c2", "\xb2", "\xbd", "\u0660", "\u0669", "\xdf")


class TestLoadCorpus:
    def test_single_well_formed_row(self, tmp_path):
        path = write_corpus_csv(tmp_path / "one.csv", [make_record("m1", "a plot", ["cult"])])
        records = load_corpus(path)
        assert len(records) == 1
        assert records[0].movie_id == "m1"
        assert records[0].tags == {"cult"}
        assert records[0].split is Split.TRAIN

    def test_tag_field_is_trimmed_and_deduplicated(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text(
            "movie_id,title,plot_synopsis,tags,split,synopsis_source\n"
            'm1,T,some plot,"cult, murder , cult",train,imdb\n',
            encoding="utf-8",
        )
        (record,) = load_corpus(path)
        assert record.tags == {"cult", "murder"}

    def test_leading_byte_order_mark_dropped(self, tmp_path, toy_corpus_records):
        plain = write_corpus_csv(tmp_path / "plain.csv", toy_corpus_records)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_corpus(bom) == load_corpus(plain)

    def test_val_split_rows_map_to_train(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "val.csv", [make_record("m1", "plot words", ["cult"], split="val")]
        )
        (record,) = load_corpus(path)
        assert record.split is Split.TRAIN

    def test_malformed_row_reports_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "movie_id,title,plot_synopsis,tags,split,synopsis_source\n"
            "m1,T,plot,cult,train,imdb\n"
            "m2,T,plot,cult,not_a_split,imdb\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="row 3"):
            load_corpus(path)

    def test_empty_tag_set_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "empty_tags.csv"
        path.write_text(
            "movie_id,title,plot_synopsis,tags,split,synopsis_source\n"
            'm1,T,plot,"  ,  ",train,imdb\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="row 2"):
            load_corpus(path)

    def test_empty_synopsis_rejected(self, tmp_path):
        path = tmp_path / "empty_syn.csv"
        path.write_text(
            "movie_id,title,plot_synopsis,tags,split,synopsis_source\n"
            "m1,T,,cult,train,imdb\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="row 2"):
            load_corpus(path)

    def test_missing_columns_named(self, tmp_path):
        path = tmp_path / "columns.csv"
        path.write_text("movie_id,title\nm1,T\n", encoding="utf-8")
        with pytest.raises(DataError, match="plot_synopsis"):
            load_corpus(path)

    def test_field_over_the_csv_size_limit_is_a_data_error_naming_the_file(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("movie_id,title,plot_synopsis,tags,split\n"
                        'm1,T,"' + "word " * 30000 + "\n", encoding="utf-8")  # unterminated quote
        with pytest.raises(DataError, match=r"long\.csv: malformed CSV: field larger than field limit"):
            load_corpus(path)

    def test_repeated_movie_id_names_both_rows(self, tmp_path):
        path = write_corpus_csv(tmp_path / "dup.csv", [
            make_record("t1", "first plot", ["cult"], split=Split.TEST),
            make_record("t2", "second plot", ["cult"], split=Split.TEST),
            make_record("t1", "third plot", ["noir"], split=Split.TEST),
        ])
        with pytest.raises(DataError, match=r"dup\.csv: row 4: movie_id 't1' repeats row 2"):
            load_corpus(path)


class TestTokenizeAndPreprocess:
    def test_lowercase_and_stopword_removal(self):
        assert preprocess("The KILLER Strikes", {"the"}) == ["killer", "strikes"]

    def test_empty_text(self):
        assert preprocess("", {"the"}) == []

    def test_order_preserved_after_stopword_removal(self, stopwords):
        text = "He said that the plan was risky but the crew agreed"
        tokens = preprocess(text, stopwords)
        assert tokens == ["said", "plan", "risky", "crew", "agreed"]
        # relative order matches the untouched tokenization
        full = tokenize(text)
        assert [w for w in full if w in tokens] == tokens

    def test_edge_punctuation_stripped_interior_kept(self):
        assert tokenize('"Stop!" she said -- it\'s over.') == ["stop", "she", "said", "it's", "over"]

    def test_tokens_of_pure_punctuation_dropped(self):
        assert tokenize("wait ... what ???") == ["wait", "what"]

    def test_matches_the_edge_stripping_loop_on_fuzzed_text(self):
        rng = np.random.default_rng(20)
        lengths = rng.integers(0, 16, size=20_000)
        chars = iter(rng.integers(0, len(FUZZ_ALPHABET), size=int(lengths.sum())).tolist())
        for n in lengths.tolist():
            text = "".join(FUZZ_ALPHABET[next(chars)] for _ in range(n))
            assert tokenize(text) == reference_tokenize(text), repr(text)


class TestVocabulary:
    def test_under_capacity_keeps_all_words(self):
        records = [make_record("m1", "alpha beta gamma alpha", ["t"])]
        vocab = build_vocabulary(records, max_words=5000, stopwords=frozenset())
        assert vocab.size == 3

    def test_frequency_then_lexicographic_order(self):
        records = [make_record("m1", "bb aa bb aa cc", ["t"])]
        vocab = build_vocabulary(records, max_words=2, stopwords=frozenset())
        assert vocab.words == ["aa", "bb"]
        assert vocab.index("aa") == 2
        assert vocab.index("bb") == 3

    def test_ranking_matches_the_count_then_word_key_on_tied_counts(self):
        rng = np.random.default_rng(4)
        letters = list("abcdefgh")
        pool = ["".join(rng.choice(letters, size=int(rng.integers(1, 4)))) for _ in range(300)]
        text = " ".join(pool[int(i)] for i in rng.integers(0, len(pool), size=600))
        records = [make_record("m1", text, ["t"])]
        counts = Counter(preprocess(text, frozenset()))
        assert len(set(counts.values())) < len(counts) // 4  # most words share a count
        expected = [w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        for max_words in (len(counts), 17):
            vocab = build_vocabulary(records, max_words=max_words, stopwords=frozenset())
            assert vocab.words == expected[:max_words]

    def test_oov_maps_to_one(self):
        vocab = Vocabulary(["known"])
        assert vocab.index("unknown") == OOV_INDEX

    def test_deterministic_across_builds(self):
        records = [make_record("m1", "x y z z y x w", ["t"]), make_record("m2", "y w q", ["t"])]
        a = build_vocabulary(records, stopwords=frozenset())
        b = build_vocabulary(records, stopwords=frozenset())
        assert a.words == b.words

    def test_stopwords_excluded_from_vocabulary(self, stopwords):
        records = [make_record("m1", "the the the villain", ["t"])]
        vocab = build_vocabulary(records, stopwords=stopwords)
        assert "the" not in vocab
        assert "villain" in vocab


class TestEncodeSynopsis:
    def test_longer_input_keeps_the_last_tokens(self):
        vocab = Vocabulary([f"w{i}" for i in range(30)])
        tokens = [f"w{i}" for i in range(20)]
        seq = encode_synopsis(tokens, vocab, max_len=8)
        assert list(seq) == [vocab.index(f"w{i}") for i in range(12, 20)]

    def test_shorter_input_left_padded_with_zeros(self):
        vocab = Vocabulary(["a", "b"])
        seq = encode_synopsis(["a", "b"], vocab, max_len=6)
        assert list(seq) == [0, 0, 0, 0, vocab.index("a"), vocab.index("b")]

    def test_default_length_is_1500(self):
        vocab = Vocabulary(["a"])
        seq = encode_synopsis(["a"] * 10, vocab)
        assert seq.shape == (1500,)
        assert (seq[:1490] == PAD_INDEX).all()

    def test_unknown_token_maps_to_oov(self):
        vocab = Vocabulary(["known"])
        seq = encode_synopsis(["known", "mystery"], vocab, max_len=4)
        assert list(seq) == [0, 0, vocab.index("known"), OOV_INDEX]

    def test_decode_round_trip_with_oov_markers(self):
        vocab = Vocabulary(["alpha", "beta"])
        tokens = ["alpha", "zeta", "beta"]
        seq = encode_synopsis(tokens, vocab, max_len=10)
        assert vocab.decode(seq) == ["alpha", "<oov>", "beta"]


class TestMakeTarget:
    def test_single_tag_is_one_hot(self):
        tv = TagVocabulary(["cult", "murder"])
        target = make_target({"murder"}, tv)
        npt.assert_array_equal(target, [0.0, 1.0])

    def test_two_tags_split_mass_evenly(self):
        tv = TagVocabulary(["cult", "murder", "romance"])
        target = make_target({"murder", "cult"}, tv)
        npt.assert_allclose(target, [0.5, 0.5, 0.0])

    def test_unknown_tags_dropped_without_a_warning(self):
        tv = TagVocabulary(["cult", "murder"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            target = make_target({"murder", "mystery_tag"}, tv)
        assert caught == []
        npt.assert_array_equal(target, [0.0, 1.0])

    def test_all_unknown_rejected(self):
        tv = TagVocabulary(["murder"])
        with pytest.raises(DataError, match=r"no known tags among \['nope'\]"):
            make_target({"nope"}, tv)

    def test_target_sums_to_one(self):
        rng = np.random.default_rng(0)
        tv = TagVocabulary([f"t{i}" for i in range(7)])
        for _ in range(50):
            tags = {f"t{i}" for i in rng.choice(7, size=int(rng.integers(1, 8)), replace=False)}
            target = make_target(tags, tv)
            assert abs(target.sum() - 1.0) < 1e-9
            assert (target >= 0).all()
            assert {tv.tags[i] for i in np.nonzero(target)[0]} == tags


class TestTagVocabulary:
    def test_sorted_and_indexable(self):
        tv = TagVocabulary(["zeta", "alpha", "mid"])
        assert tv.tags == ["alpha", "mid", "zeta"]
        assert tv.index("mid") == 1
        assert "alpha" in tv and "nope" not in tv

    def test_from_records_unions_tags(self):
        records = [make_record("a", "x", ["t1", "t2"]), make_record("b", "y", ["t2", "t3"])]
        tv = TagVocabulary.from_records(records)
        assert tv.tags == ["t1", "t2", "t3"]

    def test_counts_each_record_once_per_tag_and_skips_unknown_tags(self):
        tv = TagVocabulary(["t1", "t2", "t3"])
        records = [SimpleNamespace(tags=["t2", "t2", "other"]), make_record("b", "y", ["t2", "t3"])]
        assert tv.counts(records) == [0, 2, 1]
        assert tv.counts([]) == [0, 0, 0]


class TestValidationSplit:
    def test_ten_records_split_eight_two(self):
        records = list(range(10))
        train, val = validation_split(records, seed=1)
        assert len(train) == 8 and len(val) == 2

    def test_same_seed_reproduces_partition(self):
        records = list(range(57))
        a = validation_split(records, seed=9)
        b = validation_split(records, seed=9)
        assert a == b

    def test_partition_is_disjoint_and_exhaustive(self):
        records = list(range(101))
        train, val = validation_split(records, seed=3)
        assert sorted(train + val) == records
        assert set(train).isdisjoint(val)

    def test_full_scale_sizes_floor_validation(self):
        records = list(range(11862))
        train, val = validation_split(records, seed=0)
        assert (len(train), len(val)) == (9490, 2372)

    def test_seed_is_required(self):
        with pytest.raises(TypeError):
            validation_split(list(range(10)))


class TestEncodeRecords:
    def test_examples_carry_targets_and_tokens(self, toy_corpus_records, stopwords):
        train = [r for r in toy_corpus_records if r.split is Split.TRAIN]
        vocab = build_vocabulary(train, stopwords=stopwords)
        tv = TagVocabulary.from_records(train)
        examples = encode_records(train, vocab, tv, stopwords, max_len=32)
        assert len(examples) == len(train)
        for record, example in zip(train, examples):
            assert example.movie_id == record.movie_id
            assert example.tokens.shape == (32,)
            assert abs(example.target.sum() - 1.0) < 1e-9
            assert example.flow is None
            assert example.tags == record.tags

    def test_flow_attached_when_lexicon_given(self, toy_corpus_records, stopwords, synthetic_lexicon):
        train = [r for r in toy_corpus_records if r.split is Split.TRAIN]
        vocab = build_vocabulary(train, stopwords=stopwords)
        tv = TagVocabulary.from_records(train)
        examples = encode_records(train, vocab, tv, stopwords, lexicon=synthetic_lexicon,
                                  max_len=32, n_segments=6)
        for example in examples:
            assert example.flow.shape == (6, 10)
            assert example.flow.dtype == np.float32

    def test_one_tokenization_gives_the_bits_of_the_two_pass_composition(self, stopwords, tmp_path):
        """``encode_records`` and predict's ``cli._model_inputs`` tokenize each
        text once; both must equal ``encode_synopsis(preprocess(text))`` and
        ``emotion_flow(text)``, and the word-at-a-time oracle, bit for bit."""
        spec = datagen.CorpusSpec(
            n_train=40, n_test=8, n_predict=12, train_words=datagen.Lengths("uniform", 20, 400),
            test_words=datagen.Lengths("uniform", 20, 400), predict_words=datagen.Lengths("loguniform", 1, 600))
        paths = datagen.generate(spec, 3, tmp_path, exclude=stopwords)
        records = load_corpus(paths["corpus"])
        train = [r for r in records if r.split is Split.TRAIN]
        vocab = build_vocabulary(train, max_words=300, stopwords=stopwords)  # small, so some words are OOV
        lexicon = load_lexicon(paths["lexicon"])
        max_len, n_segments = 200, 20

        def two_pass(text):
            return (encode_synopsis(preprocess(text, stopwords), vocab, max_len),
                    emotion_flow(text, lexicon, n_segments).astype(np.float32))

        def assert_same_bits(got, text):
            for want in (two_pass(text), reference_encoding(text, vocab, stopwords, lexicon, max_len, n_segments)):
                assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
                assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()

        examples = encode_records(records, vocab, TagVocabulary.from_records(train), stopwords,
                                  lexicon=lexicon, max_len=max_len, n_segments=n_segments)
        for record, example in zip(records, examples, strict=True):
            assert_same_bits((example.tokens, example.flow), record.synopsis)
        assert any((e.tokens == OOV_INDEX).any() for e in examples)
        assert any(e.tokens[0] == PAD_INDEX for e in examples)

        texts = [text for _, text in datagen.read_synopses(paths["synopses"])] + ['"Stop!" -- İt\'s ΟΔΟΣ.']
        with_flow, without_flow = (
            SimpleNamespace(vocab=vocab, config=ModelConfig(
                variant=variant, vocab_size=vocab.size, seq_len=max_len, n_segments=n_segments))
            for variant in ("cnn_fe", "cnn"))
        for text in texts:
            assert_same_bits(cli._model_inputs(with_flow, text, stopwords, lexicon), text)
            tokens, flow = cli._model_inputs(without_flow, text, stopwords, lexicon)
            assert flow is None and tokens.tobytes() == two_pass(text)[0].tobytes()


def test_load_stopwords_packaged_default(stopwords):
    assert {"the", "a", "and", "of"} <= stopwords
    assert all(w == w.lower() for w in stopwords)
    assert len(stopwords) > 100
