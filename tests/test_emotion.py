"""Emotion flow extraction: lexicon parsing, segmentation, percentages, CSV."""

from __future__ import annotations

import os
import random
import re
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from helpers import GOLDEN_SYNOPSIS, write_lexicon
from tagflow import emotion
from tagflow.corpus import tokenize
from tagflow.emotion import (
    DEFAULT_SEGMENTS,
    EMOTIONS,
    EmotionLexicon,
    emotion_flow,
    emotion_vector,
    flow_to_csv,
    load_lexicon,
    segment_words,
)
from tagflow.errors import DataError, open_text

GOLDEN_CSV = Path(__file__).parent / "fixtures" / "emotion_flow_golden.csv"


def idx(name):
    return EMOTIONS.index(name)


class TestLexicon:
    def test_dimension_order_is_fixed(self):
        assert EMOTIONS == ("anger", "anticipation", "disgust", "fear", "joy",
                            "sadness", "surprise", "trust", "negative", "positive")

    def test_triples_become_bit_vectors(self, synthetic_lexicon):
        vec = synthetic_lexicon.vector("gleam")
        expected = np.zeros(10, dtype=np.uint8)
        expected[idx("joy")] = 1
        expected[idx("positive")] = 1
        npt.assert_array_equal(vec, expected)

    def test_absent_word_is_all_zeros(self, synthetic_lexicon):
        npt.assert_array_equal(synthetic_lexicon.vector("table"), np.zeros(10, dtype=np.uint8))

    def test_zero_flag_rows_leave_word_neutral(self, synthetic_lexicon):
        # "calm" appears in the file only with association 0
        assert "calm" in synthetic_lexicon
        npt.assert_array_equal(synthetic_lexicon.vector("calm"), np.zeros(10, dtype=np.uint8))

    def test_vectors_are_read_only(self, synthetic_lexicon):
        # an absent word reads the zero row every other absent word shares
        for word in ("gleam", "table"):
            with pytest.raises(ValueError, match="read-only"):
                synthetic_lexicon.vector(word)[0] = 1
        assert EmotionLexicon({"Gleam": [1] + [0] * 9}).vector("GLEAM").flags.writeable is False

    def test_lookup_is_case_insensitive(self, synthetic_lexicon):
        npt.assert_array_equal(synthetic_lexicon.vector("GLEAM"),
                               synthetic_lexicon.vector("gleam"))

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = write_lexicon(tmp_path / "bad.txt", "gleam\tjoy\t1\ndread\tfear\n")
        with pytest.raises(DataError, match="line 2"):
            load_lexicon(path)

    def test_unknown_emotion_reports_line(self, tmp_path):
        path = write_lexicon(tmp_path / "bad.txt", "gleam\tbliss\t1\n")
        with pytest.raises(DataError, match="line 1.*bliss"):
            load_lexicon(path)

    def test_non_binary_flag_rejected(self, tmp_path):
        path = write_lexicon(tmp_path / "bad.txt", "gleam\tjoy\t2\n")
        with pytest.raises(DataError, match="0 or 1"):
            load_lexicon(path)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = write_lexicon(tmp_path / "bad.txt", "gleam\tjoy\t1\ngleam\tjoy\t0\n")
        with pytest.raises(DataError, match="line 2"):
            load_lexicon(path)

    def test_conflict_from_zero_to_one_rejected(self, tmp_path):
        # another emotion of the same word in between must not mask the conflict
        path = write_lexicon(tmp_path / "bad.txt", "gleam\tjoy\t0\ngleam\tfear\t1\ngleam\tjoy\t1\n")
        with pytest.raises(DataError, match=r"line 3: conflicting duplicate for \('gleam', 'joy'\)"):
            load_lexicon(path)

    @pytest.mark.parametrize("text, error", [
        ("gleam\t Bliss \t1\n", "line 1: unknown emotion label 'bliss'"),
        ("gleam\tjoy\t 2 \n", "line 1: association must be 0 or 1, got '2'"),
        ("Gleam\tjoy\t0\nGLEAM \t Joy\t1\n", "line 2: conflicting duplicate for ('gleam', 'joy')"),
    ], ids=["label", "flag", "conflict"])
    def test_errors_name_the_normalized_fields(self, tmp_path, text, error):
        path = write_lexicon(tmp_path / "bad.txt", text)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {error}')}$"):
            load_lexicon(path)

    def test_consistent_duplicate_tolerated(self, tmp_path):
        path = write_lexicon(tmp_path / "dup.txt", "gleam\tjoy\t1\ngleam\tjoy\t1\n")
        lex = load_lexicon(path)
        assert lex.vector("gleam")[idx("joy")] == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = write_lexicon(tmp_path / "blank.txt", "\ngleam\tjoy\t1\n\n")
        assert len(load_lexicon(path)) == 1

    def test_direct_construction_validates_shape(self):
        with pytest.raises(DataError):
            EmotionLexicon({"w": [1, 0]})

    def test_direct_construction_rejects_keys_that_collide_with_other_vectors(self):
        joy = [1] + [0] * 9
        with pytest.raises(DataError, match="conflicting vectors for lexicon word 'joy'"):
            EmotionLexicon({"Joy": joy, "joy": [0] * 10})
        npt.assert_array_equal(EmotionLexicon({"Joy": joy, "JOY": joy}).vector("joy"), joy)

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"])
    def test_file_without_entries_rejected(self, tmp_path, text):
        path = write_lexicon(tmp_path / "empty.txt", text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no lexicon entries$"):
            load_lexicon(path)

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfgleam\tjoy\t1\n")
        lex = load_lexicon(path)
        assert list(lex._index) == ["gleam"]
        assert lex.vector("gleam")[idx("joy")] == 1


def _parsed(load, path):
    """A loader's lexicon as comparable bytes, or its DataError message."""
    try:
        lex = load(path)
    except DataError as e:
        return "error", str(e)
    return list(lex._index), lex._table.tobytes()


#: Field variants for the fuzz: canonical, case and whitespace variants that
#: normalize to it, and ones that do not normalize to any valid value.
_FUZZ_WORDS = ("gleam", "Gleam", "GLEAM", "gleam ", "gleam\xa0", "dread", "Dread ", "mourn", "calm",
               "\u0130z", "i\u0307z")  # "İ" lowercases to "i" and a combining dot
_FUZZ_LABELS = EMOTIONS + ("Joy", " fear", "trust ", "NEGATIVE", "anger\xa0", "bliss", " Bliss", "", "joy-")
_FUZZ_FLAGS = ("0", "1", " 1", "0 ", "\xa00", "2", " 2", "", "01", "1.0")


def _fuzzed_lexicon(rng):
    """One small lexicon text of runs of a word's lines, with the variants above."""
    p_odd = rng.choice([0.0, 0.02, 0.1, 0.3])  # share of off-canonical fields
    truth = {}  # the flag each (word, label) gets unless it is flipped into a conflict
    lines = []
    for _ in range(rng.randrange(7)):
        word = rng.choice(_FUZZ_WORDS)
        for _ in range(rng.randrange(1, 12)):
            label = rng.choice(_FUZZ_LABELS) if rng.random() < p_odd else rng.choice(EMOTIONS)
            flag = truth.setdefault((word.strip().lower(), label), rng.choice("01"))
            if rng.random() < p_odd:
                flag = rng.choice(_FUZZ_FLAGS)
            fields = [word, label, flag]
            if rng.random() < p_odd:  # a field too many or too few
                fields = fields + ["x"] if rng.random() < 0.5 else fields[:2]
            line = "\t".join(fields)
            if rng.random() < p_odd:  # blank or edge whitespace
                line = rng.choice(("", " ", "\t", "\t" + line, line + "\t", " " + line + " "))
            lines.append(line)
    ending = rng.choice(("\n", "\r\n", "\r"))
    return ending.join(lines) + (ending if rng.random() < 0.5 else "")


class TestLoadLexiconMatchesTheLineLoop:
    """``load_lexicon`` gives what the per-line loop it falls back on,
    ``emotion._load_lines``, gives."""

    def check(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        got = _parsed(load_lexicon, path)
        assert got == _parsed(emotion._load_lines, path), text
        return got

    def test_fuzzed_files_give_the_same_lexicon_or_error(self, tmp_path):
        rng = random.Random(14)
        path = tmp_path / "fuzzed.txt"
        outcomes = set()
        for _ in range(20_000):
            got = self.check(path, _fuzzed_lexicon(rng))
            outcomes.add(got[1].split(": ")[-1].split(" ")[0] if got[0] == "error" else "ok")
        # every kind of error and a clean parse were reached
        assert outcomes == {"ok", "expected", "unknown", "association", "conflicting", "no"}

    @pytest.mark.parametrize("text", [
        "gleam\tjoy\t1\ndread\tfear\t1\ngleam\tfear\t1\n",           # a word in a later run
        "gleam\tjoy\t1\nGleam\tfear\t1\ngleam \tsadness\t1\n",       # case and whitespace runs
        "gleam\tjoy\t1\ndread\tfear\t1\ngleam\tjoy\t0\n",            # a conflict across runs
        "gleam\tjoy\t1\n\n \ngleam\tjoy\t0\n",                       # blank lines inside a run
        "calm\tanger\t0\ngleam\t Joy \t1\n",                         # a label normalized on a miss
        "gleam\tjoy\t 1\ngleam\tfear\t0\xa0\n",                      # flags stripped on a miss
        "\tgleam\tjoy\t1\t\r\ndread\tfear\t1",                       # tabs at the edges, CRLF
        "gleam\tjoy\t1\rGLEAM\tBLISS\t1\r",                          # CR endings, a bad label
        "dread\tfear\t1\ngleam\tjoy\t1",                             # the last run is stored
    ])
    def test_edge_cases(self, tmp_path, text):
        self.check(tmp_path / "lex.txt", text)

    def test_emolex_shaped_file_and_its_shuffle(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = [f"w{i:04d}\t{label}\t{int(rng.random() < 0.2)}" for i in range(1500) for label in EMOTIONS]
        self.check(tmp_path / "runs.txt", "\n".join(lines) + "\n")
        rng.shuffle(lines)
        self.check(tmp_path / "shuffled.txt", "\n".join(lines) + "\n")


#: Words for the canonical fuzz: at widths on each side of the 8-byte windows
#: the bulk parse compares at a word's start and end, one word and the words
#: that differ from it in their middle or their last byte; and a word that is
#: also a label.
_CANONICAL_WORDS = tuple(dict.fromkeys(
    word for n in (1, 7, 8, 9, 15, 16, 17, 24) for base in ["abcdefghijklmnopqrstuvwx"[:n]]
    for word in (base, base[:n // 2] + "z" + base[n // 2 + 1:], base[:-1] + "z")
)) + ("gleam", "dr-ead", "joy", "0")


def _canonical_lexicon(rng):
    """One canonical lexicon text: runs of a word's lines, words that come
    back in later runs, and now and then a flag flipped into a conflict."""
    p_conflict = rng.choice([0.0, 0.0, 0.01, 0.05])
    truth = {}
    lines = []
    for _ in range(rng.randrange(1, 8)):
        word = rng.choice(_CANONICAL_WORDS)
        for _ in range(rng.randrange(1, 12)):
            label = rng.choice(EMOTIONS)
            flag = truth.setdefault((word, label), rng.choice("01"))
            if rng.random() < p_conflict:
                flag = "10"[int(flag)]
            lines.append(f"{word}\t{label}\t{flag}")
    return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")


def _takes_bulk_path(path):
    """Whether ``load_lexicon`` parses the file at ``path`` without the line loop."""
    with open_text(path) as f:
        return emotion._load_canonical(f) is not None


def _emolex_shaped_lines():
    """The lines of a canonical, EmoLex-shaped file: 1,500 words of 5 to 24
    characters, each with its 10 labels in order on consecutive lines."""
    rng = np.random.default_rng(21)
    words = [f"w{i:04d}" + "x" * (i % 20) for i in range(1500)]
    return [f"{word}\t{label}\t{int(rng.random() < 0.2)}\n" for word in words for label in EMOTIONS]


class TestBulkParse:
    """The bulk parse of canonical text gives what the line loop gives, and
    every other file is parsed by the line loop."""

    def test_fuzzed_canonical_files_across_chunk_edges(self, tmp_path, monkeypatch):
        rng = random.Random(21)
        path = tmp_path / "canonical.txt"
        outcomes = set()
        for _ in range(1_000):
            # chunks of 4 to 159 characters, so runs, words that come back
            # and conflicts straddle chunk edges
            monkeypatch.setattr(emotion, "_CHUNK_CHARS", rng.randrange(4, 160))
            path.write_text(_canonical_lexicon(rng), encoding="utf-8")
            got = _parsed(load_lexicon, path)
            assert got == _parsed(emotion._load_lines, path), path.read_text(encoding="utf-8")
            # only a conflict sends a canonical file to the line loop
            assert _takes_bulk_path(path) == (got[0] != "error")
            outcomes.add(got[1].split(": ")[-1].split(" ")[0] if got[0] == "error" else "ok")
        assert outcomes == {"ok", "conflicting"}

    def test_realigned_tabs_are_reported_by_line(self, tmp_path):
        # two tabs a line on average, but one line has one and the next three
        path = write_lexicon(tmp_path / "tabs.txt", "w\tjoy\n0\tv\tfear\t1\n")
        assert _parsed(load_lexicon, path) == ("error", f"{path}: line 1: expected 3 tab-separated fields")

    @pytest.mark.parametrize("text, canonical", [
        ("gleam\tjoy\t1\ngl\0eam\tfear\t1\n", False),                       # a word with a NUL
        ("gleam\tjoy\t1\ngl\u00e9am\tfear\t1\n", False),                    # a non-ASCII word
        ("gleam\tjoy\t1\ngleam\tfear\t1\x0b\n", False),                     # whitespace that strips
        ("gleam\tjoy\t1\n\tfear\t1\n", False),                              # an empty word
        ("gleam\tjoy\t1\ngleam\tfeat\t1\n", False),                         # a label wrong in its last byte
        ("anticipatio\tanticipation\t1\nx\tanticipatiom\t1\n", False),      # a label wrong past byte 8
        ("gleam\tjoy\t1\ndread\tfear\t0", True),                             # no final newline
        ("gleam\tjoy\t1\r\ndread\tfear\t0\r\n", True),                      # CRLF endings
        ("gleam\tjoy\t1\rdread\tfear\t0\r", True),                          # CR endings
        ("abcdefghijklmnopq\tjoy\t1\nabcdefghzjklmnopq\tfear\t0\n", True),  # words apart in byte 8 alone
    ])
    def test_edge_cases(self, tmp_path, text, canonical):
        path = tmp_path / "lex.txt"
        path.write_bytes(text.encode("utf-8"))
        assert _parsed(load_lexicon, path) == _parsed(emotion._load_lines, path)
        assert _takes_bulk_path(path) == canonical

    def test_a_bad_line_is_reported_before_bytes_that_do_not_decode_after_it(self, tmp_path):
        # the bulk parse reads far past line 1 before it sees that line
        path = tmp_path / "lex.txt"
        path.write_bytes(b"gleam\tbliss\t1\n" + b"dread\tfear\t1\n" * 2_000 + b"gl\xe9am\tjoy\t1\n")
        assert _parsed(load_lexicon, path) == ("error", f"{path}: line 1: unknown emotion label 'bliss'")

    def test_emolex_shaped_file_never_reaches_the_line_loop(self, tmp_path, monkeypatch):
        path = write_lexicon(tmp_path / "emolex.txt", "".join(_emolex_shaped_lines()))
        assert len(path.read_text(encoding="utf-8")) > 3 * emotion._CHUNK_CHARS
        expected = _parsed(emotion._load_lines, path)

        def line_loop(path):
            raise AssertionError("the line loop parsed a canonical file")

        monkeypatch.setattr(emotion, "_load_lines", line_loop)
        assert _parsed(load_lexicon, path) == expected

    def test_line_loop_copies_give_the_canonical_lexicon(self, tmp_path):
        # a capitalised copy, a copy with one blank line and one with spaces
        # around every field take the line loop, and normalize to the
        # lexicon of the canonical file
        lines = _emolex_shaped_lines()
        canonical = write_lexicon(tmp_path / "emolex.txt", "".join(lines))
        copies = {
            "capitalised": "".join(lines).upper(),
            "blank": "".join(lines[:7_000] + ["\n"] + lines[7_000:]),
            "spaced": "".join(" " + line[:-1].replace("\t", " \t ") + " \n" for line in lines),
        }
        expected = _parsed(load_lexicon, canonical)
        assert _takes_bulk_path(canonical)
        for name, text in copies.items():
            path = write_lexicon(tmp_path / f"{name}.txt", text)
            assert not _takes_bulk_path(path), name
            assert _parsed(load_lexicon, path) == expected, name


class TestSegmentWords:
    def test_even_division(self):
        segments = segment_words([f"w{i}" for i in range(100)], 20)
        assert len(segments) == 20
        assert all(len(s) == 5 for s in segments)

    def test_remainder_goes_to_leading_segments(self):
        segments = segment_words(list(range(43)), 20)
        sizes = [len(s) for s in segments]
        assert sizes == [3] * 3 + [2] * 17

    def test_fewer_tokens_than_segments(self):
        segments = segment_words(list("abcde"), 20)
        sizes = [len(s) for s in segments]
        assert sizes == [1] * 5 + [0] * 15
        assert segments[0] == ["a"] and segments[4] == ["e"]

    def test_concatenation_restores_input(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            tokens = [f"t{i}" for i in range(int(rng.integers(0, 200)))]
            n = int(rng.integers(1, 40))
            segments = segment_words(tokens, n)
            assert len(segments) == n
            assert [t for s in segments for t in s] == tokens
            assert max(len(s) for s in segments) - min(len(s) for s in segments) <= 1

    def test_invalid_segment_count(self):
        with pytest.raises(ValueError):
            segment_words(["a"], 0)


class TestEmotionVector:
    def test_hand_computed_percentages(self, synthetic_lexicon):
        vec = emotion_vector(["gleam", "gleam", "dread", "mourn"], synthetic_lexicon)
        expected = np.zeros(10)
        expected[idx("joy")] = 50.0
        expected[idx("positive")] = 50.0
        expected[idx("fear")] = 25.0
        expected[idx("sadness")] = 25.0
        expected[idx("negative")] = 50.0
        npt.assert_allclose(vec, expected)

    def test_empty_segment_is_zero(self, synthetic_lexicon):
        npt.assert_array_equal(emotion_vector([], synthetic_lexicon), np.zeros(10))

    def test_word_counts_once_per_dimension(self, synthetic_lexicon):
        vec = emotion_vector(["gleam"], synthetic_lexicon)
        assert vec[idx("joy")] == 100.0
        assert vec[idx("positive")] == 100.0
        assert vec.sum() == 200.0


class TestEmotionFlow:
    def test_shape_and_dtype(self, synthetic_lexicon):
        flow = emotion_flow("gleam dread mourn", synthetic_lexicon)
        assert flow.shape == (DEFAULT_SEGMENTS, 10)
        assert flow.dtype == np.float64

    def test_uniform_text_gives_constant_rows(self, synthetic_lexicon):
        flow = emotion_flow(" ".join(["gleam"] * 40), synthetic_lexicon)
        expected = np.zeros(10)
        expected[idx("joy")] = 100.0
        expected[idx("positive")] = 100.0
        npt.assert_array_equal(flow, np.tile(expected, (20, 1)))

    def test_custom_segment_count(self, synthetic_lexicon):
        flow = emotion_flow("gleam dread", synthetic_lexicon, n_segments=2)
        assert flow.shape == (2, 10)
        assert flow[0, idx("joy")] == 100.0
        assert flow[1, idx("fear")] == 100.0

    def test_tokenization_matches_corpus_rules(self, synthetic_lexicon):
        # Punctuation-stripped, case-folded tokens feed the lexicon.
        flow = emotion_flow('"GLEAM!"', synthetic_lexicon, n_segments=1)
        assert flow[0, idx("joy")] == 100.0

    def test_bounds_and_repetition_invariance(self, synthetic_lexicon):
        rng = np.random.default_rng(11)
        words = ["gleam", "dread", "mourn", "calm", "table", "river"]
        for _ in range(200):
            n_tokens = int(rng.integers(1, 120))
            tokens = [words[i] for i in rng.integers(0, len(words), size=n_tokens)]
            text = " ".join(tokens)
            n = int(rng.integers(1, 30))
            flow = emotion_flow(text, synthetic_lexicon, n_segments=n)
            assert flow.shape == (n, 10)
            assert (flow >= 0.0).all() and (flow <= 100.0).all()
            # the flow decomposes into per-segment vectors, and each vector
            # is invariant to repeating its segment's words k times
            segments = segment_words(tokenize(text), n)
            k = int(rng.integers(2, 5))
            npt.assert_array_equal(
                flow, np.stack([emotion_vector(s, synthetic_lexicon) for s in segments])
            )
            for s, row in zip(segments, flow):
                if s:
                    npt.assert_allclose(emotion_vector(s * k, synthetic_lexicon), row, atol=1e-12)


    def test_matches_the_per_word_loop_bit_for_bit(self, synthetic_lexicon):
        def loop_flow(text, n):
            rows = []
            for segment in segment_words(tokenize(text), n):
                counts = np.zeros(10)
                for word in segment:
                    counts += synthetic_lexicon.vector(word)
                rows.append(100.0 * counts / len(segment) if segment else np.zeros(10))
            return np.stack(rows)

        rng = np.random.default_rng(12)
        words = ["gleam", "Dread,", "MOURN", "calm", "table", "river.", "gleam!"]
        for _ in range(200):
            text = " ".join(words[i] for i in rng.integers(0, len(words), size=int(rng.integers(0, 90))))
            n = int(rng.integers(1, 40))  # often more segments than tokens
            assert emotion_flow(text, synthetic_lexicon, n).tobytes() == loop_flow(text, n).tobytes()

    def test_lexicon_rows_match_vectors(self, synthetic_lexicon):
        words = ["gleam", "GLEAM", "table", "dread", "mourn"]
        npt.assert_array_equal(synthetic_lexicon.rows(words),
                               np.stack([synthetic_lexicon.vector(w) for w in words]))
        assert synthetic_lexicon.rows([]).shape == (0, 10)

    def test_lowering_a_lowercased_code_point_changes_nothing(self):
        # The flow looks tokenize's lowercased tokens up without lowering them
        # again. A string holds no capital sigma once lowered, and lowering is
        # per code point apart from that sigma, so this covers every token.
        changed = [hex(cp) for cp in range(sys.maxunicode + 1) if chr(cp).lower().lower() != chr(cp).lower()]
        assert changed == []


class TestFlowCsv:
    def test_golden_synopsis_byte_exact(self, synthetic_lexicon):
        flow = emotion_flow(GOLDEN_SYNOPSIS, synthetic_lexicon)
        assert flow_to_csv(flow) == GOLDEN_CSV.read_text(encoding="utf-8")

    def test_header_and_segment_numbering(self, synthetic_lexicon):
        lines = flow_to_csv(np.zeros((3, 10))).splitlines()
        assert lines[0] == "segment," + ",".join(EMOTIONS)
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3"]

    def test_fractional_values_render_compactly(self):
        flow = np.zeros((1, 10))
        flow[0, 0] = 100.0 / 3.0
        cell = flow_to_csv(flow).splitlines()[1].split(",")[1]
        assert cell == format(100.0 / 3.0, "g")


@pytest.mark.skipif("NRC_LEXICON" not in os.environ,
                    reason="set NRC_LEXICON to the word-level lexicon file to enable")
def test_real_lexicon_loads_with_expected_coverage():
    lex = load_lexicon(os.environ["NRC_LEXICON"])
    assert len(lex) == 14182
    vec = lex.vector("abandon")
    assert vec[idx("fear")] == 1
    assert vec[idx("negative")] == 1
    assert vec[idx("sadness")] == 1
    assert vec[idx("joy")] == 0
