"""Metrics and baselines, pinned to brute-force and closed-form oracles."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from helpers import (
    brute_force_micro_f1,
    brute_force_tag_recall,
    brute_force_tags_learned,
    make_record,
    random_metric_instance,
)
from tagflow.corpus import TagVocabulary
from tagflow.errors import DataError
from tagflow.metrics import (
    OVERLAP_BANDS,
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


class TestMicroF1:
    def test_hand_worked_two_movies(self):
        preds = {"m1": ["a", "b"], "m2": ["a", "c"]}
        truths = {"m1": {"a", "d"}, "m2": {"b", "c", "d"}}
        # tp=2 (m1:a, m2:c), fp=2 (m1:b, m2:a), fn=3 (m1:d, m2:b,d)
        # f1 = 2*2 / (2*2 + 2 + 3) = 4/9
        npt.assert_allclose(micro_f1(preds, truths), 4.0 / 9.0, rtol=1e-15)

    def test_perfect_predictions(self):
        preds = {"m1": ["a", "b"], "m2": ["c"]}
        truths = {"m1": {"a", "b"}, "m2": {"c"}}
        assert micro_f1(preds, truths) == 1.0

    def test_fully_disjoint_predictions(self):
        assert micro_f1({"m1": ["a"]}, {"m1": {"b"}}) == 0.0

    def test_empty_prediction_set(self):
        assert micro_f1({}, {}) == 0.0

    def test_movie_without_truth_rejected(self):
        with pytest.raises(DataError, match="m2"):
            micro_f1({"m2": ["a"]}, {"m1": {"a"}})

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            preds, truths, _ = random_metric_instance(rng)
            npt.assert_allclose(micro_f1(preds, truths),
                                brute_force_micro_f1(preds, truths), atol=1e-12)

    def test_movie_order_is_irrelevant(self):
        rng = np.random.default_rng(1)
        preds, truths, _ = random_metric_instance(rng)
        reordered = dict(reversed(list(preds.items())))
        assert micro_f1(preds, truths) == micro_f1(reordered, truths)


class TestTagRecall:
    def test_hand_worked_partial_recall(self):
        tv = TagVocabulary(["a", "b"])
        preds = {"m1": ["a"], "m2": ["a"], "m3": ["b"], "m4": ["b"]}
        truths = {"m1": {"a"}, "m2": {"b"}, "m3": {"a", "b"}, "m4": {"a"}}
        # tag a: hit in m1 of truths m1,m3,m4 -> 1/3; tag b: hit in m3 of m2,m3 -> 1/2
        mean, per_tag = tag_recall(preds, truths, tv)
        npt.assert_allclose(per_tag, [1.0 / 3.0, 0.5], rtol=1e-15)
        npt.assert_allclose(mean, (1.0 / 3.0 + 0.5) / 2.0, rtol=1e-15)

    def test_unpredicted_vocabulary_tags_drag_the_mean(self):
        tv = TagVocabulary(["a", "b", "c", "d"])
        preds = {"m1": ["a"]}
        truths = {"m1": {"a"}}
        mean, per_tag = tag_recall(preds, truths, tv)
        npt.assert_allclose(per_tag, [1.0, 0.0, 0.0, 0.0])
        npt.assert_allclose(mean, 0.25)

    def test_truth_tags_outside_vocabulary_ignored(self):
        tv = TagVocabulary(["a"])
        mean, per_tag = tag_recall({"m1": ["a"]}, {"m1": {"a", "zzz"}}, tv)
        npt.assert_allclose(per_tag, [1.0])
        assert mean == 1.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            preds, truths, tv = random_metric_instance(rng)
            mean, per_tag = tag_recall(preds, truths, tv)
            expected_mean, expected_per_tag = brute_force_tag_recall(preds, truths, tv)
            npt.assert_allclose(mean, expected_mean, atol=1e-12)
            npt.assert_allclose(per_tag, expected_per_tag, atol=1e-12)


class TestTagsLearned:
    def test_counts_distinct_tags(self):
        assert tags_learned({"m1": ["a", "b"], "m2": ["b", "c"]}) == 3

    def test_empty(self):
        assert tags_learned({}) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            preds, _, _ = random_metric_instance(rng)
            assert tags_learned(preds) == brute_force_tags_learned(preds)


class TestEvaluatePredictions:
    def test_bundles_the_three_headline_numbers(self):
        tv = TagVocabulary(["a", "b"])
        preds = {"m1": ["a"], "m2": ["a"]}
        truths = {"m1": {"a"}, "m2": {"b"}}
        report = evaluate_predictions(preds, truths, tv, k=1, metadata={"variant": "cnn"})
        assert report.k == 1
        assert report.tags_learned == 1
        npt.assert_allclose(report.micro_f1, micro_f1(preds, truths))
        mean, per_tag = tag_recall(preds, truths, tv)
        npt.assert_allclose(report.tag_recall, mean)
        npt.assert_allclose(report.per_tag_recall, per_tag)
        assert report.tags == ["a", "b"]
        assert report.metadata == {"variant": "cnn"}

    def test_json_round_trip(self):
        tv = TagVocabulary(["a", "b"])
        report = evaluate_predictions({"m1": ["a"]}, {"m1": {"b"}}, tv, k=1)
        clone = MetricsReport.from_json(report.to_json())
        assert clone == report

    def test_summary_line_shows_percentages(self):
        report = MetricsReport(k=3, tags_learned=12, micro_f1=0.371, tag_recall=0.0624,
                               per_tag_recall=[], tags=[])
        line = report.summary_line()
        assert "k=3" in line and "tags_learned=12" in line
        assert "37.1" in line and "6.24" in line


class TestMostFrequentBaseline:
    @pytest.fixture
    def records(self):
        return [make_record("m1", "x", ["b", "c"]),
                make_record("m2", "x", ["b", "a"]),
                make_record("m3", "x", ["b", "c"])]

    def test_ranked_by_count(self, records):
        tv = TagVocabulary(["a", "b", "c"])
        assert baseline_most_frequent(records, tv, 2, ["m1"]) == {"m1": ["b", "c"]}

    def test_count_ties_break_lexicographically(self):
        records = [make_record("m1", "x", ["zeta", "echo"]), make_record("m2", "x", ["zeta", "echo"])]
        tv = TagVocabulary(["echo", "zeta", "alto"])
        assert baseline_most_frequent(records, tv, 3, ["m1"]) == {"m1": ["echo", "zeta", "alto"]}

    def test_every_movie_gets_the_same_list(self, records):
        tv = TagVocabulary(["a", "b", "c"])
        preds = baseline_most_frequent(records, tv, 2, ["m1", "m9"])
        assert preds == {"m1": ["b", "c"], "m9": ["b", "c"]}
        assert preds["m1"] is not preds["m9"]  # caller may mutate one safely

    def test_k_bounds(self, records):
        tv = TagVocabulary(["a", "b", "c"])
        with pytest.raises(ValueError):
            baseline_most_frequent(records, tv, 0, ["m1"])
        with pytest.raises(ValueError):
            baseline_most_frequent(records, tv, 4, ["m1"])


class TestRandomBaseline:
    def test_deterministic_per_seed(self):
        tv = TagVocabulary([f"t{i}" for i in range(10)])
        a = baseline_random(tv, ["m1", "m2"], 3, seed=5)
        b = baseline_random(tv, ["m1", "m2"], 3, seed=5)
        assert a == b
        assert a != baseline_random(tv, ["m1", "m2"], 3, seed=6)

    def test_k_distinct_tags_per_movie(self):
        tv = TagVocabulary([f"t{i}" for i in range(7)])
        preds = baseline_random(tv, [f"m{i}" for i in range(30)], 5, seed=0)
        for tags in preds.values():
            assert len(tags) == 5
            assert len(set(tags)) == 5
            assert set(tags) <= set(tv.tags)

    def test_k_equal_to_vocabulary_uses_every_tag(self):
        tv = TagVocabulary(["a", "b", "c"])
        preds = baseline_random(tv, ["m1"], 3, seed=1)
        assert sorted(preds["m1"]) == ["a", "b", "c"]


class TestRecallDelta:
    @staticmethod
    def report(tags, per_tag):
        return MetricsReport(k=3, tags_learned=0, micro_f1=0.0, tag_recall=0.0,
                             per_tag_recall=per_tag, tags=tags)

    def test_identical_reports_give_zero_deltas(self):
        a = self.report(["x", "y"], [0.5, 0.25])
        deltas = recall_delta(a, self.report(["x", "y"], [0.5, 0.25]))
        assert deltas == [("x", 0.0), ("y", 0.0)]

    def test_sorted_by_magnitude(self):
        a = self.report(["x", "y", "z"], [0.9, 0.2, 0.5])
        b = self.report(["x", "y", "z"], [0.8, 0.6, 0.5])
        deltas = recall_delta(a, b)
        assert [tag for tag, _ in deltas] == ["y", "x", "z"]
        npt.assert_allclose([d for _, d in deltas], [-0.4, 0.1, 0.0], atol=1e-12)

    def test_equal_magnitudes_keep_tag_order(self):
        # +-0.25 is exact in binary, so the magnitudes tie and the sort is stable
        a = self.report(["x", "y"], [0.75, 0.25])
        b = self.report(["x", "y"], [0.5, 0.5])
        assert recall_delta(a, b) == [("x", 0.25), ("y", -0.25)]

    def test_mismatched_vocabularies_rejected(self):
        with pytest.raises(DataError):
            recall_delta(self.report(["x"], [0.1]), self.report(["y"], [0.1]))


class TestPredictionOverlap:
    def test_identical_sets_fill_the_top_band(self):
        preds = {"m1": ["a", "b"], "m2": ["c", "d"]}
        overlaps, bands = prediction_overlap(preds, {m: list(t) for m, t in preds.items()})
        assert overlaps == {"m1": 1.0, "m2": 1.0}
        assert bands == {">=80%": 1.0, "40-80%": 0.0, "20-40%": 0.0, "<20%": 0.0}

    def test_disjoint_sets_fill_the_bottom_band(self):
        overlaps, bands = prediction_overlap({"m1": ["a", "b"]}, {"m1": ["c", "d"]})
        assert overlaps == {"m1": 0.0}
        assert bands["<20%"] == 1.0

    def test_order_within_a_list_is_irrelevant(self):
        overlaps, _ = prediction_overlap({"m1": ["a", "b", "c", "d", "e"]},
                                         {"m1": ["e", "d", "x", "b", "a"]})
        assert overlaps == {"m1": 0.8}

    def test_band_boundaries_are_inclusive_on_the_left(self):
        k5 = {"m1": [f"a{i}" for i in range(5)]}
        exact_08 = {"m1": ["a0", "a1", "a2", "a3", "x"]}
        assert prediction_overlap(k5, exact_08)[1][">=80%"] == 1.0
        exact_04 = {"m1": ["a0", "a1", "x", "y", "z"]}
        assert prediction_overlap(k5, exact_04)[1]["40-80%"] == 1.0
        exact_02 = {"m1": ["a0", "x", "y", "z", "w"]}
        assert prediction_overlap(k5, exact_02)[1]["20-40%"] == 1.0

    def test_band_fractions_sum_to_one(self):
        rng = np.random.default_rng(6)
        tags = [f"t{i}" for i in range(12)]
        preds_a, preds_b = {}, {}
        for i in range(40):
            preds_a[f"m{i}"] = [tags[j] for j in rng.choice(12, size=4, replace=False)]
            preds_b[f"m{i}"] = [tags[j] for j in rng.choice(12, size=4, replace=False)]
        overlaps, bands = prediction_overlap(preds_a, preds_b)
        assert set(bands) == set(OVERLAP_BANDS)
        npt.assert_allclose(sum(bands.values()), 1.0, rtol=1e-12)
        assert all(0.0 <= v <= 1.0 for v in overlaps.values())

    def test_mismatched_movies_rejected(self):
        with pytest.raises(DataError, match="different movies"):
            prediction_overlap({"m1": ["a"]}, {"m2": ["a"]})

    def test_mixed_list_lengths_rejected(self):
        with pytest.raises(DataError, match="lengths"):
            prediction_overlap({"m1": ["a", "b"]}, {"m1": ["a"]})

    def test_empty_sets_rejected(self):
        with pytest.raises(DataError, match="empty"):
            prediction_overlap({}, {})
