"""Confusion matrices, length statistics, and cross-domain deltas."""

import numpy as np
import pytest

from nordlid.corpus import LABELS, Dataset, Sentence
from nordlid.errors import PredictionError
from nordlid.evaluation import (
    confusion_csv,
    cross_domain_eval,
    evaluate,
    length_failure_analysis,
    report_text,
)


def balanced_dataset(n_per_label=2):
    sentences = [
        Sentence(f"{code} tekst nummer {i}", code)
        for code in LABELS
        for i in range(n_per_label)
    ]
    return Dataset(tuple(sentences))


def gold_of(ds):
    return [s.label for s in ds]


def lengths_of(ds):
    return [s.length for s in ds]


class TestEvaluate:
    def test_oracle_predictor_diagonal(self):
        ds = balanced_dataset(3)
        report = evaluate(gold_of(ds), gold_of(ds))
        assert report.accuracy == 1.0
        assert np.array_equal(np.diag(report.confusion), [3] * 6)
        assert report.confusion.sum() == 18

    def test_constant_predictor_one_column(self):
        ds = balanced_dataset(2)
        report = evaluate(gold_of(ds), ["dk"] * len(ds))
        assert report.accuracy == pytest.approx(1 / 6)
        assert report.confusion[:, 0].sum() == 12
        assert report.confusion[:, 1:].sum() == 0

    def test_hand_built_three_sentence_case(self):
        ds = Dataset(
            (
                Sentence("en", "dk"),
                Sentence("to", "dk"),
                Sentence("tre", "sv"),
            )
        )
        report = evaluate(gold_of(ds), ["dk", "sv", "sv"])
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.confusion[0, 0] == 1  # dk -> dk
        assert report.confusion[0, 1] == 1  # dk -> sv
        assert report.confusion[1, 1] == 1  # sv -> sv

    def test_trace_over_total_is_accuracy(self):
        ds = balanced_dataset(4)
        report = evaluate(gold_of(ds), ["sv"] * len(ds))
        assert report.accuracy == np.trace(report.confusion) / report.confusion.sum()

    def test_row_sums_equal_per_label_counts(self):
        ds = balanced_dataset(5)
        report = evaluate(gold_of(ds), ["is"] * len(ds))
        assert report.confusion.sum(axis=1).tolist() == [5] * 6

    def test_prediction_error_carries_index(self):
        ds = balanced_dataset(1)
        predicted = ["dk", "dk", "xx", "dk", "dk", "dk"]  # no label at index 2
        with pytest.raises(PredictionError) as err:
            evaluate(gold_of(ds), predicted)
        assert err.value.index == 2
        with pytest.raises(PredictionError):
            length_failure_analysis(gold_of(ds), predicted, lengths_of(ds))

    def test_length_mismatch_rejected(self):
        ds = balanced_dataset(1)
        with pytest.raises(ValueError):
            evaluate(gold_of(ds), ["dk"])


class TestLengthFailureAnalysis:
    def test_all_correct_has_absent_misclassified_group(self):
        ds = balanced_dataset(2)
        stats = length_failure_analysis(gold_of(ds), gold_of(ds), lengths_of(ds))
        assert stats.misclassified is None
        assert stats.correct.count == 12

    def test_two_group_means_and_population_std(self):
        ds = Dataset((Sentence("a" * 10, "dk"), Sentence("b" * 20, "sv")))
        stats = length_failure_analysis(gold_of(ds), ["dk", "dk"], lengths_of(ds))
        assert stats.correct.mean == 10 and stats.correct.std == 0.0
        assert stats.misclassified.mean == 20 and stats.misclassified.std == 0.0

    def test_group_sizes_sum_to_total(self):
        ds = balanced_dataset(3)
        stats = length_failure_analysis(gold_of(ds), ["fo"] * len(ds), lengths_of(ds))
        total = stats.correct.count + stats.misclassified.count
        assert total == len(ds)

    def test_population_std_convention(self):
        ds = Dataset((Sentence("a" * 4, "dk"), Sentence("b" * 8, "dk")))
        stats = length_failure_analysis(gold_of(ds), ["dk", "dk"], lengths_of(ds))
        assert stats.correct.std == pytest.approx(2.0)  # population, not sample


class TestCrossDomain:
    def test_identical_datasets_delta_zero(self):
        ds = balanced_dataset(2)
        constant = ["dk"] * len(ds)
        in_report, out_report, delta = cross_domain_eval(
            gold_of(ds), constant, gold_of(ds), constant
        )
        assert delta == 0.0
        assert in_report.accuracy == out_report.accuracy

    def test_oracle_predictor_delta_zero(self):
        ds = balanced_dataset(2)
        _, _, delta = cross_domain_eval(gold_of(ds), gold_of(ds), gold_of(ds), gold_of(ds))
        assert delta == 0.0

    def test_disjoint_vocabulary_drop(self):
        in_ds = balanced_dataset(3)
        out_ds = Dataset(
            tuple(Sentence(f"ukendt {i}", code) for code in LABELS for i in range(3))
        )
        # a predictor that knows the in-domain sentences and says dk otherwise
        in_report, out_report, delta = cross_domain_eval(
            gold_of(in_ds), gold_of(in_ds), gold_of(out_ds), ["dk"] * len(out_ds)
        )
        assert in_report.accuracy == 1.0
        assert out_report.accuracy == pytest.approx(1 / 6)
        assert delta == pytest.approx(1.0 - 1 / 6)


class TestReportFormats:
    def test_confusion_csv_header_and_rows(self):
        ds = balanced_dataset(1)
        report = evaluate(gold_of(ds), ["dk"] * len(ds))
        lines = confusion_csv(report).strip().splitlines()
        assert lines[0] == "true\\pred,dk,sv,nn,nb,fo,is"
        assert len(lines) == 7
        assert lines[1].startswith("dk,1,")

    def test_confusion_csv_iso_codes(self):
        ds = balanced_dataset(1)
        report = evaluate(gold_of(ds), ["dk"] * len(ds))
        lines = confusion_csv(report, iso_codes=True).strip().splitlines()
        assert lines[0] == "true\\pred,da,sv,nn,nb,fo,is"

    def test_report_text_contains_metrics(self):
        ds = balanced_dataset(2)
        report = evaluate(gold_of(ds), gold_of(ds), "testset", "oracle")
        stats = length_failure_analysis(gold_of(ds), gold_of(ds), lengths_of(ds))
        text = report_text(report, stats)
        assert "accuracy: 1" in text
        assert "length[misclassified]: absent" in text
        assert "population standard deviation" in text

    def test_precision_recall_bounds(self):
        ds = balanced_dataset(3)
        report = evaluate(gold_of(ds), ["nb"] * len(ds))
        for code in LABELS:
            assert 0.0 <= report.precision[code] <= 1.0
            assert 0.0 <= report.recall[code] <= 1.0
