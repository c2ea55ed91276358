"""Confusion matrices, length statistics, and cross-domain deltas of label indices."""

from collections import Counter

import numpy as np
import pytest

from nordlid.corpus import LABEL_INDEX, LABELS, Dataset, Sentence
from nordlid.errors import PredictionError
from nordlid.evaluation import (
    confusion_csv,
    evaluate,
    length_failure_analysis,
    report_text,
)
from nordlid.features import label_indices


def balanced_dataset(n_per_label=2):
    sentences = [
        Sentence(f"{code} tekst nummer {i}", code)
        for code in LABELS
        for i in range(n_per_label)
    ]
    return Dataset(tuple(sentences))


def gold_of(ds):
    return label_indices(ds)


def indices(codes):
    return np.array([LABEL_INDEX[code] for code in codes], dtype=np.int64)


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
        report = evaluate(gold_of(ds), indices(["dk"] * len(ds)))
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
        report = evaluate(gold_of(ds), indices(["dk", "sv", "sv"]))
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.confusion[0, 0] == 1  # dk -> dk
        assert report.confusion[0, 1] == 1  # dk -> sv
        assert report.confusion[1, 1] == 1  # sv -> sv

    def test_trace_over_total_is_accuracy(self):
        ds = balanced_dataset(4)
        report = evaluate(gold_of(ds), indices(["sv"] * len(ds)))
        assert report.accuracy == np.trace(report.confusion) / report.confusion.sum()

    def test_row_sums_equal_per_label_counts(self):
        ds = balanced_dataset(5)
        report = evaluate(gold_of(ds), indices(["is"] * len(ds)))
        assert report.confusion.sum(axis=1).tolist() == [5] * 6

    def test_prediction_error_carries_index(self):
        ds = balanced_dataset(1)
        predicted = np.array([0, 0, 6, 0, -1, 0])  # no label at positions 2 and 4
        with pytest.raises(PredictionError) as err:
            evaluate(gold_of(ds), predicted)
        assert err.value.index == 2
        with pytest.raises(PredictionError):
            length_failure_analysis(gold_of(ds), predicted, lengths_of(ds))

    def test_length_mismatch_rejected(self):
        ds = balanced_dataset(1)
        with pytest.raises(ValueError):
            evaluate(gold_of(ds), indices(["dk"]))


    @pytest.mark.parametrize("seed", range(8))
    def test_matches_counter_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        # seeds 0-3 leave out some labels from gold and predictions alike
        present = rng.choice(6, size=int(rng.integers(1, 7)), replace=False) if seed < 4 else range(6)
        truth = rng.choice(list(present), size=n)
        guess = rng.choice(list(present), size=n)
        report = evaluate(truth, guess)
        pairs = Counter(zip(truth.tolist(), guess.tolist()))
        assert report.confusion.tolist() == [[pairs[t, g] for g in range(6)] for t in range(6)]
        hits = sum(pairs[k, k] for k in range(6))
        assert report.accuracy == (hits / n if n else 0.0)
        for k in range(6):
            predicted = sum(pairs[t, k] for t in range(6))
            gold = sum(pairs[k, g] for g in range(6))
            assert report.precision[k] == (pairs[k, k] / predicted if predicted else 0.0)
            assert report.recall[k] == (pairs[k, k] / gold if gold else 0.0)

    def test_absent_class_reads_zero(self):
        report = evaluate(indices(["dk", "dk", "sv"]), indices(["dk", "sv", "sv"]))
        assert report.precision.tolist() == [1.0, 0.5, 0.0, 0.0, 0.0, 0.0]
        assert report.recall.tolist() == [0.5, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_empty_arrays_give_zero_accuracy(self):
        report = evaluate(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert report.accuracy == 0.0 and report.total == 0
        assert not report.precision.any() and not report.recall.any()

    @pytest.mark.parametrize("bad", [6, -1])
    def test_gold_index_outside_labels_rejected(self, bad):
        with pytest.raises(ValueError, match="gold label index"):
            evaluate(np.array([0, bad, 2]), np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="gold label index"):
            length_failure_analysis(np.array([0, bad, 2]), np.array([0, 1, 2]), [1, 2, 3])

    @pytest.mark.parametrize("bad", [6, 99, -1])
    def test_prediction_error_names_first_position(self, bad):
        with pytest.raises(PredictionError) as err:
            evaluate(np.array([0, 1, 2, 3]), np.array([0, 1, bad, bad]))
        assert err.value.index == 2


class TestLengthFailureAnalysis:
    def test_all_correct_has_absent_misclassified_group(self):
        ds = balanced_dataset(2)
        stats = length_failure_analysis(gold_of(ds), gold_of(ds), lengths_of(ds))
        assert stats.misclassified is None
        assert stats.correct.count == 12

    def test_two_group_means_and_population_std(self):
        ds = Dataset((Sentence("a" * 10, "dk"), Sentence("b" * 20, "sv")))
        stats = length_failure_analysis(gold_of(ds), indices(["dk", "dk"]), lengths_of(ds))
        assert stats.correct.mean == 10 and stats.correct.std == 0.0
        assert stats.misclassified.mean == 20 and stats.misclassified.std == 0.0

    def test_group_sizes_sum_to_total(self):
        ds = balanced_dataset(3)
        stats = length_failure_analysis(gold_of(ds), indices(["fo"] * len(ds)), lengths_of(ds))
        total = stats.correct.count + stats.misclassified.count
        assert total == len(ds)

    def test_population_std_convention(self):
        ds = Dataset((Sentence("a" * 4, "dk"), Sentence("b" * 8, "dk")))
        stats = length_failure_analysis(gold_of(ds), indices(["dk", "dk"]), lengths_of(ds))
        assert stats.correct.std == pytest.approx(2.0)  # population, not sample


class TestCrossDomain:
    """The delta the mini-experiment reports: in-domain minus out-of-domain accuracy."""

    def test_identical_datasets_delta_zero(self):
        ds = balanced_dataset(2)
        constant = indices(["dk"] * len(ds))
        in_report = evaluate(gold_of(ds), constant, "in-domain")
        out_report = evaluate(gold_of(ds), constant, "out-of-domain")
        assert in_report.accuracy - out_report.accuracy == 0.0
        assert np.array_equal(in_report.confusion, out_report.confusion)

    def test_oracle_predictor_delta_zero(self):
        ds = balanced_dataset(2)
        in_report = evaluate(gold_of(ds), gold_of(ds))
        out_report = evaluate(gold_of(ds), gold_of(ds))
        assert in_report.accuracy - out_report.accuracy == 0.0

    def test_disjoint_vocabulary_drop(self):
        in_ds = balanced_dataset(3)
        out_ds = Dataset(
            tuple(Sentence(f"ukendt {i}", code) for code in LABELS for i in range(3))
        )
        # a predictor that knows the in-domain sentences and says dk otherwise
        in_report = evaluate(gold_of(in_ds), gold_of(in_ds))
        out_report = evaluate(gold_of(out_ds), indices(["dk"] * len(out_ds)))
        assert in_report.accuracy == 1.0
        assert out_report.accuracy == pytest.approx(1 / 6)
        assert in_report.accuracy - out_report.accuracy == pytest.approx(1.0 - 1 / 6)


class TestReportFormats:
    def test_confusion_csv_header_and_rows(self):
        ds = balanced_dataset(1)
        report = evaluate(gold_of(ds), indices(["dk"] * len(ds)))
        lines = confusion_csv(report).strip().splitlines()
        assert lines[0] == "true\\pred,dk,sv,nn,nb,fo,is"
        assert len(lines) == 7
        assert lines[1].startswith("dk,1,")

    def test_confusion_csv_iso_codes(self):
        ds = balanced_dataset(1)
        report = evaluate(gold_of(ds), indices(["dk"] * len(ds)))
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
        report = evaluate(gold_of(ds), indices(["nb"] * len(ds)))
        for code in LABELS:
            assert 0.0 <= report.precision[LABEL_INDEX[code]] <= 1.0
            assert 0.0 <= report.recall[LABEL_INDEX[code]] <= 1.0
