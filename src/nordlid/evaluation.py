"""Accuracy, confusion matrices, length statistics, and cross-domain deltas."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import ISO_CODES, LABEL_INDEX, LABELS
from .errors import PredictionError


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # 6x6 ints; rows true label, columns predicted
    precision: dict[str, float]
    recall: dict[str, float]
    dataset_id: str = ""
    model_id: str = ""

    @property
    def total(self) -> int:
        return int(self.confusion.sum())


@dataclass(frozen=True)
class GroupStats:
    mean: float
    std: float  # population standard deviation
    count: int


@dataclass(frozen=True)
class LengthStats:
    """Sentence-length statistics split by prediction correctness.

    A group with no members is reported as None rather than NaN.
    """

    correct: GroupStats | None
    misclassified: GroupStats | None


def _group_stats(lengths: np.ndarray) -> GroupStats | None:
    if not len(lengths):
        return None
    arr = lengths.astype(np.float64)
    return GroupStats(float(arr.mean()), float(arr.std()), len(lengths))


def _label_indices(gold: Sequence[str], predicted: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Class indices of gold and predicted labels; an unknown prediction
    raises PredictionError with its index."""
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold labels but {len(predicted)} predictions")
    for index, label in enumerate(predicted):
        if label not in LABEL_INDEX:
            raise PredictionError(index)
    return (np.array([LABEL_INDEX[g] for g in gold], dtype=np.int64),
            np.array([LABEL_INDEX[p] for p in predicted], dtype=np.int64))


def evaluate(
    gold: Sequence[str],
    predicted: Sequence[str],
    dataset_id: str = "",
    model_id: str = "",
) -> EvalReport:
    """Tabulate the confusion matrix of predicted against gold labels."""
    truth, guess = _label_indices(gold, predicted)
    n = len(LABELS)
    confusion = np.bincount(truth * n + guess, minlength=n * n).reshape(n, n)
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total else 0.0
    row_sums = confusion.sum(axis=1)
    col_sums = confusion.sum(axis=0)
    diag = np.diag(confusion)
    precision = {
        code: float(diag[k]) / col_sums[k] if col_sums[k] else 0.0
        for k, code in enumerate(LABELS)
    }
    recall = {
        code: float(diag[k]) / row_sums[k] if row_sums[k] else 0.0
        for k, code in enumerate(LABELS)
    }
    return EvalReport(accuracy, confusion, precision, recall, dataset_id, model_id)


def length_failure_analysis(
    gold: Sequence[str], predicted: Sequence[str], lengths: Sequence[int]
) -> LengthStats:
    """Mean/std of cleaned-character length for correct vs wrong predictions."""
    truth, guess = _label_indices(gold, predicted)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(len(truth))
    correct = truth == guess
    return LengthStats(_group_stats(lengths[correct]), _group_stats(lengths[~correct]))


def cross_domain_eval(
    in_gold: Sequence[str],
    in_predicted: Sequence[str],
    out_gold: Sequence[str],
    out_predicted: Sequence[str],
    model_id: str = "",
) -> tuple[EvalReport, EvalReport, float]:
    """Evaluate on both domains; the delta is in-domain minus out-of-domain."""
    in_report = evaluate(in_gold, in_predicted, "in-domain", model_id)
    out_report = evaluate(out_gold, out_predicted, "out-of-domain", model_id)
    return in_report, out_report, in_report.accuracy - out_report.accuracy


def confusion_csv(report: EvalReport, iso_codes: bool = False) -> str:
    """CSV with header ``true\\pred,dk,sv,nn,nb,fo,is`` and six count rows."""
    names = [ISO_CODES[c] for c in LABELS] if iso_codes else list(LABELS)
    lines = ["true\\pred," + ",".join(names)]
    for k, name in enumerate(names):
        lines.append(name + "," + ",".join(str(int(v)) for v in report.confusion[k]))
    return "\n".join(lines) + "\n"


def report_text(
    report: EvalReport,
    lengths: LengthStats | None = None,
    iso_codes: bool = False,
) -> str:
    """Human-readable report block; floats carry 17 significant digits."""

    def name(code: str) -> str:
        return ISO_CODES[code] if iso_codes else code

    lines = [
        f"model: {report.model_id}",
        f"dataset: {report.dataset_id}",
        f"sentences: {report.total}",
        f"accuracy: {report.accuracy:.17g}",
    ]
    for code in LABELS:
        lines.append(
            f"{name(code)}: precision={report.precision[code]:.17g} "
            f"recall={report.recall[code]:.17g}"
        )
    if lengths is not None:
        for tag, group in (("correct", lengths.correct), ("misclassified", lengths.misclassified)):
            if group is None:
                lines.append(f"length[{tag}]: absent")
            else:
                lines.append(
                    f"length[{tag}]: mean={group.mean:.17g} "
                    f"std={group.std:.17g} count={group.count}"
                )
    lines.append("note: std is the population standard deviation")
    return "\n".join(lines) + "\n"
