"""Accuracy, confusion matrices and length statistics of label indices.

Gold labels come as ``features.label_indices(dataset)`` and predictions
as a model's ``scores(...).argmax(axis=1)``; label strings appear only in
the report text.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import ISO_CODES, LABELS
from .errors import PredictionError


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # 6x6 ints; rows true label, columns predicted
    precision: np.ndarray  # 6 floats in LABELS order; 0.0 for a label never predicted
    recall: np.ndarray  # 6 floats in LABELS order; 0.0 for a label absent from gold
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


def _checked(truth, guess) -> tuple[np.ndarray, np.ndarray]:
    """Gold and predicted label indices as int64 arrays. Raises ValueError
    on a length mismatch or a gold index outside the labels, and
    PredictionError with the position of the first predicted index outside
    them."""
    truth = np.asarray(truth, dtype=np.int64)
    guess = np.asarray(guess, dtype=np.int64)
    if len(truth) != len(guess):
        raise ValueError(f"{len(truth)} gold labels but {len(guess)} predictions")
    n = len(LABELS)
    outside = np.flatnonzero((guess < 0) | (guess >= n))
    if outside.size:
        raise PredictionError(int(outside[0]))
    if ((truth < 0) | (truth >= n)).any():
        raise ValueError(f"a gold label index is not in 0..{n - 1}")
    return truth, guess


def evaluate(
    truth: np.ndarray,
    guess: np.ndarray,
    dataset_id: str = "",
    model_id: str = "",
) -> EvalReport:
    """Tabulate the confusion matrix of predicted against gold label indices."""
    truth, guess = _checked(truth, guess)
    n = len(LABELS)
    confusion = np.bincount(truth * n + guess, minlength=n * n).reshape(n, n)
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total else 0.0
    diag = np.diag(confusion).astype(np.float64)
    col_sums = confusion.sum(axis=0)
    row_sums = confusion.sum(axis=1)
    precision = np.divide(diag, col_sums, out=np.zeros(n), where=col_sums > 0)
    recall = np.divide(diag, row_sums, out=np.zeros(n), where=row_sums > 0)
    return EvalReport(accuracy, confusion, precision, recall, dataset_id, model_id)


def length_failure_analysis(
    truth: np.ndarray, guess: np.ndarray, lengths: Sequence[int]
) -> LengthStats:
    """Mean/std of cleaned-character length for correct vs wrong predictions."""
    truth, guess = _checked(truth, guess)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(len(truth))
    correct = truth == guess
    return LengthStats(_group_stats(lengths[correct]), _group_stats(lengths[~correct]))


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
    for k, code in enumerate(LABELS):
        lines.append(
            f"{name(code)}: precision={report.precision[k]:.17g} "
            f"recall={report.recall[k]:.17g}"
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
