"""Directional mini-experiment on the bundled synthetic corpus.

Reproduces, at desk scale, the qualitative findings the full-scale runs
show: character bigrams beat unigrams, discriminative linear models beat
Naive Bayes, accuracy drops off-domain, and misclassified sentences run
shorter than correctly classified ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifiers import train_logreg, train_nb, train_svm
from .corpus import Dataset, stratified_sample, train_test_split
from .evaluation import EvalReport, LengthStats, evaluate, length_failure_analysis
from .features import build_ngram_vocab, label_indices
from .modelio import VectorFeature
from .synth import generate_pools


@dataclass
class MiniExperimentResult:
    accuracies: dict[str, float] = field(default_factory=dict)
    in_domain: EvalReport | None = None
    out_domain: EvalReport | None = None
    cross_domain_delta: float = 0.0
    length_stats: LengthStats | None = None
    best_model_id: str = ""


def run_mini_experiment(
    n_per_class: int = 1000,
    n_out_domain: int = 200,
    seed: int = 42,
    logreg_lr: float = 0.05,
    logreg_epochs: int = 1500,
    svm_lam: float = 1e-5,
    svm_epochs: int = 40,
) -> MiniExperimentResult:
    """Train the comparison grid on the synthetic corpus and collect metrics.

    Logistic regression and Naive Bayes consume the same raw count
    matrices; the SVM runs on L1-normalized frequencies with averaged
    Pegasos iterates (raw-count scales thrash its 1/(lam*t) schedule).
    """
    pools = generate_pools(n_per_class, genre="wiki", seed=seed)
    dataset = stratified_sample(pools, n_per_class, seed)
    train, test = train_test_split(dataset, 0.8, seed)
    out_pools = generate_pools(n_out_domain, genre="chat", seed=seed + 1)
    out_test = stratified_sample(out_pools, n_out_domain, seed + 1)

    result = MiniExperimentResult()
    char1 = VectorFeature("char1", False, build_ngram_vocab(train, (1, 1)))
    char2 = VectorFeature("char2", False, build_ngram_vocab(train, (2, 2)))
    char2_freq = VectorFeature("char2", True, char2.vocab)
    y_train = label_indices(train)

    def fit(trainer, feature: VectorFeature, **kwargs) -> tuple:
        return trainer(feature.matrix(train), y_train, **kwargs), feature

    # model id -> (model, feature)
    models = {
        "logreg+char1": fit(train_logreg, char1, learning_rate=logreg_lr, epochs=logreg_epochs),
        "logreg+char2": fit(train_logreg, char2, learning_rate=logreg_lr, epochs=logreg_epochs),
        "svm+char2": fit(
            train_svm, char2_freq, lam=svm_lam, epochs=svm_epochs, seed=seed, average=True
        ),
        "nb+char2": fit(train_nb, char2),
    }

    def predict(model_id: str, sentences: Dataset) -> np.ndarray:
        model, feature = models[model_id]
        return model.scores(feature.matrix(sentences)).argmax(axis=1)

    gold = label_indices(test)
    predictions = {model_id: predict(model_id, test) for model_id in models}
    for model_id, predicted in predictions.items():
        result.accuracies[model_id] = evaluate(gold, predicted, model_id=model_id).accuracy

    best = result.best_model_id = max(result.accuracies, key=result.accuracies.get)
    result.in_domain = evaluate(gold, predictions[best], "in-domain", best)
    result.out_domain = evaluate(
        label_indices(out_test), predict(best, out_test), "out-of-domain", best
    )
    result.cross_domain_delta = result.in_domain.accuracy - result.out_domain.accuracy
    result.length_stats = length_failure_analysis(
        gold, predictions[best], [s.length for s in test]
    )
    return result


def format_result(result: MiniExperimentResult) -> str:
    lines = ["model\taccuracy"]
    for model_id in sorted(result.accuracies):
        lines.append(f"{model_id}\t{result.accuracies[model_id]:.4f}")
    lines.append(f"best\t{result.best_model_id}")
    lines.append(
        "cross-domain\tin={:.4f} out={:.4f} delta={:.4f}".format(
            result.in_domain.accuracy,
            result.out_domain.accuracy,
            result.cross_domain_delta,
        )
    )
    stats = result.length_stats
    if stats.misclassified is not None:
        lines.append(
            "length\tcorrect mean={:.2f} (n={}), misclassified mean={:.2f} (n={})".format(
                stats.correct.mean,
                stats.correct.count,
                stats.misclassified.mean,
                stats.misclassified.count,
            )
        )
    return "\n".join(lines) + "\n"
