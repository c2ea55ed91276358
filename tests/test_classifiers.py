"""Classical model behavior against hand computations and brute-force oracles."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nordlid import classifiers

from nordlid.corpus import LABELS
from nordlid.classifiers import (
    LogRegModel,
    SvmModel,
    _augment,
    logreg_gradient,
    svm_objective,
    train_knn,
    train_logreg,
    train_nb,
    train_svm,
)
from nordlid.errors import DimensionMismatch, NegativeCount
from nordlid.features import CsrMatrix, cross_entropy, one_hot, softmax, to_dense


def python_distance(row, x):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(row, x)))


def numpy_distance(row, x):
    """The documented formula, summed as numpy sums a row: distances that
    differ in the last bits then order as the model's do."""
    return float(np.sqrt(((row - x) ** 2).sum()))


def label(model, x) -> str:
    """The label of one sample: the argmax of the model's scores of it as a one-row matrix."""
    return LABELS[int(model.scores(np.asarray(x, dtype=np.float64)[None]).argmax())]


def knn_oracle(vectors, labels, k, x, distance=python_distance):
    """Exhaustive nearest-neighbor search with the documented tie rules."""
    dists = [(distance(row, x), i) for i, row in enumerate(vectors)]
    dists.sort(key=lambda pair: (pair[0], pair[1]))
    chosen = dists[:k]
    votes, sums = {}, {}
    for d, i in chosen:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
        sums[labels[i]] = sums.get(labels[i], 0.0) + d
    best = max(votes.values())
    tied = [c for c, v in votes.items() if v == best]
    tied.sort(key=lambda c: (sums[c], c))
    return LABELS[tied[0]]


#: Coordinates of tie-built KNN inputs: zeros make rows sparse, the
#: dyadic values give exact ties, 1/3 and 0.1 near ones.
TIE_GRID = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 1 / 3, 0.1])


@st.composite
def tied_knn_inputs(draw):
    """Training rows built to tie: duplicates, mirror images through the
    query (equidistant from it), and copies nudged by one ulp in one
    coordinate; labels at random."""
    d = draw(st.integers(1, 12))
    vector = st.lists(TIE_GRID, min_size=d, max_size=d).map(np.array)
    query = draw(vector)
    rows = []
    for row in draw(st.lists(vector, min_size=1, max_size=5)):
        rows.append(row)
        for how in draw(st.lists(st.sampled_from(["copy", "mirror", "nudge"]), max_size=3)):
            if how == "copy":
                rows.append(row.copy())
            elif how == "mirror":
                rows.append(2 * query - row)
            else:
                nudged = row.copy()
                j = draw(st.integers(0, d - 1))
                nudged[j] = np.nextafter(nudged[j], draw(st.sampled_from([-np.inf, np.inf])))
                rows.append(nudged)
    vectors = np.array(draw(st.permutations(rows)))
    labels = np.array(draw(st.lists(st.integers(0, 5), min_size=len(rows), max_size=len(rows))))
    k = draw(st.integers(1, len(rows)))
    queries = np.array([query, *draw(st.lists(st.sampled_from(rows), max_size=3))])
    return vectors, labels, k, queries


class TestKnn:
    @settings(max_examples=300, deadline=None)
    @given(tied_knn_inputs())
    def test_scores_equal_exhaustive_oracle_on_ties(self, case):
        vectors, labels, k, queries = case
        model = train_knn(vectors, labels, k=k)
        expected = [knn_oracle(vectors, labels, k, q, numpy_distance) for q in queries]
        assert [LABELS[c] for c in model.scores(queries).argmax(axis=1)] == expected
        assert [LABELS[c] for c in model.scores(CsrMatrix.from_dense(queries)).argmax(axis=1)] == expected
        assert [label(model, q) for q in queries] == expected

    def test_search_memory_stays_within_budget(self, monkeypatch):
        rng = np.random.default_rng(3)
        n, d = 400, 3000  # a dense copy of the training set takes 9.6 MB
        dense = rng.random((n, d)) * (rng.random((n, d)) < 0.01)
        model = train_knn(dense, rng.integers(0, 6, size=n), k=3)
        queries = CsrMatrix.from_dense(dense[:40] + 0.5 * dense[40:80])
        budget = 128 * 1024
        monkeypatch.setattr(classifiers, "KNN_BLOCK_BYTES", budget)
        expected = model.scores(queries)
        tracemalloc.start()
        try:
            assert np.array_equal(model.scores(queries), expected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * budget < dense.nbytes / 8

    def test_exact_match_k1(self):
        model = train_knn(np.array([[0.0, 0.0], [5.0, 5.0]]), np.array([2, 4]), k=1)
        assert label(model, [5.0, 5.0]) == LABELS[4]

    def test_majority_vote(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0]])
        y = np.array([0, 0, 1])  # dk, dk, sv
        model = train_knn(x, y, k=3)
        assert label(model, [1.0, 1.0]) == "dk"

    def test_zero_width_vectors_tie_by_training_order(self):
        model = train_knn(np.zeros((3, 0)), np.array([2, 1, 0]), k=2)
        assert label(model, np.zeros(0)) == knn_oracle(model.vectors.toarray(), [2, 1, 0], 2, [])
        assert model.scores(np.zeros((4, 0))).argmax(axis=1).tolist() == [1] * 4

    def test_k_exceeds_training_size(self):
        with pytest.raises(ValueError):
            train_knn(np.zeros((2, 3)), np.array([0, 1]), k=5)

    def test_dimension_mismatch(self):
        model = train_knn(np.zeros((3, 4)), np.array([0, 1, 2]), k=1)
        with pytest.raises(DimensionMismatch):
            model.scores(np.zeros((1, 5)))
        with pytest.raises(DimensionMismatch):  # one sample is a one-row matrix
            model.scores(np.zeros(4))

    def test_distance_tie_uses_training_order(self):
        # two equidistant points with different labels, k=1
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = train_knn(x, np.array([3, 1]), k=1)
        assert label(model, [0.0, 0.0]) == LABELS[3]

    def test_vote_tie_smallest_summed_distance(self):
        x = np.array([[0.0, 1.0], [0.0, -1.0], [3.0, 0.0], [4.0, 0.0]])
        y = np.array([1, 1, 0, 0])  # sv pair nearer, dk pair further
        model = train_knn(x, y, k=4)
        assert label(model, [0.0, 0.0]) == "sv"

    def test_agrees_with_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            d = int(rng.integers(1, 8))
            k = int(rng.integers(1, min(n, 7) + 1))
            vectors = rng.normal(size=(n, d)).round(3)
            labels = rng.integers(0, 6, size=n)
            model = train_knn(vectors, labels, k=k)
            query = rng.normal(size=d).round(3)
            assert label(model, query) == knn_oracle(vectors, labels, k, query)


class TestLogReg:
    def test_zero_epochs_uniform(self):
        model = train_logreg(np.ones((4, 3)), np.array([0, 1, 2, 3]), epochs=0)
        posterior = model.scores(np.array([[9.0, -2.0, 1.0]]))[0]
        assert label(model, [9.0, -2.0, 1.0]) == "dk"
        assert np.allclose(posterior, 1 / 6)

    def test_separable_toy_set(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(-2, 0.3, (20, 2)), rng.normal(2, 0.3, (20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        model = train_logreg(x, y, learning_rate=0.5, epochs=500)
        predictions = [label(model, row) for row in x]
        expected = [LABELS[c] for c in y]
        assert predictions == expected

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x_aug = _augment(rng.normal(size=(5, 4)))
        y = rng.integers(0, 6, size=5)
        theta = rng.normal(size=(6, 5))
        analytic = logreg_gradient(theta, x_aug, y)
        step = 1e-6
        for i in range(theta.shape[0]):
            for j in range(theta.shape[1]):
                t_plus, t_minus = theta.copy(), theta.copy()
                t_plus[i, j] += step
                t_minus[i, j] -= step
                up = cross_entropy(softmax(x_aug @ t_plus.T), y)
                down = cross_entropy(softmax(x_aug @ t_minus.T), y)
                numeric = (up - down) / (2 * step)
                denom = max(1e-8, abs(numeric), abs(analytic[i, j]))
                assert abs(analytic[i, j] - numeric) / denom < 1e-4

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(3)
        model = LogRegModel(rng.normal(size=(6, 4)), 0.5, 0)
        for _ in range(20):
            posterior = model.scores(rng.normal(size=(1, 3)))[0]
            assert posterior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_posterior_matches_external_softmax(self):
        theta = np.arange(24, dtype=float).reshape(6, 4) / 10
        model = LogRegModel(theta, 0.5, 0)
        x = np.array([0.3, -0.2, 0.5])
        logits = theta @ np.append(x, 1.0)
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        posterior = model.scores(x[None])[0]
        assert np.allclose(posterior, expected, atol=1e-12)

    def test_permuting_training_order_changes_nothing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 6, size=12)
        perm = rng.permutation(12)
        a = train_logreg(x, y, epochs=50)
        b = train_logreg(x[perm], y[perm], epochs=50)
        assert np.allclose(a.theta, b.theta, atol=1e-12)


def nb_oracle_scores(counts, labels, alpha, x):
    """Exact-rational enumeration of log p(C_k) + sum_i x_i log p(i|C_k)."""
    n, v = counts.shape
    scores = []
    for k in range(6):
        rows = counts[labels == k]
        prior = Fraction(len(rows), n)
        totals = rows.sum(axis=0) if len(rows) else np.zeros(v)
        denom = Fraction(int(totals.sum())) + Fraction(alpha) * v
        score = math.log(prior) if prior > 0 else -math.inf
        for i in range(v):
            if x[i] > 0:
                p = (Fraction(int(totals[i])) + Fraction(alpha)) / denom
                score += x[i] * math.log(p)
        scores.append(score)
    return scores


class TestNaiveBayes:
    def test_balanced_priors(self):
        x = np.ones((12, 2))
        y = np.repeat(np.arange(6), 2)
        model = train_nb(x, y)
        assert np.allclose(np.exp(model.log_priors), 1 / 6)

    def test_hand_arithmetic_likelihoods(self):
        # class dk with feature totals {f0: 3, f1: 1}, alpha=1, V=2
        x = np.array([[3.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 1])
        model = train_nb(x, y, alpha=1.0)
        assert np.exp(model.log_likelihoods[0, 0]) == pytest.approx(4 / 6)
        assert np.exp(model.log_likelihoods[0, 1]) == pytest.approx(2 / 6)

    def test_alpha_zero_unseen_feature_scores_minus_inf(self):
        x = np.array([[2.0, 0.0], [0.0, 2.0]])
        y = np.array([0, 1])
        model = train_nb(x, y, alpha=0.0)
        scores = model.scores(np.array([[0.0, 1.0]]))[0]
        assert scores[0] == -np.inf
        assert np.isfinite(scores[1])

    @pytest.mark.parametrize("alpha", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_alpha_that_is_not_finite_and_non_negative_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            train_nb(np.ones((2, 2)), np.array([0, 1]), alpha=alpha)

    def test_negative_counts_rejected(self):
        with pytest.raises(NegativeCount):
            train_nb(np.array([[1.0, -1.0]]), np.array([0]))

    def test_uniform_model_ties_break_to_dk(self):
        x = np.ones((6, 3))
        y = np.arange(6)
        model = train_nb(x, y)
        assert label(model, [1.0, 1.0, 1.0]) == "dk"

    def test_empty_vector_uses_priors_alone(self):
        x = np.vstack([np.ones((3, 2)), np.ones((1, 2))])
        y = np.array([0, 0, 0, 1])
        model = train_nb(x, y)
        scores = model.scores(np.zeros((1, 2)))[0]
        assert label(model, np.zeros(2)) == "dk"
        assert np.allclose(scores[:2], model.log_priors[:2])

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(6, 15))
            v = int(rng.integers(2, 5))
            counts = rng.integers(0, 5, size=(n, v)).astype(float)
            labels = rng.integers(0, 6, size=n)
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            x = rng.integers(0, 4, size=v).astype(float)
            model = train_nb(counts, labels, alpha=alpha)
            expected = nb_oracle_scores(counts, labels, alpha, x)
            got = model.scores(x[None])[0]
            for a, b in zip(got, expected):
                if math.isinf(b):
                    assert math.isinf(a)
                else:
                    assert a == pytest.approx(b, abs=1e-12)


def dense_pegasos(x, y, lam, epochs, seed, average=False):
    """The earlier per-step loop over dense rows, rescaling all 6 x d weights
    each step: the reference for the O(nnz) steps of ``train_svm``.
    Returns the weights, the biases and the objective history."""
    x = to_dense(x)
    n, dim = x.shape
    y_signs = np.where(one_hot(y) > 0, 1.0, -1.0)
    weights = np.zeros((6, dim))
    biases = np.zeros(6)
    rng = np.random.default_rng(seed)
    history = []
    tail_start = epochs * n // 2
    w_sum = np.zeros_like(weights)
    b_sum = np.zeros_like(biases)
    averaged = 0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margins = y_signs[i] * (weights @ x[i] + biases)
            violated = margins < 1.0
            weights *= 1.0 - eta * lam
            if violated.any():
                weights[violated] += eta * np.outer(y_signs[i][violated], x[i])
                biases[violated] += eta * y_signs[i][violated]
            if average and t > tail_start:
                w_sum += weights
                b_sum += biases
                averaged += 1
        history.append(svm_objective(weights, biases, lam, x, y_signs))
    if average and averaged:
        weights = w_sum / averaged
        biases = b_sum / averaged
        history.append(svm_objective(weights, biases, lam, x, y_signs))
    return weights, biases, history


def assert_close_relative(got, expected, rtol=1e-12):
    """Equal within ``rtol`` of the largest magnitude in ``expected``."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max(initial=0.0) <= rtol * np.abs(expected).max(initial=0.0)


class TestSvm:
    def test_positive_class_weight_sign(self):
        # 1-D set: label dk at +1, label sv at -1
        x = np.array([[1.0], [1.2], [-1.0], [-1.1]])
        y = np.array([0, 0, 1, 1])
        model = train_svm(x, y, lam=0.01, epochs=50, seed=0)
        assert model.weights[0, 0] > 0

    def test_prediction_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(6)
        weights = rng.normal(size=(6, 4))
        biases = rng.normal(size=6)
        model = SvmModel(weights, biases, 0.1, 1, 0)
        scaled = SvmModel(3.5 * weights, 3.5 * biases, 0.1, 1, 0)
        for _ in range(20):
            x = rng.normal(size=4)
            assert label(model, x) == label(scaled, x)

    def test_objective_non_increasing_on_toy_set(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.normal(-2, 0.2, (15, 2)), rng.normal(2, 0.2, (15, 2))])
        y = np.array([0] * 15 + [1] * 15)
        model = train_svm(x, y, lam=1.0, epochs=8, seed=1)
        history = model.objective_history
        assert all(b <= a + 1e-6 for a, b in zip(history, history[1:]))

    def test_all_zero_model_predicts_dk(self):
        model = SvmModel(np.zeros((6, 3)), np.zeros(6), 0.1, 1, 0)
        assert label(model, np.ones(3)) == "dk"

    def test_separable_training_points_classified(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(-3, 0.2, (15, 2)), rng.normal(3, 0.2, (15, 2))])
        y = np.array([2] * 15 + [4] * 15)
        model = train_svm(x, y, lam=0.01, epochs=60, seed=2)
        assert all(label(model, row) == LABELS[c] for row, c in zip(x, y))

    def test_scores_match_external_dot_product(self):
        rng = np.random.default_rng(9)
        weights = rng.normal(size=(6, 5))
        biases = rng.normal(size=6)
        model = SvmModel(weights, biases, 0.1, 1, 0)
        x = rng.normal(size=5)
        expected = np.array([w @ x + b for w, b in zip(weights, biases)])
        assert np.allclose(model.scores(x[None])[0], expected, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"), 1e-320, 5e-324])
    def test_lam_that_is_not_finite_and_positive_rejected(self, lam):
        """An infinite lam once trained all-NaN weights: 1/(inf*t) * inf is NaN.
        So did a subnormal one, whose 1/lam overflows to inf."""
        with pytest.raises(ValueError, match="lam"):
            train_svm(np.ones((2, 2)), np.array([0, 1]), lam=lam)

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize("average", [False, True])
    @pytest.mark.parametrize("lam", [1.0, 1e-5])
    @pytest.mark.parametrize("n,epochs", [(1, 1), (1, 3), (23, 0), (23, 1), (23, 3)])
    def test_matches_dense_reference(self, form, average, lam, n, epochs):
        rng = np.random.default_rng(n + epochs)
        x = rng.normal(size=(n, 9))
        x[rng.random(x.shape) < 0.6] = 0.0
        if n > 1:
            x[n // 2] = 0.0  # an all-zero row
        y = rng.integers(0, 6, size=n)
        design = CsrMatrix.from_dense(x) if form == "csr" else x
        model = train_svm(design, y, lam=lam, epochs=epochs, seed=11, average=average)
        weights, biases, history = dense_pegasos(x, y, lam, epochs, 11, average)
        assert np.abs(weights).max() > 0 or epochs == 0
        assert_close_relative(model.weights, weights)
        assert_close_relative(model.biases, biases)
        assert len(model.objective_history) == len(history)
        assert np.allclose(model.objective_history, history, rtol=1e-12, atol=0.0)

    def test_tiny_lam_objective_reads_inf_without_warning(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_svm(x, np.array([0, 1]), lam=1e-300, epochs=1)
        assert np.isfinite(model.weights).all()
        assert model.objective_history == [math.inf]

    def test_determinism_per_seed(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 6, size=20)
        a = train_svm(x, y, epochs=5, seed=3)
        b = train_svm(x, y, epochs=5, seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_objective_formula(self):
        weights = np.zeros((6, 2))
        biases = np.zeros(6)
        x = np.array([[1.0, 0.0]])
        y_signs = np.where(np.eye(6)[[0]] > 0, 1.0, -1.0)
        # zero model: every class has hinge loss exactly 1
        assert svm_objective(weights, biases, 0.5, x, y_signs) == pytest.approx(6.0)
