"""The four classical classifiers: KNN, logistic regression, Naive Bayes, SVM.

Trainers take a design matrix, dense or CSR (see ``features.CsrMatrix``),
and integer class indices (0..5, matching the canonical label order).
Each model's ``scores`` takes an n x d design matrix, dense or CSR, and
gives one row of six scores per sample; a sample's label is the argmax
of its row. One sample is scored as a one-row matrix.
Training is deterministic: full-batch methods are order-independent,
stochastic ones take an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NegativeCount
from .features import (
    N_CLASSES,
    CsrMatrix,
    as_csr,
    check_learning_rate,
    design_array,
    one_hot,
    softmax,
    to_dense,
)


def _features(x, expected: int) -> np.ndarray | CsrMatrix:
    """A design matrix of ``expected`` features, checked."""
    x = design_array(x)
    if x.ndim != 2 or x.shape[-1] != expected:
        raise DimensionMismatch(expected, x.shape[-1] if x.ndim else 0)
    return x


# ---------------------------------------------------------------------------
# K nearest neighbors
# ---------------------------------------------------------------------------


#: Bytes that each temporary array of a KNN search may take: the dense
#: query block, its n x m squared distances, the per-non-zero terms of
#: the CSR product, and the densified rows of an exact recompute. Each
#: holds at least one query or one training row, whatever n and d are.
#: Naive Bayes keeps its dense per-class contributions within it too.
KNN_BLOCK_BYTES = 16 * 2**20


@dataclass
class KnnModel:
    k: int
    vectors: CsrMatrix  # n x d
    labels: np.ndarray  # n, class indices

    def scores(self, x: np.ndarray | CsrMatrix) -> np.ndarray:
        """One-hot row of each query row's label: the majority label among
        its k nearest training points by Euclidean distance.

        Distance ties resolve by training-set order (stable sort); vote ties
        by smallest summed distance, then by label order.
        """
        return one_hot(_knn_search(self, _features(x, self.vectors.shape[1])))


def train_knn(train_x: np.ndarray | CsrMatrix, train_y: np.ndarray, k: int = 3) -> KnnModel:
    train_x = as_csr(train_x)
    train_y = np.asarray(train_y, dtype=np.int64)
    if k < 1 or k > len(train_y):
        raise ValueError(f"k must lie in 1..{len(train_y)}, got {k}")
    return KnnModel(k, train_x, train_y)


def _knn_search(model: KnnModel, queries: np.ndarray | CsrMatrix) -> np.ndarray:
    """Label index of each query row, by the rules of :meth:`KnnModel.scores`.

    Queries go ``m`` at a time, so that the dense block (m x d) and its
    squared distances (n x m) stay within ``KNN_BLOCK_BYTES``. A block's
    squared distances come from the expansion |v|^2 + |q|^2 - 2 v.q with
    one CSR product, :meth:`CsrMatrix.times_rows`, whose row ranges keep
    the m x nnz terms within the budget too. The rows within
    :func:`_knn_slack` of a query's k-th smallest value are the
    candidates; their distances are recomputed as ``sqrt(sum((v - q)**2))``
    on dense rows, which settles the order and the vote exactly as an
    exhaustive search by that formula would.
    """
    vectors = model.vectors
    n, d = vectors.shape
    if model.k > n:
        raise ValueError("k exceeds training set size")
    norms = vectors.row_sq_norms()
    budget = KNN_BLOCK_BYTES // 8  # float64 cells
    step = max(1, budget // max(n, d))
    labels = np.empty(queries.shape[0], dtype=np.int64)
    # Huge values may overflow to inf or nan; such a query keeps every
    # row as a candidate and is ranked by the exact formula alone.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, queries.shape[0], step):
            block = to_dense(queries[start : start + step])  # m x d
            gram = vectors.times_rows(block, budget)
            block_norms = np.einsum("ij,ij->i", block, block)
            approx = norms[:, None] + block_norms - 2 * gram
            kth = np.partition(approx, model.k - 1, axis=0)[model.k - 1]
            limit = kth + _knn_slack(d, norms.max(), block_norms, kth)
            keep = ~(approx > limit)  # nan compares false: such rows stay
            for j, query in enumerate(block):
                candidates = np.flatnonzero(keep[:, j])
                labels[start + j] = _knn_vote(model, candidates,
                                              _exact_distances(vectors, candidates, query))
    return labels


def _knn_slack(d: int, max_norm: float, query_norms: np.ndarray, kth: np.ndarray) -> np.ndarray:
    """How far past the k-th smallest approximate value a row stays a candidate.

    With u = 2**-53 and a d-wide row v and query q, both the expansion a
    and the exact formula's square e are within eps = g (|v| + |q|)^2 of
    the true squared distance t, where g = gamma(d + 4) = (d+4)u/(1-(d+4)u)
    bounds the roundings of a d-term dot product plus the few operations
    around it. Say the k-th smallest a is A. The k rows with a <= A have
    e <= A + 2 eps, so the k-th smallest e among candidates is at most
    E = A + 2 eps. A row with a > A + 4 eps + 8u(|A| + 2 eps) has
    e > (A + 2 eps)(1 + 8u) >= E(1 + 8u): its sqrt, rounded, lies strictly
    above the rounded sqrt of E, so even a sqrt tie cannot let it displace
    a candidate by training order. The slack below doubles that bound,
    which covers the rounding of the norms that set the scale and of
    A + slack itself, and adds d + 8 smallest normals for underflow.
    """
    info = np.finfo(np.float64)
    gamma = (d + 4) * info.epsneg / (1 - (d + 4) * info.epsneg)  # epsneg = 2**-53
    eps = gamma * (np.sqrt(max_norm) + np.sqrt(query_norms)) ** 2
    return 2 * (4 * eps + 8 * info.epsneg * (np.abs(kth) + 2 * eps)) + (d + 8) * info.tiny


def _exact_distances(vectors: CsrMatrix, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sqrt(sum((v - x)**2))`` of the given training rows, densified a few at a time."""
    step = max(1, KNN_BLOCK_BYTES // (8 * max(1, vectors.shape[1])))
    return np.concatenate([
        np.sqrt(((vectors[rows[i : i + step]] - x) ** 2).sum(axis=1))
        for i in range(0, len(rows), step)
    ])


def _knn_vote(model: KnnModel, rows: np.ndarray, distances: np.ndarray) -> int:
    """The label index chosen by the k nearest of ``rows`` (ascending indices)."""
    nearest = np.argsort(distances, kind="stable")[: model.k]
    votes = np.zeros(N_CLASSES)
    sums = np.zeros(N_CLASSES)
    for i in nearest:
        votes[model.labels[rows[i]]] += 1
        sums[model.labels[rows[i]]] += distances[i]
    candidates = np.flatnonzero(votes == votes.max())
    return int(min(candidates, key=lambda c: (sums[c], c)))


# ---------------------------------------------------------------------------
# Multinomial logistic regression
# ---------------------------------------------------------------------------


@dataclass
class LogRegModel:
    theta: np.ndarray  # 6 x (d+1), bias folded into the last column
    learning_rate: float
    epochs: int

    def scores(self, x: np.ndarray | CsrMatrix) -> np.ndarray:
        """Softmax posterior of each row."""
        x = _features(x, self.theta.shape[1] - 1)
        return softmax(_times_transposed(x, self.theta[:, :-1]) + self.theta[:, -1])


def _times_transposed(x: np.ndarray | CsrMatrix, weights: np.ndarray) -> np.ndarray:
    """``x @ weights.T``. A dense x goes as ``(weights @ x.T).T``: for six
    weight rows against 6000 x 1382 char2 counts with the bias column, on
    one thread of OpenBLAS 0.3.31 (Haswell kernels), 7.8 ms instead of
    13.2 ms, and the same bits."""
    return x @ weights.T if isinstance(x, CsrMatrix) else (weights @ x.T).T


def _augment(x: np.ndarray | CsrMatrix) -> np.ndarray | CsrMatrix:
    """Append the bias column of ones; a CSR row gains one non-zero."""
    if isinstance(x, CsrMatrix):
        n, d = x.shape
        ends = x.indptr[1:]
        return CsrMatrix(
            (n, d + 1),
            x.indptr + np.arange(n + 1),
            np.insert(x.indices, ends, d),
            np.insert(x.data, ends, 1.0),
        )
    ones = np.ones((*x.shape[:-1], 1))
    return np.concatenate([x, ones], axis=-1)


def logreg_gradient(theta: np.ndarray, x_aug: np.ndarray, y: np.ndarray) -> np.ndarray:
    posterior = softmax(_times_transposed(x_aug, theta))
    return (posterior - one_hot(y)).T @ x_aug / len(y)


def train_logreg(
    train_x: np.ndarray,
    train_y: np.ndarray,
    learning_rate: float = 0.5,
    epochs: int = 500,
) -> LogRegModel:
    """Full-batch gradient descent on cross-entropy, zero-initialized weights."""
    check_learning_rate(learning_rate)
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    x_aug = _augment(design_array(train_x))
    y = np.asarray(train_y, dtype=np.int64)
    theta = np.zeros((N_CLASSES, x_aug.shape[1]))
    for _ in range(epochs):
        theta -= learning_rate * logreg_gradient(theta, x_aug, y)
    return LogRegModel(theta, learning_rate, epochs)


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes
# ---------------------------------------------------------------------------


@dataclass
class NbModel:
    log_priors: np.ndarray  # 6
    log_likelihoods: np.ndarray  # 6 x V
    alpha: float

    def scores(self, x: np.ndarray | CsrMatrix) -> np.ndarray:
        """Log prior plus the count-weighted log-likelihoods of each row.

        A product would turn 0 * log(0) into nan, so the rows that hold a
        feature with a non-finite log-likelihood (alpha = 0, or a class
        absent from training) are scored as dense blocks, in which an
        absent feature contributes nothing; a block's m x 6 x d
        contributions stay within KNN_BLOCK_BYTES.
        """
        x = _features(x, self.log_likelihoods.shape[1])
        if ((x.data if isinstance(x, CsrMatrix) else x) < 0).any():
            raise NegativeCount("feature counts must be non-negative")
        finite = np.isfinite(self.log_likelihoods)
        scores = x @ np.where(finite, self.log_likelihoods, 0.0).T + self.log_priors
        touched = np.flatnonzero(x @ (~finite).any(axis=0).astype(np.float64) > 0)
        step = max(1, KNN_BLOCK_BYTES // (8 * N_CLASSES * max(1, x.shape[1])))
        for start in range(0, len(touched), step):
            rows = touched[start : start + step]
            dense = x[rows][:, None]  # m x 1 x d
            with np.errstate(invalid="ignore"):
                contributions = np.where(dense > 0, dense * self.log_likelihoods, 0.0)
            scores[rows] = self.log_priors + contributions.sum(axis=2)
        return scores


def train_nb(
    train_x: np.ndarray, train_y: np.ndarray, alpha: float = 1.0
) -> NbModel:
    """Multinomial NB with Laplace smoothing.

    p(feature i | class k) = (count(i,k) + alpha) / (total(k) + alpha * V);
    priors come from class frequencies. alpha = 0 is allowed: unseen
    features then score -inf at prediction time; a negative or
    non-finite alpha raises ValueError.
    """
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    x = design_array(train_x)
    y = np.asarray(train_y, dtype=np.int64)
    if ((x.data if isinstance(x, CsrMatrix) else x) < 0).any():
        raise NegativeCount("feature counts must be non-negative")
    vocab_size = x.shape[1]
    # Sums of integer counts are exact in any order, so dense and CSR
    # inputs give bit-identical models.
    feature_totals = one_hot(y).T @ x
    class_sizes = np.bincount(y, minlength=N_CLASSES).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_priors = np.log(class_sizes / len(y))
        smoothed = feature_totals + alpha
        log_likelihoods = np.log(smoothed) - np.log(
            feature_totals.sum(axis=1, keepdims=True) + alpha * vocab_size
        )
    # classes absent from training (prior 0) get -inf rather than nan
    log_likelihoods[class_sizes == 0] = -np.inf
    return NbModel(log_priors, log_likelihoods, alpha)


# ---------------------------------------------------------------------------
# Linear SVM (one-vs-rest, Pegasos-style subgradient training)
# ---------------------------------------------------------------------------


@dataclass
class SvmModel:
    weights: np.ndarray  # 6 x d
    biases: np.ndarray  # 6
    lam: float
    epochs: int
    seed: int
    objective_history: list[float] = field(default_factory=list)

    def scores(self, x: np.ndarray | CsrMatrix) -> np.ndarray:
        """Each class's margin w.x + b for each row."""
        return _features(x, self.weights.shape[1]) @ self.weights.T + self.biases


def svm_objective(
    weights: np.ndarray,
    biases: np.ndarray,
    lam: float,
    x: np.ndarray,
    y_signs: np.ndarray,
) -> float:
    """Sum over classes of (lam/2)||w||^2 + mean hinge loss.

    Weights of a tiny ``lam`` can square past the float64 range; the
    objective then reads inf, without a warning.
    """
    margins = y_signs * (x @ weights.T + biases)
    hinge = np.maximum(0.0, 1.0 - margins).mean(axis=0)
    with np.errstate(over="ignore"):
        return float((0.5 * lam * (weights**2).sum(axis=1) + hinge).sum())


def train_svm(
    train_x: np.ndarray,
    train_y: np.ndarray,
    lam: float = 1e-4,
    epochs: int = 10,
    seed: int = 0,
    average: bool = False,
) -> SvmModel:
    """Six one-vs-rest SVMs trained jointly by Pegasos, step size 1/(lam*t).

    Every class sees the same shuffled example order, so a single seed
    fixes the whole model. Step t sets w_t = (1 - 1/t) w_{t-1} + u_t/(lam t),
    where u_t is y x on the classes whose margin is below 1. Hence
    w_t = U_t/(lam t) with U_t the sum of the u up to t (Shalev-Shwartz et
    al. 2011), and a step reads and adds only the columns of its row's
    non-zeros: O(6 nnz) per step, on CSR or dense input alike. The bias
    terms take plain subgradient steps and are not regularized.

    With ``average`` the returned weights are the mean of the iterates
    from the second half of training, which smooths the noisy tail of the
    schedule. Their sum is kept lazily as well: over tail steps t0 < t <= T
    it is (H U_T - L)/lam, where H is the sum of 1/t over the tail and L
    sums H_{t-1} u_t, H_{t-1} being the part of H before step t.
    """
    lam = float(lam)
    if not (0 < lam < np.inf and 1.0 / lam < np.inf) or epochs < 0:
        raise ValueError(
            f"need a finite lam > 0 with a finite 1/lam, and epochs >= 0, got {lam} and {epochs}"
        )
    x = design_array(train_x)
    rows = as_csr(x)
    starts, columns, values = rows.indptr.tolist(), rows.indices, rows.data
    y = np.asarray(train_y, dtype=np.int64)
    n, dim = x.shape
    y_signs = np.where(one_hot(y) > 0, 1.0, -1.0)  # n x 6
    u_sum = np.zeros((dim, N_CLASSES))  # U, one row per column of x
    biases = np.zeros(N_CLASSES)
    scale = 0.0  # 1/(lam t) after step t, so that w_t = U_t * scale; w_0 = 0
    rng = np.random.default_rng(seed)
    history = []
    tail_start = epochs * n // 2
    tail_u = np.zeros_like(u_sum) if average else None  # L
    tail_h = 0.0  # H_{t-1}, then H
    b_sum = np.zeros_like(biases)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            cols = columns[starts[i] : starts[i + 1]]
            vals = values[starts[i] : starts[i + 1]]
            signs = y_signs[i]
            gathered = u_sum.take(cols, axis=0)
            violated = signs * (vals @ gathered * scale + biases) < 1.0
            scale = 1.0 / (lam * t)
            tail = average and t > tail_start
            if violated.any():
                step = signs * violated  # y on the violated classes, 0 elsewhere
                update = vals[:, None] * step  # u_t on the row's columns
                gathered += update
                u_sum[cols] = gathered
                biases += scale * step
                if tail:
                    tail_u[cols] += tail_h * update
            if tail:
                tail_h += 1.0 / t
                b_sum += biases
        history.append(svm_objective((u_sum * scale).T, biases, lam, x, y_signs))
    weights = (u_sum * scale).T
    if average and t > tail_start:
        averaged = t - tail_start
        weights = ((tail_h * u_sum - tail_u) / (lam * averaged)).T
        biases = b_sum / averaged
        history.append(svm_objective(weights, biases, lam, x, y_signs))
    return SvmModel(np.ascontiguousarray(weights), biases, lam, epochs, seed, history)
