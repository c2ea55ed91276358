"""PCA by block subspace iteration and exact t-SNE for 2-D corpus projections.

PCA finds the dominant eigenpairs of the population covariance
K = Xcᵀ Xc / n by block subspace iteration with Rayleigh–Ritz (Saad,
*Numerical Methods for Large Eigenvalue Problems*, ch. 5) on the implicit
operator v ↦ Xcᵀ(Xc v)/n, with Xc v computed as X v − 1(μᵀv). Neither the
centred data nor the d×d covariance is formed, so X may stay a
``features.CsrMatrix``. The block carries ``BLOCK_EXTRA`` vectors beyond the
wanted ones, so pair i converges at the rate λ_{b+1}/λ_i and a small gap
between two wanted eigenvalues does not slow it. ``top_eigenpairs`` runs the
same routine on an explicit symmetric matrix.

t-SNE is the exact O(n^2) algorithm: Gaussian input affinities with
per-point bandwidths tuned by bisection to a target perplexity (all rows
at once), Student-t low-dimensional affinities, and momentum gradient
descent on the KL divergence with early exaggeration. The input may be
dense or a ``CsrMatrix``, whose Gram matrix comes from CSR products over
blocks of rows. Each iteration splits the exact gradient into attractive
and repulsive sums (van der Maaten 2014) and forms the Student-t kernel
one row block at a time, so P is the only n x n array an iteration
reads; the KL divergence is computed only on request.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    PerplexityInfeasible,
    TooFewPoints,
)
from .features import CsrMatrix, design_array

#: Block vectors beyond the m wanted ones.
BLOCK_EXTRA = 8
#: PCA stops once every wanted residual is at most this times lambda_1.
PCA_TOL = 1e-9
PCA_MAX_ITER = 1000


@dataclass(frozen=True)
class CovarianceMatrix:
    matrix: np.ndarray  # d x d, symmetric PSD
    means: np.ndarray  # d


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray  # unit norm; largest-magnitude component positive


def covariance(data: np.ndarray) -> CovarianceMatrix:
    """Population covariance (divide by n) of row-vector data."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(2, x.ndim)
    if x.shape[0] < 2:
        raise TooFewPoints(f"need at least 2 points, got {x.shape[0]}")
    means = x.mean(axis=0)
    centered = x - means
    k = centered.T @ centered / x.shape[0]
    return CovarianceMatrix((k + k.T) / 2.0, means)


def _subspace_eigenpairs(
    apply: Callable[[np.ndarray], np.ndarray],
    dim: int,
    m: int,
    tol: float,
    max_iter: int,
    seed: int,
    shift: float = 0.0,
    floor: float = 0.0,
) -> list[EigenPair]:
    """The m largest eigenpairs of a symmetric operator, largest first.

    ``apply`` maps a dim x b block V to K V. Each step orthonormalises
    (K + shift I) V and solves the b x b Rayleigh–Ritz problem; ``shift``
    must make K + shift I positive semidefinite, so that the wanted
    eigenvalues also dominate in magnitude. Iteration stops once every
    wanted Ritz pair's true residual ||K u - theta u|| is at most
    ``tol`` * max(max |theta|, ``floor``); ``floor`` keeps an operator whose
    eigenvalues are all at roundoff level from chasing its noise. A block
    that spans the whole space is exact after one step.
    """
    b = min(m + BLOCK_EXTRA, dim)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, b)))
    residuals, bound = np.full(m, np.inf), 0.0
    for _ in range(max_iter):
        w = apply(q) + shift * q
        h = q.T @ w
        values, s = np.linalg.eigh((h + h.T) / 2.0)
        values, s = values[::-1], s[:, ::-1]  # descending
        vectors = q @ s
        residuals = np.linalg.norm(w @ s[:, :m] - vectors[:, :m] * values[:m], axis=0)
        bound = tol * max(float(np.abs(values - shift).max()), floor)
        if (residuals <= bound).all():
            break
        q, _ = np.linalg.qr(w)
    else:
        component = int(np.argmax(residuals > bound))
        raise ConvergenceFailure(component, float(residuals[component]))
    pairs = []
    for value, v in zip(values[:m] - shift, vectors[:, :m].T):
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        pairs.append(EigenPair(float(value), v))
    return pairs


def top_eigenpairs(
    k: np.ndarray,
    m: int,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    seed: int = 0,
) -> list[EigenPair]:
    """The m algebraically largest eigenpairs of a symmetric matrix.

    Block subspace iteration with Rayleigh–Ritz on K + cI, where c is the
    Gershgorin bound that makes the shifted matrix positive semidefinite.
    Iteration stops once every returned pair's residual ||Kv - lambda v||
    is at most ``tol`` times the largest |Ritz value|; past ``max_iter``
    steps it raises ``ConvergenceFailure``.
    """
    k = np.asarray(k, dtype=np.float64)
    dim = k.shape[0]
    if k.shape != (dim, dim) or np.abs(k - k.T).max() > 1e-9 * max(1.0, np.abs(k).max()):
        raise ValueError("matrix must be square and symmetric")
    if not 1 <= m <= dim:
        raise ValueError(f"m must lie in 1..{dim}, got {m}")
    diagonal = np.diag(k)
    radii = np.abs(k).sum(axis=1) - np.abs(diagonal)
    shift = max(0.0, float(-(diagonal - radii).min()))
    return _subspace_eigenpairs(lambda v: k @ v, dim, m, tol, max_iter, seed, shift)


def pca_project(data: np.ndarray | CsrMatrix, m: int = 2) -> np.ndarray:
    """Project centred data onto its top-m principal axes.

    ``data`` may be a dense array or a ``CsrMatrix``; the covariance is
    applied implicitly as v ↦ Xcᵀ(Xc v)/n with Xc v = X v − 1(μᵀv).
    """
    x = design_array(data)
    if x.ndim != 2:
        raise DimensionMismatch(2, x.ndim)
    n, dim = x.shape
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    if not 1 <= m <= dim:
        raise ValueError(f"m must lie in 1..{dim}, got {m}")
    means = np.ones(n) @ x / n

    def centred_times(v: np.ndarray) -> np.ndarray:  # Xc v
        return x @ v - means @ v

    def covariance_times(v: np.ndarray) -> np.ndarray:  # Xcᵀ (Xc v) / n
        y = centred_times(v)
        return ((y.T @ x).T - np.outer(means, y.sum(axis=0))) / n

    stored = x.data if isinstance(x, CsrMatrix) else x
    pairs = _subspace_eigenpairs(
        covariance_times, dim, m, PCA_TOL, PCA_MAX_ITER, seed=0,
        floor=1e-6 * float(np.vdot(stored, stored)) / n,
    )
    return centred_times(np.stack([p.vector for p in pairs], axis=1))


# ---------------------------------------------------------------------------
# t-SNE
# ---------------------------------------------------------------------------


#: Bytes of one row block of the n x n Student-t kernel in a t-SNE gradient.
#: The block's rows depend on n alone, so the result does not depend on the
#: machine. At n = 300 a block is 109 rows, at n = 1000 it is 32.
TSNE_BLOCK_BYTES = 256 * 2**10
#: Bytes of the dense rows and products a CSR Gram matrix takes at a time,
#: as ``classifiers.KNN_BLOCK_BYTES`` bounds a KNN search.
GRAM_BLOCK_BYTES = 16 * 2**20


def _csr_gram(x: CsrMatrix) -> np.ndarray:
    """X Xᵀ of a CSR matrix: m dense rows at a time, m·max(n, d) cells at most."""
    n, d = x.shape
    cells = GRAM_BLOCK_BYTES // 8
    step = max(1, cells // max(n, d))
    gram = np.empty((n, n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        gram[:, lo:hi] = x.times_rows(x.row_block(lo, hi).toarray(), cells)
    return gram


def _squared_distances(x: np.ndarray | CsrMatrix) -> np.ndarray:
    """Pairwise squared distances of the rows, zero diagonal, clipped at 0."""
    if isinstance(x, CsrMatrix):
        sq, d2 = x.row_sq_norms(), _csr_gram(x)
    else:
        sq, d2 = (x**2).sum(axis=1), x @ x.T
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += sq[None, :]
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


def tsne_affinities(
    data: np.ndarray | CsrMatrix,
    perplexity: float = 30.0,
    tol: float = 1e-5,
    max_tries: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized joint affinities P and the per-point bandwidths sigma.

    ``data`` may be a dense array or a ``CsrMatrix``, whose Gram matrix is
    taken by CSR products over blocks of rows. Every point's Gaussian
    precision beta is tuned at once by bisection (with bracket expansion)
    until its conditional distribution's perplexity matches the target
    within ``tol``; a row that matches stops moving.
    """
    x = design_array(data)
    n = x.shape[0]
    if n < 4:
        raise TooFewPoints(f"need at least 4 points, got {n}")
    if not 1.0 < perplexity < n - 1:
        raise PerplexityInfeasible(
            f"perplexity must lie in (1, {n - 1}) for {n} points, got {perplexity}"
        )
    off_diag = ~np.eye(n, dtype=bool)
    rows = _squared_distances(x)[off_diag].reshape(n, n - 1)
    beta = 1.0 / (2.0 * np.maximum(np.median(rows, axis=1), 1e-12))
    # Shift each row by its smallest distance for numerical range; cancels in the ratio.
    rows -= rows.min(axis=1, keepdims=True)
    beta_min = np.zeros(n)
    beta_max = np.full(n, np.inf)
    active = np.arange(n)
    p = np.empty_like(rows)
    for attempt in range(max_tries + 1):
        block = rows[active]
        e = np.exp(-block * beta[active, None])
        total = e.sum(axis=1)
        e /= total[:, None]
        p[active] = e
        if attempt == max_tries:
            break
        # Entropy in nats: log(total) + beta * E_p[shifted distance].
        entropy = np.log(total) + beta[active] * (block * e).sum(axis=1)
        gap = np.exp(entropy) - perplexity
        moving = np.abs(gap) > tol
        active, gap = active[moving], gap[moving]
        if active.size == 0:
            break
        b = beta[active]
        sharpen = gap > 0  # too spread out
        lo = np.where(sharpen, b, beta_min[active])
        hi = np.where(sharpen, beta_max[active], b)
        beta_min[active], beta_max[active] = lo, hi
        beta[active] = np.where(
            sharpen,
            np.where(np.isinf(hi), b * 2.0, (b + hi) / 2.0),
            np.where(lo == 0.0, b / 2.0, (b + lo) / 2.0),
        )
    conditionals = np.zeros((n, n))
    conditionals[off_diag] = p.ravel()
    joint = (conditionals + conditionals.T) / (2.0 * n)
    return joint, np.sqrt(1.0 / (2.0 * beta))


def student_t_affinities(y: np.ndarray) -> np.ndarray:
    """Joint Student-t affinities Q of low-dimensional positions."""
    w = 1.0 / (1.0 + _squared_distances(np.asarray(y, dtype=np.float64)))
    np.fill_diagonal(w, 0.0)
    return w / w.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-12))).sum())


@dataclass
class TsneResult:
    positions: np.ndarray  # n x 2
    kl_history: list[float] | None  # one KL per iteration, if asked for


def tsne_gradient(p: np.ndarray, y: np.ndarray, exaggeration: float = 1.0) -> np.ndarray:
    """Exact gradient 4 sum_j (a p_ij - q_ij) w_ij (y_i - y_j) of KL(P || Q).

    Here w_ij = 1 / (1 + ||y_i - y_j||^2), q_ij = w_ij / z with z the sum
    of all w_ij (i != j), and a the exaggeration. The sum splits into an
    attractive and a repulsive part (van der Maaten 2014), both taken from
    [y, 1]: with A = (P * W) [y, 1] and R = (W * W) [y, 1], the gradient is
    4 (a (A_3 y - A_12) - (R_3 y - R_12) / z). W is formed in row blocks of
    about ``TSNE_BLOCK_BYTES``: one product [y, |y|^2 + 1, 1] [-2yᵀ; 1; |y|^2]
    gives 1 + ||y_i - y_j||^2, floored at 1 where rounding takes it below.
    """
    n = len(y)
    sq = np.einsum("ij,ij->i", y, y)
    ones = np.ones((n, 1))
    left = np.hstack([y, sq[:, None] + 1.0, ones])  # n x 4
    right = np.vstack([-2.0 * y.T, ones.T, sq])  # 4 x n
    y1 = np.hstack([y, ones])  # n x 3
    attract, repel = np.empty((n, 3)), np.empty((n, 3))
    z = 0.0
    step = max(1, TSNE_BLOCK_BYTES // (8 * n))
    work = np.empty((2, step, n))  # W and P * W of a block, reused by every block
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        w, pw = work[0, : hi - lo], work[1, : hi - lo]
        np.matmul(left[lo:hi], right, out=w)
        np.maximum(w, 1.0, out=w)
        np.reciprocal(w, out=w)
        np.fill_diagonal(w[:, lo:hi], 0.0)
        z += float((w @ ones).sum())
        np.matmul(np.multiply(p[lo:hi], w, out=pw), y1, out=attract[lo:hi])
        np.square(w, out=w)
        np.matmul(w, y1, out=repel[lo:hi])
    return 4.0 * (exaggeration * (attract[:, 2:] * y - attract[:, :2])
                  - (repel[:, 2:] * y - repel[:, :2]) / z)


def tsne_optimize(
    p: np.ndarray,
    iterations: int = 1000,
    seed: int = 0,
    learning_rate: float = 200.0,
    early_exaggeration: float = 12.0,
    exaggeration_iters: int = 250,
    momentum_start: float = 0.5,
    momentum_final: float = 0.8,
    momentum_switch: int = 250,
    init_scale: float = 1e-4,
    grad_norm_clamp: float = 1e6,
    record_kl: bool = False,
) -> TsneResult:
    """Momentum gradient descent on KL(P || Q) from a tiny Gaussian init.

    Each step takes :func:`tsne_gradient`, with P multiplied by the
    exaggeration factor for the first ``exaggeration_iters`` iterations.
    Per-coordinate gains (+0.2 on sign disagreement with the velocity, x0.8
    on agreement, floored at 0.01) follow the original reference
    implementation and keep the fixed learning rate stable late in the run.
    With ``record_kl`` the KL divergence of the unexaggerated P from the
    positions' Q is recorded at the top of every iteration (an n x n pass
    of its own); otherwise ``kl_history`` is None.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, init_scale, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    kl_history: list[float] | None = [] if record_kl else None
    for it in range(iterations):
        if kl_history is not None:
            kl_history.append(kl_divergence(p, student_t_affinities(y)))
        exaggeration = early_exaggeration if it < exaggeration_iters else 1.0
        grad = tsne_gradient(p, y, exaggeration)
        norm = np.linalg.norm(grad)
        if norm > grad_norm_clamp:
            grad *= grad_norm_clamp / norm
        same_sign = (grad > 0) == (velocity > 0)
        gains = np.where(same_sign, gains * 0.8, gains + 0.2)
        gains = np.maximum(gains, 0.01)
        momentum = momentum_start if it < momentum_switch else momentum_final
        velocity = momentum * velocity - learning_rate * (gains * grad)
        y = y + velocity
        y = y - y.mean(axis=0)
    return TsneResult(y, kl_history)


def format_projection(
    labels: list[str], coords: np.ndarray
) -> str:
    """TSV rows ``label\\tx\\ty`` with 17-significant-digit floats."""
    lines = [
        f"{label}\t{coords[i, 0]:.17g}\t{coords[i, 1]:.17g}"
        for i, label in enumerate(labels)
    ]
    return "\n".join(lines) + "\n"
