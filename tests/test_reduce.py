"""PCA and t-SNE components against analytic cases and independent solvers."""

import tracemalloc

import numpy as np
import pytest

from nordlid import reduce
from nordlid.corpus import LABELS
from nordlid.errors import ConvergenceFailure, PerplexityInfeasible, TooFewPoints
from nordlid.features import CsrMatrix, build_ngram_vocab, count_matrix
from nordlid.reduce import (
    covariance,
    kl_divergence,
    pca_project,
    student_t_affinities,
    top_eigenpairs,
    tsne_affinities,
    tsne_gradient,
    tsne_optimize,
)
from nordlid.synth import generate_pools


def charpoly_coefficients(a: np.ndarray) -> list[float]:
    """det(xI - A) coefficients by the Faddeev-LeVerrier recurrence.

    Pure matrix arithmetic; independent of any eigensolver.
    """
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return coeffs


class TestCovariance:
    def test_constant_data_zero_matrix(self):
        data = np.ones((5, 3))
        assert np.allclose(covariance(data).matrix, 0.0)

    def test_analytic_two_point_case(self):
        data = np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert np.allclose(covariance(data).matrix, [[1.0, 1.0], [1.0, 1.0]])

    def test_matches_double_loop_definition(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3))
        cov = covariance(data).matrix
        means = data.mean(axis=0)
        for i in range(3):
            for j in range(3):
                expected = np.mean((data[:, i] - means[i]) * (data[:, j] - means[j]))
                assert cov[i, j] == pytest.approx(expected, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            covariance(np.ones((1, 4)))

    def test_symmetric_and_psd_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            data = rng.normal(size=(rng.integers(3, 20), rng.integers(2, 6)))
            k = covariance(data).matrix
            assert np.abs(k - k.T).max() < 1e-12
            eigenvalues = np.linalg.eigvalsh(k)
            assert eigenvalues.min() > -1e-9


class TestTopEigenpairs:
    def test_symmetric_rank_one_case(self):
        pairs = top_eigenpairs(np.array([[1.0, 1.0], [1.0, 1.0]]), 1)
        assert pairs[0].value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(np.abs(pairs[0].vector), 1 / np.sqrt(2), atol=1e-8)
        assert pairs[0].vector[0] > 0

    def test_identity_matrix_residual_only(self):
        pairs = top_eigenpairs(np.eye(3), 1)
        k = np.eye(3)
        v, lam = pairs[0].vector, pairs[0].value
        assert np.linalg.norm(k @ v - lam * v) <= 1e-6 * np.linalg.norm(k)
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            base = rng.normal(size=(4, 4))
            k = (base + base.T) / 2
            roots = np.roots(charpoly_coefficients(k))
            roots = np.sort(roots.real)[::-1]
            pairs = top_eigenpairs(k, 4)
            for pair, root in zip(pairs, roots):
                assert pair.value == pytest.approx(root, abs=1e-8)

    def test_residual_bound_and_descending_order(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(6, 6))
        k = (base + base.T) / 2
        pairs = top_eigenpairs(k, 4)
        scale = np.linalg.norm(k)
        values = [p.value for p in pairs]
        assert values == sorted(values, reverse=True)
        for pair in pairs:
            residual = np.linalg.norm(k @ pair.vector - pair.value * pair.vector)
            assert residual <= 1e-6 * scale
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-9)

    def test_sign_rule(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(5, 5))
        k = (base + base.T) / 2
        for pair in top_eigenpairs(k, 3):
            assert pair.vector[np.argmax(np.abs(pair.vector))] > 0


def close_gap_data(n: int = 60, d: int = 30, seed: int = 14):
    """Centred data whose population covariance has eigenvalues ``spectrum``,
    with lambda_2 / lambda_3 = 1.001; power iteration on one vector would
    need thousands of steps to separate the second axis from the third."""
    rng = np.random.default_rng(seed)
    spectrum = np.concatenate([[10.0, 5.0, 5.0 / 1.001], np.geomspace(1.0, 1e-3, d - 3)])
    g = rng.normal(size=(n, d))
    scores, _ = np.linalg.qr(g - g.mean(axis=0))  # orthonormal, zero-mean columns
    axes, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return np.sqrt(n) * (scores * np.sqrt(spectrum)) @ axes.T, spectrum


class TestCloseEigenvalueGap:
    def test_explicit_matrix_converges_within_small_max_iter(self):
        data, _ = close_gap_data()
        k = covariance(data).matrix
        pairs = top_eigenpairs(k, 3, max_iter=200)
        expected = np.linalg.eigvalsh(k)[::-1][:3]
        assert np.abs([p.value for p in pairs] - expected).max() <= 1e-8

    def test_pca_variances_match_eigvalsh(self):
        data, spectrum = close_gap_data()
        coords = pca_project(data, 2)
        expected = np.linalg.eigvalsh(covariance(data).matrix)[::-1][:2]
        assert np.allclose(expected, spectrum[:2], rtol=1e-12)
        assert np.abs(coords.var(axis=0) - expected).max() <= 1e-8

    def test_one_step_raises_convergence_failure(self):
        data, _ = close_gap_data()
        with pytest.raises(ConvergenceFailure) as failure:
            top_eigenpairs(covariance(data).matrix, 2, max_iter=1)
        assert failure.value.residual > 0


class TestPcaProject:
    def test_collinear_data_second_axis_zero(self):
        t = np.linspace(-2, 2, 9)
        data = np.stack([t, t], axis=1)
        coords = pca_project(data, 2)
        assert np.abs(coords[:, 1]).max() < 1e-9

    def test_order_preserved_along_principal_axis(self):
        t = np.linspace(-3, 3, 7)
        data = np.stack([t, 2 * t], axis=1)
        coords = pca_project(data, 2)
        first = coords[:, 0]
        assert np.all(np.diff(first) > 0) or np.all(np.diff(first) < 0)

    def test_projected_variance_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
        coords = pca_project(data, 2)
        pairs = top_eigenpairs(covariance(data).matrix, 2)
        total_variance = coords.var(axis=0, ddof=0).sum()
        assert total_variance == pytest.approx(
            pairs[0].value + pairs[1].value, rel=1e-8
        )

    def test_identical_rows_project_to_zero(self):
        # The covariance is zero up to roundoff: no residual can fall below
        # a bound relative to lambda_1 alone.
        data = np.tile(np.random.default_rng(17).random(30), (12, 1))
        assert np.abs(pca_project(data, 2)).max() <= 1e-12

    def test_csr_input_matches_dense_copy(self):
        rng = np.random.default_rng(15)
        dense = rng.integers(1, 4, size=(40, 60)) * (rng.random((40, 60)) < 0.1)
        dense = dense.astype(np.float64)
        expected = pca_project(dense, 2)
        got = pca_project(CsrMatrix.from_dense(dense), 2)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_char3_csr_allocates_no_d_by_d_array(self):
        pools = generate_pools(30, "wiki", seed=16)
        sentences = [s for code in LABELS for s in pools[code]]
        x = count_matrix(sentences, build_ngram_vocab(sentences, (3, 3)), normalize=True)
        assert isinstance(x, CsrMatrix)
        d = x.shape[1]
        tracemalloc.start()
        try:
            coords = pca_project(x, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coords.shape == (len(sentences), 2)
        assert peak < d * d * 8 / 10


def conditional_from_sigma(data: np.ndarray, i: int, sigma: float) -> np.ndarray:
    d2 = ((data - data[i]) ** 2).sum(axis=1)
    p = np.exp(-d2 / (2 * sigma**2))
    p[i] = 0.0
    return p / p.sum()


class TestTsneAffinities:
    def test_rows_hit_target_perplexity(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(30, 5))
        target = 10.0
        _, sigmas = tsne_affinities(data, perplexity=target)
        for i in range(30):
            p = conditional_from_sigma(data, i, sigmas[i])
            nz = p[p > 0]
            perp = 2.0 ** float(-(nz * np.log2(nz)).sum())
            assert perp == pytest.approx(target, abs=1e-5)

    def test_joint_matrix_invariants(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(20, 4))
        p, _ = tsne_affinities(data, perplexity=5.0)
        assert np.allclose(p, p.T)
        assert np.all(p >= 0)
        assert np.all(np.diag(p) == 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_square_corner_symmetry(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        p, sigmas = tsne_affinities(data, perplexity=2.0)
        for i in range(4):
            cond = conditional_from_sigma(data, i, sigmas[i])
            neighbors = [j for j in range(4) if j != i]
            dists = [((data[i] - data[j]) ** 2).sum() for j in neighbors]
            equal_pair = [
                cond[j] for j, d in zip(neighbors, dists) if d == min(dists)
            ]
            assert abs(equal_pair[0] - equal_pair[1]) < 1e-6

    def test_infeasible_perplexity(self):
        data = np.random.default_rng(8).normal(size=(10, 3))
        with pytest.raises(PerplexityInfeasible):
            tsne_affinities(data, perplexity=10.0)
        with pytest.raises(PerplexityInfeasible):
            tsne_affinities(data, perplexity=0.5)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            tsne_affinities(np.zeros((3, 2)), perplexity=2.0)

    @pytest.mark.parametrize("rows_per_block", [1, 7, None])
    def test_csr_input_matches_dense_copy(self, monkeypatch, rows_per_block):
        rng = np.random.default_rng(19)
        dense = rng.random((50, 120)) * (rng.random((50, 120)) < 0.08)
        if rows_per_block is not None:  # blocks of dense rows, and product ranges of a few rows
            monkeypatch.setattr(reduce, "GRAM_BLOCK_BYTES", 8 * 120 * rows_per_block)
        expected, expected_sigmas = tsne_affinities(dense, perplexity=8.0)
        got, sigmas = tsne_affinities(CsrMatrix.from_dense(dense), perplexity=8.0)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(sigmas - expected_sigmas).max() <= 1e-12 * expected_sigmas.max()

    def test_char3_csr_allocates_no_dense_design(self, monkeypatch):
        pools = generate_pools(10, "wiki", seed=20)
        sentences = [s for code in LABELS for s in pools[code]]
        x = count_matrix(sentences, build_ngram_vocab(sentences, (3, 3)), normalize=True,
                         sparse=True)
        n, d = x.shape
        assert d > 10 * n
        monkeypatch.setattr(reduce, "GRAM_BLOCK_BYTES", 8 * d * 4)  # four dense rows
        expected, _ = tsne_affinities(x.toarray(), perplexity=5.0)
        tracemalloc.start()
        try:
            got, _ = tsne_affinities(x, perplexity=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert peak < n * d * 8 / 4


def two_cluster_data(n=20, seed=9):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 0.05, size=(n // 2, 4))
    b = rng.normal(0, 0.05, size=(n // 2, 4)) + 4.0
    return np.concatenate([a, b]), np.array([0] * (n // 2) + [1] * (n // 2))


def pairwise_gradient(p: np.ndarray, y: np.ndarray, exaggeration: float) -> np.ndarray:
    """4 sum_j (a p_ij - q_ij) w_ij (y_i - y_j), one pair at a time."""
    n = len(y)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                w[i, j] = 1.0 / (1.0 + float(((y[i] - y[j]) ** 2).sum()))
    z = w.sum()
    grad = np.zeros_like(y)
    for i in range(n):
        for j in range(n):
            grad[i] += 4.0 * (exaggeration * p[i, j] - w[i, j] / z) * w[i, j] * (y[i] - y[j])
    return grad


def dense_tsne(p, iterations, seed=0, learning_rate=200.0, early_exaggeration=12.0,
               exaggeration_iters=250, momentum_start=0.5, momentum_final=0.8,
               momentum_switch=250, init_scale=1e-4, grad_norm_clamp=1e6):
    """The earlier loop over two n x n buffers, KL left out: the reference
    for the row-block gradient."""
    n = p.shape[0]
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, init_scale, size=(n, 2))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    p_exaggerated = p * early_exaggeration
    w = np.empty((n, n))
    m = np.empty((n, n))
    for it in range(iterations):
        sq = (y**2).sum(axis=1)
        np.matmul(y, y.T, out=w)
        w *= -2.0
        w += sq[:, None]
        w += sq[None, :]
        np.fill_diagonal(w, 0.0)
        np.maximum(w, 0.0, out=w)
        w += 1.0
        np.reciprocal(w, out=w)
        np.fill_diagonal(w, 0.0)
        z = float(w.sum())
        np.multiply(w, -1.0 / z, out=m)  # -q
        m += p_exaggerated if it < exaggeration_iters else p
        m *= w
        grad = 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)
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
    return y


class TestTsneGradient:
    @pytest.mark.parametrize("rows_per_block", [1, 5, 100])  # 1-row, uneven (5, 5, 4), one block
    @pytest.mark.parametrize("exaggeration", [1.0, 12.0])
    def test_matches_pairwise_sum(self, monkeypatch, rows_per_block, exaggeration):
        data, _ = two_cluster_data(n=14, seed=21)
        p, _ = tsne_affinities(data, perplexity=4.0)
        y = np.random.default_rng(22).normal(0.0, 1.0, size=(14, 2))
        monkeypatch.setattr(reduce, "TSNE_BLOCK_BYTES", 8 * 14 * rows_per_block)
        expected = pairwise_gradient(p, y, exaggeration)
        got = tsne_gradient(p, y, exaggeration)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestTsneOptimize:
    @pytest.mark.parametrize("steps", [1, 5])
    def test_positions_match_dense_loop(self, steps):
        data, _ = two_cluster_data(n=40, seed=23)
        p, _ = tsne_affinities(data, perplexity=8.0)
        expected = dense_tsne(p, steps, seed=4)
        got = tsne_optimize(p, iterations=steps, seed=4).positions
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_kl_history_only_on_request(self):
        data, _ = two_cluster_data(n=16, seed=24)
        p, _ = tsne_affinities(data, perplexity=4.0)
        assert tsne_optimize(p, iterations=3, seed=0).kl_history is None
        assert tsne_optimize(p, iterations=0, seed=0, record_kl=True).kl_history == []
        kept = tsne_optimize(p, iterations=3, seed=0, record_kl=True)
        assert len(kept.kl_history) == 3
        assert np.array_equal(kept.positions, tsne_optimize(p, iterations=3, seed=0).positions)

    def test_two_clusters_separate(self):
        data, labels = two_cluster_data()
        p, _ = tsne_affinities(data, perplexity=5.0)
        result = tsne_optimize(p, iterations=400, seed=0)
        y = result.positions
        same, cross = [], []
        for i in range(len(y)):
            for j in range(i + 1, len(y)):
                d = np.linalg.norm(y[i] - y[j])
                (same if labels[i] == labels[j] else cross).append(d)
        assert np.mean(cross) > np.mean(same)

    def test_kl_non_increasing_after_exaggeration(self):
        data, _ = two_cluster_data(n=24, seed=10)
        p, _ = tsne_affinities(data, perplexity=6.0)
        result = tsne_optimize(p, iterations=600, seed=1, record_kl=True)
        tail = result.kl_history[250:]
        windows = [np.mean(tail[i : i + 50]) for i in range(0, len(tail) - 49, 50)]
        assert all(b <= a + 1e-6 for a, b in zip(windows, windows[1:]))

    def test_deterministic(self):
        data, _ = two_cluster_data(n=16, seed=11)
        p, _ = tsne_affinities(data, perplexity=4.0)
        a = tsne_optimize(p, iterations=100, seed=5)
        b = tsne_optimize(p, iterations=100, seed=5)
        assert np.array_equal(a.positions, b.positions)

    def test_kl_history_matches_reference_formula(self):
        data, _ = two_cluster_data(n=16, seed=18)
        p, _ = tsne_affinities(data, perplexity=4.0)
        result = tsne_optimize(p, iterations=1, seed=2, record_kl=True)
        start = np.random.default_rng(2).normal(0.0, 1e-4, size=(16, 2))
        expected = kl_divergence(p, student_t_affinities(start))
        assert result.kl_history[0] == pytest.approx(expected, rel=1e-12)

    def test_q_matrix_sums_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            y = rng.normal(size=(15, 2))
            q = student_t_affinities(y)
            assert q.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diag(q) == 0)

    def test_kl_divergence_of_identical_distributions_is_zero(self):
        rng = np.random.default_rng(13)
        p = rng.random((6, 6))
        np.fill_diagonal(p, 0)
        p /= p.sum()
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
