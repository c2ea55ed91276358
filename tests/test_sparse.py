"""CSR design matrices: products, rows, trainers and the density choice."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nordlid import classifiers, features, neural
from nordlid.corpus import LABELS
from nordlid.errors import NegativeCount
from nordlid.features import (
    SPARSE_DENSITY,
    CsrMatrix,
    build_ngram_vocab,
    build_word_vocab,
    compact_design,
    count_matrix,
    cross_entropy,
    label_indices,
    gram_keys,
    softmax,
    to_dense,
    word_tokenize,
)
from nordlid.synth import generate_pools

from test_features import extract_char_ngrams


@st.composite
def count_matrices(draw, max_rows=12, max_cols=15):
    """Small non-negative integer matrices, mostly zeros, empty rows allowed."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_cols))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.integers(1, 6, size=(n, d)).astype(np.float64)
    dense[rng.random((n, d)) < draw(st.floats(0.0, 1.0))] = 0.0
    return dense


def counter_row(hits: list[int], dim: int, normalize: bool) -> np.ndarray:
    """Dense row of per-column hit counts, divided by the hit total if asked."""
    row = np.zeros(dim)
    for column, count in Counter(hits).items():
        row[column] = count / len(hits) if normalize else count
    return row


def loop_rows(x: CsrMatrix, rows) -> np.ndarray:
    """Dense copies of the selected rows, one row per Python step: the
    reference for ``CsrMatrix.__getitem__``."""
    picked = np.asarray(np.arange(x.shape[0])[rows])
    out = np.zeros((picked.size, x.shape[1]))
    for r, i in enumerate(picked.ravel()):
        lo, hi = x.indptr[i], x.indptr[i + 1]
        out[r, x.indices[lo:hi]] = x.data[lo:hi]
    return out.reshape(*picked.shape, x.shape[1])


def bincount_product(g: np.ndarray, x: CsrMatrix) -> np.ndarray:
    """``G @ X`` by one ``np.bincount`` pass per row of G: the reference
    for the column-major product."""
    lead = g.reshape(-1, x.shape[0])
    products = lead[:, x._row_ids()] * x.data
    out = np.stack([np.bincount(x.indices, weights=w, minlength=x.shape[1]) for w in products])
    return out.reshape(*g.shape[:-1], x.shape[1])


#: ``GATHER_BYTES`` values that split a small product into runs of one
#: row or column, of a few, and into a single run.
GATHER_SIZES = (8, 256, features.GATHER_BYTES)


@pytest.fixture(scope="module")
def corpus():
    pools = generate_pools(30, "wiki", seed=3)
    return [s for code in LABELS for s in pools[code]]


class TestCsrMatrix:
    @given(count_matrices(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_products_match_dense(self, dense, seed):
        rng = np.random.default_rng(seed)
        x = CsrMatrix.from_dense(dense)
        n, d = dense.shape
        w = rng.normal(size=(d, 6))  # C-contiguous: gathered a row per non-zero
        g = rng.normal(size=(n, 6))
        column = rng.normal(size=(d, 1))  # a one-wide table, as a dim-1 embedding
        view = rng.normal(size=(6, d)).T  # not C-contiguous: transposed, gathered by column
        assert np.allclose(x @ column, dense @ column, rtol=0, atol=1e-12)
        assert np.allclose(x @ view, dense @ view, rtol=0, atol=1e-12)
        assert np.allclose(x @ w, dense @ w, rtol=0, atol=1e-12)
        assert np.allclose(g.T @ x, g.T @ dense, rtol=0, atol=1e-12)
        assert np.allclose(x @ w[:, 0], dense @ w[:, 0], rtol=0, atol=1e-12)
        assert np.allclose(g[:, 0] @ x, g[:, 0] @ dense, rtol=0, atol=1e-12)

    @given(count_matrices(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_row_bits_do_not_depend_on_the_block(self, dense, seed):
        """``X @ W`` gives a row the same bits in any block of rows and in
        runs of any ``GATHER_BYTES``, for a gathered-by-row W, a transposed
        W and a vector, on values that round."""
        rng = np.random.default_rng(seed)
        dense = dense * rng.normal(size=dense.shape)
        x = CsrMatrix.from_dense(dense)
        n, d = dense.shape
        weights = [rng.normal(size=(d, 6)), rng.normal(size=(8, d)).T, rng.normal(size=d)]
        whole = [x @ w for w in weights]
        lo, hi = sorted(rng.integers(0, n + 1, size=2))
        for gather in GATHER_SIZES:
            with mock.patch.object(features, "GATHER_BYTES", gather):
                for w, want in zip(weights, whole):
                    assert (x @ w).tobytes() == want.tobytes()
                    assert (x.row_block(lo, hi) @ w).tobytes() == want[lo:hi].tobytes()

    @given(count_matrices(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_column_major_product_equals_bincount_exactly(self, dense, seed):
        """On integer counts and integer G every sum is exact, so the
        column-major ``G @ X`` equals the bincount reference bit for bit,
        in runs of any ``GATHER_BYTES``; a one-hot G is NB's product."""
        rng = np.random.default_rng(seed)
        n = dense.shape[0]
        leads = [rng.integers(-3, 4, size=(6, n)).astype(np.float64),
                 features.one_hot(rng.integers(0, 6, size=n)).T,
                 rng.integers(-3, 4, size=n).astype(np.float64)]
        for gather in GATHER_SIZES:
            with mock.patch.object(features, "GATHER_BYTES", gather):
                x = CsrMatrix.from_dense(dense)  # a new column-major copy each time
                for g in leads:  # the first builds the copy, the others read it
                    assert np.array_equal(g @ x, bincount_product(g, x))

    def test_column_major_copy_sorts_columns_past_16_bits(self):
        """Columns of 17 and more bits take the radix sort's second digit."""
        rng = np.random.default_rng(8)
        d = 2**17 + 5
        rows = []
        for _ in range(40):
            columns = np.unique(rng.choice([0, 7, 2**16 - 1, 2**16, 2**16 + 3, 2**17, d - 1], 3))
            rows.append(columns)
        indptr = np.r_[0, np.cumsum([len(r) for r in rows])]
        x = CsrMatrix((len(rows), d), indptr, np.concatenate(rows),
                      rng.integers(1, 5, size=indptr[-1]).astype(np.float64))
        column_ptr, row_ids, _ = x._by_column
        assert np.array_equal(column_ptr, np.r_[0, np.cumsum(np.bincount(x.indices, minlength=d))])
        for j in np.unique(x.indices):  # rows ascend within each column
            assert np.all(np.diff(row_ids[column_ptr[j] : column_ptr[j + 1]]) > 0)
        g = rng.integers(-3, 4, size=(6, len(rows))).astype(np.float64)
        assert np.array_equal(g @ x, g @ x.toarray())

    @given(count_matrices(), st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_row_loop(self, dense, seed, k):
        """Row indexing densifies what the row-by-row loop did: an int, a
        negative int, index arrays with repeats, a 2-D one and, with k = 0,
        an empty selection."""
        x = CsrMatrix.from_dense(dense)
        n = dense.shape[0]
        rows = np.random.default_rng(seed).integers(0, n, size=k)
        for selection in (0, n - 1, -1, rows, np.r_[rows, rows], np.r_[rows, rows].reshape(2, -1)):
            got, want = x[selection], loop_rows(x, selection)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(count_matrices(), st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_take_equals_dense_rows(self, dense, seed, k):
        """Repeated rows, empty rows (the matrices have some) and, with k
        = 0, an empty selection."""
        x = CsrMatrix.from_dense(dense)
        rows = np.random.default_rng(seed).integers(0, dense.shape[0], size=k)
        taken = x.take(rows)
        assert isinstance(taken, CsrMatrix) and taken.shape == (k, dense.shape[1])
        assert taken.indptr.dtype == taken.indices.dtype == np.int64
        assert np.array_equal(taken.toarray(), dense[rows])
        assert np.array_equal(x.take(np.r_[rows, rows]).toarray(), dense[np.r_[rows, rows]])

    @given(count_matrices(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_materialise_exactly(self, dense, seed):
        x = CsrMatrix.from_dense(dense)
        assert np.array_equal(x.toarray(), dense)
        batch = np.random.default_rng(seed).integers(0, dense.shape[0], size=4)
        assert np.array_equal(x[batch], dense[batch])
        for i in range(dense.shape[0]):
            assert np.array_equal(x[i], dense[i])
        assert np.count_nonzero(x) == np.count_nonzero(dense)
        assert x.size == dense.size
        lo, hi = sorted(np.random.default_rng(seed).integers(0, dense.shape[0] + 1, size=2))
        assert np.array_equal(x.row_block(lo, hi).toarray(), dense[lo:hi])
        assert np.array_equal(x.row_sq_norms(), (dense**2).sum(axis=1))  # integer sums are exact

    @given(count_matrices())
    @settings(max_examples=40, deadline=None)
    def test_bias_column_is_one_nonzero_per_row(self, dense):
        augmented = classifiers._augment(CsrMatrix.from_dense(dense))
        assert isinstance(augmented, CsrMatrix)
        assert augmented.nnz == np.count_nonzero(dense) + dense.shape[0]
        assert np.array_equal(augmented.toarray(), classifiers._augment(dense))

    def test_shape_mismatch_rejected(self):
        x = CsrMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            x @ np.ones((4, 2))
        with pytest.raises(ValueError):
            np.ones((2, 4)) @ x

    def test_other_numpy_functions_refuse_it(self):
        with pytest.raises(TypeError):
            np.sum(CsrMatrix.from_dense(np.eye(3)))


class TestCountMatrix:
    def test_char3_is_csr_within_its_byte_bound(self, corpus):
        vocab = build_ngram_vocab(corpus, (3, 3))
        x = count_matrix(corpus, vocab, normalize=True)
        assert isinstance(x, CsrMatrix)
        assert x.nnz / x.size < SPARSE_DENSITY
        assert x.nbytes <= 16 * x.nnz + 8 * (len(corpus) + 1) + 1024

    def test_char2_stays_dense(self, corpus):
        x = count_matrix(corpus, build_ngram_vocab(corpus, (2, 2)))
        assert isinstance(x, np.ndarray)
        assert np.count_nonzero(x) / x.size >= SPARSE_DENSITY

    @pytest.mark.parametrize("normalize", [False, True])
    def test_csr_rows_equal_vectorize(self, corpus, normalize):
        ngrams = build_ngram_vocab(corpus, (3, 3))
        words = build_word_vocab(corpus)
        x3 = count_matrix(corpus, ngrams, normalize)
        xw = count_matrix(corpus, words, normalize)
        assert isinstance(xw, CsrMatrix)
        column = {key: j for j, key in enumerate(ngrams.keys.tolist())}
        for i, sentence in enumerate(corpus):
            # each 3-character text is one gram, so gram_keys gives one key per gram
            keys = gram_keys(extract_char_ngrams(sentence.text, 3), 3, 3)[1].tolist()
            grams = [column[k] for k in keys if k in column]
            hits = [words.words.index(w) for w in word_tokenize(sentence.text) if w in words.words]
            assert np.array_equal(x3[i], counter_row(grams, ngrams.size, normalize))
            assert np.array_equal(xw[i], counter_row(hits, words.size, normalize))


class TestTrainersOnCsr:
    @pytest.fixture(scope="class", params=[(2, 2), (3, 3)], ids=["char2", "char3"])
    def design(self, corpus, request):
        """CSR designs as ``train`` fits them: char2, scored dense, and char3."""
        vocab = build_ngram_vocab(corpus, request.param)
        raw = count_matrix(corpus, vocab, sparse=True)
        normalized = count_matrix(corpus, vocab, normalize=True, sparse=True)
        assert compact_design(raw) is raw and compact_design(normalized) is normalized
        return raw, normalized, label_indices(corpus)

    def test_nb_bit_identical(self, design):
        raw, _, y = design
        sparse = classifiers.train_nb(raw, y)
        dense = classifiers.train_nb(to_dense(raw), y)
        assert sparse.log_priors.tobytes() == dense.log_priors.tobytes()
        assert sparse.log_likelihoods.tobytes() == dense.log_likelihoods.tobytes()

    def test_svm_bit_identical(self, design):
        _, x, y = design
        for average in (False, True):
            sparse = classifiers.train_svm(x, y, epochs=2, seed=5, average=average)
            dense = classifiers.train_svm(to_dense(x), y, epochs=2, seed=5, average=average)
            assert sparse.weights.tobytes() == dense.weights.tobytes()
            assert sparse.biases.tobytes() == dense.biases.tobytes()
            assert np.allclose(sparse.objective_history, dense.objective_history, rtol=1e-12)

    def test_mlp_bit_identical(self, design):
        _, x, y = design
        cfg = neural.TrainConfig(epochs=1, seed=4)
        sparse = neural.mlp_train(x, y, hidden=(8,), cfg=cfg)
        dense = neural.mlp_train(to_dense(x), y, hidden=(8,), cfg=cfg)
        for a, b in zip(sparse.weights + sparse.biases, dense.weights + dense.biases):
            assert a.tobytes() == b.tobytes()

    def test_logreg_close_to_dense(self, design):
        _, x, y = design
        sparse = classifiers.train_logreg(x, y, epochs=20)
        dense = classifiers.train_logreg(to_dense(x), y, epochs=20)
        assert np.allclose(sparse.theta, dense.theta, rtol=0, atol=1e-12)
        assert np.abs(sparse.theta - dense.theta).max() <= 1e-12 * np.abs(dense.theta).max()
        assert np.array_equal(sparse.scores(x).argmax(axis=1),
                              dense.scores(to_dense(x)).argmax(axis=1))

    def test_knn_stores_csr_vectors(self, design):
        _, x, y = design
        assert classifiers.train_knn(x, y, k=3).vectors is x  # CSR input is kept as it is
        dense = to_dense(x)
        stored = classifiers.train_knn(dense, y, k=3).vectors
        assert isinstance(stored, CsrMatrix) and stored.nnz == x.nnz
        assert np.array_equal(stored.toarray(), dense)

    def test_nb_rejects_negative_csr_counts(self):
        x = CsrMatrix.from_dense(np.array([[1.0, -2.0], [0.0, 3.0]]))
        with pytest.raises(NegativeCount):
            classifiers.train_nb(x, np.array([0, 1]))


def test_logreg_gradient_on_csr_matches_finite_differences():
    """The finite-difference check of acceptance criterion 3, on CSR input."""
    rng = np.random.default_rng(31)
    step = 1e-6
    for _ in range(20):
        dense = rng.integers(0, 3, size=(4, 3)) * rng.normal(size=(4, 3))
        x_aug = classifiers._augment(CsrMatrix.from_dense(dense))
        y = rng.integers(0, 6, size=4)
        theta = rng.normal(size=(6, 4))
        analytic = classifiers.logreg_gradient(theta, x_aug, y)
        for index in np.ndindex(theta.shape):
            theta[index] += step
            up = cross_entropy(softmax(x_aug @ theta.T), y)
            theta[index] -= 2 * step
            down = cross_entropy(softmax(x_aug @ theta.T), y)
            theta[index] += step
            numeric = (up - down) / (2 * step)
            denom = max(1e-8, abs(numeric), abs(analytic[index]))
            assert abs(analytic[index] - numeric) / denom < 1e-4
