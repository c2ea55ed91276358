"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The directional experiments run on the bundled synthetic six-language
corpus (no network access required); full-scale published accuracies are
reference points only and are not asserted here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from nordlid import classifiers, embeddings, neural, reduce
from nordlid.cli import main
from nordlid.corpus import (
    LABELS,
    Sentence,
    clean_sentence,
    save_dataset_tsv,
    stratified_sample,
    train_test_split,
)
from nordlid.evaluation import evaluate
from nordlid.experiments import run_mini_experiment
from nordlid.features import (
    CsrMatrix,
    NgramVocabulary,
    build_word_vocab,
    count_matrix,
    cross_entropy,
    label_indices,
    softmax,
)
from nordlid.modelio import load_model
from nordlid.synth import generate_pools


def _pass(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number} ({description}): PASS")


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a), abs(b))


@pytest.fixture(scope="module")
def mini_result():
    return run_mini_experiment(n_per_class=1000, n_out_domain=200, seed=42)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    pools = generate_pools(1000, "wiki", seed=42)
    dataset = stratified_sample(pools, 1000, 42)
    train, test = train_test_split(dataset, 0.8, 42)
    save_dataset_tsv(train, base / "train.tsv")
    save_dataset_tsv(test, base / "test.tsv")
    return base


# -----------------------------------------------------------------------
# Criterion 1: cleaning golden test
# -----------------------------------------------------------------------


def test_criterion_1_cleaning_golden():
    raw = (
        "Hesbjerg er dannet ved sammenlægning af de 2 gårde "
        "Store Hesbjerg og Lille Hesbjerg i 1822."
    )
    expected = (
        "hesbjerg er dannet ved sammenlægning af de gårde "
        "store hesbjerg og lille hesbjerg i "
    )
    assert clean_sentence(raw) == expected
    _pass(1, "cleaning golden test")


# -----------------------------------------------------------------------
# Criterion 2: oracle equivalence
# -----------------------------------------------------------------------


def knn_oracle(vectors, labels, k, x):
    dists = sorted(
        (math.sqrt(((row - x) ** 2).sum()), i) for i, row in enumerate(vectors)
    )
    votes, sums = {}, {}
    for d, i in dists[:k]:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
        sums[labels[i]] = sums.get(labels[i], 0.0) + d
    best = max(votes.values())
    tied = sorted((c for c, v in votes.items() if v == best), key=lambda c: (sums[c], c))
    return LABELS[tied[0]]


def nb_oracle_scores(counts, labels, alpha, x):
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
                score += x[i] * math.log((Fraction(int(totals[i])) + Fraction(alpha)) / denom)
        scores.append(score)
    return scores


def charpoly_coefficients(a):
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return coeffs


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20)
    for _ in range(200):  # KNN vs exhaustive search
        n = int(rng.integers(5, 201))
        d = int(rng.integers(1, 21))
        k = int(rng.integers(1, min(n, 9) + 1))
        vectors = rng.normal(size=(n, d)).round(3)
        labels = rng.integers(0, 6, size=n)
        query = rng.normal(size=d).round(3)
        model = classifiers.train_knn(vectors, labels, k=k)
        label = LABELS[int(model.scores(query[None]).argmax())]  # the query as a one-row matrix
        assert label == knn_oracle(vectors, labels, k, query)

    for _ in range(50):  # NB log-scores vs exact-rational enumeration
        n = int(rng.integers(6, 15))
        v = int(rng.integers(2, 5))
        counts = rng.integers(0, 5, size=(n, v)).astype(float)
        labels = rng.integers(0, 6, size=n)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        x = rng.integers(0, 4, size=v).astype(float)
        model = classifiers.train_nb(counts, labels, alpha=alpha)
        got = model.scores(x[None])[0]
        for a, b in zip(got, nb_oracle_scores(counts, labels, alpha, x)):
            if math.isinf(b):
                assert math.isinf(a)
            else:
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    for _ in range(50):  # eigenvalues vs characteristic-polynomial roots
        base = rng.normal(size=(4, 4))
        k_matrix = (base + base.T) / 2
        roots = np.sort(np.roots(charpoly_coefficients(k_matrix)).real)[::-1]
        pairs = reduce.top_eigenpairs(k_matrix, 4)
        for pair, root in zip(pairs, roots):
            assert abs(pair.value - root) <= 1e-8
    _pass(2, "oracle equivalence: KNN, NB, PCA eigenvalues")


# -----------------------------------------------------------------------
# Criterion 3: gradient checks
# -----------------------------------------------------------------------


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(30)
    step = 1e-6

    for _ in range(20):  # logistic regression
        x_aug = classifiers._augment(rng.normal(size=(4, 3)))
        y = rng.integers(0, 6, size=4)
        theta = rng.normal(size=(6, 4))
        analytic = classifiers.logreg_gradient(theta, x_aug, y)
        for index in np.ndindex(theta.shape):
            theta[index] += step
            up = cross_entropy(softmax(x_aug @ theta.T), y)
            theta[index] -= 2 * step
            down = cross_entropy(softmax(x_aug @ theta.T), y)
            theta[index] += step
            assert relative_error(analytic[index], (up - down) / (2 * step)) < 1e-4

    corpus = [Sentence("ab cd", "dk"), Sentence("ef gh", "sv")] * 3
    vocab = build_word_vocab(corpus)
    x = count_matrix(corpus, vocab, normalize=True)
    for i in range(20):  # supervised fasttext: the gradients its trainer steps by
        model = embeddings.train_fasttext_supervised(
            x, label_indices(corpus), embeddings.SupervisedConfig(dim=4, epochs=1, seed=i)
        )
        # a document of three draws: a column drawn twice is counted twice
        columns, counts = np.unique(rng.integers(0, vocab.size, size=3), return_counts=True)
        weights = counts / counts.sum()
        row = CsrMatrix((1, vocab.size), np.array([0, len(columns)]), columns, weights)
        label = int(rng.integers(6))
        _, d_rows, d_out = embeddings.supervised_grads(model, columns, weights, label)
        for index in np.ndindex(model.output_weights.shape):
            model.output_weights[index] += step
            up = cross_entropy(model.scores(row), [label])
            model.output_weights[index] -= 2 * step
            down = cross_entropy(model.scores(row), [label])
            model.output_weights[index] += step
            assert relative_error(d_out[index], (up - down) / (2 * step)) < 1e-4
        for r, column in enumerate(columns):
            for j in range(4):
                model.input_vectors[column, j] += step
                up = cross_entropy(model.scores(row), [label])
                model.input_vectors[column, j] -= 2 * step
                down = cross_entropy(model.scores(row), [label])
                model.input_vectors[column, j] += step
                assert relative_error(d_rows[r, j], (up - down) / (2 * step)) < 1e-4

    for i in range(20):  # MLP, all parameters
        model = neural.init_mlp([3, 4, 6], seed=i)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 6, size=4)
        _, w_grads, b_grads = neural.mlp_grads(model, x, y)
        for layer in range(2):
            for index in np.ndindex(model.weights[layer].shape):
                model.weights[layer][index] += step
                up = cross_entropy(neural.mlp_forward(model, x), y)
                model.weights[layer][index] -= 2 * step
                down = cross_entropy(neural.mlp_forward(model, x), y)
                model.weights[layer][index] += step
                assert relative_error(w_grads[layer][index], (up - down) / (2 * step)) < 1e-4
            for index in np.ndindex(model.biases[layer].shape):
                model.biases[layer][index] += step
                up = cross_entropy(neural.mlp_forward(model, x), y)
                model.biases[layer][index] -= 2 * step
                down = cross_entropy(neural.mlp_forward(model, x), y)
                model.biases[layer][index] += step
                assert relative_error(b_grads[layer][index], (up - down) / (2 * step)) < 1e-4

    vocab = NgramVocabulary((1, 1), np.arange(5, dtype=np.int64))
    for i in range(20):  # CNN, all parameter tensors (V=5, e=3, F=2, h=2, L=6)
        model = neural.init_cnn(vocab, kernel=2, filters=2, embed_dim=3, max_len=6, seed=i)
        ids = rng.integers(0, 6, size=(2, 6))
        y = rng.integers(0, 6, size=2)
        _, grads = neural.cnn_grads(model, ids, y)
        for name in ("embeddings", "filters", "conv_bias", "dense_w", "dense_b"):
            param = getattr(model, name)
            for index in np.ndindex(param.shape):
                param[index] += step
                up = cross_entropy(neural.cnn_forward(model, ids), y)
                param[index] -= 2 * step
                down = cross_entropy(neural.cnn_forward(model, ids), y)
                param[index] += step
                assert relative_error(grads[name][index], (up - down) / (2 * step)) < 1e-4
    _pass(3, "gradient checks: logreg, fasttext, MLP, CNN")


# -----------------------------------------------------------------------
# Criterion 4: t-SNE suite
# -----------------------------------------------------------------------


def test_criterion_4_tsne_suite():
    rng = np.random.default_rng(40)
    data = np.concatenate(
        [rng.normal(0, 0.3, size=(25, 6)), rng.normal(3, 0.3, size=(25, 6))]
    )
    target = 15.0
    p, sigmas = reduce.tsne_affinities(data, perplexity=target)
    for i in range(50):  # every row hits the target perplexity
        d2 = ((data - data[i]) ** 2).sum(axis=1)
        cond = np.exp(-d2 / (2 * sigmas[i] ** 2))
        cond[i] = 0.0
        cond /= cond.sum()
        nz = cond[cond > 0]
        perplexity = 2.0 ** float(-(nz * np.log2(nz)).sum())
        assert abs(perplexity - target) <= 1e-5
    assert np.allclose(p, p.T)
    assert abs(p.sum() - 1.0) <= 1e-9

    # learning rate sized for n=50 (the 200 default suits corpus-scale runs)
    result = reduce.tsne_optimize(p, iterations=1000, seed=0, learning_rate=10.0,
                                  record_kl=True)
    tail = result.kl_history[250:]
    windows = [np.mean(tail[i : i + 50]) for i in range(0, len(tail) - 49, 50)]
    assert all(b <= a + 1e-6 for a, b in zip(windows, windows[1:]))

    cluster = np.concatenate(
        [rng.normal(0, 0.05, size=(10, 4)), rng.normal(4, 0.05, size=(10, 4))]
    )
    labels = np.array([0] * 10 + [1] * 10)
    p2, _ = reduce.tsne_affinities(cluster, perplexity=5.0)
    y = reduce.tsne_optimize(p2, iterations=500, seed=1, learning_rate=10.0).positions
    same, cross = [], []
    for i in range(20):
        for j in range(i + 1, 20):
            d = np.linalg.norm(y[i] - y[j])
            (same if labels[i] == labels[j] else cross).append(d)
    assert np.mean(cross) > np.mean(same)
    _pass(4, "t-SNE: perplexity, affinity invariants, KL descent, separation")


# -----------------------------------------------------------------------
# Criteria 5 and 6: directional mini-experiment and failure lengths
# -----------------------------------------------------------------------


def test_criterion_5_directional_mini_experiment(mini_result):
    acc = mini_result.accuracies
    assert acc["logreg+char2"] >= acc["logreg+char1"], acc
    assert acc["logreg+char2"] > acc["nb+char2"], acc
    assert acc["svm+char2"] > acc["nb+char2"], acc
    assert mini_result.cross_domain_delta > 0.0
    _pass(5, "bigrams >= unigrams; logreg & svm > nb; cross-domain drop")


def test_criterion_6_failure_length_property(mini_result):
    stats = mini_result.length_stats
    if stats.misclassified is None or stats.misclassified.count < 30:
        pytest.skip("fewer than 30 misclassified sentences")
    assert stats.misclassified.mean < stats.correct.mean
    _pass(6, "misclassified sentences are shorter on average")


# -----------------------------------------------------------------------
# Criterion 7: determinism and round-trip
# -----------------------------------------------------------------------


def test_criterion_7_determinism_and_roundtrip(corpus_files, tmp_path):
    train_tsv = str(corpus_files / "train.tsv")
    test_tsv = str(corpus_files / "test.tsv")

    train_args = [
        "train", "--model", "logreg", "--features", "char2",
        "--train", train_tsv, "--out", str(tmp_path / "model.ndsl"),
        "--epochs", "40", "--seed", "42",
    ]
    assert main(train_args) == 0
    first_model = (tmp_path / "model.ndsl").read_bytes()
    assert main(train_args) == 0
    assert (tmp_path / "model.ndsl").read_bytes() == first_model

    eval_args = [
        "eval", "--model-file", str(tmp_path / "model.ndsl"),
        "--test", test_tsv, "--out-dir", str(tmp_path / "report"),
    ]
    assert main(eval_args) == 0
    confusion = (tmp_path / "report" / "confusion.csv").read_bytes()
    report = (tmp_path / "report" / "report.txt").read_bytes()
    assert main(eval_args) == 0
    assert (tmp_path / "report" / "confusion.csv").read_bytes() == confusion
    assert (tmp_path / "report" / "report.txt").read_bytes() == report

    for method, extra in (("pca", []), ("tsne", ["--perplexity", "10", "--iterations", "100"])):
        reduce_args = [
            "reduce", "--method", method, "--input", train_tsv,
            "--out", str(tmp_path / f"{method}.tsv"), "--max-points", "60",
            "--seed", "42", *extra,
        ]
        assert main(reduce_args) == 0
        first = (tmp_path / f"{method}.tsv").read_bytes()
        assert main(reduce_args) == 0
        assert (tmp_path / f"{method}.tsv").read_bytes() == first

    pipeline = load_model(tmp_path / "model.ndsl")
    pools = generate_pools(167, "wiki", seed=99)
    sentences = [s.text for pool in pools.values() for s in pool][:1000]
    assert len(sentences) == 1000
    before = [pipeline.predict(text) for text in sentences]
    reloaded = load_model(tmp_path / "model.ndsl")
    after = [reloaded.predict(text) for text in sentences]
    assert before == after
    _pass(7, "byte-identical reruns; save/load preserves 1000 predictions")


# -----------------------------------------------------------------------
# Criterion 8: kernel sweep smoke plus adjacency-signal corpus
# -----------------------------------------------------------------------


def test_criterion_8_kernel_sweep_smoke(corpus_files, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--train", str(corpus_files / "train.tsv"),
        "--test", str(corpus_files / "test.tsv"), "--out", str(out),
        "--grams", "1,2", "--kernels", "1,2,3",
        "--lr", "0.2", "--epochs", "10", "--batch-size", "32",
        "--filters", "16", "--embed-dim", "16", "--max-len", "96", "--seed", "42",
    ]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "gram,kernel,accuracy"
    assert len(lines) == 7
    for line in lines[1:]:
        gram, kernel, accuracy = line.split(",")
        assert 0.0 <= float(accuracy) <= 1.0

    # adjacency-signal corpus: only token adjacency separates the classes
    train = [Sentence("ab " * 6 + "ab", "dk")] * 40 + [Sentence("ba " * 6 + "ba", "sv")] * 40
    test = train[:10] + train[-10:]
    texts, truth = [s.text for s in test], label_indices(test)
    cfg = neural.TrainConfig(learning_rate=0.1, epochs=8, batch_size=8, seed=1, max_len=16)
    bigram = neural.cnn_train(train, cfg, gram=2, kernel=1, filters=8, embed_dim=8)
    assert evaluate(truth, bigram.scores(texts).argmax(axis=1)).accuracy == 1.0
    unigram = neural.cnn_train(train, cfg, gram=1, kernel=1, filters=8, embed_dim=8)
    assert abs(evaluate(truth, unigram.scores(texts).argmax(axis=1)).accuracy - 0.5) < 0.01
    _pass(8, "kernel sweep completes; adjacency signal needs bigrams")
