"""Embedding training, subword handling, and the supervised classifier."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nordlid import embeddings, features
from nordlid.corpus import ALPHABET, LABELS, Sentence
from nordlid.embeddings import (
    EmbeddingConfig,
    SupervisedConfig,
    supervised_grads,
    train_cbow,
    train_fasttext_supervised,
    train_skipgram,
)
from nordlid.errors import EmptyVocabulary
from nordlid.features import (
    CsrMatrix,
    WordVocabulary,
    build_ngram_vocab,
    build_word_vocab,
    count_matrix,
    cross_entropy,
    gram_keys,
    label_indices,
    word_tokenize,
)
from nordlid.synth import generate_pools


def subword_ngrams(word: str, nmin: int = 3, nmax: int = 6) -> list[str]:
    """Every character n-gram of orders nmin..nmax of `` word ``, the
    per-word reference of skip-gram's subwords: order nmin first, each
    order left to right, a repeat listed as often as it occurs."""
    if not word:
        raise ValueError("word must be non-empty")
    marked = f" {word} "
    return [marked[i : i + n] for n in range(nmin, nmax + 1) for i in range(len(marked) - n + 1)]


def pair_score(emb, center: str, context: str) -> float:
    """Inner-product score the model assigns to (center -> context)."""
    column = emb.vocab.column
    return float(emb.composed[column[center]] @ emb.output_vectors[column[context]])


def sentence_embedding(text: str, emb) -> np.ndarray:
    """Mean of in-vocabulary token vectors; zero vector when none match."""
    column = emb.vocab.column
    hits = [column[w] for w in word_tokenize(text) if w in column]
    if not hits:
        return np.zeros(emb.composed.shape[1])
    return emb.composed[hits].mean(axis=0)


class TestSubwordNgrams:
    def test_short_word_with_default_range(self):
        assert subword_ngrams("og", 3, 6) == [" og", "og ", " og "]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            subword_ngrams("")

    def test_word_shorter_than_min_window(self):
        # the marked word " a " is shorter than nmin, so it has no gram
        assert subword_ngrams("a", 4, 5) == []

    def test_longer_word_enumeration(self):
        got = subword_ngrams("dag", 3, 4)
        assert got == [" da", "dag", "ag ", " dag", "dag "]

    def test_repeats_are_kept(self):
        assert subword_ngrams("aaa", 3, 3) == [" aa", "aaa", "aa "]
        assert subword_ngrams("ananas", 3, 3).count("ana") == 2


def reference_bucket(gram: str) -> int:
    """The bucket of one gram: its ``gram_keys`` key, hashed with Python
    integers."""
    (key,) = gram_keys([gram], len(gram), len(gram))[1].tolist()
    return (key * 0x9E3779B97F4A7C15 % 2**64 >> 32) % embeddings.BUCKETS


def reference_word_rows(words):
    """Each word's rows, word by word from ``subword_ngrams``: its own row,
    then one per gram, a repeat listed as often as it occurs; and the
    occupied buckets, whose rows follow the words'."""
    buckets = [[reference_bucket(g) for g in subword_ngrams(w, *embeddings.SUBWORD_ORDERS)]
               for w in words]
    occupied = sorted({b for word in buckets for b in word})
    row = {b: len(words) + i for i, b in enumerate(occupied)}
    return [[i] + [row[b] for b in word] for i, word in enumerate(buckets)], occupied


def reference_composition(rows, width: int) -> np.ndarray:
    """Dense composition of the reference rows: each row's share of the list."""
    out = np.zeros((len(rows), width))
    for i, listed in enumerate(rows):
        for row, count in Counter(listed).items():
            out[i, row] = count / len(listed)
    return out


def check_composition(composition, words):
    """``composition`` equals the per-word reference bit for bit, and its
    columns cover the words and their occupied buckets."""
    rows, occupied = reference_word_rows(words)
    width = len(words) + len(occupied)
    assert composition.shape == (len(words), width)
    indptr, indices = composition.indptr, composition.indices
    assert indices.dtype == np.int64
    for lo, hi in zip(indptr[:-1], indptr[1:]):  # columns ascend within a row
        assert np.all(np.diff(indices[lo:hi]) > 0)
    assert composition.toarray().tobytes() == reference_composition(rows, width).tobytes()


def test_word_rows_follow_per_gram_hash():
    corpus = [Sentence("hej med dig og hej igen", "dk"), Sentence("þórður rød grød", "is")]
    with mock.patch.multiple(embeddings, SUBWORD_ORDERS=(2, 4), BUCKETS=97):
        emb = train_skipgram(corpus, EmbeddingConfig(dim=4, epochs=0))
        check_composition(emb.composition, list(emb.vocab.words))
    assert emb.vectors.shape == (emb.composition.shape[1], 4)


def test_repeated_gram_counts_as_often_as_it_occurs():
    """`` ananas `` has 18 grams of orders 3..6 and ``ana`` is two of them,
    as fastText pushes one hash per occurrence; with the word's own row
    that gives ``ana``'s bucket a share of 2/19."""
    emb = train_skipgram([Sentence("ananas", "dk")], EmbeddingConfig(dim=2, epochs=0))
    occupied = sorted({reference_bucket(g) for g in subword_ngrams("ananas")})
    share = dict(zip(emb.composition.indices.tolist(), emb.composition.data.tolist()))
    assert len(subword_ngrams("ananas")) == 18
    assert share[1 + occupied.index(reference_bucket("ana"))] == 2 / 19
    assert share[0] == 1 / 19


#: Words of any alphabet characters, and words over a few characters,
#: which repeat grams within a word.
any_word = st.text(ALPHABET.replace(" ", ""), min_size=1, max_size=12)
repeating_word = st.text("aøþ", min_size=1, max_size=14)


@given(words=st.lists(st.one_of(any_word, repeating_word), min_size=1, max_size=12),
       orders=st.tuples(st.integers(1, 10), st.integers(0, 9)),
       bucket_count=st.sampled_from([1, 2, 7, 1 << 20]),
       block=st.integers(1, 5))
@example(words=["aaaaaaa", "a", "og", "ogog", "aaaa"], orders=(3, 3), bucket_count=1 << 20,
         block=2)
@settings(max_examples=300, deadline=None)
def test_subword_rows_equal_per_word_reference(words, orders, bucket_count, block):
    """Bit for bit, in blocks of 1 to 5 words."""
    nmin, extra = orders
    with mock.patch.multiple(embeddings, BATCH_LINES=block, BUCKETS=bucket_count,
                             SUBWORD_ORDERS=(nmin, min(nmin + extra, 10))), \
            mock.patch.object(features, "BATCH_LINES", block):
        check_composition(embeddings._subword_composition(words), words)


def test_subword_rows_memory_is_bounded_by_blocks():
    """The composition's arrays are allocated once and filled a block of
    words at a time, so beyond them the build holds only the hashed
    vocabulary, the marked words and one block's arrays. Counting every
    word in one block peaked 108 MiB above the result instead of 20."""
    pools = generate_pools(1000, "wiki", seed=0)
    words = list(build_word_vocab([s for p in pools.values() for s in p]).words)
    tracemalloc.start()
    try:
        with mock.patch.object(embeddings, "BATCH_LINES", 256), \
                mock.patch.object(features, "BATCH_LINES", 256):
            composition = embeddings._subword_composition(words)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert composition.nnz > 30 * len(words)  # every word's grams
    # the occupied buckets, and a column and a mark per bucket
    index_bytes = 8 * (composition.shape[1] - len(words)) + 9 * embeddings.BUCKETS
    block_allowance = 10 << 20  # the marked words (3 MiB) and a block's arrays
    assert peak <= held + index_bytes + block_allowance, (peak, held)


def repeated_pair_corpus(n=120):
    return [Sentence("a b", "dk")] * n


class TestSkipgram:
    def test_zero_epochs_equals_seeded_init(self):
        cfg = EmbeddingConfig(dim=8, epochs=0, seed=3)
        a = train_skipgram(repeated_pair_corpus(), cfg)
        b = train_skipgram(repeated_pair_corpus(), cfg)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.all(a.output_vectors == 0.0)

    def test_determinism(self):
        cfg = EmbeddingConfig(dim=8, epochs=2, seed=4)
        a = train_skipgram(repeated_pair_corpus(), cfg)
        b = train_skipgram(repeated_pair_corpus(), cfg)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.composed, b.composed)

    def test_pair_score_beats_loss_baseline(self):
        corpus = repeated_pair_corpus() + [Sentence("x y", "sv")] * 120
        cfg = EmbeddingConfig(dim=16, epochs=8, window=1, negatives=3, seed=5)
        emb = train_skipgram(corpus, cfg)
        assert emb.epoch_losses[-1] < emb.epoch_losses[0]
        # observed pair scores higher than an unrelated word's score
        assert pair_score(emb, "a", "b") > pair_score(emb, "a", "y")

    def test_loss_non_increasing_per_epoch(self):
        cfg = EmbeddingConfig(dim=8, epochs=6, window=1, negatives=2, seed=6)
        emb = train_skipgram(repeated_pair_corpus(), cfg)
        losses = emb.epoch_losses
        assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyVocabulary):
            train_skipgram([], EmbeddingConfig(epochs=1))

    def test_word_outside_the_alphabet_rejected(self):
        with pytest.raises(ValueError, match="alphabet"):
            train_skipgram([Sentence("hej Du", "dk")], EmbeddingConfig(epochs=0))

    def test_word_vector_composes_subwords(self):
        cfg = EmbeddingConfig(dim=4, epochs=0, seed=7)
        emb = train_skipgram([Sentence("hej du", "dk")] * 3, cfg)
        i = emb.vocab.column["hej"]
        row = emb.composition.take([i])
        assert row.nnz > 1  # own row plus subword buckets
        assert row.data.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(emb.composed[i], row.data @ emb.vectors[row.indices])


class TestCbow:
    def test_zero_epochs_equals_seeded_init(self):
        cfg = EmbeddingConfig(dim=8, epochs=0, seed=8)
        a = train_cbow(repeated_pair_corpus(), cfg)
        assert a.vectors.shape == (2, 8)  # no subword rows in cbow mode

    def test_loss_decreases_and_pair_score_learned(self):
        corpus = repeated_pair_corpus() + [Sentence("x y", "sv")] * 120
        cfg = EmbeddingConfig(dim=16, epochs=8, window=1, negatives=3, seed=9)
        emb = train_cbow(corpus, cfg)
        assert emb.epoch_losses[-1] < emb.epoch_losses[0]
        assert pair_score(emb, "a", "b") > pair_score(emb, "a", "y")

    def test_determinism(self):
        cfg = EmbeddingConfig(dim=8, epochs=2, seed=10)
        a = train_cbow(repeated_pair_corpus(), cfg)
        b = train_cbow(repeated_pair_corpus(), cfg)
        assert np.array_equal(a.vectors, b.vectors)


class TestSentenceEmbedding:
    def test_unknown_words_give_zero_vector(self):
        emb = train_cbow(repeated_pair_corpus(), EmbeddingConfig(dim=8, epochs=0))
        assert np.all(sentence_embedding("q r s", emb) == 0.0)

    def test_single_known_word(self):
        emb = train_cbow(repeated_pair_corpus(), EmbeddingConfig(dim=8, epochs=0))
        vec = sentence_embedding("a", emb)
        assert np.array_equal(vec, emb.composed[emb.vocab.column["a"]])

    def test_mean_of_two_words(self):
        emb = train_cbow(repeated_pair_corpus(), EmbeddingConfig(dim=8, epochs=0))
        vec = sentence_embedding("a b", emb)
        manual = (emb.composed[emb.vocab.column["a"]] + emb.composed[emb.vocab.column["b"]]) / 2
        assert np.allclose(vec, manual, atol=1e-12)


def disjoint_vocab_corpus(n=40):
    dk = [Sentence("rød grød med fløde", "dk")] * n
    sv = [Sentence("kanske mycket bra", "sv")] * n
    return dk + sv


def train_fasttext(corpus, cfg, vocab):
    """A fastText model of ``corpus``, one input row per column of ``vocab``."""
    x = count_matrix(corpus, vocab, normalize=True, sparse=True)
    return train_fasttext_supervised(x, label_indices(corpus), cfg)


def fasttext_scores(model, vocab, texts):
    """Posteriors of cleaned texts, read through ``vocab`` as the model's feature does."""
    return model.scores(count_matrix(texts, vocab, normalize=True))


def fasttext_labels(model, vocab, texts):
    """The label of each text, scored on its own as a one-text block."""
    return [LABELS[int(fasttext_scores(model, vocab, [text])[0].argmax())] for text in texts]


class TestFastTextSupervised:
    def test_disjoint_vocabulary_reaches_training_accuracy_one(self):
        corpus = disjoint_vocab_corpus()
        vocab = build_word_vocab(corpus)
        model = train_fasttext(corpus, SupervisedConfig(dim=16, epochs=10, seed=0), vocab)
        assert fasttext_labels(model, vocab, [s.text for s in corpus]) == [s.label for s in corpus]

    def test_zero_epochs_uniform_posterior(self):
        corpus = disjoint_vocab_corpus()
        vocab = build_word_vocab(corpus)
        model = train_fasttext(corpus, SupervisedConfig(dim=16, epochs=0, seed=1), vocab)
        posterior = fasttext_scores(model, vocab, ["rød grød"])[0]
        assert fasttext_labels(model, vocab, ["rød grød"]) == ["dk"]
        assert np.allclose(posterior, 1 / 6)

    def test_same_seed_identical_predictions(self):
        corpus = disjoint_vocab_corpus()
        cfg = SupervisedConfig(dim=8, epochs=3, seed=2)
        a = train_fasttext(corpus, cfg, build_word_vocab(corpus))
        b = train_fasttext(corpus, cfg, build_word_vocab(corpus))
        assert np.array_equal(a.input_vectors, b.input_vectors)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_empty_text_uniform_posterior_dk(self):
        corpus = disjoint_vocab_corpus()
        vocab = build_word_vocab(corpus)
        model = train_fasttext(corpus, SupervisedConfig(dim=8, epochs=5, seed=3), vocab)
        posterior = fasttext_scores(model, vocab, [""])[0]
        assert fasttext_labels(model, vocab, [""]) == ["dk"]
        assert np.allclose(posterior, 1 / 6)

    def test_posterior_sums_to_one(self):
        corpus = disjoint_vocab_corpus()
        vocab = build_word_vocab(corpus)
        model = train_fasttext(corpus, SupervisedConfig(dim=8, epochs=2, seed=4), vocab)
        rng = np.random.default_rng(0)
        words = list(vocab.words)
        for _ in range(20):
            text = " ".join(rng.choice(words, size=3))
            posterior = fasttext_scores(model, vocab, [text])[0]
            assert posterior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_char_ngram_mode(self):
        corpus = disjoint_vocab_corpus()
        vocab = build_ngram_vocab(corpus, (1, 5))
        model = train_fasttext(corpus, SupervisedConfig(dim=16, epochs=10, seed=5), vocab)
        assert model.input_vectors.shape == (vocab.size, 16)
        assert fasttext_labels(model, vocab, [s.text for s in corpus]) == [s.label for s in corpus]

    def test_gradient_matches_finite_differences(self):
        corpus = disjoint_vocab_corpus(6)
        model = train_fasttext(corpus, SupervisedConfig(dim=5, epochs=1, seed=6), build_word_vocab(corpus))
        columns, weights, label = np.array([0, 1, 2]), np.array([0.5, 0.25, 0.25]), 2
        x = CsrMatrix((1, len(model.input_vectors)), np.array([0, 3]), columns, weights)
        _, _, analytic_w = supervised_grads(model, columns, weights, label)
        step = 1e-6
        for index in np.ndindex(model.output_weights.shape):
            model.output_weights[index] += step
            up = cross_entropy(model.scores(x), [label])
            model.output_weights[index] -= 2 * step
            down = cross_entropy(model.scores(x), [label])
            model.output_weights[index] += step
            numeric = (up - down) / (2 * step)
            denom = max(1e-8, abs(numeric), abs(analytic_w[index]))
            assert abs(analytic_w[index] - numeric) / denom < 1e-4

    def test_repeated_word_moves_count_times_as_far(self):
        """One step on "ab ab cd" moves the row of ab, counted twice, twice
        as far as the row of cd. The first step leaves the input rows as
        they are (the output weights start at zero), so the second counts."""
        corpus = [Sentence("ab ab cd", "dk")]
        vocab = build_word_vocab(corpus)
        start = train_fasttext(corpus, SupervisedConfig(dim=4, epochs=0, seed=0), vocab)
        moved = train_fasttext(corpus, SupervisedConfig(dim=4, epochs=2, seed=0), vocab)
        step = moved.input_vectors - start.input_vectors
        ab, cd = vocab.column["ab"], vocab.column["cd"]
        assert np.abs(step[cd]).min() > 0
        np.testing.assert_allclose(step[ab], 2 * step[cd], rtol=1e-9)

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyVocabulary):
            train_fasttext([], SupervisedConfig(epochs=1), build_word_vocab([]))


def test_embedding_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(window=0)
    with pytest.raises(ValueError):
        EmbeddingConfig(negatives=0)


@pytest.mark.parametrize("config,kwargs", [
    (EmbeddingConfig, {"learning_rate": float("nan")}),
    (EmbeddingConfig, {"learning_rate": -1.0}),
    (EmbeddingConfig, {"epochs": -1}),
    (EmbeddingConfig, {"dim": 0}),
    (SupervisedConfig, {"learning_rate": float("nan")}),
    (SupervisedConfig, {"learning_rate": float("inf")}),
    (SupervisedConfig, {"epochs": -1}),
    (SupervisedConfig, {"dim": 0}),
])
def test_training_configs_reject_bad_values(config, kwargs):
    with pytest.raises(ValueError):
        config(**kwargs)


# ---------------------------------------------------------------------------
# Batch scores against an independent per-line string reference
# ---------------------------------------------------------------------------

_CHARS = "".join(sorted(ALPHABET))


def decode_key(key: int) -> str:
    """The n-gram of a key: orders are numbered up from 1, each order's
    40**n codes after those of the orders below it."""
    n, start = 1, 0
    while key >= start + 40**n:
        start += 40**n
        n += 1
    code = key - start
    return "".join(_CHARS[code // 40 ** (n - 1 - i) % 40] for i in range(n))


def reference_rows(vocab) -> dict[str, int]:
    """feature string -> row of ``input_vectors``, from the vocabulary's own fields."""
    if isinstance(vocab, WordVocabulary):
        return {w: i for i, w in enumerate(vocab.words)}
    return {decode_key(int(k)): i for i, k in enumerate(vocab.keys)}


def reference_posterior(model, vocab, rows: dict[str, int], text: str) -> np.ndarray:
    """One line scored on its own with strings, as the model once was."""
    if isinstance(vocab, WordVocabulary):
        feats = [w for w in text.split(" ") if w]
    else:
        nmin, nmax = vocab.orders
        feats = [text[i : i + n] for n in range(nmin, nmax + 1)
                 for i in range(len(text) - n + 1)]
    ids = [rows[f] for f in feats if f in rows]
    if ids:
        mean = model.input_vectors[np.array(ids)].mean(axis=0)
    else:
        mean = np.zeros(model.input_vectors.shape[1])
    z = mean @ model.output_weights + model.output_bias
    e = np.exp(z - z.max())
    return e / e.sum()


@pytest.fixture(scope="module")
def synth_corpus():
    pools = generate_pools(10, "wiki", seed=1)
    return [s for code in sorted(pools) for s in pools[code]]


def vocab_of(corpus, mode, orders=(1, 5)):
    """fastText's vocabulary of ``corpus``: its words, or its n-grams of ``orders``."""
    return build_word_vocab(corpus) if mode == "words" else build_ngram_vocab(corpus, orders)


def scoring_lines(corpus, seed):
    """Training lines, cut and joined lines, random alphabet strings, an
    empty line and lines with no known feature."""
    rng = np.random.default_rng(seed)
    texts = [s.text for s in corpus]
    lines = texts[::4] + ["", "zzzxxx", "q", " "]
    for _ in range(40):
        a, b = rng.choice(len(texts), 2)
        lines.append(texts[a][: rng.integers(0, 40)] + texts[b][rng.integers(0, 20):])
        lines.append("".join(rng.choice(list(ALPHABET), rng.integers(0, 30))))
    return lines


@pytest.mark.parametrize("mode,dim", [
    ("char_ngrams", 8), ("char_ngrams", 2), ("char_ngrams", 1), ("words", 8), ("words", 1),
])
def test_scores_equal_per_line_string_reference(synth_corpus, mode, dim):
    """To 1e-12 relative, with the same label: the batch sums each line's
    rows weighted by their counts, the reference one row per occurrence."""
    train = synth_corpus + [Sentence("rød grød", "dk")] * 3
    vocab = vocab_of(train, mode, (2, 4) if dim == 2 else (1, 5))
    model = train_fasttext(train, SupervisedConfig(dim=dim, epochs=2, seed=dim), vocab)
    lines = scoring_lines(synth_corpus, dim)
    scores = fasttext_scores(model, vocab, lines)
    rows = reference_rows(vocab)
    assert scores.shape == (len(lines), len(LABELS))
    for line, row in zip(lines, scores):
        expected = reference_posterior(model, vocab, rows, line)
        np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0, err_msg=line)
        assert row.argmax() == expected.argmax(), line
    assert fasttext_scores(model, vocab, []).shape == (0, len(LABELS))


@pytest.mark.parametrize("mode", ["char_ngrams", "words"])
def test_lines_without_known_features_score_uniform(mode):
    corpus = disjoint_vocab_corpus()
    vocab = vocab_of(corpus, mode)
    model = train_fasttext(corpus, SupervisedConfig(dim=8, epochs=3, seed=0), vocab)
    lines = ["", "zzzxxx", "rød grød", "qq"]  # z, x and q are not in the corpus
    scores = fasttext_scores(model, vocab, lines)
    rows = reference_rows(vocab)
    for line, row in zip(lines, scores):
        np.testing.assert_allclose(row, reference_posterior(model, vocab, rows, line),
                                   rtol=1e-12, atol=0)
    for k in (0, 1, 3):
        assert np.all(scores[k] == 1 / 6) and fasttext_labels(model, vocab, [lines[k]]) == ["dk"]
    assert not np.all(scores[2] == 1 / 6)


@pytest.mark.parametrize("orders", [(1, 5), (2, 3), (3, 3), (1, 1), (2, 2)])
def test_trained_keys_follow_count_then_string_ranking(synth_corpus, orders):
    nmin, nmax = orders
    vocab = build_ngram_vocab(synth_corpus, orders)
    model = train_fasttext(synth_corpus, SupervisedConfig(dim=3, epochs=0), vocab)
    counts = Counter(s.text[i : i + n] for s in synth_corpus for n in range(nmin, nmax + 1)
                     for i in range(len(s.text) - n + 1))
    ranked = [g for g, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    assert vocab.orders == orders and vocab.keys.dtype == np.int64
    assert [decode_key(int(k)) for k in vocab.keys] == ranked
    assert model.input_vectors.shape == (len(ranked), 3)


def test_char_training_equals_string_training(synth_corpus):
    """Per-document SGD over counted string features, run here, gives the same arrays."""
    cfg = SupervisedConfig(dim=4, epochs=2, seed=3)
    vocab = build_ngram_vocab(synth_corpus, (1, 5))
    model = train_fasttext(synth_corpus, cfg, vocab)
    rows = reference_rows(vocab)
    docs = []  # each document's distinct rows, ascending, and their shares of its grams
    for sentence in synth_corpus:
        text = sentence.text
        counts = Counter(rows[text[i : i + n]] for n in range(1, 6) for i in range(len(text) - n + 1))
        ids = np.array(sorted(counts), dtype=np.int64)
        docs.append((ids, np.array([counts[i] for i in ids], dtype=np.float64) / counts.total()))
    vectors = np.random.default_rng(cfg.seed).uniform(-1 / 4, 1 / 4, size=(len(rows), 4))
    weights = np.zeros((4, len(LABELS)))
    order_rng = np.random.default_rng(cfg.seed + 1)
    labels = [LABELS.index(s.label) for s in synth_corpus]
    total, step = cfg.epochs * len(docs), 0
    for _ in range(cfg.epochs):
        for i in order_rng.permutation(len(docs)):
            lr = cfg.learning_rate * max(1.0 - step / total, 0.0)
            step += 1
            ids, shares = docs[i]
            mean = shares @ vectors[ids]
            z = mean @ weights
            posterior = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
            posterior[labels[i]] -= 1.0
            dmean = weights @ posterior
            weights -= lr * np.outer(mean, posterior)
            vectors[ids] -= lr * np.outer(shares, dmean)  # a gram counted c times steps c times
    assert model.input_vectors.tobytes() == vectors.tobytes()
    assert model.output_weights.tobytes() == weights.tobytes()


# ---------------------------------------------------------------------------
# Skip-gram and CBOW against a per-example reference
# ---------------------------------------------------------------------------


def reference_embedding(corpus, cfg, mode):
    """``(vectors, output_vectors, epoch_losses)`` trained by plain loops.

    Every example's gradient is taken at the parameters as they stand at
    its sentence's start; the sums are applied once the sentence is done.
    """
    train = train_skipgram if mode == "skipgram" else train_cbow
    start = train(corpus, replace(cfg, epochs=0))
    word_rows = reference_word_rows(list(start.vocab.words))[0]
    vectors, outputs = start.vectors.copy(), start.output_vectors.copy()
    sentences = [word_tokenize(s.text) for s in corpus]
    ids = [[start.vocab.column[w] for w in tokens] for tokens in sentences if tokens]
    counts = Counter(w for tokens in sentences for w in tokens)
    weights = np.array([counts[w] for w in start.vocab.words], dtype=np.float64) ** 0.75
    table = np.cumsum(weights / weights.sum())
    rng = np.random.default_rng(cfg.seed + 1)
    total = sum(map(len, ids)) * cfg.epochs
    step, losses = 0, []
    for _ in range(cfg.epochs):
        loss, count = 0.0, 0
        for tokens in ids:
            reach = rng.integers(1, cfg.window + 1, size=len(tokens))
            examples = []  # (position, input rows, target word)
            for t, center in enumerate(tokens):
                context = [tokens[j] for j in range(t - reach[t], t + reach[t] + 1)
                           if j != t and 0 <= j < len(tokens)]
                if mode == "skipgram":
                    examples += [(t, word_rows[center], word) for word in context]
                elif context:
                    examples.append((t, np.array(context), center))
            if examples:
                draws = np.searchsorted(table, rng.random((len(examples), cfg.negatives)))
            d_in, d_out = np.zeros_like(vectors), np.zeros_like(outputs)
            for (t, rows, target), drawn in zip(examples, draws):
                lr = cfg.learning_rate * max(1.0 - (step + t) / total, 0.0)
                v = vectors[rows].mean(axis=0)
                d_v = np.zeros_like(v)
                for word, label in [(target, 1.0)] + [(w, 0.0) for w in drawn if w != target]:
                    p = 1.0 / (1.0 + np.exp(-(outputs[word] @ v)))
                    loss -= np.log(p if label else 1.0 - p)
                    d_v += (p - label) * lr * outputs[word]
                    d_out[word] += (p - label) * lr * v
                for row in rows:  # one row listed twice gets both shares
                    d_in[row] += d_v / len(rows)
            vectors -= d_in
            outputs -= d_out
            step += len(tokens)
            count += len(examples)
        losses.append(loss / count)
    return vectors, outputs, losses


@pytest.mark.parametrize("mode,buckets", [
    ("skipgram", 1 << 20), ("skipgram", 2), ("cbow", 1 << 20),
], ids=["skipgram", "skipgram-2-buckets", "cbow"])
def test_sentence_steps_equal_per_example_reference(synth_corpus, mode, buckets):
    """Two buckets make most subword rows collide within a sentence, so a
    buffered ``vectors[rows] -= g`` that drops repeats fails here."""
    corpus = synth_corpus[::3] + [Sentence("og du og du og", "dk"), Sentence("hej", "sv")]
    cfg = EmbeddingConfig(dim=6, window=2, negatives=3, epochs=2, learning_rate=0.5, seed=3)
    with mock.patch.object(embeddings, "BUCKETS", buckets):
        emb = (train_skipgram if mode == "skipgram" else train_cbow)(corpus, cfg)
        vectors, outputs, losses = reference_embedding(corpus, cfg, mode)
    assert np.abs(emb.output_vectors).max() > 0.05  # the steps are not negligible
    np.testing.assert_allclose(emb.vectors, vectors, rtol=0, atol=1e-12)
    np.testing.assert_allclose(emb.output_vectors, outputs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(emb.epoch_losses, losses, rtol=1e-12)


@pytest.mark.parametrize("mode", ["skipgram", "cbow"])
def test_negative_equal_to_its_target_changes_nothing(mode):
    """With one word every draw is the target, so any number of negatives
    trains like one, and only the targets move the output row."""
    corpus = [Sentence("ja ja ja ja", "dk")] * 3
    train = train_skipgram if mode == "skipgram" else train_cbow
    runs = [train(corpus, EmbeddingConfig(dim=4, window=1, negatives=k, epochs=2,
                                          learning_rate=0.5, seed=2))
            for k in (1, 4)]
    assert np.array_equal(runs[0].vectors, runs[1].vectors)
    assert np.array_equal(runs[0].output_vectors, runs[1].output_vectors)
    assert runs[0].epoch_losses == pytest.approx(runs[1].epoch_losses, rel=1e-12)
    # a target pulls its output row toward the input means, which start near 0
    # but not at it, so a positive-only step raises the pair score
    assert pair_score(runs[1], "ja", "ja") > 0


@pytest.mark.parametrize("mode", ["skipgram", "cbow"])
def test_composed_is_mean_of_word_rows(synth_corpus, mode):
    """Each word's composed vector is the mean of its reference rows, a
    repeated gram's row counted as often as it occurs."""
    cfg = EmbeddingConfig(dim=5, window=2, negatives=2, epochs=1, seed=4)
    emb = (train_skipgram if mode == "skipgram" else train_cbow)(synth_corpus, cfg)
    words = list(emb.vocab.words)
    word_rows = (reference_word_rows(words)[0] if mode == "skipgram"
                 else [[i] for i in range(len(words))])
    assert emb.composition.shape == (len(words), len(emb.vectors))
    for i, rows in enumerate(word_rows):
        np.testing.assert_allclose(emb.composed[i], emb.vectors[rows].mean(axis=0),
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("train", [train_skipgram, train_cbow], ids=["skipgram", "cbow"])
def test_word_ranks_equal_build_word_vocab(synth_corpus, train):
    """Words by descending count, ties in string order, as every word
    feature ranks them."""
    emb = train(synth_corpus, EmbeddingConfig(dim=2, epochs=0))
    counts = Counter(w for s in synth_corpus for w in s.text.split(" ") if w)
    assert emb.vocab == build_word_vocab(synth_corpus)
    assert list(emb.vocab.words) == sorted(counts, key=lambda w: (-counts[w], w))
