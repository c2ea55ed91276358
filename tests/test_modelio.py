"""Model container round trips: every kind must reload bit-exactly."""

import json
from collections import Counter

import numpy as np
import pytest

from nordlid import classifiers, embeddings, features, modelio, neural
from nordlid.corpus import LABELS, clean_sentence
from nordlid.errors import IncompatibleSpec, ModelFormatError
from nordlid.features import (
    build_ngram_vocab,
    build_word_vocab,
    count_matrix,
    gram_keys,
    label_indices,
    word_tokenize,
)
from nordlid.modelio import (
    MAGIC,
    PipelineModel,
    VectorFeature,
    check_compatibility,
    load_model,
    save_model,
)
from nordlid.synth import generate_pools

from test_embeddings import sentence_embedding
from test_features import extract_char_ngrams


@pytest.fixture(scope="module")
def corpus():
    pools = generate_pools(12, "wiki", seed=0)
    return [s for code in sorted(pools) for s in pools[code]]


@pytest.fixture(scope="module")
def ngram_feature(corpus):
    return VectorFeature("char2", True, build_ngram_vocab(corpus, (2, 2)))


def parameter_arrays(obj):
    """Every numpy array held by a model object, at any depth."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from parameter_arrays(item)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from parameter_arrays(value)


def roundtrip(pipeline, tmp_path, corpus):
    path = tmp_path / "model.ndsl"
    save_model(pipeline, path)
    assert path.read_bytes().startswith(MAGIC.encode("ascii") + b"\n")
    loaded = load_model(path)
    arrays = list(parameter_arrays(loaded.model)) + list(parameter_arrays(loaded.feature))
    assert arrays
    for arr in arrays:
        assert arr.flags.writeable and arr.flags.aligned
    for sentence in corpus:
        assert loaded.predict(sentence.text) == pipeline.predict(sentence.text)
    again = tmp_path / "again.ndsl"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    return loaded


def test_knn_roundtrip(tmp_path, corpus, ngram_feature):
    x = count_matrix(corpus, ngram_feature.vocab, normalize=True)
    model = classifiers.train_knn(x, label_indices(corpus), k=3)
    pipeline = PipelineModel("knn", 1, model, ngram_feature)
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert loaded.model.vectors.shape == model.vectors.shape
    for key in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(loaded.model.vectors, key), getattr(model.vectors, key))


def test_logreg_roundtrip(tmp_path, corpus, ngram_feature):
    x = count_matrix(corpus, ngram_feature.vocab, normalize=True)
    model = classifiers.train_logreg(x, label_indices(corpus), epochs=20)
    pipeline = PipelineModel("logreg", 1, model, ngram_feature)
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert np.array_equal(loaded.model.theta, model.theta)


def test_nb_roundtrip(tmp_path, corpus):
    vocab = build_ngram_vocab(corpus, (2, 2))
    feature = VectorFeature("char2", False, vocab)
    x = count_matrix(corpus, vocab, normalize=False)
    model = classifiers.train_nb(x, label_indices(corpus))
    pipeline = PipelineModel("nb", 1, model, feature)
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert np.array_equal(loaded.model.log_likelihoods, model.log_likelihoods)


def test_svm_roundtrip(tmp_path, corpus, ngram_feature):
    x = count_matrix(corpus, ngram_feature.vocab, normalize=True)
    model = classifiers.train_svm(x, label_indices(corpus), epochs=3, seed=2)
    pipeline = PipelineModel("svm", 2, model, ngram_feature)
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert np.array_equal(loaded.model.weights, model.weights)


def test_mlp_roundtrip(tmp_path, corpus, ngram_feature):
    x = count_matrix(corpus, ngram_feature.vocab, normalize=True)
    cfg = neural.TrainConfig(epochs=2, seed=3)
    model = neural.mlp_train(x, label_indices(corpus), hidden=(16,), cfg=cfg)
    pipeline = PipelineModel("mlp", 3, model, ngram_feature)
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.model.weights, model.weights))


def test_cnn_roundtrip(tmp_path, corpus):
    cfg = neural.TrainConfig(learning_rate=0.05, epochs=2, seed=4, max_len=64)
    model = neural.cnn_train(corpus, cfg, gram=2, kernel=2, filters=4, embed_dim=4)
    pipeline = PipelineModel("cnn", 4, model)
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert np.array_equal(loaded.model.filters, model.filters)
    assert loaded.model.vocab.orders == model.vocab.orders
    assert loaded.model.vocab.keys.tobytes() == model.vocab.keys.tobytes()


def fasttext_pipeline(corpus, feature_type, cfg):
    """A fastText model of ``corpus`` with its bow or char1_5 feature."""
    vocab = build_word_vocab(corpus) if feature_type == "bow" else build_ngram_vocab(corpus, (1, 5))
    feature = VectorFeature(feature_type, True, vocab)
    model = embeddings.train_fasttext_supervised(
        feature.matrix(corpus, sparse=True), label_indices(corpus), cfg)
    return PipelineModel("fasttext", cfg.seed, model, feature)


def test_fasttext_roundtrip(tmp_path, corpus):
    pipeline = fasttext_pipeline(corpus, "char1_5", embeddings.SupervisedConfig(dim=8, epochs=3, seed=5))
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert np.array_equal(loaded.model.input_vectors, pipeline.model.input_vectors)


def test_fasttext_char_header_holds_no_ngram_strings(tmp_path, corpus):
    pipeline = fasttext_pipeline(corpus, "char1_5", embeddings.SupervisedConfig(dim=4, epochs=1, seed=5))
    path = tmp_path / "model.ndsl"
    save_model(pipeline, path)
    vocab = json.loads(path.read_bytes().split(b"\n")[1])["feature"]["vocab"]
    assert sorted(vocab) == ["keys", "orders"] and vocab["orders"] == [1, 5]
    assert vocab["keys"]["dtype"] == "<i8" and vocab["keys"]["shape"] == [pipeline.feature.vocab.size]
    assert pipeline.model.input_vectors.shape == (pipeline.feature.vocab.size, 4)


@pytest.mark.parametrize("mode", ["char_ngrams", "words"])
def test_fasttext_rows_must_match_features(tmp_path, corpus, mode):
    cfg = embeddings.SupervisedConfig(dim=4, epochs=1, seed=5)
    pipeline = fasttext_pipeline(corpus, "bow" if mode == "words" else "char1_5", cfg)
    vocab = pipeline.feature.vocab
    if mode == "words":
        pipeline.feature.vocab = features.WordVocabulary(vocab.words[:-1])
    else:
        pipeline.feature.vocab = features.NgramVocabulary((1, 5), vocab.keys[:-1])
    path = tmp_path / "model.ndsl"
    save_model(pipeline, path)
    with pytest.raises(ModelFormatError, match="fasttext parameters are sized for"):
        load_model(path)


def test_embedding_feature_roundtrip(tmp_path, corpus):
    emb_cfg = embeddings.EmbeddingConfig(dim=8, epochs=1, seed=6)
    matrix = embeddings.train_cbow(corpus, emb_cfg)
    feature = VectorFeature.of_embedding(matrix)
    x = feature.matrix(corpus)
    model = classifiers.train_logreg(x, label_indices(corpus), epochs=10)
    pipeline = PipelineModel("logreg", 6, model, feature)
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert np.array_equal(loaded.feature.vectors, matrix.composed)
    assert loaded.feature.vocab.words == matrix.vocab.words


def test_bow_feature_roundtrip(tmp_path, corpus):
    vocab = build_word_vocab(corpus)
    feature = VectorFeature("bow", True, vocab)
    x = count_matrix(corpus, vocab, normalize=True)
    model = classifiers.train_logreg(x, label_indices(corpus), epochs=10)
    pipeline = PipelineModel("logreg", 7, model, feature)
    loaded = roundtrip(pipeline, tmp_path, corpus)
    assert loaded.feature.vocab.words == vocab.words


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ndsl"
    path.write_text("NOTME\n{}", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_corrupt_payload_rejected(tmp_path):
    path = tmp_path / "bad.ndsl"
    path.write_text(f"{MAGIC}\n{{not json\n", encoding="utf-8")  # 16 bytes: aligned
    with pytest.raises(ModelFormatError, match="corrupt model header"):
        load_model(path)


def test_save_is_deterministic(tmp_path, corpus, ngram_feature):
    x = count_matrix(corpus, ngram_feature.vocab, normalize=True)
    model = classifiers.train_logreg(x, label_indices(corpus), epochs=5)
    pipeline = PipelineModel("logreg", 8, model, ngram_feature)
    a, b = tmp_path / "a.ndsl", tmp_path / "b.ndsl"
    save_model(pipeline, a)
    save_model(pipeline, b)
    assert a.read_bytes() == b.read_bytes()


class TestCompatibility:
    def test_cnn_rejects_vector_features(self):
        with pytest.raises(IncompatibleSpec):
            check_compatibility("cnn", "bow")

    def test_nb_rejects_embeddings(self):
        with pytest.raises(IncompatibleSpec):
            check_compatibility("nb", "skipgram")

    def test_fasttext_accepts_its_two_modes(self):
        check_compatibility("fasttext", "bow")
        check_compatibility("fasttext", "char1_5")
        with pytest.raises(IncompatibleSpec):
            check_compatibility("fasttext", "char2")

    def test_vector_models_accept_embeddings(self):
        for kind in ("knn", "logreg", "svm", "mlp"):
            check_compatibility(kind, "skipgram")

    def test_unknown_kind(self):
        with pytest.raises(IncompatibleSpec):
            check_compatibility("transformer", "char2")


# ---------------------------------------------------------------------------
# Batch labels against per-line scoring
# ---------------------------------------------------------------------------

#: Raw lines with the awkward cases: empty, nothing left after cleaning,
#: no in-vocabulary n-gram, capitals, and longer than a CNN's max_len.
EDGE_LINES = ["", "!!! 123", "xq", "Hej med dig, Þór!", "qz" * 3, "abc " * 20]


def reference_vector(text: str, feature: VectorFeature) -> np.ndarray:
    """The feature vector of one cleaned text, counted with a Counter."""
    if isinstance(feature.vocab, features.NgramVocabulary):
        hits = reference_columns(text, feature.vocab)
    else:
        words = feature.vocab.words
        hits = [words.index(w) for w in word_tokenize(text) if w in words]
    if feature.vectors is not None:
        return feature.vectors[hits].mean(axis=0) if hits else np.zeros(feature.dim)
    row = np.zeros(feature.dim)
    for column, count in Counter(hits).items():
        row[column] = count / len(hits) if feature.normalize else count
    return row


def reference_columns(text: str, vocab: features.NgramVocabulary) -> list[int]:
    """The column of each in-vocabulary n-gram of ``text``, order nmin
    first and each order left to right.

    Each n-character text is one gram, so ``gram_keys`` gives one key per gram.
    """
    nmin, nmax = vocab.orders
    column = {key: j for j, key in enumerate(vocab.keys.tolist())}
    keys = [key for n in range(nmin, nmax + 1)
            for key in gram_keys(extract_char_ngrams(text, n), n, n)[1].tolist()]
    return [column[k] for k in keys if k in column]


def reference_cnn_ids(model: neural.CnnModel, text: str) -> np.ndarray:
    ids = [j + 1 for j in reference_columns(text, model.vocab)]
    padded = np.zeros(model.max_len, dtype=np.int64)
    padded[: min(len(ids), model.max_len)] = ids[: model.max_len]
    return padded


def reference_label(pipeline: PipelineModel, raw: str) -> str:
    """The label of one line, scored on its own as a one-row input."""
    text = clean_sentence(raw)
    model = pipeline.model
    if pipeline.kind == "cnn":
        ids = reference_cnn_ids(model, text)[None]
        return LABELS[int(np.argmax(neural.cnn_forward(model, ids)))]
    x = reference_vector(text, pipeline.feature)
    return LABELS[int(np.argmax(model.scores(x[None])[0]))]


def vector_pipeline(kind, corpus, feature, **train_args):
    x = feature.matrix(corpus)
    y = label_indices(corpus)
    trainers = {
        "knn": classifiers.train_knn,
        "logreg": classifiers.train_logreg,
        "nb": classifiers.train_nb,
        "svm": classifiers.train_svm,
        "mlp": neural.mlp_train,
    }
    return PipelineModel(kind, 0, trainers[kind](x, y, **train_args), feature)


def batch_cases(corpus):
    char2 = VectorFeature("char2", True, build_ngram_vocab(corpus, (2, 2)))
    char3 = VectorFeature("char3", True, build_ngram_vocab(corpus, (3, 3)))
    raw2 = VectorFeature("char2", False, char2.vocab)
    raw3 = VectorFeature("char3", False, char3.vocab)
    bow = VectorFeature("bow", True, build_word_vocab(corpus))
    cbow = VectorFeature.of_embedding(
        embeddings.train_cbow(corpus, embeddings.EmbeddingConfig(dim=8, epochs=1)))
    skipgram = VectorFeature.of_embedding(
        embeddings.train_skipgram(corpus, embeddings.EmbeddingConfig(dim=8, epochs=1)))
    cnn_cfg = neural.TrainConfig(learning_rate=0.05, epochs=2, seed=4, max_len=16)
    return {
        "knn-char2": vector_pipeline("knn", corpus, char2, k=3),
        "knn-bow": vector_pipeline("knn", corpus, bow, k=3),
        "logreg-char2": vector_pipeline("logreg", corpus, char2, epochs=20),
        "logreg-char3": vector_pipeline("logreg", corpus, char3, epochs=20),
        "logreg-cbow": vector_pipeline("logreg", corpus, cbow, epochs=20),
        "logreg-skipgram": vector_pipeline("logreg", corpus, skipgram, epochs=20),
        "nb-char2": vector_pipeline("nb", corpus, raw2),
        "nb-char3": vector_pipeline("nb", corpus, raw3),
        "nb-char2-alpha0": vector_pipeline("nb", corpus, raw2, alpha=0.0),
        "nb-char3-alpha0": vector_pipeline("nb", corpus, raw3, alpha=0.0),
        "svm-char3": vector_pipeline("svm", corpus, char3, epochs=3, seed=2),
        "mlp-char2": vector_pipeline("mlp", corpus, char2, hidden=(16,),
                                     cfg=neural.TrainConfig(epochs=2, seed=3)),
        "cnn-char2": PipelineModel("cnn", 4, neural.cnn_train(
            corpus, cnn_cfg, gram=2, kernel=2, filters=4, embed_dim=4)),
        "fasttext-char1_5": fasttext_pipeline(
            corpus, "char1_5", embeddings.SupervisedConfig(dim=8, epochs=2, seed=5)),
        "fasttext-bow": fasttext_pipeline(
            corpus, "bow", embeddings.SupervisedConfig(dim=8, epochs=2, seed=5)),
    }


@pytest.fixture(scope="module")
def batch_pipelines(corpus):
    return batch_cases(corpus)


@pytest.mark.parametrize("case", [
    "knn-char2", "knn-bow", "logreg-char2", "logreg-char3", "logreg-cbow", "logreg-skipgram",
    "nb-char2", "nb-char3", "nb-char2-alpha0", "nb-char3-alpha0", "svm-char3", "mlp-char2",
    "cnn-char2", "fasttext-char1_5", "fasttext-bow",
])
def test_batch_labels_equal_per_line_reference(batch_pipelines, corpus, case):
    pipeline = batch_pipelines[case]
    lines = [s.text.upper() for s in corpus[::3]] + EDGE_LINES
    scores = pipeline.scores(lines)
    assert scores.shape == (len(lines), len(LABELS))
    labels = pipeline.labels(lines)
    assert labels == [reference_label(pipeline, line) for line in lines]
    assert labels == [pipeline.predict(line) for line in lines]
    assert pipeline.labels([]) == []


@pytest.mark.parametrize("mode,dim", [("cbow", 8), ("skipgram", 5), ("cbow", 1), ("skipgram", 1)])
def test_embedding_design_equals_per_line_sentence_embedding(corpus, mode, dim):
    """To 1e-12 relative, on more than one scoring block of lines, among
    them an empty line and lines with no known word: the batch weights
    each distinct word by its share of the line, the reference averages
    one row per occurrence."""
    train = embeddings.train_cbow if mode == "cbow" else embeddings.train_skipgram
    emb = train(corpus, embeddings.EmbeddingConfig(dim=dim, epochs=1, seed=dim))
    feature = VectorFeature.of_embedding(emb)
    texts = [s.text for s in corpus]
    lines = ["", "qqq zzz", " "] + [
        " ".join(texts[i % len(texts)].split()[i % 3 :] + ["xq"] * (i % 2))
        for i in range(modelio.BATCH_LINES + 5)
    ]
    x = feature.matrix(lines)
    expected = np.array([sentence_embedding(line, emb) for line in lines])
    assert x.shape == (len(lines), dim)
    np.testing.assert_allclose(x, expected, rtol=1e-12, atol=0)
    assert not x[:3].any() and x[3:].any(axis=1).all()


def test_batch_is_cut_into_blocks(batch_pipelines, corpus, monkeypatch):
    lines = [s.text for s in corpus] + EDGE_LINES
    for case in ("logreg-char3", "cnn-char2"):
        pipeline = batch_pipelines[case]
        whole = pipeline.labels(lines)
        monkeypatch.setattr(modelio, "BATCH_LINES", 7)
        assert pipeline.labels(lines) == whole
        monkeypatch.undo()


@pytest.mark.parametrize("case", [
    "logreg-cbow", "logreg-skipgram", "fasttext-bow", "fasttext-char1_5",
])
def test_feature_rows_equal_alone_and_in_blocks(batch_pipelines, corpus, monkeypatch, case):
    """A line's feature row, and a fastText line's mean embedding, has the
    same bytes scored alone as in a batch of several blocks, each gathered
    in runs of a few rows."""
    pipeline = batch_pipelines[case]
    texts = [clean_sentence(line) for line in [s.text for s in corpus] + EDGE_LINES]
    monkeypatch.setattr(features, "BATCH_LINES", 7)
    monkeypatch.setattr(modelio, "BATCH_LINES", 7)
    monkeypatch.setattr(features, "GATHER_BYTES", 4096)

    def rows(texts):
        x = pipeline.feature.matrix(texts)
        if pipeline.kind == "fasttext":
            return [features.to_dense(x), features.as_csr(x) @ pipeline.model.input_vectors]
        return [x]

    batch = rows(texts)
    for i, text in enumerate(texts):
        for alone, whole in zip(rows([text]), batch):
            assert alone[0].tobytes() == whole[i].tobytes(), text


@pytest.mark.parametrize("per_block", [1, 7])
def test_knn_search_is_cut_into_blocks(batch_pipelines, corpus, monkeypatch, per_block):
    lines = [s.text for s in corpus] + EDGE_LINES
    for case in ("knn-char2", "knn-bow"):  # dense and CSR query blocks
        pipeline = batch_pipelines[case]
        whole = pipeline.labels(lines)
        blocks = []

        def to_dense(x):
            blocks.append(x.shape[0])
            return features.to_dense(x)

        n, d = pipeline.model.vectors.shape
        monkeypatch.setattr(classifiers, "KNN_BLOCK_BYTES", 8 * max(n, d) * per_block)
        monkeypatch.setattr(classifiers, "to_dense", to_dense)
        assert pipeline.labels(lines) == whole
        assert blocks[:-1] == [per_block] * (len(blocks) - 1) and 1 <= blocks[-1] <= per_block
        monkeypatch.undo()


@pytest.mark.parametrize("per_block", [1, 7])
def test_nb_dense_rows_are_cut_into_blocks(batch_pipelines, corpus, monkeypatch, per_block):
    """With alpha 0 most lines hold an n-gram of log-likelihood -inf in some
    class, and are scored as dense blocks of ``per_block`` rows."""
    pipeline = batch_pipelines["nb-char2-alpha0"]
    lines = [s.text for s in corpus] + EDGE_LINES
    whole = pipeline.scores(lines)
    assert np.isneginf(whole).any(axis=1).sum() > 7
    d = pipeline.model.log_likelihoods.shape[1]
    monkeypatch.setattr(classifiers, "KNN_BLOCK_BYTES", 8 * len(LABELS) * d * per_block)
    assert pipeline.scores(lines).tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# The saved format of each kind
# ---------------------------------------------------------------------------

#: Per kind: the header's ``params`` keys, and its array descriptors in
#: offset order. Pinned, so that a field added to a model class cannot
#: change the file format unnoticed.
PARAMS_FORMAT = {
    "knn-char2": (
        ["k", "labels", "vectors"],
        ["vectors.indptr", "vectors.indices", "vectors.data", "labels"],
    ),
    "logreg-char2": (["epochs", "learning_rate", "theta"], ["theta"]),
    "logreg-skipgram": (["epochs", "learning_rate", "theta"], ["theta"]),
    "nb-char2": (["alpha", "log_likelihoods", "log_priors"], ["log_priors", "log_likelihoods"]),
    "svm-char3": (["biases", "epochs", "lam", "seed", "weights"], ["weights", "biases"]),
    "mlp-char2": (["biases", "weights"], ["weights[0]", "weights[1]", "biases[0]", "biases[1]"]),
    "cnn-char2": (
        ["conv_bias", "dense_b", "dense_w", "embeddings", "filters", "max_len", "vocab"],
        ["vocab.keys", "embeddings", "filters", "conv_bias", "dense_w", "dense_b"],
    ),
    "fasttext-char1_5": (
        ["input_vectors", "output_bias", "output_weights"],
        ["input_vectors", "output_weights", "output_bias"],
    ),
    "fasttext-bow": (
        ["input_vectors", "output_bias", "output_weights"],
        ["input_vectors", "output_weights", "output_bias"],
    ),
}


def array_paths(params: dict) -> list[str]:
    """The path of every array descriptor, by offset: ``key``, ``key[i]``
    inside a list, ``key.part`` inside a sparse matrix."""
    found = []

    def visit(path, value):
        if isinstance(value, list):
            for i, item in enumerate(value):
                visit(f"{path}[{i}]", item)
        elif isinstance(value, dict) and "offset" in value:
            found.append((value["offset"], path))
        elif isinstance(value, dict):
            for key, item in value.items():
                visit(f"{path}.{key}", item)

    for key, value in params.items():
        visit(key, value)
    return [path for _, path in sorted(found)]


@pytest.mark.parametrize("case", sorted(PARAMS_FORMAT))
def test_params_format_is_pinned(batch_pipelines, case, tmp_path):
    path = tmp_path / "model.ndsl"
    save_model(batch_pipelines[case], path)
    params = json.loads(path.read_bytes().split(b"\n")[1])["params"]
    assert (sorted(params), array_paths(params)) == PARAMS_FORMAT[case]


@pytest.mark.parametrize("case", ["logreg-char2", "cnn-char2"])
def test_ngram_vocabulary_saved_as_one_code_array(batch_pipelines, case, tmp_path):
    path = tmp_path / "model.ndsl"
    pipeline = batch_pipelines[case]
    save_model(pipeline, path)
    header = json.loads(path.read_bytes().split(b"\n")[1])
    owner = "params" if case.startswith("cnn") else "feature"
    vocab = header[owner]["vocab"]
    expected = getattr(pipeline, owner.replace("params", "model")).vocab
    assert sorted(vocab) == ["keys", "orders"] and vocab["orders"] == [2, 2]
    assert vocab["keys"]["dtype"] == "<i8" and vocab["keys"]["shape"] == [expected.size]
    loaded = load_model(path)
    got = getattr(loaded, owner.replace("params", "model")).vocab
    assert got.keys.tobytes() == expected.keys.tobytes()
