"""Versioned model container: save and load every trained model kind.

File layout: a first line holding the magic "NDSL1", then one JSON
document. Parameter arrays are embedded as base64 of little-endian
raw bytes, so a save/load round trip reproduces predictions bit for
bit. The feature pipeline (vocabulary or embedding) travels inside
the same file.
"""

from __future__ import annotations

import base64
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classifiers, embeddings, neural
from .corpus import LABELS, Sentence, clean_sentence, decode_utf8
from .errors import IncompatibleSpec, ModelFormatError
from .features import CsrMatrix, NgramVocabulary, WordVocabulary, count_matrix, texts_of

MAGIC = "NDSL1"

VECTOR_FEATURES = ("char1", "char2", "char3", "bow", "cbow", "skipgram")
#: CNN consumes token sequences of these orders; others consume vectors.
MODEL_FEATURES = {
    "knn": VECTOR_FEATURES,
    "logreg": VECTOR_FEATURES,
    "nb": ("char1", "char2", "char3", "bow"),  # needs non-negative counts
    "svm": VECTOR_FEATURES,
    "mlp": VECTOR_FEATURES,
    "cnn": ("char1", "char2", "char3"),
    "fasttext": ("bow", "char1_5"),
}


def _enc(array: np.ndarray) -> dict:
    arr = np.ascontiguousarray(array)
    code = "<i8" if arr.dtype.kind in "iu" else "<f8"
    arr = arr.astype(code)
    return {
        "shape": list(arr.shape),
        "dtype": code,
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _dec(obj: dict) -> np.ndarray:
    if obj["dtype"] not in ("<i8", "<f8"):
        raise ModelFormatError(f"unsupported array dtype {obj['dtype']!r}")
    data = base64.b64decode(obj["data"])
    shape = [int(side) for side in obj["shape"]]
    if min(shape, default=0) < 0 or len(data) != 8 * math.prod(shape):
        raise ModelFormatError(f"array of shape {shape} does not match its {len(data)} data bytes")
    return np.frombuffer(data, dtype=obj["dtype"]).reshape(shape).copy()


@dataclass
class QueryEmbedding:
    """Composed per-word vectors, the query-time face of an EmbeddingMatrix."""

    mode: str
    dim: int
    words: list[str]
    word_index: dict[str, int]
    composed: np.ndarray

    @classmethod
    def from_matrix(cls, emb: embeddings.EmbeddingMatrix) -> "QueryEmbedding":
        return cls(emb.mode, emb.dim, list(emb.words), dict(emb.word_index),
                   emb.composed.copy())


@dataclass
class VectorFeature:
    """Text -> feature vector transform bundled with vector classifiers."""

    type: str
    normalize: bool = True
    ngram_vocab: NgramVocabulary | None = None
    word_vocab: WordVocabulary | None = None
    embedding: QueryEmbedding | None = None

    @property
    def dim(self) -> int:
        if self.ngram_vocab is not None:
            return self.ngram_vocab.size
        if self.word_vocab is not None:
            return self.word_vocab.size
        return self.embedding.dim

    def matrix(self, texts: Iterable[Sentence | str]) -> np.ndarray | CsrMatrix:
        """Design matrix of sentences or cleaned strings, one row each.

        Counts come from :func:`count_matrix`; embedding features stack
        one sentence vector per text.
        """
        vocab = self.ngram_vocab if self.ngram_vocab is not None else self.word_vocab
        if vocab is not None:
            return count_matrix(texts, vocab, self.normalize)
        rows = [embeddings.sentence_embedding(t, self.embedding) for t in texts_of(texts)]
        return np.array(rows).reshape(len(rows), self.dim)


#: Lines scored per block, so that design matrices and CNN activations
#: stay bounded whatever the input size. A char2 block takes 11 MB dense.
BATCH_LINES = 1024


@dataclass
class PipelineModel:
    """A trained classifier plus whatever it needs to map text to inputs.

    Every kind labels a batch of lines the same way: clean every line,
    featurize the batch, score it as one n x 6 matrix, and take each row's
    argmax. A line with no usable feature scores an empty input: the zero
    vector, or an all-padding CNN sequence.
    """

    kind: str
    seed: int
    model: object
    feature: VectorFeature | None = None

    def scores(self, raw_lines: Sequence[str]) -> np.ndarray:
        """n x 6 scores of raw text lines, ``BATCH_LINES`` lines at a time."""
        texts = [clean_sentence(line) for line in raw_lines]
        scores = np.empty((len(texts), len(LABELS)))
        for start in range(0, len(texts), BATCH_LINES):
            block = texts[start : start + BATCH_LINES]
            scores[start : start + len(block)] = self._block_scores(block)
        return scores

    def _block_scores(self, texts: list[str]) -> np.ndarray:
        if self.feature is None:  # cnn and fasttext featurize text themselves
            return self.model.scores(texts)
        return self.model.scores(self.feature.matrix(texts))

    def labels(self, raw_lines: Sequence[str]) -> list[str]:
        """One label per raw text line: the argmax of its scores."""
        return [LABELS[k] for k in self.scores(raw_lines).argmax(axis=1)]

    def predict(self, raw_text: str) -> str:
        """The label of one raw text line."""
        return self.labels([raw_text])[0]


def check_compatibility(kind: str, feature_type: str) -> None:
    allowed = MODEL_FEATURES.get(kind)
    if allowed is None:
        raise IncompatibleSpec(f"unknown model kind {kind!r}")
    if feature_type not in allowed:
        raise IncompatibleSpec(
            f"model {kind!r} cannot use features {feature_type!r}; "
            f"allowed: {', '.join(allowed)}"
        )


def _feature_payload(feature: VectorFeature | None) -> dict | None:
    if feature is None:
        return None
    payload = {"type": feature.type, "normalize": feature.normalize}
    if feature.ngram_vocab is not None:
        ordered = sorted(feature.ngram_vocab.entries, key=feature.ngram_vocab.entries.get)
        payload["ngram_n"] = feature.ngram_vocab.n
        payload["vocab"] = ordered
    elif feature.word_vocab is not None:
        ordered = sorted(feature.word_vocab.entries, key=feature.word_vocab.entries.get)
        payload["vocab"] = ordered
    else:
        payload["embedding"] = {
            "mode": feature.embedding.mode,
            "dim": feature.embedding.dim,
            "words": feature.embedding.words,
            "composed": _enc(feature.embedding.composed),
        }
    return payload


def _feature_from_payload(payload: dict | None) -> VectorFeature | None:
    if payload is None:
        return None
    kind = payload["type"]
    if "ngram_n" in payload:
        vocab = NgramVocabulary(
            payload["ngram_n"], {g: i for i, g in enumerate(payload["vocab"])}
        )
        return VectorFeature(kind, payload["normalize"], ngram_vocab=vocab)
    if "vocab" in payload:
        vocab = WordVocabulary(
            {w: rank for rank, w in enumerate(payload["vocab"], start=1)}
        )
        return VectorFeature(kind, payload["normalize"], word_vocab=vocab)
    emb = payload["embedding"]
    query = QueryEmbedding(
        emb["mode"], emb["dim"], list(emb["words"]),
        {w: i for i, w in enumerate(emb["words"])}, _dec(emb["composed"]),
    )
    return VectorFeature(kind, payload["normalize"], embedding=query)


def _params_payload(kind: str, model: object) -> dict:
    if kind == "knn":
        return {"k": model.k, "vectors": _enc(model.vectors), "labels": _enc(model.labels)}
    if kind == "logreg":
        return {
            "theta": _enc(model.theta),
            "learning_rate": model.learning_rate,
            "epochs": model.epochs,
        }
    if kind == "nb":
        return {
            "log_priors": _enc(model.log_priors),
            "log_likelihoods": _enc(model.log_likelihoods),
            "alpha": model.alpha,
        }
    if kind == "svm":
        return {
            "weights": _enc(model.weights),
            "biases": _enc(model.biases),
            "lam": model.lam,
            "epochs": model.epochs,
            "seed": model.seed,
        }
    if kind == "mlp":
        return {
            "weights": [_enc(w) for w in model.weights],
            "biases": [_enc(b) for b in model.biases],
        }
    if kind == "cnn":
        ordered = sorted(model.vocab, key=model.vocab.get)
        return {
            "gram": model.gram,
            "vocab": ordered,
            "embeddings": _enc(model.embeddings),
            "filters": _enc(model.filters),
            "conv_bias": _enc(model.conv_bias),
            "dense_w": _enc(model.dense_w),
            "dense_b": _enc(model.dense_b),
            "max_len": model.max_len,
        }
    if kind == "fasttext":
        return {
            "feature_mode": model.feature_mode,
            "ngram_min": model.ngram_min,
            "ngram_max": model.ngram_max,
            "features": model.features,
            "input_vectors": _enc(model.input_vectors),
            "output_weights": _enc(model.output_weights),
            "output_bias": _enc(model.output_bias),
        }
    raise ModelFormatError(f"cannot serialize model kind {kind!r}")


def _model_from_params(kind: str, params: dict) -> object:
    if kind == "knn":
        return classifiers.KnnModel(params["k"], _dec(params["vectors"]), _dec(params["labels"]))
    if kind == "logreg":
        return classifiers.LogRegModel(
            _dec(params["theta"]), params["learning_rate"], params["epochs"]
        )
    if kind == "nb":
        return classifiers.NbModel(
            _dec(params["log_priors"]), _dec(params["log_likelihoods"]), params["alpha"]
        )
    if kind == "svm":
        return classifiers.SvmModel(
            _dec(params["weights"]), _dec(params["biases"]),
            params["lam"], params["epochs"], params["seed"],
        )
    if kind == "mlp":
        return neural.MlpModel(
            [_dec(w) for w in params["weights"]],
            [_dec(b) for b in params["biases"]],
        )
    if kind == "cnn":
        vocab = {g: i for i, g in enumerate(params["vocab"])}
        return neural.CnnModel(
            params["gram"], vocab, _dec(params["embeddings"]),
            _dec(params["filters"]), _dec(params["conv_bias"]),
            _dec(params["dense_w"]), _dec(params["dense_b"]), params["max_len"],
        )
    if kind == "fasttext":
        features = list(params["features"])
        return embeddings.FastTextClassifier(
            params["feature_mode"], params["ngram_min"], params["ngram_max"],
            features, {f: i for i, f in enumerate(features)},
            _dec(params["input_vectors"]), _dec(params["output_weights"]),
            _dec(params["output_bias"]),
        )
    raise ModelFormatError(f"cannot load model kind {kind!r}")


#: Width of the feature vectors each vector model kind takes.
_INPUT_WIDTH = {
    "knn": lambda m: m.vectors.shape[1],
    "logreg": lambda m: m.theta.shape[1] - 1,
    "nb": lambda m: m.log_likelihoods.shape[1],
    "svm": lambda m: m.weights.shape[1],
    "mlp": lambda m: m.weights[0].shape[1],
}


def _check_fit(kind: str, model: object, feature: VectorFeature | None) -> None:
    """Raise ModelFormatError unless the model's parameters fit its features.

    A vector model must take vectors as wide as its feature's; a CNN or
    fastText model must hold one embedding row per vocabulary entry (plus
    the CNN's padding row).
    """
    if kind == "cnn":
        model.ngram_vocab  # checks the n-gram vocabulary
        have, want = model.embeddings.shape[0], len(model.vocab) + 1
    elif kind == "fasttext":
        have, want = model.input_vectors.shape[0], len(model.features)
    elif feature is None:
        raise ModelFormatError(f"{kind} model lacks its feature transform")
    else:
        have, want = _INPUT_WIDTH[kind](model), feature.dim
    if have != want:
        raise ModelFormatError(f"{kind} parameters are sized for {have}, its features for {want}")


def save_model(pipeline: PipelineModel, path: str | Path) -> None:
    payload = {
        "kind": pipeline.kind,
        "seed": pipeline.seed,
        "labels": list(LABELS),
        "feature": _feature_payload(pipeline.feature),
        "params": _params_payload(pipeline.kind, pipeline.model),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    Path(path).write_text(f"{MAGIC}\n{body}\n", encoding="utf-8", newline="\n")


def load_model(path: str | Path) -> PipelineModel:
    raw = decode_utf8(Path(path).read_bytes(), str(path))
    first, _, rest = raw.partition("\n")
    if first != MAGIC:
        raise ModelFormatError(f"{path}: not a {MAGIC} model file")
    try:
        payload = json.loads(rest)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: corrupt model payload") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: model payload is not a JSON object")
    if payload.get("labels") != list(LABELS):
        raise ModelFormatError(f"{path}: label set does not match this build")
    try:
        feature = _feature_from_payload(payload["feature"])
        model = _model_from_params(payload["kind"], payload["params"])
        _check_fit(payload["kind"], model, feature)
        return PipelineModel(payload["kind"], payload["seed"], model, feature)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model payload lacks key {exc}") from exc
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:  # wrong JSON types or array ranks, bad base64
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc
