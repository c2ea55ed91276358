"""Versioned model container: save and load every trained model kind.

File layout (``NDSL3``), after numpy's ``.npy`` format:

- line 1: the magic ``NDSL3``;
- line 2: the header, one JSON object with sorted keys. It holds the
  model kind, the feature pipeline (``VectorFeature``, or null for the CNN
  and fastText) and the model's ``params``. The feature and the params
  are the fields of their classes (``MODEL_CLASSES`` for a model) but the
  training records, the fields with a default factory. An array field is
  saved as one ``{"dtype", "shape", "offset"}`` descriptor (null for an
  absent one), a list of arrays as a list of them, a ``CsrMatrix`` (KNN's
  training vectors) as ``{"shape", "indptr", "indices", "data"}`` with one
  descriptor for each of its three arrays, and a scalar as itself. Every
  ``vocab``, a feature's, the CNN's or fastText's, has one codec: an
  ``NgramVocabulary`` is an ``{"orders", "keys"}`` object, ``[nmin,
  nmax]`` and one ``<i8`` descriptor of its n-gram keys in column order,
  and a ``WordVocabulary`` the list of its words in column order.
  Spaces pad the header before its LF so that the array section starts
  at a multiple of 8 bytes;
- the array section: each array's raw little-endian ``<f8`` or ``<i8``
  bytes, back to back: the feature pipeline's, then the model's in
  field order. A descriptor's offset counts from the start of the
  section.

Loading reads the file into one buffer and makes every array a view of
it, writable and 8-byte aligned, so a save/load round trip reproduces
predictions bit for bit. Files of the older ``NDSL1`` and ``NDSL2``
layouts are refused; retrain to get a current file.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import classifiers, embeddings, neural
from .corpus import LABELS, Sentence, clean_sentence
from .errors import IncompatibleSpec, ModelFormatError
from .features import (
    CsrMatrix,
    NgramVocabulary,
    Vocabulary,
    WordVocabulary,
    count_matrix,
    ngram_hits,
    texts_of,
)

MAGIC = "NDSL3"
#: Array element types; both are 8 bytes wide.
DTYPES = ("<f8", "<i8")
#: Alignment of the array section and of every array in it, in bytes.
ALIGN = 8

VECTOR_FEATURES = ("char1", "char2", "char3", "bow", "cbow", "skipgram")
#: n-gram orders (nmin, nmax) of each character feature; the others read words.
NGRAM_FEATURES = {"char1": (1, 1), "char2": (2, 2), "char3": (3, 3), "char1_5": (1, 5)}
#: Features that give each text the mean of its words' trained vectors.
EMBEDDING_FEATURES = ("cbow", "skipgram")
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


def _enc(arrays: list[np.ndarray], array: np.ndarray) -> dict:
    """Descriptor of ``array``, which is appended to the array section."""
    code = "<i8" if array.dtype.kind in "iu" else "<f8"
    arr = np.ascontiguousarray(array, dtype=code)
    offset = sum(a.nbytes for a in arrays)
    arrays.append(arr)
    return {"dtype": code, "shape": list(arr.shape), "offset": offset}


class _Section:
    """The array section of a model file being loaded.

    Hands out one view per descriptor and counts the bytes they cover.
    """

    def __init__(self, data: memoryview):
        self.data = data
        self.used = 0

    def check_used(self) -> None:
        """Raise ModelFormatError unless the arrays cover the whole section."""
        if self.used != len(self.data):
            raise ModelFormatError(
                f"array section holds {len(self.data)} bytes, its arrays {self.used}"
            )


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def _dec(section: _Section, obj: dict) -> np.ndarray:
    dtype, shape, offset = obj["dtype"], obj["shape"], obj["offset"]
    if dtype not in DTYPES:
        raise ModelFormatError(f"unsupported array dtype {dtype!r}")
    if not isinstance(shape, list) or not all(map(_is_count, shape)):
        raise ModelFormatError(f"array shape {shape!r} is not a list of sizes")
    if not _is_count(offset) or offset % ALIGN:
        raise ModelFormatError(f"array offset {offset!r} is not a non-negative multiple of {ALIGN}")
    count = math.prod(shape)
    if offset + 8 * count > len(section.data):
        raise ModelFormatError(
            f"array of shape {shape} at offset {offset} runs past the end of "
            f"the {len(section.data)}-byte array section"
        )
    section.used += 8 * count
    return np.frombuffer(section.data, dtype, count, offset).reshape(shape)


@dataclass
class VectorFeature:
    """Text -> feature vector transform bundled with vector classifiers.

    A count feature (char1-3, bow) counts the columns of ``vocab``; an
    embedding feature (cbow, skipgram) holds the composed vector of each
    word of ``vocab`` in ``vectors``, row j for column j.
    """

    type: str
    normalize: bool
    vocab: Vocabulary
    vectors: np.ndarray | None = None

    @classmethod
    def of_embedding(cls, emb: embeddings.EmbeddingMatrix) -> "VectorFeature":
        """The feature of a trained embedding: its words and composed vectors."""
        return cls(emb.mode, False, emb.vocab, emb.composed)

    @property
    def dim(self) -> int:
        return self.vocab.size if self.vectors is None else self.vectors.shape[1]

    def matrix(self, texts: Iterable[Sentence | str], sparse: bool = False) -> np.ndarray | CsrMatrix:
        """Design matrix of sentences or cleaned strings, one row each.

        Counts come from :func:`count_matrix`, as CSR whatever their
        density when ``sparse`` is set; embedding features give each text
        its dense sentence vector, the mean of its known words' vectors,
        equal bit for bit to :func:`embeddings.sentence_embedding`.
        """
        if self.vectors is None:
            return count_matrix(texts, self.vocab, self.normalize, sparse)
        texts = texts_of(texts)
        return embeddings._line_means(self.vectors, *ngram_hits(texts, self.vocab), len(texts))


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


#: The model class of each kind.
MODEL_CLASSES = {
    "knn": classifiers.KnnModel,
    "logreg": classifiers.LogRegModel,
    "nb": classifiers.NbModel,
    "svm": classifiers.SvmModel,
    "mlp": neural.MlpModel,
    "cnn": neural.CnnModel,
    "fasttext": embeddings.FastTextClassifier,
}


def _as_is(_, value):
    return value


def _enc_list(arrays: list[np.ndarray], values: list[np.ndarray]) -> list[dict]:
    return [_enc(arrays, v) for v in values]


def _dec_list(section: _Section, descriptors: list[dict]) -> list[np.ndarray]:
    return [_dec(section, d) for d in descriptors]


def _enc_csr(arrays: list[np.ndarray], matrix: CsrMatrix) -> dict:
    return {"shape": list(matrix.shape), **{
        key: _enc(arrays, getattr(matrix, key)) for key in ("indptr", "indices", "data")
    }}


def _dec_csr(section: _Section, obj: dict) -> CsrMatrix:
    """A CSR matrix, checked to be one: the arrays' types and sizes fit the
    shape, ``indptr`` runs from 0 to nnz without falling, and each row's
    columns ascend within 0..d-1."""
    shape = obj["shape"]
    if not isinstance(shape, list) or len(shape) != 2 or not all(map(_is_count, shape)):
        raise ModelFormatError(f"sparse matrix shape {shape!r} is not two sizes")
    n, d = shape
    indptr, indices, data = (_dec(section, obj[key]) for key in ("indptr", "indices", "data"))
    if (indptr.dtype.kind, indices.dtype.kind, data.dtype.kind) != ("i", "i", "f"):
        raise ModelFormatError("sparse matrix arrays are not int64 indptr and indices, float64 data")
    if indptr.shape != (n + 1,) or data.ndim != 1 or indices.shape != data.shape:
        raise ModelFormatError(f"sparse matrix arrays do not fit its shape {shape}")
    if indptr[0] != 0 or indptr[-1] != data.size or (np.diff(indptr) < 0).any():
        raise ModelFormatError(f"sparse matrix indptr does not run from 0 to {data.size} "
                               "without falling")
    if data.size and not 0 <= indices.min() <= indices.max() < d:
        raise ModelFormatError(f"sparse matrix column indices are not in 0..{d - 1}")
    rising = np.diff(indices) > 0
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < data.size)] - 1] = True  # a row may start lower
    if not rising.all():
        raise ModelFormatError("sparse matrix column indices do not ascend within a row")
    return CsrMatrix((n, d), indptr, indices, data)


def _enc_optional(arrays: list[np.ndarray], array: np.ndarray | None) -> dict | None:
    return None if array is None else _enc(arrays, array)


def _dec_optional(section: _Section, obj: dict | None) -> np.ndarray | None:
    return None if obj is None else _dec(section, obj)


def _enc_vocab(arrays: list[np.ndarray], vocab: Vocabulary) -> dict | list[str]:
    if isinstance(vocab, WordVocabulary):
        return sorted(vocab.entries, key=vocab.entries.get)
    return {"orders": list(vocab.orders), "keys": _enc(arrays, vocab.keys)}


def _dec_vocab(section: _Section, obj: dict | list) -> Vocabulary:
    """The vocabulary, which checks its orders, keys or words on construction."""
    if isinstance(obj, list):
        return WordVocabulary.from_ranked(obj)
    if not isinstance(obj, dict):
        raise ModelFormatError("vocabulary is neither an {orders, keys} object nor a word list")
    return NgramVocabulary(tuple(obj["orders"]), _dec(section, obj["keys"]))


#: (encode, decode) of a saved field, by its annotation as written. An
#: annotation missing here fails at import, not in a saved file.
_FIELD_CODECS = {
    "int": (_as_is, _as_is),
    "float": (_as_is, _as_is),
    "bool": (_as_is, _as_is),
    "str": (_as_is, _as_is),
    "np.ndarray": (_enc, _dec),
    "np.ndarray | None": (_enc_optional, _dec_optional),
    "list[np.ndarray]": (_enc_list, _dec_list),
    "CsrMatrix": (_enc_csr, _dec_csr),
    "Vocabulary": (_enc_vocab, _dec_vocab),
}


def _saved_fields(cls: type) -> list[tuple]:
    """(name, encode, decode) of each saved field of ``cls``, in declaration
    order: every field but the training records (a default factory)."""
    return [(f.name, *_FIELD_CODECS[f.type]) for f in fields(cls) if f.default_factory is MISSING]


#: The saved fields of each model kind and of a feature, listed once, here,
#: so that loading a model inspects no class.
_PARAM_FIELDS = {kind: _saved_fields(cls) for kind, cls in MODEL_CLASSES.items()}
_FEATURE_FIELDS = _saved_fields(VectorFeature)


def _payload(arrays: list[np.ndarray], saved: list[tuple], obj: object) -> dict:
    return {name: encode(arrays, getattr(obj, name)) for name, encode, _ in saved}


def _construct(section: _Section, saved: list[tuple], cls: type, payload: dict) -> object:
    return cls(**{name: decode(section, payload[name]) for name, _, decode in saved})


#: Width of the feature vectors each vector model kind takes.
_INPUT_WIDTH = {
    "knn": lambda m: m.vectors.shape[1],
    "logreg": lambda m: m.theta.shape[1] - 1,
    "nb": lambda m: m.log_likelihoods.shape[1],
    "svm": lambda m: m.weights.shape[1],
    "mlp": lambda m: m.weights[0].shape[1],
}


def _check_vocab(what: str, vocab: Vocabulary, features: Sequence[str]) -> None:
    """Raise ModelFormatError unless ``vocab`` holds the n-gram orders of one
    of ``features``, or words when one of them is not a character feature."""
    def holding(orders):
        return "words" if orders is None else f"n-grams of orders {orders[0]}..{orders[1]}"

    allowed = [NGRAM_FEATURES.get(name) for name in features]
    have = vocab.orders if isinstance(vocab, NgramVocabulary) else None
    if have not in allowed:
        raise ModelFormatError(f"{what} holds {holding(have)}, "
                               f"not {' or '.join(map(holding, allowed))}")


def _check_feature(feature: VectorFeature) -> None:
    """Raise ModelFormatError unless the feature's type is known, its
    vocabulary holds the type's n-gram orders (words for bow and the
    embeddings), and it holds one vector per word just when it embeds."""
    kind, vectors = feature.type, feature.vectors
    if kind not in VECTOR_FEATURES:
        raise ModelFormatError(f"feature type {kind!r} is unknown")
    _check_vocab(f"{kind} feature", feature.vocab, [kind])
    if (vectors is None) == (kind in EMBEDDING_FEATURES):
        what = "lacks" if vectors is None else "holds"
        raise ModelFormatError(f"{kind} feature {what} word vectors")
    if vectors is not None and (vectors.ndim != 2 or len(vectors) != feature.vocab.size):
        raise ModelFormatError(f"{kind} vectors of shape {vectors.shape} do not fit "
                               f"its {feature.vocab.size} words")


def _check_fit(kind: str, model: object, feature: VectorFeature | None) -> None:
    """Raise ModelFormatError unless the model's parameters fit its features.

    A vector model must have a feature that passes :func:`_check_feature`
    and take vectors as wide as its feature's; a CNN or fastText model
    reads text itself and must have none. A CNN or fastText model must
    hold one embedding row per column of its vocabulary (plus the CNN's
    padding row). A CNN's vocabulary holds n-grams and its sequences are
    as long as its filters at least; a fastText vocabulary holds bow's
    words or char1_5's n-grams, and its output layer maps its rows' width
    to the six labels. A KNN model must hold one label index per training
    vector, and every training vector's squared norm must be finite.
    """
    if (feature is None) != (kind in ("cnn", "fasttext")):
        raise ModelFormatError(f"{kind} model {'lacks' if feature is None else 'holds'} "
                               "a feature transform")
    if feature is not None:
        _check_feature(feature)
    if kind == "knn":
        labels = model.labels
        if labels.dtype.kind != "i" or labels.shape != model.vectors.shape[:1]:
            raise ModelFormatError("knn labels are not one integer per training vector")
        if not _is_count(model.k) or not 1 <= model.k <= labels.size:
            raise ModelFormatError(f"knn k {model.k!r} is not in 1..{labels.size}")
        if not 0 <= labels.min() <= labels.max() < len(LABELS):
            raise ModelFormatError(f"knn labels are not label indices 0..{len(LABELS) - 1}")
        if not np.isfinite(model.vectors.row_sq_norms()).all():
            raise ModelFormatError("knn training vectors have a squared norm that is not finite")
    if kind == "cnn":
        if isinstance(model.vocab, WordVocabulary):
            raise ModelFormatError("cnn vocabulary holds words, not n-grams")
        if not _is_count(model.max_len) or model.max_len < model.filters.shape[1]:
            raise ModelFormatError(f"cnn max_len {model.max_len!r} is shorter than its filters")
        have, want = model.embeddings.shape[0], model.vocab.size + 1
    elif kind == "fasttext":
        _check_vocab("fasttext vocabulary", model.vocab, MODEL_FEATURES["fasttext"])
        if (model.output_weights.shape != (model.input_vectors.shape[1], len(LABELS))
                or model.output_bias.shape != (len(LABELS),)):
            raise ModelFormatError("fasttext output layer does not fit its input vectors")
        have, want = model.input_vectors.shape[0], model.vocab.size
    else:
        have, want = _INPUT_WIDTH[kind](model), feature.dim
    if have != want:
        raise ModelFormatError(f"{kind} parameters are sized for {have}, its features for {want}")


def save_model(pipeline: PipelineModel, path: str | Path) -> None:
    if pipeline.kind not in _PARAM_FIELDS:
        raise ModelFormatError(f"cannot serialize model kind {pipeline.kind!r}")
    arrays: list[np.ndarray] = []
    payload = {
        "kind": pipeline.kind,
        "seed": pipeline.seed,
        "labels": list(LABELS),
        "feature": None if pipeline.feature is None else _payload(
            arrays, _FEATURE_FIELDS, pipeline.feature),
        "params": _payload(arrays, _PARAM_FIELDS[pipeline.kind], pipeline.model),
    }
    header = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    head = f"{MAGIC}\n{header}".encode("utf-8")
    head += b" " * (-(len(head) + 1) % ALIGN) + b"\n"
    with open(path, "wb") as fh:
        fh.write(head)
        for arr in arrays:
            fh.write(memoryview(arr))


def _read_container(data: bytearray) -> tuple[dict, _Section]:
    """The JSON header and the array section of a model file's bytes."""
    magic = f"{MAGIC}\n".encode("ascii")
    if not data.startswith(magic):
        if data[:6] in (b"NDSL1\n", b"NDSL2\n"):
            raise ModelFormatError(
                f"{data[:5].decode()} model files are no longer read; retrain with this version"
            )
        raise ModelFormatError(f"not an {MAGIC} model file")
    end = data.find(b"\n", len(magic))
    if end < 0:
        raise ModelFormatError("model header has no line end")
    if (end + 1) % ALIGN:
        raise ModelFormatError(f"array section does not start at a multiple of {ALIGN} bytes")
    try:
        payload = json.loads(data[len(magic) : end].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(
            f"model header is not valid UTF-8 (byte offset {len(magic) + exc.start})"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"corrupt model header ({exc})") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError("model header is not a JSON object")
    return payload, _Section(memoryview(data)[end + 1 :])


def load_model(path: str | Path) -> PipelineModel:
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data) :]  # the file may have shrunk since fstat
    try:
        payload, section = _read_container(data)
        if payload.get("labels") != list(LABELS):
            raise ModelFormatError("label set does not match this build")
        kind, features = payload["kind"], payload["feature"]
        if kind not in MODEL_CLASSES:
            raise ModelFormatError(f"cannot load model kind {kind!r}")
        feature = None if features is None else _construct(
            section, _FEATURE_FIELDS, VectorFeature, features)
        model = _construct(section, _PARAM_FIELDS[kind], MODEL_CLASSES[kind], payload["params"])
        section.check_used()
        _check_fit(kind, model, feature)
        return PipelineModel(kind, payload["seed"], model, feature)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model payload lacks key {exc}") from exc
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:  # wrong JSON types or array ranks
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc
