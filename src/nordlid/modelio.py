"""Versioned model container: save and load every trained model kind.

File layout (``NDSL4``), after numpy's ``.npy`` format:

- line 1: the magic ``NDSL4``;
- line 2: the header, one JSON object with sorted keys. It holds the
  model kind, the feature pipeline (``VectorFeature``, or null for the
  CNN, which reads text itself) and the model's ``params``. The feature
  and the params are the fields of their classes (``MODEL_KINDS`` names
  a model's) but the training records, the fields with a default
  factory. An array field is
  saved as one ``{"dtype", "shape", "offset"}`` descriptor (null for an
  absent one), a list of arrays as a list of them, a ``CsrMatrix`` (KNN's
  training vectors) as ``{"shape", "indptr", "indices", "data"}`` with one
  descriptor for each of its three arrays, and a scalar as itself. Every
  ``vocab``, a feature's or the CNN's, has one codec: an
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
predictions bit for bit. Files of the older ``NDSL1``, ``NDSL2`` and
``NDSL3`` layouts are refused; retrain to get a current file.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import classifiers, embeddings, neural
from .corpus import LABELS, Sentence, clean_sentence
from .errors import IncompatibleSpec, ModelFormatError
from .features import (
    BATCH_LINES,
    CsrMatrix,
    NgramVocabulary,
    Vocabulary,
    WordVocabulary,
    count_matrix,
)

MAGIC = "NDSL4"
#: Array element types; both are 8 bytes wide.
DTYPES = ("<f8", "<i8")
#: Alignment of the array section and of every array in it, in bytes.
ALIGN = 8

VECTOR_FEATURES = ("char1", "char2", "char3", "bow", "cbow", "skipgram")
#: n-gram orders (nmin, nmax) of each character feature; the others read words.
NGRAM_FEATURES = {"char1": (1, 1), "char2": (2, 2), "char3": (3, 3), "char1_5": (1, 5)}
#: Features that give each text the mean of its words' trained vectors.
EMBEDDING_FEATURES = ("cbow", "skipgram")


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
    """Text -> feature vector transform bundled with every model but the CNN.

    A count feature (char1-3, char1_5, bow) counts the columns of
    ``vocab``; an embedding feature (cbow, skipgram) holds the composed
    vector of each word of ``vocab`` in ``vectors``, row j for column j.
    """

    type: str
    normalize: bool
    vocab: Vocabulary
    vectors: np.ndarray | None = None

    @classmethod
    def of_embedding(cls, emb: embeddings.EmbeddingMatrix) -> "VectorFeature":
        """The feature of a trained embedding: its words and composed vectors."""
        return cls(emb.mode, True, emb.vocab, emb.composed)

    @property
    def dim(self) -> int:
        return self.vocab.size if self.vectors is None else self.vectors.shape[1]

    def matrix(self, texts: Iterable[Sentence | str], sparse: bool = False) -> np.ndarray | CsrMatrix:
        """Design matrix of sentences or cleaned strings, one row each.

        Counts come from :func:`count_matrix`, as CSR whatever their
        density when ``sparse`` is set. An embedding feature multiplies
        its CSR counts by ``vectors``, which for normalised counts gives
        each text the mean of its known words' vectors, dense.
        """
        if self.vectors is None:
            return count_matrix(texts, self.vocab, self.normalize, sparse)
        return count_matrix(texts, self.vocab, self.normalize, sparse=True) @ self.vectors


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
            # the CNN, which has no feature, reads token sequences
            x = block if self.feature is None else self.feature.matrix(block)
            scores[start : start + len(block)] = self.model.scores(x)
        return scores

    def labels(self, raw_lines: Sequence[str]) -> list[str]:
        """One label per raw text line: the argmax of its scores."""
        return [LABELS[k] for k in self.scores(raw_lines).argmax(axis=1)]

    def predict(self, raw_text: str) -> str:
        """The label of one raw text line."""
        return self.labels([raw_text])[0]


def _given(value, default):
    return default if value is None else value


def train_config(flags, learning_rate: float, epochs: int) -> neural.TrainConfig:
    """The flags' ``neural.TrainConfig``; unset ``--lr``/``--epochs`` take the given defaults."""
    return neural.TrainConfig(_given(flags.lr, learning_rate), _given(flags.epochs, epochs),
                              flags.batch_size, flags.seed, flags.max_len)


def _check_knn(model: classifiers.KnnModel) -> None:
    """A KNN model holds one label index per training vector, a k within
    their count, and training vectors of finite squared norm."""
    labels = model.labels
    if labels.dtype.kind != "i" or labels.shape != model.vectors.shape[:1]:
        raise ModelFormatError("knn labels are not one integer per training vector")
    if not _is_count(model.k) or not 1 <= model.k <= labels.size:
        raise ModelFormatError(f"knn k {model.k!r} is not in 1..{labels.size}")
    if not 0 <= labels.min() <= labels.max() < len(LABELS):
        raise ModelFormatError(f"knn labels are not label indices 0..{len(LABELS) - 1}")
    if not np.isfinite(model.vectors.row_sq_norms()).all():
        raise ModelFormatError("knn training vectors have a squared norm that is not finite")


def _check_cnn(model: neural.CnnModel) -> None:
    """A CNN's sequences are as long as its filters at least."""
    if not _is_count(model.max_len) or model.max_len < model.filters.shape[1]:
        raise ModelFormatError(f"cnn max_len {model.max_len!r} is shorter than its filters")


def _check_fasttext(model: embeddings.FastTextClassifier) -> None:
    """A fastText output layer maps its input rows' width to the six labels."""
    if (model.output_weights.shape != (model.input_vectors.shape[1], len(LABELS))
            or model.output_bias.shape != (len(LABELS),)):
        raise ModelFormatError("fasttext output layer does not fit its input vectors")


@dataclass(frozen=True)
class ModelKind:
    """One model kind: its class, the ``--features`` it takes, the width of
    its inputs (the CNN's: its vocabulary size) and its trainer from a
    design matrix (the CNN's: the sentences), label indices and the
    ``train`` flags, an unset flag taking the kind's default. ``check``
    refuses a loaded model that does not hold together. A ``reads_text``
    kind has no feature, and ``normalize``, unless None, fixes the
    normalisation: ``train`` refuses ``--raw-counts`` for a kind that reads
    text or always normalises. Every other kind trains on its design in
    the smaller form (``features.compact_design``: CSR below 50% density);
    ``PipelineModel.scores`` scores by ``features.SPARSE_DENSITY`` instead,
    and KNN and fastText read either form as CSR."""

    cls: type
    features: tuple[str, ...]
    width: Callable[[object], int]
    train: Callable[[object, np.ndarray, object], object]
    check: Callable[[object], None] = lambda model: None
    reads_text: bool = False
    normalize: bool | None = None


#: Every model kind, by name.
MODEL_KINDS = {
    "knn": ModelKind(
        classifiers.KnnModel, VECTOR_FEATURES, lambda m: m.vectors.shape[1],
        lambda x, y, flags: classifiers.train_knn(x, y, k=flags.k),
        check=_check_knn,
    ),
    "logreg": ModelKind(
        classifiers.LogRegModel, VECTOR_FEATURES, lambda m: m.theta.shape[1] - 1,
        lambda x, y, flags: classifiers.train_logreg(
            x, y, learning_rate=_given(flags.lr, 0.5), epochs=_given(flags.epochs, 500)),
    ),
    "nb": ModelKind(
        classifiers.NbModel, ("char1", "char2", "char3", "bow"),  # needs non-negative counts
        lambda m: m.log_likelihoods.shape[1],
        lambda x, y, flags: classifiers.train_nb(x, y, alpha=flags.alpha),
        normalize=False,
    ),
    "svm": ModelKind(
        classifiers.SvmModel, VECTOR_FEATURES, lambda m: m.weights.shape[1],
        lambda x, y, flags: classifiers.train_svm(
            x, y, lam=flags.lam, epochs=_given(flags.epochs, 10), seed=flags.seed),
    ),
    "mlp": ModelKind(
        neural.MlpModel, VECTOR_FEATURES, lambda m: m.weights[0].shape[1],
        lambda x, y, flags: neural.mlp_train(
            x, y, hidden=(flags.hidden,), cfg=train_config(flags, 0.1, 10)),
    ),
    "cnn": ModelKind(
        neural.CnnModel, ("char1", "char2", "char3"), lambda m: m.embeddings.shape[0] - 1,
        lambda sentences, _, flags: neural.cnn_train(
            sentences, train_config(flags, 0.05, 5), gram=NGRAM_FEATURES[flags.features][0],
            kernel=flags.kernel, filters=flags.filters, embed_dim=flags.embed_dim,
            vocab_cap=flags.cap),
        check=_check_cnn, reads_text=True,
    ),
    "fasttext": ModelKind(
        embeddings.FastTextClassifier, ("bow", "char1_5"), lambda m: m.input_vectors.shape[0],
        lambda x, y, flags: embeddings.train_fasttext_supervised(x, y, embeddings.SupervisedConfig(
            dim=flags.dim, epochs=_given(flags.epochs, 5), learning_rate=_given(flags.lr, 0.1),
            seed=flags.seed)),
        check=_check_fasttext, normalize=True,
    ),
}


def check_compatibility(kind: str, feature_type: str) -> None:
    spec = MODEL_KINDS.get(kind)
    if spec is None:
        raise IncompatibleSpec(f"unknown model kind {kind!r}")
    if feature_type not in spec.features:
        raise IncompatibleSpec(
            f"model {kind!r} cannot use features {feature_type!r}; "
            f"allowed: {', '.join(spec.features)}"
        )


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
        return list(vocab.words)
    return {"orders": list(vocab.orders), "keys": _enc(arrays, vocab.keys)}


def _dec_vocab(section: _Section, obj: dict | list) -> Vocabulary:
    """The vocabulary, which checks its orders, keys or words on construction."""
    if isinstance(obj, list):
        return WordVocabulary(tuple(obj))
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
_PARAM_FIELDS = {kind: _saved_fields(spec.cls) for kind, spec in MODEL_KINDS.items()}
_FEATURE_FIELDS = _saved_fields(VectorFeature)


def _payload(arrays: list[np.ndarray], saved: list[tuple], obj: object) -> dict:
    return {name: encode(arrays, getattr(obj, name)) for name, encode, _ in saved}


def _construct(section: _Section, saved: list[tuple], cls: type, payload: dict) -> object:
    return cls(**{name: decode(section, payload[name]) for name, _, decode in saved})


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


def _check_feature(feature: VectorFeature, kind: str) -> None:
    """Raise ModelFormatError unless the model kind takes the feature's
    type, its vocabulary holds the type's n-gram orders (words for bow and
    the embeddings), and it holds one vector per word just when it embeds."""
    name, vectors = feature.type, feature.vectors
    if name not in MODEL_KINDS[kind].features:
        raise ModelFormatError(f"{kind} model cannot use a {name!r} feature")
    _check_vocab(f"{name} feature", feature.vocab, [name])
    if (vectors is None) == (name in EMBEDDING_FEATURES):
        what = "lacks" if vectors is None else "holds"
        raise ModelFormatError(f"{name} feature {what} word vectors")
    if vectors is not None and (vectors.ndim != 2 or len(vectors) != feature.vocab.size):
        raise ModelFormatError(f"{name} vectors of shape {vectors.shape} do not fit "
                               f"its {feature.vocab.size} words")


def _check_fit(kind: str, model: object, feature: VectorFeature | None) -> None:
    """Raise ModelFormatError unless the model's parameters fit its features.

    Every kind but the CNN must have a feature that passes
    :func:`_check_feature`; the CNN reads text itself, has none, and its
    vocabulary must hold the n-grams of one of its features. The model
    must pass its kind's ``check`` and take inputs as wide as its
    feature's vectors (the CNN: one embedding row per vocabulary column,
    plus the padding row).
    """
    spec = MODEL_KINDS[kind]
    if (feature is None) != spec.reads_text:
        raise ModelFormatError(f"{kind} model {'lacks' if feature is None else 'holds'} "
                               "a feature transform")
    spec.check(model)
    have, want = spec.width(model), model.vocab.size if feature is None else feature.dim
    if have != want:
        raise ModelFormatError(f"{kind} parameters are sized for {have}, its features for {want}")
    if feature is None:
        _check_vocab(f"{kind} vocabulary", model.vocab, spec.features)
    else:
        _check_feature(feature, kind)


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
        if data[:6] in (b"NDSL1\n", b"NDSL2\n", b"NDSL3\n"):
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
        if kind not in MODEL_KINDS:
            raise ModelFormatError(f"cannot load model kind {kind!r}")
        feature = None if features is None else _construct(
            section, _FEATURE_FIELDS, VectorFeature, features)
        model = _construct(section, _PARAM_FIELDS[kind], MODEL_KINDS[kind].cls, payload["params"])
        section.check_used()
        _check_fit(kind, model, feature)
        return PipelineModel(kind, payload["seed"], model, feature)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model payload lacks key {exc}") from exc
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:  # wrong JSON types or array ranks
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc
