"""Versioned model container: save and load every trained model kind.

File layout (``NDSL2``), after numpy's ``.npy`` format:

- line 1: the magic ``NDSL2``;
- line 2: the header, one JSON object with sorted keys. It holds the
  model kind, the feature pipeline (vocabulary or embedding) and the
  model's ``params``: the fields of its class (``MODEL_CLASSES``) that
  have no default. An array field is saved as one ``{"dtype", "shape",
  "offset"}`` descriptor, a list of arrays as a list of them, a
  ``CsrMatrix`` (KNN's training vectors) as ``{"shape", "indptr",
  "indices", "data"}`` with one descriptor for each of its three arrays,
  an ``NgramVocabulary`` (a vector feature's, or the CNN's) as ``{"n",
  "codes"}`` with one ``<i8`` descriptor of its n-gram codes in column
  order, and a scalar or string list (a word vocabulary) as itself.
  Spaces pad the header before its LF so that the array section starts
  at a multiple of 8 bytes;
- the array section: each array's raw little-endian ``<f8`` or ``<i8``
  bytes, back to back: the feature pipeline's, then the model's in
  field order. A descriptor's offset counts from the start of the
  section.

Loading reads the file into one buffer and makes every array a view of
it, writable and 8-byte aligned, so a save/load round trip reproduces
predictions bit for bit. Files of the older ``NDSL1`` layout, which held
the arrays as base64 inside the JSON, are refused, and so are ``NDSL2``
files whose n-gram vocabulary is a list of gram strings; retrain to get
a current file.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import classifiers, embeddings, neural
from .corpus import LABELS, Sentence, clean_sentence
from .errors import IncompatibleSpec, ModelFormatError
from .features import (
    KEY_START,
    MAX_ORDER,
    CsrMatrix,
    NgramVocabulary,
    WordVocabulary,
    count_matrix,
    ngram_hits,
    texts_of,
)

MAGIC = "NDSL2"
#: Array element types; both are 8 bytes wide.
DTYPES = ("<f8", "<i8")
#: Alignment of the array section and of every array in it, in bytes.
ALIGN = 8

VECTOR_FEATURES = ("char1", "char2", "char3", "bow", "cbow", "skipgram")
#: n-gram order of each character feature.
NGRAM_FEATURES = {"char1": 1, "char2": 2, "char3": 3}
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
class QueryEmbedding:
    """Composed per-word vectors, the query-time face of an EmbeddingMatrix.

    Word ``words[i]`` owns row i of ``composed``.
    """

    mode: str
    dim: int
    words: list[str]
    composed: np.ndarray

    @classmethod
    def from_matrix(cls, emb: embeddings.EmbeddingMatrix) -> "QueryEmbedding":
        return cls(emb.mode, emb.dim, list(emb.words), emb.composed.copy())

    @cached_property
    def word_vocab(self) -> WordVocabulary:
        """The words as a vocabulary, rank i + 1 for row i, built on first use.

        ``words`` must not change after that.
        """
        return WordVocabulary.from_ranked(self.words)


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

    def matrix(self, texts: Iterable[Sentence | str], sparse: bool = False) -> np.ndarray | CsrMatrix:
        """Design matrix of sentences or cleaned strings, one row each.

        Counts come from :func:`count_matrix`, as CSR whatever their
        density when ``sparse`` is set; embedding features give each text
        its dense sentence vector, the mean of its known words' vectors,
        equal bit for bit to :func:`embeddings.sentence_embedding`.
        """
        vocab = self.ngram_vocab if self.ngram_vocab is not None else self.word_vocab
        if vocab is not None:
            return count_matrix(texts, vocab, self.normalize, sparse)
        texts = texts_of(texts)
        hits = ngram_hits(texts, self.embedding.word_vocab)
        return embeddings._line_means(self.embedding.composed, *hits, len(texts))


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


def _feature_payload(arrays: list[np.ndarray], feature: VectorFeature | None) -> dict | None:
    if feature is None:
        return None
    payload = {"type": feature.type, "normalize": feature.normalize}
    if feature.ngram_vocab is not None:
        payload["ngram_vocab"] = _enc_ngrams(arrays, feature.ngram_vocab)
    elif feature.word_vocab is not None:
        ordered = sorted(feature.word_vocab.entries, key=feature.word_vocab.entries.get)
        payload["vocab"] = ordered
    else:
        payload["embedding"] = {
            "mode": feature.embedding.mode,
            "dim": feature.embedding.dim,
            "words": feature.embedding.words,
            "composed": _enc(arrays, feature.embedding.composed),
        }
    return payload


def _feature_from_payload(section: _Section, payload: dict | None) -> VectorFeature | None:
    if payload is None:
        return None
    kind = payload["type"]
    if kind in NGRAM_FEATURES:
        vocab = _dec_ngrams(section, payload.get("ngram_vocab"))
        if vocab.n != NGRAM_FEATURES[kind]:
            raise ModelFormatError(f"{kind} feature holds n-grams of order {vocab.n}")
        return VectorFeature(kind, payload["normalize"], ngram_vocab=vocab)
    if kind == "bow":
        vocab = WordVocabulary.from_ranked(payload["vocab"])
        return VectorFeature(kind, payload["normalize"], word_vocab=vocab)
    emb = payload["embedding"]
    query = QueryEmbedding(emb["mode"], emb["dim"], list(emb["words"]),
                           _dec(section, emb["composed"]))
    if query.composed.shape != (len(query.words), query.dim):
        raise ModelFormatError(f"embedding vectors of shape {query.composed.shape} do not fit "
                               f"{len(query.words)} words of dimension {query.dim}")
    query.word_vocab  # checks that the words are distinct strings
    return VectorFeature(kind, payload["normalize"], embedding=query)


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


def _enc_ngrams(arrays: list[np.ndarray], vocab: NgramVocabulary) -> dict:
    return {"n": vocab.n, "codes": _enc(arrays, vocab.codes)}


def _dec_ngrams(section: _Section, obj: dict | None) -> NgramVocabulary:
    """The vocabulary, which checks its order and codes on construction."""
    if not isinstance(obj, dict):  # absent, or the older list of gram strings
        raise ModelFormatError("n-gram vocabulary is not an {n, codes} array; "
                               "a file that stores it as strings must be retrained")
    return NgramVocabulary(obj["n"], _dec(section, obj["codes"]))


#: (encode, decode) of a model field, by its annotation as written. An
#: annotation missing here fails at import, not in a saved file.
_FIELD_CODECS = {
    "int": (_as_is, _as_is),
    "float": (_as_is, _as_is),
    "str": (_as_is, _as_is),
    "list[str]": (_as_is, _as_is),
    "np.ndarray": (_enc, _dec),
    "list[np.ndarray]": (_enc_list, _dec_list),
    "CsrMatrix": (_enc_csr, _dec_csr),
    "NgramVocabulary": (_enc_ngrams, _dec_ngrams),
}

#: kind -> (name, encode, decode) of each saved field, in declaration
#: order: the fields without a default. Built once, here, so that loading
#: a model inspects no class.
_PARAM_FIELDS = {
    kind: [
        (f.name, *_FIELD_CODECS[f.type])
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    ]
    for kind, cls in MODEL_CLASSES.items()
}


def _params_payload(arrays: list[np.ndarray], kind: str, model: object) -> dict:
    if kind not in _PARAM_FIELDS:
        raise ModelFormatError(f"cannot serialize model kind {kind!r}")
    return {name: encode(arrays, getattr(model, name)) for name, encode, _ in _PARAM_FIELDS[kind]}


def _model_from_params(section: _Section, kind: str, params: dict) -> object:
    if kind not in _PARAM_FIELDS:
        raise ModelFormatError(f"cannot load model kind {kind!r}")
    return MODEL_CLASSES[kind](
        **{name: decode(section, params[name]) for name, _, decode in _PARAM_FIELDS[kind]}
    )


#: Width of the feature vectors each vector model kind takes.
_INPUT_WIDTH = {
    "knn": lambda m: m.vectors.shape[1],
    "logreg": lambda m: m.theta.shape[1] - 1,
    "nb": lambda m: m.log_likelihoods.shape[1],
    "svm": lambda m: m.weights.shape[1],
    "mlp": lambda m: m.weights[0].shape[1],
}


def _fasttext_rows(model: embeddings.FastTextClassifier) -> int:
    """The number of rows a fastText model's words or n-gram keys call for.

    Raises ModelFormatError unless the feature mode is known, the n-gram
    orders are integers with 1 <= ngram_min <= ngram_max <= MAX_ORDER, the
    output layer fits the rows' width and the six labels, and the mode's
    own field holds the rows' features while the other is empty: distinct
    words, or distinct int64 keys of orders ngram_min..ngram_max.
    """
    mode, nmin, nmax, keys = model.feature_mode, model.ngram_min, model.ngram_max, model.keys
    if mode not in ("words", "char_ngrams"):
        raise ModelFormatError(f"fasttext feature_mode {mode!r} is unknown")
    if not (_is_count(nmin) and _is_count(nmax) and 1 <= nmin <= nmax <= MAX_ORDER):
        raise ModelFormatError(f"fasttext n-gram orders {nmin!r}..{nmax!r} are not integers "
                               f"with 1 <= ngram_min <= ngram_max <= {MAX_ORDER}")
    if (model.output_weights.shape != (model.input_vectors.shape[1], len(LABELS))
            or model.output_bias.shape != (len(LABELS),)):
        raise ModelFormatError("fasttext output layer does not fit its input vectors")
    if mode == "words":
        if not isinstance(model.features, list) or keys.size:
            raise ModelFormatError("fasttext words model holds n-gram keys or no word list")
        model.word_vocab  # checks that the words are distinct strings
        return len(model.features)
    if model.features:
        raise ModelFormatError("fasttext char_ngrams model holds words")
    if keys.dtype.kind != "i" or keys.ndim != 1:
        raise ModelFormatError("fasttext n-gram keys are not one int64 array")
    if keys.size and not KEY_START[nmin] <= keys.min() <= keys.max() < KEY_START[nmax + 1]:
        raise ModelFormatError(f"fasttext n-gram keys are not keys of orders {nmin}..{nmax}")
    try:
        model.key_index
    except ValueError as exc:
        raise ModelFormatError("fasttext n-gram keys are not distinct") from exc
    return keys.size


def _check_fit(kind: str, model: object, feature: VectorFeature | None) -> None:
    """Raise ModelFormatError unless the model's parameters fit its features.

    A vector model must take vectors as wide as its feature's; a CNN or
    fastText model must hold one embedding row per vocabulary entry, word
    or n-gram key (plus the CNN's padding row), a CNN's sequences must be
    as long as its filters at least, and a fastText model must pass the
    checks of :func:`_fasttext_rows`. A KNN model must hold one label
    index per training vector, and every training vector's squared norm
    must be finite.
    """
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
        if not _is_count(model.max_len) or model.max_len < model.filters.shape[1]:
            raise ModelFormatError(f"cnn max_len {model.max_len!r} is shorter than its filters")
        have, want = model.embeddings.shape[0], model.vocab.size + 1
    elif kind == "fasttext":
        have, want = model.input_vectors.shape[0], _fasttext_rows(model)
    elif feature is None:
        raise ModelFormatError(f"{kind} model lacks its feature transform")
    else:
        have, want = _INPUT_WIDTH[kind](model), feature.dim
    if have != want:
        raise ModelFormatError(f"{kind} parameters are sized for {have}, its features for {want}")


def save_model(pipeline: PipelineModel, path: str | Path) -> None:
    arrays: list[np.ndarray] = []
    payload = {
        "kind": pipeline.kind,
        "seed": pipeline.seed,
        "labels": list(LABELS),
        "feature": _feature_payload(arrays, pipeline.feature),
        "params": _params_payload(arrays, pipeline.kind, pipeline.model),
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
        if data.startswith(b"NDSL1\n"):
            raise ModelFormatError(
                "NDSL1 model files are no longer read; retrain with this version"
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
        feature = _feature_from_payload(section, payload["feature"])
        model = _model_from_params(section, payload["kind"], payload["params"])
        section.check_used()
        _check_fit(payload["kind"], model, feature)
        return PipelineModel(payload["kind"], payload["seed"], model, feature)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model payload lacks key {exc}") from exc
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:  # wrong JSON types or array ranks
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc
