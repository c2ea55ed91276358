"""Batch command-line frontend for the whole pipeline.

Subcommands: ``corpus clean|split|tatoeba``, ``train``, ``predict``,
``eval``, ``reduce``, ``sweep``, ``profile``. Every command is
reproducible: identical inputs, flags, and seed give identical output
bytes. Exit codes: 0 success, 2 input error, 3 configuration error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import embeddings, evaluation, neural, reduce
from .corpus import (
    ALPHABET,
    DEFAULT_ABBREVIATIONS,
    LABELS,
    Dataset,
    decode_utf8,
    ingest_raw_dir,
    ingest_tatoeba,
    load_abbreviations,
    load_dataset_tsv,
    pools_from_dataset,
    save_dataset_tsv,
    split_lines,
    stratified_sample,
    train_test_split,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EmptyVocabulary,
    IncompatibleSpec,
    InsufficientData,
    InvalidRatio,
    InvalidUtf8,
    MalformedRow,
    MissingLabelFile,
    ModelFormatError,
    NegativeCount,
    NordlidError,
    PerplexityInfeasible,
    PredictionError,
    SequenceTooShort,
    TooFewPoints,
)
from .features import (
    build_ngram_vocab,
    build_word_vocab,
    char_frequency_profile,
    check_learning_rate,
    compact_design,
    label_indices,
)
from .modelio import (
    EMBEDDING_FEATURES,
    MODEL_KINDS,
    NGRAM_FEATURES,
    PipelineModel,
    VectorFeature,
    check_compatibility,
    load_model,
    save_model,
    train_config,
)

INPUT_ERRORS = (
    MissingLabelFile,
    InvalidUtf8,
    MalformedRow,
    InsufficientData,
    ModelFormatError,
    PredictionError,
    SequenceTooShort,
    TooFewPoints,
    OSError,  # a path that is missing, a directory, or cannot be opened
)
CONFIG_ERRORS = (
    IncompatibleSpec,
    InvalidRatio,
    EmptyVocabulary,
    DimensionMismatch,
    NegativeCount,
    PerplexityInfeasible,
    ValueError,
)
NUMERICAL_ERRORS = (ConvergenceFailure,)


def _print_counts(dataset: Dataset) -> None:
    for code, count in dataset.per_class_count.items():
        print(f"{code}\t{count}")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# ---------------------------------------------------------------------------
# corpus subcommands
# ---------------------------------------------------------------------------


def cmd_corpus_clean(args) -> int:
    abbreviations = (
        load_abbreviations(args.abbreviations)
        if args.abbreviations
        else DEFAULT_ABBREVIATIONS
    )
    pools = ingest_raw_dir(args.raw_dir, abbreviations)
    if args.per_class is not None:
        dataset = stratified_sample(pools, args.per_class, args.seed)
    else:
        sentences = [s for code in LABELS for s in pools[code]]
        dataset = Dataset(tuple(sentences), seed=args.seed)
    save_dataset_tsv(dataset, args.out)
    _print_counts(dataset)
    return 0


def cmd_corpus_split(args) -> int:
    dataset = load_dataset_tsv(args.input)
    train, test = train_test_split(dataset, args.ratio, args.seed)
    save_dataset_tsv(train, args.train_out)
    save_dataset_tsv(test, args.test_out)
    print(f"train\t{len(train)}")
    print(f"test\t{len(test)}")
    return 0


def cmd_corpus_tatoeba(args) -> int:
    pools, skipped = ingest_tatoeba(args.input)
    sentences = [s for code in LABELS for s in pools[code]]
    dataset = Dataset(tuple(sentences))
    save_dataset_tsv(dataset, args.out)
    _print_counts(dataset)
    print(f"skipped\t{skipped}")
    return 0


# ---------------------------------------------------------------------------
# train / predict / eval
# ---------------------------------------------------------------------------


def _build_vector_feature(args, dataset: Dataset, normalize: bool) -> VectorFeature:
    """The feature the flags ask for, fitted to ``dataset``, its counts
    L1-normalised if ``normalize``. Raises EmptyVocabulary when the dataset
    yields no n-gram or word, ValueError on ``--cap`` or ``--raw-counts``
    for an embedding, whose sentence vectors are always word means."""
    if args.features in EMBEDDING_FEATURES:
        if args.cap is not None or args.raw_counts:
            flag = "--cap" if args.cap is not None else "--raw-counts"
            raise ValueError(f"{flag} does not apply to --features {args.features}")
        cfg = embeddings.EmbeddingConfig(
            dim=args.dim,
            window=args.window,
            negatives=args.negatives,
            epochs=args.embed_epochs,
            learning_rate=args.embed_lr,
            seed=args.seed,
        )
        trainer = embeddings.train_cbow if args.features == "cbow" else embeddings.train_skipgram
        return VectorFeature.of_embedding(trainer(dataset, cfg))
    if args.features == "bow":
        vocab = build_word_vocab(dataset, cap=args.cap)
    else:
        vocab = build_ngram_vocab(dataset, NGRAM_FEATURES[args.features], cap=args.cap)
    feature = VectorFeature(args.features, normalize, vocab)
    if not feature.dim:
        raise EmptyVocabulary(f"corpus contains no {args.features} features")
    return feature


def cmd_train(args) -> int:
    check_compatibility(args.model, args.features)
    kind = MODEL_KINDS[args.model]
    if args.raw_counts and (kind.reads_text or kind.normalize):
        raise ValueError(f"--raw-counts does not apply to --model {args.model}")
    if args.lr is not None:  # checked for every model, also those that ignore it
        check_learning_rate(args.lr)
    if not 0 <= args.alpha < float("inf"):  # nan fails both comparisons
        raise ValueError(f"--alpha must be finite and >= 0, got {args.alpha}")
    if not 0 < args.lam < float("inf") or 1.0 / args.lam == float("inf"):
        raise ValueError(f"--lam must be finite and > 0 with a finite reciprocal, got {args.lam}")
    dataset = load_dataset_tsv(args.train)
    if kind.reads_text:
        feature, inputs = None, dataset.sentences
    else:
        normalize = not args.raw_counts if kind.normalize is None else kind.normalize
        feature = _build_vector_feature(args, dataset, normalize)
        inputs = compact_design(feature.matrix(dataset, sparse=True))
    model = kind.train(inputs, label_indices(dataset), args)
    save_model(PipelineModel(args.model, args.seed, model, feature), args.out)
    print(f"trained {args.model} on {len(dataset)} sentences -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    pipeline = load_model(args.model_file)
    if args.input == "-":
        # A replaced sys.stdin may be a text stream with no bytes under it.
        buffer = getattr(sys.stdin, "buffer", None)
        text = sys.stdin.read() if buffer is None else decode_utf8(buffer.read(), "<stdin>")
    else:
        text = decode_utf8(Path(args.input).read_bytes(), args.input)
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8", newline="\n")
    try:
        out.writelines(f"{label}\n" for label in pipeline.labels(split_lines(text)))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_eval(args) -> int:
    pipeline = load_model(args.model_file)
    dataset = load_dataset_tsv(args.test)
    truth = label_indices(dataset)
    guess = pipeline.scores([s.text for s in dataset]).argmax(axis=1)
    report = evaluation.evaluate(
        truth, guess, dataset_id=str(args.test), model_id=str(args.model_file)
    )
    lengths = evaluation.length_failure_analysis(truth, guess, [s.length for s in dataset])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "confusion.csv").write_text(
        evaluation.confusion_csv(report, iso_codes=args.iso_codes),
        encoding="utf-8", newline="\n",
    )
    (out_dir / "report.txt").write_text(
        evaluation.report_text(report, lengths, iso_codes=args.iso_codes),
        encoding="utf-8", newline="\n",
    )
    print(f"accuracy\t{_fmt(report.accuracy)}")
    return 0


# ---------------------------------------------------------------------------
# reduce / sweep / profile
# ---------------------------------------------------------------------------


def cmd_reduce(args) -> int:
    if args.max_points < 1:
        raise ValueError(f"--max-points must be at least 1, got {args.max_points}")
    if args.iterations < 0:
        raise ValueError(f"--iterations must be at least 0, got {args.iterations}")
    dataset = load_dataset_tsv(args.input)
    sentences = list(dataset)
    if len(sentences) > args.max_points:
        rng = random.Random(args.seed)
        sentences = rng.sample(sentences, args.max_points)
    subset = Dataset(tuple(sentences), seed=args.seed)
    feature = _build_vector_feature(args, subset, not args.raw_counts)
    x = feature.matrix(subset)  # a CSR matrix stays CSR for PCA and t-SNE alike
    if args.method == "pca":
        coords = reduce.pca_project(x, m=2)
    else:
        affinities, _ = reduce.tsne_affinities(x, perplexity=args.perplexity)
        coords = reduce.tsne_optimize(
            affinities, iterations=args.iterations, seed=args.seed
        ).positions
    labels = [s.label for s in subset]
    Path(args.out).write_text(
        reduce.format_projection(labels, coords), encoding="utf-8", newline="\n"
    )
    print(f"projected {len(labels)} points -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    train = load_dataset_tsv(args.train)
    test = load_dataset_tsv(args.test)
    grams = [int(g) for g in args.grams.split(",")]
    kernels = [int(k) for k in args.kernels.split(",")]
    result = neural.kernel_size_sweep(
        train.sentences, test.sentences, grams, kernels,
        train_config(args, learning_rate=0.05, epochs=5),
        filters=args.filters, embed_dim=args.embed_dim,
    )
    Path(args.out).write_text(result.to_csv(), encoding="utf-8", newline="\n")
    for (gram, kernel), accuracy in sorted(result.entries.items()):
        print(f"gram={gram}\tkernel={kernel}\taccuracy={_fmt(accuracy)}")
    return 0


def cmd_profile(args) -> int:
    dataset = load_dataset_tsv(args.input)
    profile = char_frequency_profile(pools_from_dataset(dataset))
    table = profile.normalized if args.normalized else profile.raw
    lines = ["char," + ",".join(LABELS)]
    for c, ch in enumerate(ALPHABET):
        name = "<space>" if ch == " " else ch
        values = ",".join(
            _fmt(table[k, c]) if args.normalized else str(int(table[k, c]))
            for k in range(len(LABELS))
        )
        lines.append(f"{name},{values}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"profiled {len(dataset)} sentences -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_feature_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the feature a design matrix is built from: ``train`` and ``reduce``."""
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cap", type=int, default=None, help="vocabulary cap (top-K by frequency)")
    p.add_argument("--dim", type=int, default=100, help="embedding dimension (cbow/skipgram/fasttext)")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--embed-epochs", type=int, default=5)
    p.add_argument("--embed-lr", type=float, default=0.05)
    p.add_argument("--raw-counts", action="store_true", help="skip L1 normalization of count features")


def _add_sgd_flags(p: argparse.ArgumentParser) -> None:
    """Flags of SGD and the CNN: ``train`` and ``sweep``."""
    p.add_argument("--lr", type=float, default=None, help="learning rate (per-model default)")
    p.add_argument("--epochs", type=int, default=None, help="epochs (per-model default)")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--filters", type=int, default=64, help="CNN filter count")
    p.add_argument("--embed-dim", type=int, default=16, help="CNN embedding size")
    p.add_argument("--max-len", type=int, default=128, help="CNN max token sequence length")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """The other model flags: ``train`` alone."""
    p.add_argument("--k", type=int, default=3, help="KNN neighbor count")
    p.add_argument("--alpha", type=float, default=1.0, help="NB Laplace smoothing")
    p.add_argument("--lam", type=float, default=1e-4, help="SVM regularization")
    p.add_argument("--hidden", type=int, default=128, help="MLP hidden width")
    p.add_argument("--kernel", type=int, default=3, help="CNN filter width")


class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviated flag, its subcommands' parsers
    alike: with abbreviations, ``sweep --k 3`` would run ``--kernels 3``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nordlid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="dataset preparation")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    clean = corpus_sub.add_parser("clean", help="ingest raw per-language text files")
    clean.add_argument("--raw-dir", required=True)
    clean.add_argument("--out", required=True)
    clean.add_argument("--per-class", type=int, default=None)
    clean.add_argument("--seed", type=int, default=42)
    clean.add_argument("--abbreviations", default=None)
    clean.set_defaults(func=cmd_corpus_clean)

    split = corpus_sub.add_parser("split", help="stratified train/test split")
    split.add_argument("--input", required=True)
    split.add_argument("--train-out", required=True)
    split.add_argument("--test-out", required=True)
    split.add_argument("--ratio", type=float, default=0.8)
    split.add_argument("--seed", type=int, default=42)
    split.set_defaults(func=cmd_corpus_split)

    tatoeba = corpus_sub.add_parser("tatoeba", help="ingest a Tatoeba-style TSV")
    tatoeba.add_argument("--input", required=True)
    tatoeba.add_argument("--out", required=True)
    tatoeba.set_defaults(func=cmd_corpus_tatoeba)

    train = sub.add_parser("train", help="train a classifier")
    train.add_argument("--model", required=True, choices=list(MODEL_KINDS))
    train.add_argument("--features", required=True,
                       choices=["char1", "char2", "char3", "bow", "cbow", "skipgram", "char1_5"])
    train.add_argument("--train", required=True)
    train.add_argument("--out", required=True)
    for add_flags in (_add_feature_flags, _add_sgd_flags, _add_model_flags):
        add_flags(train)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="one label per input line")
    predict.add_argument("--model-file", required=True)
    predict.add_argument("--input", default="-", help="file path or - for stdin")
    predict.add_argument("--out", default="-", help="file path or - for stdout")
    predict.set_defaults(func=cmd_predict)

    evalp = sub.add_parser("eval", help="confusion matrix and report")
    evalp.add_argument("--model-file", required=True)
    evalp.add_argument("--test", required=True)
    evalp.add_argument("--out-dir", required=True)
    evalp.add_argument("--iso-codes", action="store_true",
                       help="emit ISO 639-1 codes in reports (dk -> da)")
    evalp.set_defaults(func=cmd_eval)

    reducep = sub.add_parser("reduce", help="2-D projection of a dataset")
    reducep.add_argument("--method", required=True, choices=["pca", "tsne"])
    reducep.add_argument("--input", required=True)
    reducep.add_argument("--out", required=True)
    reducep.add_argument("--max-points", type=int, default=1000)
    reducep.add_argument("--perplexity", type=float, default=30.0)
    reducep.add_argument("--iterations", type=int, default=1000)
    reducep.add_argument("--features", default="char2",
                         choices=["char1", "char2", "char3", "bow", "cbow", "skipgram"])
    _add_feature_flags(reducep)
    reducep.set_defaults(func=cmd_reduce)

    sweep = sub.add_parser("sweep", help="CNN kernel-size sweep")
    sweep.add_argument("--train", required=True)
    sweep.add_argument("--test", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--grams", default="1,2,3")
    sweep.add_argument("--kernels", default="1,2,3,4,5,6,7,8,9,10,11")
    sweep.add_argument("--seed", type=int, default=42)
    _add_sgd_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    profile = sub.add_parser("profile", help="per-language character frequencies")
    profile.add_argument("--input", required=True)
    profile.add_argument("--out", required=True)
    profile.add_argument("--normalized", action="store_true")
    profile.set_defaults(func=cmd_profile)

    return parser


#: The least value of each size flag.
_SIZE_FLOORS = {
    "cap": 1, "hidden": 1, "filters": 1, "embed_dim": 1, "batch_size": 1, "max_len": 1,
    "dim": 1, "window": 1, "negatives": 1, "embed_epochs": 0,
}


def _check_sizes(args) -> None:
    """Raise ValueError naming the first size flag of ``_SIZE_FLOORS``
    given below its least value."""
    for name, least in _SIZE_FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_sizes(args)
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NordlidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
