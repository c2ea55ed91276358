"""End-to-end CLI behavior: commands, artifacts, exit codes, determinism."""

import io
import json
import math
import struct
import sys
import warnings
from collections import Counter
from contextlib import contextmanager, redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nordlid import classifiers
from nordlid.cli import main
from nordlid.corpus import ALPHABET, LABELS, Sentence, save_dataset_tsv
from nordlid.features import CsrMatrix
from nordlid.modelio import load_model
from nordlid.synth import generate_pools


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small synthetic dataset written as TSV train/test files."""
    base = tmp_path_factory.mktemp("data")
    pools = generate_pools(30, "wiki", seed=0)
    sentences = [s for code in LABELS for s in pools[code]]
    save_dataset_tsv(sentences, base / "all.tsv")
    assert main([
        "corpus", "split", "--input", str(base / "all.tsv"),
        "--train-out", str(base / "train.tsv"),
        "--test-out", str(base / "test.tsv"),
        "--ratio", "0.8", "--seed", "42",
    ]) == 0
    return base


class TestCorpusCommands:
    def test_clean_and_counts(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        for code in LABELS:
            (raw / f"{code}.txt").write_text(
                "Hej med dig. En mere! Og en?\nSidste linje her.", encoding="utf-8"
            )
        out = tmp_path / "data.tsv"
        assert main(["corpus", "clean", "--raw-dir", str(raw), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "dk\t4" in captured
        assert out.read_text(encoding="utf-8").count("\n") == 24

    def test_split_counts(self, tmp_path):
        pools = generate_pools(10, "wiki", seed=1)
        save_dataset_tsv([s for c in LABELS for s in pools[c]], tmp_path / "d.tsv")
        code = main([
            "corpus", "split", "--input", str(tmp_path / "d.tsv"),
            "--train-out", str(tmp_path / "tr.tsv"),
            "--test-out", str(tmp_path / "te.tsv"),
            "--ratio", "0.8", "--seed", "1",
        ])
        assert code == 0
        train_lines = (tmp_path / "tr.tsv").read_text(encoding="utf-8").splitlines()
        test_lines = (tmp_path / "te.tsv").read_text(encoding="utf-8").splitlines()
        assert len(train_lines) == 48 and len(test_lines) == 12

    def test_split_rerun_byte_identical(self, tmp_path):
        pools = generate_pools(8, "wiki", seed=2)
        save_dataset_tsv([s for c in LABELS for s in pools[c]], tmp_path / "d.tsv")
        args = [
            "corpus", "split", "--input", str(tmp_path / "d.tsv"),
            "--train-out", str(tmp_path / "tr.tsv"),
            "--test-out", str(tmp_path / "te.tsv"),
            "--seed", "9",
        ]
        main(args)
        first = (tmp_path / "tr.tsv").read_bytes()
        main(args)
        assert (tmp_path / "tr.tsv").read_bytes() == first

    def test_missing_input_exit_2(self, tmp_path):
        code = main([
            "corpus", "split", "--input", str(tmp_path / "nope.tsv"),
            "--train-out", str(tmp_path / "a"), "--test-out", str(tmp_path / "b"),
        ])
        assert code == 2

    def test_invalid_ratio_exit_3(self, data_dir, tmp_path):
        code = main([
            "corpus", "split", "--input", str(data_dir / "all.tsv"),
            "--train-out", str(tmp_path / "a"), "--test-out", str(tmp_path / "b"),
            "--ratio", "1.0",
        ])
        assert code == 3

    def test_tatoeba(self, tmp_path, capsys):
        f = tmp_path / "t.tsv"
        f.write_text("dk\tJeg kan ikke lide æg.\nxx\tskip me\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        assert main(["corpus", "tatoeba", "--input", str(f), "--out", str(out)]) == 0
        assert "skipped\t1" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == "dk\tjeg kan ikke lide æg \n"

    def test_tatoeba_rows_split_on_lf_only(self, tmp_path, capsys):
        f = tmp_path / "t.tsv"
        f.write_text("dk\tJeg kan\u2028ikke lide æg.\nsv\tHej du!\r\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        assert main(["corpus", "tatoeba", "--input", str(f), "--out", str(out)]) == 0
        assert "skipped\t0" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == "dk\tjeg kan ikke lide æg \nsv\thej du \n"


class TestTrainEvalPredict:
    def test_nb_on_disjoint_toy_corpus_scores_one(self, tmp_path, capsys):
        rows = []
        words = {c: f"ord{c} tekst{c} mere{c}" for c in LABELS}
        for code in LABELS:
            rows += [Sentence(words[code], code)] * 2
        save_dataset_tsv(rows, tmp_path / "toy.tsv")
        model_file = tmp_path / "nb.ndsl"
        assert main([
            "train", "--model", "nb", "--features", "char2",
            "--train", str(tmp_path / "toy.tsv"), "--out", str(model_file),
        ]) == 0
        assert main([
            "eval", "--model-file", str(model_file),
            "--test", str(tmp_path / "toy.tsv"), "--out-dir", str(tmp_path / "rep"),
        ]) == 0
        out = capsys.readouterr().out
        assert "accuracy\t1" in out
        confusion = (tmp_path / "rep" / "confusion.csv").read_text(encoding="utf-8")
        assert confusion.startswith("true\\pred,dk,sv,nn,nb,fo,is")
        assert (tmp_path / "rep" / "report.txt").exists()

    def test_incompatible_spec_exit_3(self, data_dir, tmp_path):
        code = main([
            "train", "--model", "cnn", "--features", "bow",
            "--train", str(data_dir / "train.tsv"), "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_nb_rejects_embedding_features(self, data_dir, tmp_path):
        code = main([
            "train", "--model", "nb", "--features", "skipgram",
            "--train", str(data_dir / "train.tsv"), "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_predict_empty_input(self, data_dir, tmp_path, capsys, monkeypatch):
        model_file = tmp_path / "m.ndsl"
        assert main([
            "train", "--model", "logreg", "--features", "char1",
            "--train", str(data_dir / "train.tsv"), "--out", str(model_file),
            "--epochs", "5",
        ]) == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(["predict", "--model-file", str(model_file)]) == 0
        assert capsys.readouterr().out == ""

    def test_predict_lines(self, data_dir, tmp_path, capsys, monkeypatch):
        model_file = tmp_path / "m.ndsl"
        main([
            "train", "--model", "logreg", "--features", "char2",
            "--train", str(data_dir / "train.tsv"), "--out", str(model_file),
            "--epochs", "30",
        ])
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.StringIO("hej med dig\nßß!!\n"))
        assert main(["predict", "--model-file", str(model_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(label in LABELS for label in lines)

    def test_train_rerun_byte_identical(self, data_dir, tmp_path):
        args = [
            "train", "--model", "svm", "--features", "char2",
            "--train", str(data_dir / "train.tsv"),
            "--out", str(tmp_path / "svm.ndsl"), "--epochs", "2", "--seed", "7",
        ]
        assert main(args) == 0
        first = (tmp_path / "svm.ndsl").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "svm.ndsl").read_bytes() == first

    @pytest.mark.parametrize(
        "model,features,extra",
        [
            ("knn", "cbow", ["--dim", "8", "--embed-epochs", "1", "--k", "3"]),
            ("svm", "skipgram", ["--dim", "8", "--embed-epochs", "1", "--epochs", "2"]),
            ("mlp", "char1", ["--epochs", "2", "--hidden", "8"]),
            ("fasttext", "bow", ["--dim", "8", "--epochs", "2"]),
            ("fasttext", "char1_5", ["--dim", "8", "--epochs", "1"]),
            ("logreg", "char3", ["--epochs", "5"]),
            ("knn", "bow", ["--k", "3"]),
        ],
    )
    def test_other_model_feature_combos(self, data_dir, tmp_path, model, features, extra):
        model_file = tmp_path / f"{model}-{features}.ndsl"
        assert main([
            "train", "--model", model, "--features", features,
            "--train", str(data_dir / "train.tsv"), "--out", str(model_file),
            *extra,
        ]) == 0
        assert main([
            "eval", "--model-file", str(model_file),
            "--test", str(data_dir / "test.tsv"),
            "--out-dir", str(tmp_path / "rep"),
        ]) == 0

    def test_numerical_failure_exit_4(self, data_dir, tmp_path, monkeypatch):
        from nordlid import cli
        from nordlid.errors import ConvergenceFailure

        def boom(args):
            raise ConvergenceFailure(0, 1.0)

        monkeypatch.setattr(cli, "cmd_reduce", boom)
        code = main([
            "reduce", "--method", "pca", "--input", str(data_dir / "train.tsv"),
            "--out", str(tmp_path / "p.tsv"),
        ])
        assert code == 4

    @pytest.mark.parametrize("features", ["skipgram", "cbow"])
    def test_embedding_rerun_byte_identical(self, data_dir, tmp_path, features):
        args = [
            "train", "--model", "logreg", "--features", features,
            "--train", str(data_dir / "train.tsv"), "--out", str(tmp_path / "m.ndsl"),
            "--embed-epochs", "1", "--window", "2", "--negatives", "2", "--dim", "8",
            "--epochs", "5",
        ]
        assert main(args) == 0
        first = (tmp_path / "m.ndsl").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "m.ndsl").read_bytes() == first

    @pytest.mark.parametrize("model,features,flags", [
        ("fasttext", "bow", ["--dim", "0"]),
        ("fasttext", "bow", ["--lr", "nan"]),
        ("logreg", "char1", ["--lr", "nan"]),
        ("mlp", "char1", ["--lr", "nan"]),
        ("svm", "char1", ["--lr", "nan"]),
        ("cnn", "char1", ["--lr", "inf"]),
        ("logreg", "cbow", ["--embed-lr", "nan"]),
        ("logreg", "skipgram", ["--embed-lr", "-1"]),
        ("fasttext", "bow", ["--epochs", "-1"]),
        ("logreg", "char1", ["--epochs", "-1"]),
        ("svm", "char1", ["--epochs", "-1"]),
        ("logreg", "cbow", ["--embed-epochs", "-1"]),
        ("logreg", "cbow", ["--window", "0"]),
        ("logreg", "skipgram", ["--negatives", "0"]),
        ("logreg", "cbow", ["--dim", "0"]),
        ("knn", "skipgram", ["--embed-epochs", "-2"]),
        ("nb", "char2", ["--cap", "-5"]),
        ("logreg", "bow", ["--cap", "-1"]),
        ("mlp", "char1", ["--hidden", "0"]),
        ("cnn", "char1", ["--filters", "0"]),
        ("cnn", "char1", ["--embed-dim", "0"]),
        ("cnn", "char2", ["--cap", "-3"]),
        ("nb", "char2", ["--alpha=-1"]),
        ("nb", "char2", ["--alpha", "nan"]),
        ("nb", "char2", ["--alpha", "inf"]),
        ("mlp", "char1", ["--epochs", "-1"]),
        ("cnn", "char1", ["--epochs", "-1"]),
        ("svm", "char2", ["--lam", "inf"]),
        ("svm", "char2", ["--lam", "nan"]),
        ("svm", "char2", ["--lam=-1"]),
        ("svm", "char2", ["--lam", "1e-320"]),
        ("logreg", "char1", ["--lam", "0"]),
        ("logreg", "cbow", ["--cap", "5"]),
        ("svm", "skipgram", ["--cap", "5"]),
        ("fasttext", "bow", ["--raw-counts"]),
        ("fasttext", "char1_5", ["--raw-counts"]),
        ("cnn", "char2", ["--raw-counts"]),
        ("logreg", "cbow", ["--raw-counts"]),
        ("knn", "skipgram", ["--raw-counts"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_bad_training_flag_exit_3(self, data_dir, tmp_path, capsys, model, features, flags):
        capsys.readouterr()
        code = main([
            "train", "--model", model, "--features", features, *flags,
            "--train", str(data_dir / "train.tsv"), "--out", str(tmp_path / "m.ndsl"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        flag = flags[0].split("=")[0]
        if flag in ("--alpha", "--lam", "--dim", "--window", "--negatives", "--embed-epochs",
                    "--cap", "--raw-counts"):
            assert flag in err
        assert not (tmp_path / "m.ndsl").exists()

    def test_tiny_lam_trains_without_stderr(self, data_dir, tmp_path, capsys):
        """Weights near 1e300 square past the float64 range in the objective,
        which once printed numpy's overflow warning on a successful train."""
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "train", "--model", "svm", "--features", "char2", "--lam", "1e-300",
                "--epochs", "1", "--train", str(data_dir / "train.tsv"),
                "--out", str(tmp_path / "m.ndsl"),
            ]) == 0
        assert capsys.readouterr().err == ""
        svm = load_model(tmp_path / "m.ndsl").model
        assert np.isfinite(svm.weights).all() and np.isfinite(svm.biases).all()

    @pytest.mark.parametrize("model,flags", [
        ("nb", ["--alpha", "0"]),
        ("mlp", ["--epochs", "0", "--hidden", "4"]),
        ("cnn", ["--epochs", "0", "--filters", "2", "--embed-dim", "2"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_zero_alpha_and_zero_epochs_train(self, data_dir, tmp_path, model, flags):
        assert main([
            "train", "--model", model, "--features", "char2", *flags,
            "--train", str(data_dir / "train.tsv"), "--out", str(tmp_path / "m.ndsl"),
        ]) == 0
        assert (tmp_path / "m.ndsl").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "mlp", "--features", "char1", "--hidden", "-1"],
        ["train", "--model", "mlp", "--features", "char1", "--batch-size", "0"],
        ["train", "--model", "cnn", "--features", "char1", "--batch-size", "-4"],
        ["train", "--model", "cnn", "--features", "char2", "--max-len", "0"],
        ["reduce", "--method", "pca", "--cap", "0"],
        ["sweep", "--filters", "0"],
        ["sweep", "--embed-dim", "-2"],
        ["sweep", "--batch-size", "0"],
        ["sweep", "--max-len", "0"],
        ["train", "--model", "fasttext", "--features", "bow", "--dim", "0"],
        ["train", "--model", "logreg", "--features", "cbow", "--window", "0"],
        ["train", "--model", "logreg", "--features", "skipgram", "--negatives", "0"],
        ["reduce", "--method", "pca", "--features", "cbow", "--dim", "-1"],
    ], ids=lambda v: " ".join(v))
    def test_size_flag_below_one_is_named(self, data_dir, tmp_path, capsys, argv):
        paths = {"train": ["--train", "train.tsv"], "reduce": ["--input", "train.tsv"],
                 "sweep": ["--train", "train.tsv", "--test", "test.tsv"]}[argv[0]]
        paths = [str(data_dir / p) if p.endswith(".tsv") else p for p in paths]
        capsys.readouterr()
        code = main([*argv, *paths, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: {argv[-2]} must be at least 1, got {argv[-1]}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        *(["reduce", "--method", "pca", flag, value] for flag, value in (
            ("--k", "3"), ("--alpha", "1"), ("--lam", "0"), ("--hidden", "8"), ("--kernel", "3"),
            ("--filters", "4"), ("--embed-dim", "4"), ("--max-len", "16"),
            ("--lr", "-1"), ("--epochs", "-5"), ("--batch-size", "8"),
        )),
        ["sweep", "--alpha", "1"],
        ["sweep", "--lam", "0"],
        ["sweep", "--cap", "10"],
        ["sweep", "--dim", "4"],
        ["sweep", "--k", "3"],  # not taken as an abbreviation of --kernels
    ], ids=lambda v: " ".join(v))
    def test_flag_the_command_does_not_read_exits_2(self, data_dir, tmp_path, capsys, argv):
        paths = {"reduce": ["--input", "train.tsv"],
                 "sweep": ["--train", "train.tsv", "--test", "test.tsv"]}[argv[0]]
        paths = [str(data_dir / p) if p.endswith(".tsv") else p for p in paths]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, *paths, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("features,sparse", [
        ("char1", False), ("char2", True), ("char3", True), ("bow", True),
    ])
    def test_train_fits_the_smaller_design(self, data_dir, tmp_path, monkeypatch, features,
                                           sparse):
        """``train`` fits a count design as CSR below 50% density (char2,
        char3, bow) and dense above it (char1, about two thirds dense), although
        char2 is scored dense."""
        designs, train_nb = [], classifiers.train_nb

        def spy(x, y, **kwargs):
            designs.append(x)
            return train_nb(x, y, **kwargs)

        monkeypatch.setattr(classifiers, "train_nb", spy)
        assert main(["train", "--model", "nb", "--features", features, "--train",
                     str(data_dir / "train.tsv"), "--out", str(tmp_path / "m.ndsl")]) == 0
        [design] = designs
        assert isinstance(design, CsrMatrix) == sparse

    @pytest.mark.parametrize("model,features,flags,sparse", [
        ("nb", "char2", [], False),
        ("svm", "char3", ["--epochs", "2"], True),
        ("cnn", "char2", ["--epochs", "1", "--filters", "4", "--embed-dim", "4"], None),
    ], ids=["nb-char2", "svm-char3", "cnn-char2"])
    def test_eval_tabulates_predict_labels(self, data_dir, tmp_path, capsys, model, features,
                                           flags, sparse):
        """``eval``'s confusion.csv counts (gold, ``predict`` line) pairs and
        its accuracy is the share of matches, on a dense, a CSR and a CNN model."""
        model_file, lines, out_dir = tmp_path / "m.ndsl", tmp_path / "lines.txt", tmp_path / "rep"
        assert main(["train", "--model", model, "--features", features, *flags,
                     "--train", str(data_dir / "train.tsv"), "--out", str(model_file)]) == 0
        rows = [r.split("\t") for r in (data_dir / "test.tsv").read_text(encoding="utf-8").splitlines()]
        gold = [label for label, _ in rows]
        lines.write_text("".join(text + "\n" for _, text in rows), encoding="utf-8")
        feature = load_model(model_file).feature
        if sparse is not None:  # the design the model scores is dense or CSR as named
            design = feature.matrix([text for _, text in rows])
            assert isinstance(design, CsrMatrix) == sparse
        assert main(["predict", "--model-file", str(model_file), "--input", str(lines),
                     "--out", str(tmp_path / "pred.txt")]) == 0
        predicted = (tmp_path / "pred.txt").read_text(encoding="utf-8").splitlines()
        capsys.readouterr()
        assert main(["eval", "--model-file", str(model_file), "--test", str(data_dir / "test.tsv"),
                     "--out-dir", str(out_dir)]) == 0
        pairs = Counter(zip(gold, predicted))
        expected = "".join(
            f"{t}," + ",".join(str(pairs[t, p]) for p in LABELS) + "\n" for t in LABELS
        )
        confusion = (out_dir / "confusion.csv").read_text(encoding="utf-8")
        assert confusion == "true\\pred," + ",".join(LABELS) + "\n" + expected
        hits = sum(pairs[code, code] for code in LABELS)
        assert capsys.readouterr().out == f"accuracy\t{hits / len(gold):.17g}\n"

    @pytest.mark.parametrize("model", ["nb", "logreg"])
    def test_raw_counts_where_it_applies(self, data_dir, tmp_path, model):
        """nb counts raw either way; logreg keeps its feature's counts raw."""
        model_file = tmp_path / "m.ndsl"
        assert main(["train", "--model", model, "--features", "char2", "--raw-counts",
                     "--epochs", "1", "--train", str(data_dir / "train.tsv"),
                     "--out", str(model_file)]) == 0
        assert load_model(model_file).feature.normalize is False

    @pytest.mark.parametrize("features", ["char1_5", "bow"])
    def test_fasttext_vocabulary_is_capped(self, data_dir, tmp_path, features):
        model_file = tmp_path / "m.ndsl"
        assert main(["train", "--model", "fasttext", "--features", features, "--cap", "50",
                     "--dim", "4", "--epochs", "1", "--train", str(data_dir / "train.tsv"),
                     "--out", str(model_file)]) == 0
        pipeline = load_model(model_file)
        assert pipeline.feature.vocab.size == 50 and pipeline.model.input_vectors.shape == (50, 4)

    @pytest.mark.parametrize("model,features,flags", [
        ("logreg", "bow", []),
        ("nb", "char3", []),
        ("knn", "char1", []),
        ("svm", "char2", []),
        ("mlp", "bow", []),
        ("logreg", "char2", ["--cap", "0"]),
        ("cnn", "char2", ["--cap", "0"]),
        ("logreg", "skipgram", []),
        ("logreg", "cbow", []),
        ("fasttext", "bow", []),
        ("fasttext", "char1_5", []),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_empty_vocabulary_exit_3(self, data_dir, tmp_path, capsys, model, features, flags):
        """Blank texts (or a cap of 0) leave no feature: no 0-dimensional model."""
        if flags:
            train = data_dir / "train.tsv"
        else:
            train = tmp_path / "blank.tsv"
            save_dataset_tsv([Sentence("", code) for code in LABELS], train)
        capsys.readouterr()
        code = main(["train", "--model", model, "--features", features, *flags,
                     "--train", str(train), "--out", str(tmp_path / "m.ndsl")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not (tmp_path / "m.ndsl").exists()


@contextmanager
def edited_model(source, target):
    """Copy model file ``source`` to ``target`` with the edits made in the block.

    The block gets a dict of the file's parts: "magic" (bytes), "header"
    (the parsed JSON) and "section" (the array section, bytes). The header
    is written back padded as ``save_model`` pads it, so the section stays
    8-byte aligned; a string holding surrogate escapes becomes raw bytes.
    """
    magic, header, section = source.read_bytes().split(b"\n", 2)
    parts = {"magic": magic, "header": json.loads(header), "section": section}
    yield parts
    head = parts["magic"] + b"\n" + json.dumps(parts["header"], ensure_ascii=False).encode(
        "utf-8", "surrogateescape"
    )
    head += b" " * (-(len(head) + 1) % 8) + b"\n"
    target.write_bytes(head + parts["section"])


def array_descriptors(obj):
    """Every array descriptor of a parsed model header, at any depth."""
    if isinstance(obj, dict) and "offset" in obj:
        yield obj
    elif isinstance(obj, (dict, list)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from array_descriptors(value)


def drop_last_element(parts, descriptor, count=1):
    """Drop the last ``count`` 8-byte elements of a 1-D array of
    ``edited_model``'s parts, moving the arrays after it down."""
    end = descriptor["offset"] + 8 * descriptor["shape"][0]
    parts["section"] = parts["section"][: end - 8 * count] + parts["section"][end:]
    for other in array_descriptors(parts["header"]):
        if other["offset"] >= end:
            other["offset"] -= 8 * count
    descriptor["shape"][0] -= count


#: One model per kind, trained on the small synthetic split.
SEVEN_KINDS = {
    "knn": ("char2", []),
    "logreg": ("char2", ["--epochs", "5"]),
    "nb": ("char2", []),
    "svm": ("char3", ["--epochs", "1"]),
    "mlp": ("char2", ["--epochs", "1", "--hidden", "8"]),
    "cnn": ("char2", ["--epochs", "1", "--filters", "4", "--embed-dim", "4"]),
    "fasttext": ("bow", ["--epochs", "1", "--dim", "8"]),
}


def train_small(kind, data_dir, model_file):
    """Train the ``SEVEN_KINDS`` model of ``kind`` into ``model_file``."""
    features, extra = SEVEN_KINDS[kind]
    assert main([
        "train", "--model", kind, "--features", features,
        "--train", str(data_dir / "train.tsv"), "--out", str(model_file), *extra,
    ]) == 0
    return model_file


class TestInputErrors:
    """Malformed model files and input bytes: exit 2, one error line."""

    @pytest.fixture(scope="class")
    def svm_file(self, data_dir, tmp_path_factory):
        return train_small("svm", data_dir, tmp_path_factory.mktemp("svm") / "svm.ndsl")

    @pytest.fixture(scope="class")
    def cnn_file(self, data_dir, tmp_path_factory):
        return train_small("cnn", data_dir, tmp_path_factory.mktemp("cnn") / "cnn.ndsl")

    @pytest.fixture(scope="class")
    def knn_file(self, data_dir, tmp_path_factory):
        return train_small("knn", data_dir, tmp_path_factory.mktemp("knn") / "knn.ndsl")

    @pytest.fixture(scope="class")
    def logreg_file(self, data_dir, tmp_path_factory):
        model_file = tmp_path_factory.mktemp("logreg") / "logreg.ndsl"
        assert main([
            "train", "--model", "logreg", "--features", "char3", "--epochs", "1",
            "--train", str(data_dir / "train.tsv"), "--out", str(model_file),
        ]) == 0
        return model_file

    @pytest.fixture(scope="class")
    def char_fasttext_file(self, data_dir, tmp_path_factory):
        model_file = tmp_path_factory.mktemp("fasttext") / "fasttext.ndsl"
        assert main([
            "train", "--model", "fasttext", "--features", "char1_5", "--epochs", "1",
            "--dim", "4", "--train", str(data_dir / "train.tsv"), "--out", str(model_file),
        ]) == 0
        return model_file

    @staticmethod
    def assert_input_error(code, capsys, expect=""):
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert expect in err

    @staticmethod
    def predict_with(model_file, tmp_path, capsys):
        (tmp_path / "in.txt").write_text("hej med dig\n", encoding="utf-8")
        capsys.readouterr()
        return main(["predict", "--model-file", str(model_file), "--input", str(tmp_path / "in.txt")])

    def test_model_without_feature_key(self, svm_file, tmp_path, capsys):
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            del parts["header"]["feature"]
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "lacks key 'feature'")

    def test_model_array_shape_mismatch(self, svm_file, tmp_path, capsys):
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            parts["header"]["params"]["biases"]["shape"] = [7]
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "array of shape [7]")

    @staticmethod
    def ngram_vocab(parts, kind):
        """The n-gram vocabulary of a model's feature or a cnn file's params."""
        header = parts["header"]
        return header["params" if kind == "cnn" else "feature"]["vocab"]

    @pytest.mark.parametrize("entry", ["BASE**n", "-1", "duplicate", "<f8", "2-D", "n=0", "n=12"])
    @pytest.mark.parametrize("kind", ["svm", "cnn"])
    def test_malformed_vocabulary_entry(self, kind, entry, request, tmp_path, capsys):
        """The last key set past the order's range, negative or to the first
        key; the key array declared float64 or 2-D; the orders set outside 1..11."""
        with edited_model(request.getfixturevalue(f"{kind}_file"), tmp_path / "broken.ndsl") as parts:
            vocab = self.ngram_vocab(parts, kind)
            keys = vocab["keys"]
            section = bytearray(parts["section"])
            last = keys["offset"] + 8 * (keys["shape"][0] - 1)
            if entry in ("BASE**n", "-1", "duplicate"):
                first = struct.unpack_from("<q", section, keys["offset"])[0]
                above = sum(40**m for m in range(1, vocab["orders"][1] + 1))
                value = {"BASE**n": above, "-1": -1, "duplicate": first}[entry]
                struct.pack_into("<q", section, last, value)
            elif entry == "<f8":
                keys["dtype"] = "<f8"
            elif entry == "2-D":
                keys["shape"] = [1, keys["shape"][0]]
            else:
                vocab["orders"] = [int(entry[2:])] * 2
            parts["section"] = bytes(section)
        self.assert_input_error(self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys), capsys)

    def test_vocabulary_order_differs_from_feature(self, svm_file, tmp_path, capsys):
        """Keys of order 3, a char3 feature's, are keys of orders 1..3 too."""
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            parts["header"]["feature"]["vocab"]["orders"] = [1, 3]
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "char3 feature holds n-grams of orders 1..3")

    @pytest.mark.parametrize("kind", ["svm", "cnn"])
    def test_string_vocabulary_of_older_files(self, kind, request, tmp_path, capsys):
        """A file that stores its n-gram vocabulary as gram strings, as files
        did before the key arrays: the vector feature's as ``{"ngram_n",
        "vocab"}``, the CNN's as ``"gram"`` and a ``"vocab"`` list. The
        strings now read as words, which no character feature or CNN holds."""
        with edited_model(request.getfixturevalue(f"{kind}_file"), tmp_path / "old.ndsl") as parts:
            vocab = self.ngram_vocab(parts, kind)
            keys, n = vocab["keys"], vocab["orders"][0]
            values = struct.unpack_from(f"<{keys['shape'][0]}q", parts["section"], keys["offset"])
            start = sum(40**m for m in range(1, n))
            grams = [
                "".join(ALPHABET[(key - start) // 40**k % 40] for k in reversed(range(n)))
                for key in values
            ]
            drop_last_element(parts, keys, keys["shape"][0])
            if kind == "svm":
                parts["header"]["feature"].update(ngram_n=n, vocab=grams)
            else:
                parts["header"]["params"].update(gram=n, vocab=grams)
        code = self.predict_with(tmp_path / "old.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "holds words, not n-grams")

    @pytest.mark.parametrize("entry", [5, "duplicate"])
    def test_fasttext_bow_word(self, data_dir, entry, tmp_path, capsys):
        source = train_small("fasttext", data_dir, tmp_path / "fasttext.ndsl")
        with edited_model(source, tmp_path / "broken.ndsl") as parts:
            words = parts["header"]["feature"]["vocab"]
            words[-1] = words[0] if entry == "duplicate" else entry
        self.assert_input_error(self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys), capsys)

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_parameters_sized_for_another_vocabulary(
        self, svm_file, data_dir, command, tmp_path, capsys
    ):
        broken = tmp_path / "broken.ndsl"
        with edited_model(svm_file, broken) as parts:
            drop_last_element(parts, self.ngram_vocab(parts, "svm")["keys"])
        if command == "predict":
            code = self.predict_with(broken, tmp_path, capsys)
        else:
            code = main([
                "eval", "--model-file", str(broken), "--test", str(data_dir / "test.tsv"),
                "--out-dir", str(tmp_path / "eval"),
            ])
        self.assert_input_error(code, capsys, "parameters are sized for")

    @pytest.mark.parametrize("edit", ["drop last word", "duplicate word", "dim"])
    def test_embedding_words_must_fit_vectors(self, data_dir, tmp_path, capsys, edit):
        """A word dropped or repeated, or the vectors' shape transposed, so
        that their dimension reads as their number."""
        model_file = tmp_path / "cbow.ndsl"
        assert main(["train", "--model", "logreg", "--features", "cbow", "--dim", "4",
                     "--embed-epochs", "1", "--epochs", "2",
                     "--train", str(data_dir / "train.tsv"), "--out", str(model_file)]) == 0
        with edited_model(model_file, tmp_path / "broken.ndsl") as parts:
            feature = parts["header"]["feature"]
            if edit == "drop last word":
                feature["vocab"].pop()
            elif edit == "duplicate word":
                feature["vocab"][-1] = feature["vocab"][0]
            else:
                feature["vectors"]["shape"].reverse()
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys)

    @pytest.mark.parametrize("kind", ["cnn"])
    def test_text_model_holding_a_feature(self, kind, data_dir, tmp_path, capsys):
        """A CNN file given a vector model's feature, which it cannot read."""
        source = train_small(kind, data_dir, tmp_path / f"{kind}.ndsl")
        with edited_model(source, tmp_path / "broken.ndsl") as parts:
            parts["header"]["feature"] = {"type": "bow", "normalize": True, "vocab": ["hej"],
                                          "vectors": None}
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, f"{kind} model holds a feature transform")

    @pytest.mark.parametrize("kind", ["fasttext", "logreg"])
    def test_vector_model_lacking_a_feature(self, kind, data_dir, tmp_path, capsys):
        """A fastText or other vector model file whose feature is null."""
        source = train_small(kind, data_dir, tmp_path / f"{kind}.ndsl")
        with edited_model(source, tmp_path / "broken.ndsl") as parts:
            parts["header"]["feature"] = None
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys)

    def test_non_utf8_model_file(self, svm_file, tmp_path, capsys):
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            parts["header"]["kind"] = "\udcff\udcfe"  # raw bytes ff fe
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "model header is not valid UTF-8")

    def test_ndsl1_model_file(self, tmp_path, capsys):
        old = tmp_path / "old.ndsl"
        old.write_bytes(b'NDSL1\n{"kind": "svm", "params": {}}\n')
        code = self.predict_with(old, tmp_path, capsys)
        self.assert_input_error(
            code, capsys, f"error: {old}: NDSL1 model files are no longer read; retrain with this version\n"
        )

    def test_ndsl2_model_file(self, svm_file, tmp_path, capsys):
        """The layout before one vocabulary codec served every model."""
        old = tmp_path / "old.ndsl"
        old.write_bytes(b"NDSL2" + svm_file.read_bytes()[5:])
        code = self.predict_with(old, tmp_path, capsys)
        self.assert_input_error(
            code, capsys, f"error: {old}: NDSL2 model files are no longer read; retrain with this version\n"
        )

    def test_ndsl3_model_file(self, svm_file, tmp_path, capsys):
        """The layout before fastText carried a feature like the other vector kinds."""
        old = tmp_path / "old.ndsl"
        old.write_bytes(b"NDSL3" + svm_file.read_bytes()[5:])
        code = self.predict_with(old, tmp_path, capsys)
        self.assert_input_error(
            code, capsys, f"error: {old}: NDSL3 model files are no longer read; retrain with this version\n"
        )

    def test_truncated_array_section(self, svm_file, tmp_path, capsys):
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            parts["section"] = parts["section"][:-8]
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "runs past the end")

    def test_trailing_bytes(self, svm_file, tmp_path, capsys):
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            parts["section"] += bytes(8)
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "array section holds")

    def test_offset_not_multiple_of_8(self, svm_file, tmp_path, capsys):
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            parts["header"]["params"]["biases"]["offset"] += 4
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "is not a non-negative multiple of 8")

    def test_offset_past_section(self, svm_file, tmp_path, capsys):
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            parts["header"]["params"]["biases"]["offset"] = len(parts["section"]) + 8
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "runs past the end")

    def test_header_not_json_object(self, svm_file, tmp_path, capsys):
        with edited_model(svm_file, tmp_path / "broken.ndsl") as parts:
            parts["header"] = [parts["header"]]
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "model header is not a JSON object")

    def test_knn_label_out_of_range(self, data_dir, tmp_path, capsys):
        model_file = tmp_path / "knn.ndsl"
        assert main([
            "train", "--model", "knn", "--features", "char1",
            "--train", str(data_dir / "train.tsv"), "--out", str(model_file),
        ]) == 0
        with edited_model(model_file, tmp_path / "broken.ndsl") as parts:
            at, section = parts["header"]["params"]["labels"]["offset"], parts["section"]
            parts["section"] = section[:at] + (99).to_bytes(8, "little") + section[at + 8 :]
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "knn labels are not label indices")

    @staticmethod
    def put(parts, descriptor, index, value):
        """Overwrite element ``index`` of an array of the section with ``value``."""
        packed = struct.pack("<d" if descriptor["dtype"] == "<f8" else "<q", value)
        at, section = descriptor["offset"] + 8 * index, parts["section"]
        parts["section"] = section[:at] + packed + section[at + 8 :]

    @staticmethod
    def get(parts, descriptor, index):
        at = descriptor["offset"] + 8 * index
        return struct.unpack("<q", parts["section"][at : at + 8])[0]

    @pytest.mark.parametrize("edit", ["start", "fall"])
    def test_knn_indptr_not_from_zero_to_nnz(self, knn_file, edit, tmp_path, capsys):
        with edited_model(knn_file, tmp_path / "broken.ndsl") as parts:
            indptr = parts["header"]["params"]["vectors"]["indptr"]
            if edit == "start":
                self.put(parts, indptr, 0, 1)
            else:  # row 1 ends before row 0 does
                self.put(parts, indptr, 1, self.get(parts, indptr, 2) + 1)
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "indptr does not run from 0 to")

    def test_knn_column_out_of_range(self, knn_file, tmp_path, capsys):
        with edited_model(knn_file, tmp_path / "broken.ndsl") as parts:
            vectors = parts["header"]["params"]["vectors"]
            self.put(parts, vectors["indices"], 0, vectors["shape"][1])
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "column indices are not in 0..")

    def test_knn_columns_not_ascending(self, knn_file, tmp_path, capsys):
        with edited_model(knn_file, tmp_path / "broken.ndsl") as parts:
            indices = parts["header"]["params"]["vectors"]["indices"]
            first, second = self.get(parts, indices, 0), self.get(parts, indices, 1)
            self.put(parts, indices, 0, second)  # row 0 holds two entries at least
            self.put(parts, indices, 1, first)
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "column indices do not ascend within a row")

    def test_knn_rows_not_one_per_label(self, knn_file, tmp_path, capsys):
        with edited_model(knn_file, tmp_path / "broken.ndsl") as parts:
            labels = parts["header"]["params"]["labels"]
            assert labels["offset"] + 8 * labels["shape"][0] == len(parts["section"])
            labels["shape"][0] -= 1  # the last array of the section loses its last entry
            parts["section"] = parts["section"][:-8]
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "knn labels are not one integer per training vector")

    def test_knn_norm_not_finite(self, knn_file, tmp_path, capsys):
        with edited_model(knn_file, tmp_path / "broken.ndsl") as parts:
            self.put(parts, parts["header"]["params"]["vectors"]["data"], 0, 1e200)
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, "squared norm that is not finite")

    @pytest.mark.parametrize("orders,expect", [
        ((2.5, 5), "n-gram orders"),
        ((1, "5"), "n-gram orders"),
        ((0, 5), "n-gram orders"),
        ((4, 3), "n-gram orders"),
        ("bytes", "vocabulary is neither"),
    ])
    def test_fasttext_header_fields(self, char_fasttext_file, orders, expect, tmp_path, capsys):
        with edited_model(char_fasttext_file, tmp_path / "broken.ndsl") as parts:
            feature = parts["header"]["feature"]
            if orders == "bytes":
                feature["vocab"] = orders
            else:
                feature["vocab"]["orders"] = list(orders)
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, expect)

    @classmethod
    def break_ngram_vocab(cls, parts, vocab, edit):
        """Make one of the malformed n-gram vocabularies every model must refuse."""
        keys, (nmin, nmax) = vocab["keys"], vocab["orders"]
        if edit == "float-keys":
            keys["dtype"] = "<f8"
        elif edit == "duplicate-key":
            cls.put(parts, keys, 1, cls.get(parts, keys, 0))
        elif edit == "key-below-orders":
            cls.put(parts, keys, 3, sum(40**m for m in range(1, nmin)) - 1)
        elif edit == "key-above-orders":
            cls.put(parts, keys, 3, sum(40**m for m in range(1, nmax + 1)))
        else:  # orders above MAX_ORDER
            vocab["orders"] = [nmin, 12]

    @pytest.mark.parametrize("edit,expect", [
        ("float-keys", "keys are not one int64 array"),
        ("duplicate-key", "keys are not distinct"),
        ("key-below-orders", "keys are not keys of orders 1..5"),
        ("key-above-orders", "keys are not keys of orders 1..5"),
        ("raised-ngram-min", "keys are not keys of orders 2..5"),
        ("ngram-max-over-max-order", "n-gram orders"),
        ("words-in-char-model", "parameters are sized for"),
        ("keys-in-words-model", "entry that is not a string"),
        ("output-layer", "output layer does not fit"),
    ])
    def test_fasttext_keys(self, char_fasttext_file, edit, expect, tmp_path, capsys):
        with edited_model(char_fasttext_file, tmp_path / "broken.ndsl") as parts:
            params, feature = parts["header"]["params"], parts["header"]["feature"]
            vocab = feature["vocab"]
            if edit == "raised-ngram-min":
                vocab["orders"][0] = 2
            elif edit in ("words-in-char-model", "keys-in-words-model"):
                # a word list, of one word or of the keys themselves, in place of the keys
                keys = vocab["keys"]
                values = [self.get(parts, keys, i) for i in range(keys["shape"][0])]
                drop_last_element(parts, keys, keys["shape"][0])
                feature["vocab"] = ["hej"] if edit == "words-in-char-model" else values
            elif edit == "output-layer":
                params["output_weights"]["shape"] = params["output_weights"]["shape"][::-1]
            else:
                self.break_ngram_vocab(parts, vocab, edit)
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, expect)

    @pytest.mark.parametrize("edit", [
        "float-keys", "duplicate-key", "key-below-orders", "key-above-orders",
        "ngram-max-over-max-order",
    ])
    @pytest.mark.parametrize("kind,order", [("cnn", 2), ("logreg", 3)])
    def test_malformed_ngram_vocabulary(self, kind, order, edit, request, tmp_path, capsys):
        """The vocabulary edits of ``test_fasttext_keys``, made to a char2 CNN
        and a char3 logistic regression: the one codec refuses them alike."""
        expect = {
            "float-keys": "keys are not one int64 array",
            "duplicate-key": "keys are not distinct",
            "key-below-orders": f"keys are not keys of orders {order}..{order}",
            "key-above-orders": f"keys are not keys of orders {order}..{order}",
            "ngram-max-over-max-order": "n-gram orders",
        }[edit]
        with edited_model(request.getfixturevalue(f"{kind}_file"), tmp_path / "broken.ndsl") as parts:
            vocab = self.ngram_vocab(parts, kind)
            assert vocab["orders"] == [order, order]
            self.break_ngram_vocab(parts, vocab, edit)
        code = self.predict_with(tmp_path / "broken.ndsl", tmp_path, capsys)
        self.assert_input_error(code, capsys, expect)

    @pytest.mark.parametrize("path", ["model", "input", "out"])
    def test_predict_path_is_a_directory(self, svm_file, path, tmp_path, capsys):
        (tmp_path / "in.txt").write_text("hej med dig\n", encoding="utf-8")
        paths = {"model": svm_file, "input": tmp_path / "in.txt", "out": tmp_path / "out.txt"}
        paths[path] = tmp_path
        code = main([
            "predict", "--model-file", str(paths["model"]),
            "--input", str(paths["input"]), "--out", str(paths["out"]),
        ])
        self.assert_input_error(code, capsys, "Is a directory")

    def test_eval_model_is_a_directory(self, data_dir, tmp_path, capsys):
        code = main([
            "eval", "--model-file", str(tmp_path), "--test", str(data_dir / "test.tsv"),
            "--out-dir", str(tmp_path / "eval"),
        ])
        self.assert_input_error(code, capsys, "Is a directory")

    def test_non_utf8_input_file(self, svm_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"hej med dig\n\xff\xfe\n")
        code = main(["predict", "--model-file", str(svm_file), "--input", str(bad)])
        self.assert_input_error(code, capsys)

    def test_non_utf8_stdin(self, svm_file, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"hej med dig\n\xff\xfe\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code = main(["predict", "--model-file", str(svm_file)])
        self.assert_input_error(code, capsys)


class TestModelFileFuzz:
    """A truncated or byte-flipped model file: exit 0, or exit 2 with one error line."""

    @pytest.fixture(scope="class")
    def model_bytes(self, data_dir, tmp_path_factory):
        base = tmp_path_factory.mktemp("fuzz")
        files = {kind: train_small(kind, data_dir, base / f"{kind}.ndsl") for kind in SEVEN_KINDS}
        files["fasttext-char1_5"] = base / "fasttext-char1_5.ndsl"
        assert main([
            "train", "--model", "fasttext", "--features", "char1_5", "--epochs", "1",
            "--dim", "4", "--train", str(data_dir / "train.tsv"),
            "--out", str(files["fasttext-char1_5"]),
        ]) == 0
        return {kind: path.read_bytes() for kind, path in files.items()}

    @staticmethod
    def damage(data, draw):
        """``data`` truncated at any length, or with one byte of the header or section flipped."""
        how = draw(st.sampled_from(["truncate", "header", "section"]))
        if how == "truncate":
            return data[: draw(st.integers(0, len(data) - 1))]
        start = data.index(b"\n", data.index(b"\n") + 1) + 1  # the array section
        at = draw(st.integers(0, start - 1) if how == "header" else st.integers(start, len(data) - 1))
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]

    @pytest.mark.parametrize("kind", sorted(SEVEN_KINDS) + ["fasttext-char1_5"])
    def test_damaged_model_file(self, model_bytes, kind, tmp_path):
        (tmp_path / "in.txt").write_text("hej med dig\n\nog så videre\n", encoding="utf-8")
        args = ["predict", "--model-file", str(tmp_path / "m.ndsl"),
                "--input", str(tmp_path / "in.txt"), "--out", str(tmp_path / "out.txt")]

        @settings(max_examples=150, deadline=None, database=None)
        @given(st.data())
        def check(data):
            (tmp_path / "m.ndsl").write_bytes(self.damage(model_bytes[kind], data.draw))
            err = io.StringIO()
            with redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(args)  # an escaping exception fails the test
            assert code in (0, 2)
            if code == 0:  # a warning would print to stderr
                assert [str(w.message) for w in caught] == []
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")

        check()


class TestPredictBytes:
    """Any bytes as ``--input`` or stdin: exit 0 with one label per LF-split
    line, or exit 2 with one error line."""

    @pytest.fixture(scope="class")
    def model_files(self, data_dir, tmp_path_factory):
        base = tmp_path_factory.mktemp("bytes")
        return {kind: train_small(kind, data_dir, base / f"{kind}.ndsl") for kind in ("knn", "nb")}

    @pytest.mark.parametrize("source", ["input", "stdin"])
    @pytest.mark.parametrize("kind", ["knn", "nb"])
    def test_any_bytes(self, model_files, kind, source, tmp_path, monkeypatch):
        texts = st.text(st.characters(codec="utf-8"), max_size=40).map(str.encode)
        lines = st.lists(st.one_of(texts, st.binary(max_size=20)), max_size=6)

        @settings(max_examples=60, deadline=None, database=None)
        @given(lines.map(b"\n".join), st.sampled_from([b"", b"\n", b"\r\n"]))
        def check(body, end):
            data = body + end
            out = tmp_path / "out.txt"
            args = ["predict", "--model-file", str(model_files[kind]), "--out", str(out)]
            if source == "input":
                (tmp_path / "in.bin").write_bytes(data)
                args += ["--input", str(tmp_path / "in.bin")]
            else:
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            out.write_bytes(b"")
            err = io.StringIO()
            with redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(args)
            assert [str(w.message) for w in caught] == []
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: ")
                return
            assert code == 0 and err.getvalue() == ""
            lines = data.split(b"\n")
            expected = len(lines) - (lines[-1] == b"")
            labels = out.read_text(encoding="utf-8").split("\n")
            assert labels.pop() == "" and len(labels) == expected
            assert all(label in LABELS for label in labels)

        check()


class TestPredictLines:
    @pytest.fixture(scope="class")
    def model_files(self, data_dir, tmp_path_factory):
        base = tmp_path_factory.mktemp("kinds")
        return {kind: train_small(kind, data_dir, base / f"{kind}.ndsl") for kind in SEVEN_KINDS}

    @staticmethod
    def predict(model_file, text, tmp_path, capsys):
        (tmp_path / "in.txt").write_bytes(text.encode("utf-8"))
        capsys.readouterr()
        code = main(["predict", "--model-file", str(model_file), "--input", str(tmp_path / "in.txt")])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("kind", sorted(SEVEN_KINDS))
    def test_empty_and_unusable_lines_get_labels(self, model_files, kind, tmp_path, capsys):
        text = "hej med dig\n\n!!! 42\nqqq\nog så videre\n"
        code, captured = self.predict(model_files[kind], text, tmp_path, capsys)
        assert code == 0 and captured.err == ""
        labels = captured.out.splitlines()
        assert len(labels) == 5 and all(label in LABELS for label in labels)
        # lines with nothing left after cleaning are labelled alike, alone or not
        assert labels[1] == labels[2]
        _, blank = self.predict(model_files[kind], "\n", tmp_path, capsys)
        assert blank.out == labels[1] + "\n"

    def test_one_label_per_newline(self, model_files, tmp_path, capsys):
        breakers = "\x0c\x1c\x1d\x1e\x85\u2028\u2029\x0b"
        text = "".join(f"hej{ch}med dig\n" for ch in breakers) + "og så\r\n"
        code, captured = self.predict(model_files["logreg"], text, tmp_path, capsys)
        assert code == 0
        assert len(captured.out.splitlines()) == text.count("\n") == len(breakers) + 1
        _, unterminated = self.predict(model_files["logreg"], "hej\ndu", tmp_path, capsys)
        assert len(unterminated.out.splitlines()) == 2

    def test_crlf_line_equals_lf_line(self, model_files, tmp_path, capsys):
        _, lf = self.predict(model_files["nb"], "hej med dig\nog så\n", tmp_path, capsys)
        _, crlf = self.predict(model_files["nb"], "hej med dig\r\nog så\r\n", tmp_path, capsys)
        assert crlf.out == lf.out


class TestUncleanedTsv:
    """A dataset TSV whose text leaves the alphabet: exit 2, one error line."""

    @pytest.fixture()
    def bad_tsv(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("dk\thej med dig\nsv\tHej du\n", encoding="utf-8")
        return path

    @staticmethod
    def assert_row_error(code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: line 2: character 'H' is outside the 40-character alphabet"]

    def test_profile(self, bad_tsv, tmp_path, capsys):
        code = main(["profile", "--input", str(bad_tsv), "--out", str(tmp_path / "p.csv")])
        self.assert_row_error(code, capsys)

    def test_train(self, bad_tsv, tmp_path, capsys):
        code = main(["train", "--model", "nb", "--features", "char2",
                     "--train", str(bad_tsv), "--out", str(tmp_path / "m.ndsl")])
        self.assert_row_error(code, capsys)

    def test_line_separator_is_a_character(self, tmp_path, capsys):
        path = tmp_path / "sep.tsv"
        path.write_text("dk\thej\u2028med dig\nsv\thej du\n", encoding="utf-8")
        code = main(["profile", "--input", str(path), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: line 1: character '\\u2028' is outside the 40-character alphabet"
        ]


class TestReduceSweepProfile:
    def test_reduce_pca_output_shape(self, data_dir, tmp_path):
        out = tmp_path / "proj.tsv"
        assert main([
            "reduce", "--method", "pca", "--input", str(data_dir / "train.tsv"),
            "--out", str(out), "--max-points", "60",
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 60
        label, x, y = lines[0].split("\t")
        assert label in LABELS
        float(x), float(y)

    def test_reduce_tsne_deterministic(self, data_dir, tmp_path):
        args = [
            "reduce", "--method", "tsne", "--input", str(data_dir / "train.tsv"),
            "--out", str(tmp_path / "t.tsv"), "--max-points", "30",
            "--perplexity", "8", "--iterations", "60", "--seed", "3",
        ]
        assert main(args) == 0
        first = (tmp_path / "t.tsv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "t.tsv").read_bytes() == first

    def test_reduce_tsne_on_csr_char3_rows(self, data_dir, tmp_path):
        out = tmp_path / "t.tsv"
        assert main([
            "reduce", "--method", "tsne", "--features", "char3",
            "--input", str(data_dir / "train.tsv"), "--out", str(out),
            "--max-points", "30", "--perplexity", "5", "--iterations", "40",
        ]) == 0
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 30
        assert all(math.isfinite(float(v)) for _, x, y in rows for v in (x, y))

    @pytest.mark.parametrize("method, flag, value", [
        ("pca", "--max-points", "-1"),
        ("tsne", "--max-points", "0"),
        ("tsne", "--iterations", "-1"),
    ])
    def test_reduce_rejects_bad_counts(self, data_dir, tmp_path, capsys, method, flag, value):
        out = tmp_path / "proj.tsv"
        code = main([
            "reduce", "--method", method, "--input", str(data_dir / "train.tsv"),
            "--out", str(out), flag, value,
        ])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("features", ["cbow", "skipgram"])
    def test_reduce_refuses_raw_counts_for_an_embedding(self, data_dir, tmp_path, capsys,
                                                        features):
        out = tmp_path / "proj.tsv"
        capsys.readouterr()
        code = main([
            "reduce", "--method", "pca", "--features", features, "--raw-counts",
            "--input", str(data_dir / "train.tsv"), "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: --raw-counts does not apply to --features {features}\n")
        assert not out.exists()

    def test_sweep_csv(self, data_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--train", str(data_dir / "train.tsv"),
            "--test", str(data_dir / "test.tsv"), "--out", str(out),
            "--grams", "1", "--kernels", "1,2", "--epochs", "1",
            "--filters", "2", "--embed-dim", "3", "--max-len", "32",
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "gram,kernel,accuracy"
        assert len(lines) == 3
        for line in lines[1:]:
            gram, kernel, accuracy = line.split(",")
            assert 0.0 <= float(accuracy) <= 1.0

    def test_profile_raw_counts(self, data_dir, tmp_path):
        out = tmp_path / "profile.csv"
        assert main([
            "profile", "--input", str(data_dir / "train.tsv"), "--out", str(out),
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "char," + ",".join(LABELS)
        assert len(lines) == 41
        assert lines[-1].startswith("<space>,")
