#!/usr/bin/env python3
"""End-to-end benchmark of the nordlid command line.

Run from the repository root:

    python3 perfbench/run.py --workload char2-grid --seed 1 --seconds 30 --trace 0

A run generates its inputs from --seed with ``nordlid.synth`` before any
timing, then issues the workload's CLI commands one at a time, each in
its own child process with BLAS and OpenMP pinned to one thread (see
``cmdserver.py``). It checks the outputs against the oracles in
``oracles.py`` and prints one JSON result as the last line of stdout,
after a line holding the run's provenance. With ``--trace 0`` the result
carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
same commands run traced (see ``tracer.py``) and the result carries the
per-layer metrics instead, including the tracing overhead. README.md has
the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import os

#: Pinned before numpy loads, here and in every child process.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer  # noqa: E402

LABELS = oracles.LABELS

PER_CLASS = 1000  # sentences per language, wiki and chat alike
SPLIT_RATIO = 0.8
CHAT_EVAL_PER_CLASS = 100  # chat sentences per language that each model is scored on
SLICE_PER_CLASS = 4  # test and chat lines per language for KNN's exhaustive search
PROJECT_PER_CLASS = 50  # training sentences per language in a projection sample
#: PCA samples per run. Power iteration's time depends on a sample's
#: eigenvalue gaps, so one sample's PCA took anywhere from 0.4 to 4.4 s;
#: project_s takes the median over these samples.
PROJECT_SAMPLES = 5
MIN_ROUNDS = 3  # repeats of set-up and one-line predicts behind each median
MAX_ROUNDS = 60
#: A model's one-line predicts repeat until their times add up to this or
#: MAX_COLD samples, so that a median of 20 ms commands rests on more than
#: three of them.
COLD_SECONDS = 0.5
MAX_COLD = 15
INPUT_CACHE_SEEDS = 40  # generated input sets kept for reuse


@dataclass(frozen=True)
class Model:
    model: str
    features: str
    flags: tuple[str, ...] = ()
    serve_slice: bool = False  # score and predict on the small per-language slice

    @property
    def name(self) -> str:
        return f"{self.model}-{self.features}"

    @property
    def file(self) -> str:
        return f"{self.name}.ndsl"


_EMBED_FLAGS = (
    "--embed-epochs", "1", "--window", "1", "--negatives", "1", "--dim", "50", "--epochs", "100",
)

#: Epochs and windows are trimmed so a run stays well under a minute;
#: each workload's dominant layer stays dominant (see README.md).
WORKLOADS = {
    "char2-grid": (
        Model("logreg", "char2", ("--epochs", "100")),
        Model("nb", "char2"),
        Model("svm", "char2", ("--epochs", "2")),
        Model("mlp", "char2", ("--epochs", "2")),
        Model("cnn", "char2", ("--epochs", "1")),
    ),
    "char3-wide": (
        Model("logreg", "char3", ("--epochs", "5")),
        Model("nb", "char3"),
        Model("svm", "char3", ("--epochs", "1")),
        Model("fasttext", "char1_5", ("--epochs", "1", "--dim", "10")),
    ),
    "embed-serve": (
        Model("logreg", "skipgram", _EMBED_FLAGS),
        Model("logreg", "cbow", _EMBED_FLAGS),
        Model("fasttext", "bow", ("--epochs", "1")),
        Model("knn", "char2", serve_slice=True),
    ),
}

#: The model trained a second time to check byte-identical output. The
#: cheapest char3-wide model takes 2.5 s, so that workload has none.
RETRAIN = {"char2-grid": "svm-char2", "embed-serve": "fasttext-bow"}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def settle(path: Path) -> None:
    """Flush a command's output file to disk, so that write-back of it
    does not run under the next timed command."""
    if path.exists():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())


def read_tsv(path: Path) -> list[tuple[str, str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        label, text = line.split("\t")
        rows.append((label, text))
    return rows


def write_tsv(path: Path, rows: list[tuple[str, str]]) -> None:
    path.write_text("".join(f"{label}\t{text}\n" for label, text in rows), encoding="utf-8")


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def first_per_class(rows: list[tuple[str, str]], n: int) -> list[tuple[str, str]]:
    taken = Counter()
    out = []
    for label, text in rows:
        if taken[label] < n:
            taken[label] += 1
            out.append((label, text))
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def generate_inputs(root: Path, seed: int) -> Path:
    """The seed's raw text, chat set and expected cleaning, generated once
    per checkout and per generator source; later runs with the seed reuse
    them."""
    digest = hashlib.sha256(str(PER_CLASS).encode())
    for path in (root / "src" / "nordlid" / "synth.py", root / "src" / "nordlid" / "corpus.py",
                 HERE / "oracles.py"):
        digest.update(path.read_bytes())
    cache = HERE / "work" / "inputs" / f"{seed}-{digest.hexdigest()[:16]}"
    if (cache / "expected.json").is_file():
        return cache
    from nordlid.synth import generate_pools

    wiki = generate_pools(PER_CLASS, genre="wiki", seed=seed)
    chat = generate_pools(PER_CLASS, genre="chat", seed=seed + 1)
    rng = random.Random(seed)
    partial = cache.with_name(cache.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    (partial / "raw").mkdir(parents=True)
    expected_clean = {}
    for code in LABELS:
        raw, expected_clean[code] = oracles.render_raw_text([s.text for s in wiki[code]], rng)
        (partial / "raw" / f"{code}.txt").write_text(raw, encoding="utf-8")
    write_tsv(partial / "chat.tsv", [(code, s.text) for code in LABELS for s in chat[code]])
    (partial / "expected.json").write_text(json.dumps(expected_clean), encoding="utf-8")
    shutil.rmtree(cache, ignore_errors=True)
    partial.rename(cache)
    entries = sorted(cache.parent.iterdir(), key=lambda p: p.stat().st_mtime)
    for old in entries[:-INPUT_CACHE_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return cache


class Inputs:
    """Generated corpora plus the files derived from the split."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.work = work
        self.seed = seed
        cache = generate_inputs(root, seed)
        shutil.copytree(cache / "raw", work / "raw")
        shutil.copyfile(cache / "chat.tsv", work / "chat.tsv")
        self.expected_clean = json.loads((cache / "expected.json").read_text(encoding="utf-8"))
        self.chat = read_tsv(work / "chat.tsv")

    def derive(self) -> None:
        """Files cut from the split: scoring sets, slices and samples."""
        work = self.work
        self.train = read_tsv(work / "train.tsv")
        self.test = read_tsv(work / "test.tsv")
        self.chat_eval = first_per_class(self.chat, CHAT_EVAL_PER_CLASS)
        self.test_slice = first_per_class(self.test, SLICE_PER_CLASS)
        self.chat_slice = first_per_class(self.chat_eval, SLICE_PER_CLASS)
        self.lines = {}
        for name, rows in (("test.tsv", self.test), ("chat-eval.tsv", self.chat_eval),
                           ("test-slice.tsv", self.test_slice),
                           ("chat-slice.tsv", self.chat_slice)):
            if name != "test.tsv":
                write_tsv(work / name, rows)
            self.lines[name] = len(rows)
        write_lines(work / "test.txt", [text for _, text in self.test])
        write_lines(work / "test-slice.txt", [text for _, text in self.test_slice])
        write_lines(work / "one.txt", [self.test[0][1]])
        rng = random.Random(self.seed)
        members = {code: [row for row in self.train if row[0] == code] for code in LABELS}
        self.samples = []
        for k in range(PROJECT_SAMPLES):
            sample = [row for code in LABELS
                      for row in rng.sample(members[code], PROJECT_PER_CLASS)]
            write_tsv(work / f"sample-{k}.tsv", sample)
            self.samples.append(sample)

    def scoring_sets(self, model: Model) -> tuple[str, str, str]:
        """(test tsv, chat tsv, predict input holding the test tsv's text)."""
        if model.serve_slice:
            return "test-slice.tsv", "chat-slice.tsv", "test-slice.txt"
        return "test.tsv", "chat-eval.tsv", "test.txt"

    def hashes(self) -> dict[str, str]:
        files = sorted((self.work / "raw").iterdir()) + [self.work / "chat.tsv"]
        return {str(p.relative_to(self.work)): sha256(p) for p in files}


# ---------------------------------------------------------------------------
# Command server client
# ---------------------------------------------------------------------------


class CommandServer:
    """Client of cmdserver.py: one command at a time, each in a fresh child."""

    def __init__(self, root: Path, work: Path, trace: bool):
        env = dict(os.environ, **THREAD_PINS)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.work = work
        self.trace = trace
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "cmdserver.py")] + (["--trace"] if trace else []),
            cwd=work, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )

    def run(self, argv: list[str], tag: str) -> dict:
        logs = self.work / "logs"
        request = {
            "argv": argv,
            "stdout": str(logs / f"{tag}.out"),
            "stderr": str(logs / f"{tag}.err"),
            "trace": str(logs / f"{tag}.trace.json") if self.trace else None,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("command server exited; see its stderr above")
        return json.loads(line)

    def close(self, kill: bool = False) -> None:
        """Stop the server and everything it started, and wait for it.
        Without ``kill`` the command in flight may finish first."""
        if not kill:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(kill=exc_type is not None)


# ---------------------------------------------------------------------------
# One pass of a workload's commands
# ---------------------------------------------------------------------------


@dataclass
class Record:
    stage: str
    argv: list[str]
    seconds: float
    rss_mb: float
    rc: int
    ops: int  # one per command, one per predicted line for predict and eval
    tag: str
    model: str | None = None


class Pass:
    def __init__(self, server: CommandServer):
        self.server = server
        self.records: list[Record] = []

    def cmd(self, stage: str, argv: list[str], ops: int = 1, model: str | None = None) -> Record:
        tag = f"{len(self.records):03d}-{stage}"
        reply = self.server.run(argv, tag)
        # A child that died before reporting has no time: NaN, and rc != 0.
        seconds = math.nan if reply["seconds"] is None else reply["seconds"]
        record = Record(stage, argv, seconds, reply["maxrss_kb"] / 1024.0,
                        reply["rc"], ops, tag, model)
        self.records.append(record)
        if record.rc != 0:
            err = (self.server.work / "logs" / f"{tag}.err").read_text(errors="replace")
            log(f"command failed with exit {record.rc}: nordlid {' '.join(argv)}\n{err[-2000:]}")
        return record

    def stdout(self, record: Record) -> str:
        return (self.server.work / "logs" / f"{record.tag}.out").read_text(encoding="utf-8")

    def setup(self, suffix: str) -> float:
        """corpus clean plus corpus split; returns their summed seconds."""
        clean = self.cmd("setup", ["corpus", "clean", "--raw-dir", "raw",
                                   "--out", f"data{suffix}.tsv", "--per-class", str(PER_CLASS)])
        split = self.cmd("setup", ["corpus", "split", "--input", f"data{suffix}.tsv",
                                   "--train-out", f"train{suffix}.tsv",
                                   "--test-out", f"test{suffix}.tsv",
                                   "--ratio", str(SPLIT_RATIO)])
        return clean.seconds + split.seconds

    def one_line(self, model: Model) -> Record:
        return self.cmd("cold", ["predict", "--model-file", model.file, "--input", "one.txt",
                                 "--out", f"one-{model.name}.txt"], model=model.name)


def serve(p: Pass, inputs: Inputs, models, suffix: str) -> None:
    """Every model's evals, batch predict and one-line predict."""
    for m in models:
        test_tsv, chat_tsv, _ = inputs.scoring_sets(m)
        for tsv, stage in ((test_tsv, "eval"), (chat_tsv, "eval-chat")):
            p.cmd(stage, ["eval", "--model-file", m.file, "--test", tsv,
                          "--out-dir", f"report-{m.name}-{stage}{suffix}"],
                  ops=inputs.lines[tsv], model=m.name)
    for m in models:
        test_tsv, _, text = inputs.scoring_sets(m)
        p.cmd("predict", ["predict", "--model-file", m.file, "--input", text,
                          "--out", f"pred-{m.name}{suffix}.txt"],
              ops=inputs.lines[test_tsv], model=m.name)
    for m in models:
        p.one_line(m)


def run_pass(server, inputs: Inputs, models, workload: str, deadline: float | None,
             min_rounds: int, cold_seconds: float) -> tuple[Pass, list[float], int]:
    """Set-up, training and projection once; then rounds of set-up and serving.

    The first round is the first set-up plus every serving command. More
    full rounds follow while one more still fits before the deadline.
    Short rounds of set-up and one-line predicts then make up
    ``min_rounds``, so that every median has at least that many samples.
    Last, each model's one-line predicts repeat until they take
    ``cold_seconds`` in all.
    """
    p = Pass(server)
    setup_seconds = [p.setup("")]
    inputs.derive()
    for m in models:
        p.cmd("train", ["train", "--model", m.model, "--features", m.features,
                        "--train", "train.tsv", "--out", m.file, *m.flags], model=m.name)
        settle(inputs.work / m.file)
    if workload in RETRAIN:
        m = next(m for m in models if m.name == RETRAIN[workload])
        p.cmd("retrain", ["train", "--model", m.model, "--features", m.features,
                          "--train", "train.tsv", "--out", f"retrain-{m.file}", *m.flags],
              model=m.name)
    for k in range(PROJECT_SAMPLES):
        p.cmd("pca", ["reduce", "--method", "pca", "--input", f"sample-{k}.tsv",
                      "--out", f"pca-{k}.tsv"])
    p.cmd("tsne", ["reduce", "--method", "tsne", "--input", "sample-0.tsv", "--out", "tsne.tsv"])
    started = time.perf_counter()
    serve(p, inputs, models, "")
    round_seconds = time.perf_counter() - started
    rounds = 1
    while (deadline is not None and rounds < MAX_ROUNDS
           and time.perf_counter() + round_seconds < deadline):
        setup_seconds.append(p.setup("-round"))
        serve(p, inputs, models, "-round")
        rounds += 1
    while rounds < min_rounds:
        setup_seconds.append(p.setup("-round"))
        for m in models:
            p.one_line(m)
        rounds += 1
    for m in models:
        cold = [r.seconds for r in p.records if r.stage == "cold" and r.model == m.name]
        while len(cold) < MAX_COLD and sum(cold) < cold_seconds:
            cold.append(p.one_line(m).seconds)
    return p, setup_seconds, rounds


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.results: dict[str, dict] = {}

    def record(self, name: str, ok: bool, **detail) -> None:
        self.results[name] = {"ok": bool(ok), **detail}
        if not ok:
            log(f"check failed: {name} {detail}")

    def attempt(self, name: str, check, *args):
        """Run one check and return its result; a missing or malformed
        output fails it and returns None."""
        try:
            return check(self, *args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.record(name, False, error=f"{type(exc).__name__}: {exc}")
            return None

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results.values())


def check_setup(checks: Checks, inputs: Inputs, rounds: int) -> None:
    work = inputs.work
    data = read_tsv(work / "data.tsv")
    cleaned = {code: Counter() for code in LABELS}
    for label, text in data:
        cleaned[label][text] += 1
    bad = [code for code in LABELS if cleaned[code] != Counter(inputs.expected_clean[code])]
    checks.record("clean_exact", not bad, mismatched_labels=bad,
                  per_class={code: sum(cleaned[code].values()) for code in LABELS})
    train, test = read_tsv(work / "train.tsv"), read_tsv(work / "test.tsv")
    cut = math.floor(SPLIT_RATIO * PER_CLASS)
    sizes_ok = all(
        sum(1 for label, _ in train if label == code) == cut
        and sum(1 for label, _ in test if label == code) == PER_CLASS - cut
        for code in LABELS
    )
    checks.record("split_partition", sizes_ok and Counter(train) + Counter(test) == Counter(data),
                  train=len(train), test=len(test))
    if rounds > 1:
        same = all(
            (work / f"{stem}-round.tsv").read_bytes() == (work / f"{stem}.tsv").read_bytes()
            for stem in ("data", "train", "test")
        )
        checks.record("setup_repeatable", same)


def check_predictions(checks: Checks, p: Pass, inputs: Inputs, models) -> dict[str, list[str]]:
    """Labels are valid, and each eval accuracy equals the predict share."""
    predictions = {}
    evals = {(r.model, r.stage): r for r in p.records if r.stage in ("eval", "eval-chat")}
    for m in models:
        test_tsv, _, _ = inputs.scoring_sets(m)
        gold = [label for label, _ in read_tsv(inputs.work / test_tsv)]
        predicted = (inputs.work / f"pred-{m.name}.txt").read_text(encoding="utf-8").splitlines()
        predictions[m.name] = predicted
        checks.record(f"labels_valid[{m.name}]",
                      len(predicted) == len(gold) and all(label in LABELS for label in predicted),
                      lines=len(predicted))
        share = sum(a == b for a, b in zip(predicted, gold)) / len(gold)
        accuracy = parse_accuracy(p.stdout(evals[(m.name, "eval")]))
        checks.record(f"eval_matches_predict[{m.name}]", accuracy == share,
                      eval=accuracy, predict=share)
        repeat = inputs.work / f"pred-{m.name}-round.txt"
        if repeat.exists():
            checks.record(f"predict_repeatable[{m.name}]",
                          repeat.read_bytes() == (inputs.work / f"pred-{m.name}.txt").read_bytes())
    return predictions


def check_nb(checks: Checks, inputs: Inputs, model: Model, predicted: list[str]) -> None:
    n = int(model.features[-1])
    oracle = oracles.NaiveBayesOracle(
        [t for _, t in inputs.train], [lab for lab, _ in inputs.train], n
    )
    wrong = undecided = 0
    for (_, text), label in zip(inputs.test, predicted):
        expected, decided = oracle.predict(text)
        undecided += not decided
        wrong += decided and label != expected
    checks.record(f"nb_oracle[{model.name}]", wrong == 0 and len(predicted) == len(inputs.test),
                  disagreements=wrong, near_ties=undecided, lines=len(predicted))


def check_knn(checks: Checks, inputs: Inputs, model: Model, predicted: list[str]) -> None:
    n = int(model.features[-1])
    train_texts = [t for _, t in inputs.train]
    vocab = sorted({g for t in train_texts for g in oracles.char_ngrams(t, n)})
    train = oracles.l1_count_matrix(train_texts, vocab, n)
    queries = oracles.l1_count_matrix([t for _, t in inputs.test_slice], vocab, n)
    labels = [lab for lab, _ in inputs.train]
    wrong = undecided = 0
    for query, label in zip(queries, predicted):
        expected, decided = oracles.knn_predict(train, labels, query, k=3)
        undecided += not decided
        wrong += decided and label != expected
    checks.record(f"knn_oracle[{model.name}]",
                  wrong == 0 and len(predicted) == len(inputs.test_slice),
                  disagreements=wrong, near_ties=undecided, lines=len(predicted))


def read_projection(path: Path) -> tuple[list[str], np.ndarray]:
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    return [r[0] for r in rows], np.array([[float(r[1]), float(r[2])] for r in rows])


def check_pca(checks: Checks, inputs: Inputs, k: int) -> None:
    sample = inputs.samples[k]
    texts = [t for _, t in sample]
    labels = [lab for lab, _ in sample]
    vocab = sorted({g for t in texts for g in oracles.char_ngrams(t, 2)})
    eigenvalues = oracles.top_eigenvalues(oracles.l1_count_matrix(texts, vocab, 2), 2)
    pca_labels, pca = read_projection(inputs.work / f"pca-{k}.tsv")
    centered = pca - pca.mean(axis=0)
    cov = centered.T @ centered / len(pca)
    variance_error = float(np.max(np.abs(np.diag(cov) - eigenvalues) / eigenvalues))
    correlation = float(abs(cov[0, 1]) / math.sqrt(cov[0, 0] * cov[1, 1]))
    checks.record(f"pca_oracle[{k}]", pca_labels == labels and variance_error <= 1e-6
                  and correlation <= 1e-6,
                  variance_rel_error=variance_error, correlation=correlation)


def check_tsne(checks: Checks, inputs: Inputs) -> None:
    labels = [lab for lab, _ in inputs.samples[0]]
    tsne_labels, tsne = read_projection(inputs.work / "tsne.tsv")
    hits, chance = oracles.same_label_neighbours(tsne, tsne_labels)
    checks.record("tsne_invariants", tsne_labels == labels and bool(np.isfinite(tsne).all())
                  and hits > chance, same_label_neighbours=hits, chance=chance)


def parse_accuracy(stdout: str) -> float:
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        if key == "accuracy":
            return float(value)
    raise ValueError("eval printed no accuracy line")


def check_retrain(checks: Checks, inputs: Inputs, model: Model) -> None:
    same = sha256(inputs.work / model.file) == sha256(inputs.work / f"retrain-{model.file}")
    checks.record("retrain_identical", same, model=model.file)


def run_checks(p: Pass, inputs: Inputs, models, workload: str, rounds: int) -> Checks:
    checks = Checks()
    checks.attempt("setup", check_setup, inputs, rounds)
    predictions = checks.attempt("predictions", check_predictions, p, inputs, models) or {}
    for m in models:
        if m.name not in predictions:
            continue
        if m.model == "nb":
            checks.attempt(f"nb_oracle[{m.name}]", check_nb, inputs, m, predictions[m.name])
        if m.model == "knn":
            checks.attempt(f"knn_oracle[{m.name}]", check_knn, inputs, m, predictions[m.name])
    for k in range(PROJECT_SAMPLES):
        checks.attempt(f"pca_oracle[{k}]", check_pca, inputs, k)
    checks.attempt("tsne_invariants", check_tsne, inputs)
    if workload in RETRAIN:
        retrained = next(m for m in models if m.name == RETRAIN[workload])
        checks.attempt("retrain_identical", check_retrain, inputs, retrained)
    return checks


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(p: Pass, setup_seconds: list[float], inputs: Inputs, models) -> dict[str, float]:
    def seconds(*stages):
        return sum(r.seconds for r in p.records if r.stage in stages)

    def ops(*stages):
        return sum(r.ops for r in p.records if r.stage in stages)

    cold = {}
    for r in p.records:
        if r.stage == "cold":
            cold.setdefault(r.model, []).append(r.seconds)
    # Pooled over every scored line, so a model scored on a small slice
    # (KNN) moves the figure by its share of lines only.
    correct = Counter()
    for r in p.records:
        if r.stage in ("eval", "eval-chat"):
            if r.rc == 0:  # a failed eval scored nothing right
                correct[r.stage] += round(parse_accuracy(p.stdout(r)) * r.ops)
    return {
        "setup_s": statistics.median(setup_seconds),
        "train_s": seconds("train"),
        "eval_lines_per_s": ops("eval", "eval-chat") / seconds("eval", "eval-chat"),
        "predict_lines_per_s": ops("predict") / seconds("predict"),
        "cold_predict_ms": 1e3 * sum(statistics.median(v) for v in cold.values()),
        "project_s": statistics.median(r.seconds for r in p.records if r.stage == "pca")
        + seconds("tsne"),
        "model_bytes": float(sum((inputs.work / m.file).stat().st_size for m in models)),
        "peak_rss_mb": max(r.rss_mb for r in p.records),
        "accuracy": correct["eval"] / ops("eval"),
        "ood_accuracy": correct["eval-chat"] / ops("eval-chat"),
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def openblas_version() -> str | None:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nordlid").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, args, inputs: Inputs, models, rounds: int, checks: Checks,
               p: Pass) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "inputs_sha256": inputs.hashes(),
        "models_sha256": {m.file: sha256(inputs.work / m.file) for m in models
                          if (inputs.work / m.file).exists()},
        "numpy": np.__version__,
        "openblas": openblas_version(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "checks": checks.results,
        "commands": [
            {"stage": r.stage, "argv": r.argv, "seconds": r.seconds, "rss_mb": r.rss_mb,
             "rc": r.rc}
            for r in p.records
        ],
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def self_test() -> None:
    """Run the oracles' own tests; a broken oracle stops the run."""
    import test_oracles

    for name in sorted(vars(test_oracles)):
        if name.startswith("test_"):
            try:
                getattr(test_oracles, name)()
            except AssertionError as exc:
                raise BenchmarkError(f"oracle self-test {name} failed: {exc}") from exc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; serving rounds repeat while one more fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through CommandServer.__exit__


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    try:
        return measure(root, args)
    except BenchmarkError as exc:
        log(f"error: {exc}")
        return 2


def measure(root: Path, args) -> int:
    if not (root / "src" / "nordlid" / "cli.py").is_file():
        raise BenchmarkError(f"no nordlid sources under {root / 'src'}; run from the repo root")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchmarkError(f"no BENCHMARK.json in {root}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    self_test()
    sys.path.insert(0, str(root / "src"))

    models = WORKLOADS[args.workload]
    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    log(f"{args.workload} seed {args.seed}: preparing inputs")
    inputs = Inputs(root, work, args.seed)

    trace = bool(args.trace)
    with CommandServer(root, work, trace=trace) as server:
        deadline = None if trace else time.perf_counter() + args.seconds
        p, setup_seconds, rounds = run_pass(server, inputs, models, args.workload, deadline,
                                            min_rounds=1 if trace else MIN_ROUNDS,
                                            cold_seconds=0.0 if trace else COLD_SECONDS)
    checks = run_checks(p, inputs, models, args.workload, rounds)
    record = provenance(root, args, inputs, models, rounds, checks, p)

    if trace:
        values, record["trace_missing"], record["trace_errors"] = tracer.summarize([
            json.loads((work / "logs" / f"{r.tag}.trace.json").read_text(encoding="utf-8"))
            for r in p.records
        ])
        if record["trace_missing"] or record["trace_errors"]:
            log(f"trace: missing {record['trace_missing']}, errors {record['trace_errors']}")
        wanted = spec["per_layer"]
    else:
        values = end_to_end(p, setup_seconds, inputs, models)
        wanted = spec["end_to_end"]

    (work / "provenance.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    result = {
        "correct": checks.ok,
        "attempted": sum(r.ops for r in p.records),
        "failed": sum(r.ops for r in p.records if r.rc != 0),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"provenance": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
