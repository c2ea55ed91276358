"""Span tracing of nordlid's layers, installed from the benchmark's side.

``Tracer.install`` wraps every public function and public method of the
layer modules and rebinds each wrapper wherever the original is bound,
so ``cli``'s ``from .features import count_matrix`` is traced as well as
``features.count_matrix``. A span is (id, name, start, end, parent);
spans stay in memory and are written out when the command ends. A
layer's self time is its spans' time minus the time their child spans
cover, so ``cli.self_s`` is command time that no layer span covers.

After a command, single calls of the hot inner functions are timed on
the arguments the command itself passed them (its own data), with the
wrappers switched off. ``summarize`` folds the written reports into the
per-layer metrics of BENCHMARK.json. A metric whose functions the
workload never calls reads 0; a metric whose function no longer exists
is listed as missing.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = (
    "corpus", "features", "embeddings", "classifiers", "neural",
    "reduce", "evaluation", "modelio", "cli",
)

#: Called once per subword of every vocabulary word (about a million
#: times per skip-gram run), so a wrapper would mostly time itself. Its
#: time stays in its caller, which is in the same layer.
UNWRAPPED = frozenset({"embeddings.fnv1a"})

#: Spans beyond this many per command are counted but not recorded.
SPAN_RECORD_CAP = 20_000

MICRO_REPEATS = 3


def _count_sentences(tracer, bound, result):
    tracer.counts["corpus.sentences"] += len(result)


def _vocab_size(tracer, bound, result):
    tracer.maxima["features.vocab_size"] = max(
        tracer.maxima.get("features.vocab_size", 0), result.size
    )


def _keep_design(tracer, bound, result):
    if tracer.design is None or result.nbytes > tracer.design.nbytes:
        tracer.design = result


def _embedding_run(tracer, bound, result):
    tracer.counts["embeddings.table_rows"] += result.vectors.shape[0]
    tracer.embedding_runs.append((bound["corpus"], bound["cfg"].epochs))


def _supervised_rows(tracer, bound, result):
    tracer.counts["embeddings.supervised_rows"] += result.input_vectors.shape[0]


def _svm_steps(tracer, bound, result):
    tracer.counts["classifiers.svm_steps"] += len(bound["train_y"]) * bound["epochs"]


def _tsne_iterations(tracer, bound, result):
    tracer.counts["reduce.tsne_iterations"] += bound["iterations"]


def _capture(key):
    def hook(tracer, bound, result):
        tracer.captured.setdefault(key, bound)

    return hook


#: Post-call hooks: they read a call's bound arguments and result.
HOOKS = {
    "corpus.load_dataset_tsv": _count_sentences,
    "features.build_ngram_vocab": _vocab_size,
    "features.build_word_vocab": _vocab_size,
    "features.count_matrix": _keep_design,
    "embeddings.train_skipgram": _embedding_run,
    "embeddings.train_cbow": _embedding_run,
    "embeddings.train_fasttext_supervised": _supervised_rows,
    "classifiers.train_svm": _svm_steps,
    "reduce.tsne_optimize": _tsne_iterations,
    "classifiers.logreg_gradient": _capture("logreg"),
    "neural.mlp_grads": _capture("mlp"),
    "neural.cnn_grads": _capture("cnn"),
    "classifiers.knn_predict": _capture("knn"),
}


class Tracer:
    def __init__(self):
        self.originals: dict[str, types.FunctionType] = {}
        self.enabled = False
        self.call_cost = 0.0  # seconds a wrapper adds to one call
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []
        self.next_id = 0
        self.agg: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.design = None
        self.embedding_runs: list[tuple] = []
        self.captured: dict[str, dict] = {}
        self.hook_errors: Counter = Counter()
        self.hook_seconds = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules' public functions and methods in place."""
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "nordlid" or name.startswith("nordlid."))
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"nordlid.{layer}")
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    name = f"{layer}.{attr}"
                    if name in UNWRAPPED:
                        continue
                    wrapper = self._wrap(name, value)
                    for other in modules:
                        for bound_name, obj in list(vars(other).items()):
                            if obj is value:
                                setattr(other, bound_name, wrapper)
                elif isinstance(value, type):
                    for method, fn in list(vars(value).items()):
                        if not method.startswith("_") and isinstance(fn, types.FunctionType):
                            setattr(value, method, self._wrap(f"{layer}.{attr}.{method}", fn))

    def _wrap(self, name: str, fn: types.FunctionType):
        self.originals[name] = fn
        return self._wrapper(name, fn)

    def _wrapper(self, name: str, fn: types.FunctionType):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, hook, signature, args, kwargs)

        return traced

    def _call(self, name, fn, hook, signature, args, kwargs):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        frame = [span_id, 0.0]  # id, time covered by child spans
        self.stack.append(frame)
        start = time.perf_counter()
        completed = False
        try:
            result = fn(*args, **kwargs)
            completed = True
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - frame[1]
            if len(self.spans) < SPAN_RECORD_CAP:
                self.spans.append((span_id, name, start, end, parent[0] if parent else None))
            else:
                self.dropped += 1
            if hook is not None and completed:
                self._run_hook(name, hook, signature, args, kwargs, result)
                self.hook_seconds += time.perf_counter() - end
            if parent is not None:
                # Hook time counts as covered, so it is nobody's self time.
                parent[1] += time.perf_counter() - start

    def _run_hook(self, name, hook, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self, bound.arguments, result)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            # A refactor changed this function's arguments or result.
            self.hook_errors[f"{name}: {type(exc).__name__}"] += 1

    def calibrate(self, calls: int = 20_000) -> None:
        """Measure what a wrapper adds to one call, on a function that does
        nothing. The tracing overhead is this cost times the calls traced,
        plus the time hooks take."""

        def noop():
            return None

        traced = self._wrapper("calibration.noop", noop)
        self.start()
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        self.stop()
        self._reset()
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        self.call_cost = max(wrapped - bare, 0.0) / calls

    # -- per command --------------------------------------------------------

    def start(self) -> None:
        self._reset()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def _micro(self) -> tuple[dict, dict]:
        """Time single calls on captured arguments, wrappers off."""
        timings: dict[str, float] = {}
        errors: dict[str, str] = {}

        def median_ms(name, *args):
            fn = self.originals[name]
            samples = []
            for _ in range(MICRO_REPEATS):
                start = time.perf_counter()
                fn(*args)
                samples.append(time.perf_counter() - start)
            return 1e3 * statistics.median(samples)

        plans = {
            "logreg": lambda b: {"classifiers.logreg_grad_ms": median_ms(
                "classifiers.logreg_gradient", b["theta"], b["x_aug"], b["y"])},
            "mlp": lambda b: {"neural.mlp_step_ms": median_ms(
                "neural.mlp_grads", b["model"], b["x"], b["y"])},
            "cnn": lambda b: self._cnn_micro(median_ms, b),
            "knn": lambda b: {"classifiers.knn_query_ms": median_ms(
                "classifiers.knn_predict", b["model"], b["x"])},
        }
        for key, bound in self.captured.items():
            try:
                timings.update(plans[key](bound))
            except Exception as exc:  # the program changed under the benchmark
                errors[key] = f"{type(exc).__name__}: {exc}"
        return timings, errors

    @staticmethod
    def _cnn_micro(median_ms, bound) -> dict:
        forward = median_ms("neural.cnn_forward", bound["model"], bound["ids"])
        grads = median_ms("neural.cnn_grads", bound["model"], bound["ids"], bound["y"])
        return {"neural.cnn_forward_ms": forward, "neural.cnn_backward_ms": grads - forward}

    def write(self, path: str, seconds: float) -> None:
        """Finish derived counts and micro timings; write the report."""
        if self.design is not None:
            self.maxima["features.design_mb"] = self.design.nbytes / 2**20
            self.maxima["features.density"] = (
                np.count_nonzero(self.design) / max(self.design.size, 1)
            )
            self.design = None
        for corpus, epochs in self.embedding_runs:
            tokens = sum(len(sentence.text.split()) for sentence in corpus)
            self.counts["embeddings.positions"] += tokens * epochs
        self.embedding_runs = []
        micro, micro_errors = self._micro()
        self.captured = {}
        calls = sum(entry[0] for entry in self.agg.values())
        report = {
            "seconds": seconds,
            "overhead_s": calls * self.call_cost + self.hook_seconds,
            "installed": sorted(self.originals),
            "agg": self.agg,
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "micro": micro,
            "errors": sorted(
                [f"{name} (x{n})" for name, n in self.hook_errors.items()]
                + [f"{key}: {message}" for key, message in micro_errors.items()]
            ),
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


# ---------------------------------------------------------------------------
# Folding reports into the per-layer metrics
# ---------------------------------------------------------------------------

#: Program functions the per-layer metrics are read from.
SOURCES = (
    "corpus.ingest_raw_dir", "corpus.train_test_split", "corpus.load_dataset_tsv",
    "features.build_ngram_vocab", "features.build_word_vocab", "features.count_matrix",
    "features.vectorize", "features.vectorize_bow",
    "embeddings.train_skipgram", "embeddings.train_cbow",
    "embeddings.train_fasttext_supervised", "embeddings.predict_fasttext",
    "classifiers.train_logreg", "classifiers.logreg_gradient", "classifiers.train_svm",
    "classifiers.train_nb", "classifiers.knn_predict",
    "neural.mlp_train", "neural.mlp_grads", "neural.cnn_train", "neural.cnn_forward",
    "neural.cnn_grads",
    "reduce.pca_project", "reduce.tsne_affinities", "reduce.tsne_optimize",
    "evaluation.evaluate", "evaluation.length_failure_analysis",
    "modelio.save_model", "modelio.load_model", "modelio.PipelineModel.predict",
    "cli.main",
)


def summarize(reports: list[dict]) -> tuple[dict[str, float], list[str], list[str]]:
    """(per-layer metrics, missing source functions, hook and micro-timing
    errors) of one pass."""
    agg: dict[str, list] = {}
    counts: Counter = Counter()
    maxima: dict[str, float] = {}
    micro: dict[str, list] = {}
    errors: set[str] = set()
    installed: set[str] = set()
    spans = 0
    overhead = traced = 0.0
    for report in reports:
        overhead += report["overhead_s"]
        traced += report["seconds"]
        installed.update(report["installed"])
        for name, (calls, total, self_time) in report["agg"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
            spans += calls
        counts.update(report["counts"])
        if report["maxima"].get("features.design_mb", 0.0) > maxima.get("features.design_mb", 0.0):
            # The density reported is that of the largest design matrix.
            maxima["features.design_mb"] = report["maxima"]["features.design_mb"]
            maxima["features.density"] = report["maxima"]["features.density"]
        if "features.vocab_size" in report["maxima"]:
            maxima["features.vocab_size"] = max(
                maxima.get("features.vocab_size", 0), report["maxima"]["features.vocab_size"]
            )
        for name, value in report["micro"].items():
            micro.setdefault(name, []).append(value)
        errors.update(report["errors"])

    def total(*names):
        return sum(agg[n][1] for n in names if n in agg)

    def calls(*names):
        return sum(agg[n][0] for n in names if n in agg)

    def mean_us(*names):
        n = calls(*names)
        return 1e6 * total(*names) / n if n else 0.0

    def per(value, count, scale):
        return scale * value / count if count else 0.0

    def micro_mean(name):
        values = micro.get(name)
        return statistics.fmean(values) if values else 0.0

    layer_self = Counter()
    for name, (_, _, self_time) in agg.items():
        layer_self[name.split(".")[0]] += self_time

    embed_s = total("embeddings.train_skipgram", "embeddings.train_cbow")
    svm_s = total("classifiers.train_svm")
    metrics = {
        "corpus.ingest_s": total("corpus.ingest_raw_dir"),
        "corpus.split_s": total("corpus.train_test_split"),
        "corpus.load_tsv_s": total("corpus.load_dataset_tsv"),
        "corpus.sentences": counts["corpus.sentences"],
        "features.vocab_s": total("features.build_ngram_vocab", "features.build_word_vocab"),
        "features.vocab_size": maxima.get("features.vocab_size", 0),
        "features.design_s": total("features.count_matrix"),
        "features.design_mb": maxima.get("features.design_mb", 0.0),
        "features.density": maxima.get("features.density", 0.0),
        "features.vectorize_us": mean_us("features.vectorize", "features.vectorize_bow"),
        "embeddings.train_s": embed_s,
        "embeddings.positions": counts["embeddings.positions"],
        "embeddings.position_us": per(embed_s, counts["embeddings.positions"], 1e6),
        "embeddings.table_rows": counts["embeddings.table_rows"],
        "embeddings.supervised_train_s": total("embeddings.train_fasttext_supervised"),
        "embeddings.supervised_rows": counts["embeddings.supervised_rows"],
        "embeddings.supervised_predict_us": mean_us("embeddings.predict_fasttext"),
        "classifiers.logreg_train_s": total("classifiers.train_logreg"),
        "classifiers.logreg_grad_ms": micro_mean("classifiers.logreg_grad_ms"),
        "classifiers.logreg_grad_calls": calls("classifiers.logreg_gradient"),
        "classifiers.svm_train_s": svm_s,
        "classifiers.svm_step_us": per(svm_s, counts["classifiers.svm_steps"], 1e6),
        "classifiers.nb_train_s": total("classifiers.train_nb"),
        "classifiers.knn_query_ms": micro_mean("classifiers.knn_query_ms"),
        "neural.mlp_train_s": total("neural.mlp_train"),
        "neural.mlp_step_ms": micro_mean("neural.mlp_step_ms"),
        "neural.cnn_train_s": total("neural.cnn_train"),
        "neural.cnn_forward_ms": micro_mean("neural.cnn_forward_ms"),
        "neural.cnn_backward_ms": micro_mean("neural.cnn_backward_ms"),
        "neural.cnn_predict_us": mean_us("neural.cnn_forward"),
        "reduce.pca_s": per(total("reduce.pca_project"), calls("reduce.pca_project"), 1),
        "reduce.tsne_affinity_s": total("reduce.tsne_affinities"),
        "reduce.tsne_iter_ms": per(
            total("reduce.tsne_optimize"), counts["reduce.tsne_iterations"], 1e3
        ),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.length_s": total("evaluation.length_failure_analysis"),
        "modelio.save_s": total("modelio.save_model"),
        "modelio.load_s": total("modelio.load_model"),
        "modelio.predict_us": mean_us("modelio.PipelineModel.predict"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["trace.spans"] = spans
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / (traced - overhead)
    missing = [name for name in SOURCES if name not in installed]
    metrics["trace.missing"] = len(missing)
    return metrics, missing, sorted(errors)
