"""Spans around the calls into each setbayes layer, recorded from outside.

The tracer replaces public functions by timing wrappers for the length of
a traced stage call and puts the originals back afterwards; nothing in
``src/`` knows about it.  A span is (name, start, end, parent).  Spans
stay in memory and are written out when the benchmark ends.  A span's
self time is its duration minus the time its child spans cover, and a
layer's self time is the sum over its spans, so the layers' self times
add up to the whole stage call.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager

from setbayes import classifiers, cli, gaussian, tuning

LAYERS = ("cli", "dataset", "gaussian", "core", "classifiers", "rewards", "tuning")


def _points_times_draws(args, result) -> int:
    draws, points = args[0], args[1]
    rows = points.shape[0] if getattr(points, "ndim", 1) == 2 else 1
    return rows * draws.n_draws


def _folds(args, result) -> int:
    return result.n_folds


# (owner, attribute, span name, work counter or None).  Functions are
# wrapped where their callers look them up: the name a module imported,
# or the class attribute a method is read from.
_TARGETS = (
    (cli, "load_dataset", "dataset.load", None),
    (cli, "model_from_json", "gaussian.model_load", None),
    (cli, "posterior_matrix", "gaussian.posterior_matrix", None),
    (cli, "PosteriorVector", "core.posterior_vector", None),
    (cli, "optimal_set", "classifiers.optimal_set", None),
    (cli, "loocv_posteriors", "tuning.loocv", _folds),
    (cli, "evaluate_curves", "tuning.curves", None),
    (cli, "select_b_threshold", "tuning.select", None),
    (cli, "select_b_minimize", "tuning.select", None),
    (cli, "calibrate_conformal_cost", "gaussian.calibrate", None),
    (cli, "conformal_coverage", "gaussian.coverage", None),
    (classifiers, "composite_classifier", "classifiers.composite", None),
    (classifiers, "value_function", "rewards.value_function", None),
    (tuning, "PosteriorVector", "core.posterior_vector", None),
    (tuning, "conjugate_update", "gaussian.conjugate_update", None),
    (tuning, "draw_category_sample", "gaussian.draw_sample", None),
    (tuning.HeldOutPosteriors, "binary_scores", "tuning.binary_scores", None),
    # Calls made inside gaussian itself: fit and model loading draw
    # samples, calibration samples the mixture and scores it.
    (gaussian, "conjugate_update", "gaussian.conjugate_update", None),
    (gaussian, "draw_category_sample", "gaussian.draw_sample", None),
    (gaussian, "sample_mixture", "gaussian.sample_mixture", None),
    (gaussian, "posterior_matrix", "gaussian.posterior_matrix", None),
    (gaussian.CategoryDraws, "log_density", "gaussian.log_density", _points_times_draws),
)


class Tracer:
    """Span recorder for traced stage calls.

    ``calls`` holds the spans of each traced call, each span a list
    [name, start_ns, end_ns, parent index or -1, work units or 0].
    """

    def __init__(self):
        self.calls: list[list[list]] = []
        self.errors: list[dict[str, int]] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._errors: dict[str, int] = {}

    def _wrap(self, name, fn, units):
        layer = name.split(".", 1)[0]
        spans, stack, errors = self._spans, self._stack, self._errors

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] = errors.get(layer, 0) + 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if units is not None:
                span[4] = units(args, result)
            return result

        return traced

    @contextmanager
    def call(self, stage: str):
        """Trace one stage call: install the wrappers, yield, restore them.

        Yields a function that calls ``cli.main`` inside the root span
        ``cli.<stage>``; a non-zero exit counts as an error of ``cli``.
        """
        self._spans, self._stack, self._errors = [], [], {}
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _TARGETS]
        for owner, attr, name, units in _TARGETS:
            setattr(owner, attr, self._wrap(name, owner.__dict__[attr], units))
        root = self._wrap(f"cli.{stage}", cli.main, None)

        def run(argv):
            rc = root(argv)
            if rc != 0:
                self._errors["cli"] = self._errors.get("cli", 0) + 1
            return rc

        try:
            yield run
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self.calls.append(self._spans)
            self.errors.append(self._errors)

    def write(self, path) -> None:
        """Every traced call's spans as gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "units"],
                 "calls": self.calls},
                fh,
            )


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def summarize(spans: list[list], errors: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced stage call."""
    total = {}
    count = {}
    units = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        total[name] = total.get(name, 0) + (span[2] - span[1])
        count[name] = count.get(name, 0) + 1
        units[name] = units.get(name, 0) + span[4]
        layer_self[name.split(".", 1)[0]] += own

    def secs(name):
        return total.get(name, 0) / 1e9

    def per(numerator_s, denominator, scale):
        return numerator_s * scale / denominator if denominator else 0.0

    evals = units.get("gaussian.log_density", 0)
    rows = count.get("classifiers.optimal_set", 0)
    folds = units.get("tuning.loocv", 0)
    metrics = {
        "gaussian.log_density_s": secs("gaussian.log_density"),
        "gaussian.log_density_calls": count.get("gaussian.log_density", 0),
        "gaussian.density_evals": evals,
        "gaussian.ns_per_density_eval": per(secs("gaussian.log_density"), evals, 1e9),
        "gaussian.posterior_matrix_s": secs("gaussian.posterior_matrix"),
        "gaussian.draw_sample_s": secs("gaussian.draw_sample"),
        "gaussian.draw_sample_calls": count.get("gaussian.draw_sample", 0),
        "gaussian.conjugate_update_s": secs("gaussian.conjugate_update"),
        "gaussian.model_load_s": secs("gaussian.model_load"),
        "gaussian.sample_mixture_s": secs("gaussian.sample_mixture"),
        "gaussian.calibrate_s": secs("gaussian.calibrate"),
        "gaussian.coverage_s": secs("gaussian.coverage"),
        "classifiers.optimal_set_s": secs("classifiers.optimal_set"),
        "classifiers.optimal_set_calls": rows,
        "classifiers.us_per_row": per(secs("classifiers.optimal_set"), rows, 1e6),
        "classifiers.composite_s": secs("classifiers.composite"),
        "rewards.value_function_s": secs("rewards.value_function"),
        "core.posterior_vector_s": secs("core.posterior_vector"),
        "core.posterior_vector_calls": count.get("core.posterior_vector", 0),
        "tuning.loocv_s": secs("tuning.loocv"),
        "tuning.folds": folds,
        "tuning.ms_per_fold": per(secs("tuning.loocv"), folds, 1e3),
        "tuning.curves_s": secs("tuning.curves"),
        "tuning.select_s": secs("tuning.select"),
        "tuning.binary_scores_calls": count.get("tuning.binary_scores", 0),
        "dataset.load_s": secs("dataset.load"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / 1e9
        metrics[f"{layer}.errors"] = errors.get(layer, 0)
    return metrics


#: Unit of every per-layer metric, in the order BENCHMARK.json lists them.
UNITS = {
    **{name: "s" for name in (
        "gaussian.log_density_s", "gaussian.posterior_matrix_s",
        "gaussian.draw_sample_s", "gaussian.conjugate_update_s",
        "gaussian.model_load_s", "gaussian.sample_mixture_s",
        "gaussian.calibrate_s", "gaussian.coverage_s",
        "classifiers.optimal_set_s", "classifiers.composite_s",
        "rewards.value_function_s", "core.posterior_vector_s",
        "tuning.loocv_s", "tuning.curves_s", "tuning.select_s", "dataset.load_s",
    )},
    **{name: "count" for name in (
        "gaussian.log_density_calls", "gaussian.density_evals",
        "gaussian.draw_sample_calls", "classifiers.optimal_set_calls",
        "core.posterior_vector_calls", "tuning.folds", "tuning.binary_scores_calls",
    )},
    "gaussian.ns_per_density_eval": "ns",
    "classifiers.us_per_row": "us",
    "tuning.ms_per_fold": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}

#: Metrics that count work or failures; they must repeat exactly.
COUNTS = tuple(name for name, unit in UNITS.items() if unit == "count")
