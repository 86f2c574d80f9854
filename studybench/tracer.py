"""Span tracing of ``rkhs_invlab`` from outside the package.

``install`` replaces every public function of every loaded ``rkhs_invlab``
module, in each module namespace that binds it (so ``sampling.basis_matrix``
and ``regularization.basis_matrix`` are both covered), with a wrapper that
records a span.  A span is named after the defining module and function,
e.g. ``spectral_model.basis_matrix``; the ``GramMatrix`` constructor
check is recorded as ``rkhs.GramMatrix``.  Nothing in the package changes:
the wrappers return exactly what the wrapped functions return.

Spans stay in memory as ``[name, start, end, parent, extra]`` lists and are
written out by the caller when the run ends.  The parent is the index of
the enclosing span (-1 at top level); a single span stack is kept, so the
traced code must run in one thread.
"""

import functools
import inspect
import math
import sys
import time

from rkhs_invlab.errors import ConvergenceError


def _design_key(problem, x):
    # Distinct inputs are identified by the problem size and the exact
    # bytes of the evaluation points.
    try:
        raw = x.tobytes()
    except AttributeError:
        raw = repr(x).encode()
    return hash((problem.size, raw))


def _basis_extra(args, kwargs, result, error):
    problem, x = args[0], args[1]
    return {"cells": int(result.size) if result is not None else 0,
            "key": _design_key(problem, x)}


def _gram_extra(args, kwargs, result, error):
    problem, points = args[0], args[1]
    n = len(points)
    return {"n3": n ** 3, "key": _design_key(problem, points)}


def _erm_extra(args, kwargs, result, error):
    if isinstance(error, ConvergenceError):
        last = error.trace[-1][0] if error.trace else 0
        return {"iterations": int(last), "failed": True}
    if result is None:
        return {"iterations": 0, "failed": True}
    return {"iterations": int(result.diagnostics["iterations"]),
            "failed": False}


# Span name -> function deriving counters from arguments, result or error.
_EXTRAS = {
    "spectral_model.basis_matrix": _basis_extra,
    "rkhs.gram_matrix": _gram_extra,
    "regularization.erm_representer_solve": _erm_extra,
}


class Tracer:
    """Collects spans from wrapped functions into an in-memory list."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        extra_of = _EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if extra_of is not None:
                    span[4] = extra_of(args, kwargs, result, error)

        return traced


def install(tracer):
    """Wrap every public ``rkhs_invlab`` function for the process lifetime."""
    wrapped = {}
    for modname, module in list(sys.modules.items()):
        if modname != "rkhs_invlab" and not modname.startswith("rkhs_invlab."):
            continue
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or not value.__module__.startswith("rkhs_invlab.")):
                continue
            if value not in wrapped:
                short = value.__module__.rsplit(".", 1)[1]
                wrapped[value] = tracer.wrap(f"{short}.{value.__name__}",
                                             value)
            setattr(module, attr, wrapped[value])
    from rkhs_invlab.rkhs import GramMatrix
    GramMatrix.__post_init__ = tracer.wrap("rkhs.GramMatrix",
                                           GramMatrix.__post_init__)


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their covered time is the sum of durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - covered
            for (_, start, end, _, _), covered in zip(spans, child)]


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _new_layer():
    return {"calls": 0, "self_s": 0.0, "durations": [], "keys": set(),
            "cells": 0, "n3": 0, "iterations": 0, "failures": 0}


def summarize(spans):
    """Aggregate spans by name: calls, self time, durations and counters."""
    selfs = self_times(spans)
    layers = {}
    for span, own in zip(spans, selfs):
        name, start, end, _, extra = span
        layer = layers.setdefault(name, _new_layer())
        layer["calls"] += 1
        layer["self_s"] += own
        layer["durations"].append(end - start)
        if extra:
            if "key" in extra:
                layer["keys"].add(extra["key"])
            layer["cells"] += extra.get("cells", 0)
            layer["n3"] += extra.get("n3", 0)
            layer["iterations"] += extra.get("iterations", 0)
            layer["failures"] += int(extra.get("failed", False))
    return layers


def layer_metrics(spans):
    """The benchmark's per-layer metrics (without study-level ones)."""
    layers = summarize(spans)

    def get(name):
        return layers.get(name) or _new_layer()

    def distinct_frac(layer):
        return len(layer["keys"]) / layer["calls"] if layer["calls"] else 0.0

    def pct_ms(layer, q):
        durations = layer["durations"]
        return 1e3 * _percentile(durations, q) if durations else 0.0

    basis = get("spectral_model.basis_matrix")
    paper = get("regularization.estimator_paper")
    gram = get("rkhs.gram_matrix")
    erm = get("regularization.erm_representer_solve")
    out = {
        "spectral_model.basis_matrix.calls": basis["calls"],
        "spectral_model.basis_matrix.cells": basis["cells"],
        "spectral_model.basis_matrix.distinct_frac": distinct_frac(basis),
        "spectral_model.basis_matrix.self_s": basis["self_s"],
        "streams.generator.calls": get("streams.generator")["calls"],
        "regularization.estimator_paper.p50_ms": pct_ms(paper, 50),
        "regularization.estimator_paper.p99_ms": pct_ms(paper, 99),
        "rkhs.gram_matrix.n3": gram["n3"],
        "rkhs.gram_matrix.distinct_frac": distinct_frac(gram),
        "rkhs.GramMatrix.self_s": get("rkhs.GramMatrix")["self_s"],
        "regularization.erm_representer_solve.iterations": erm["iterations"],
        "regularization.erm_representer_solve.failures": erm["failures"],
        "regularization.solve_continuous.self_s":
            get("regularization.solve_continuous")["self_s"],
        "rates.self_s": sum(layer["self_s"] for name, layer in layers.items()
                            if name.startswith("rates.")),
        "experiments.run_study.self_s":
            get("experiments.run_study")["self_s"],
    }
    for name in ("sampling.sample_outputs", "sampling.sample_design",
                 "regularization.estimator_paper", "rkhs.gram_matrix",
                 "regularization.estimator_learn",
                 "regularization.kernel_tikhonov",
                 "regularization.erm_representer_solve"):
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_s"] = get(name)["self_s"]
    return out
