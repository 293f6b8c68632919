"""Span tracing of lssurv from outside the package.

``Tracer.install`` wraps public functions and model methods and patches
every module binding of each wrapped function, so a name imported into
several modules (``kaplan_meier`` in likelihood, variance and shift_test)
is traced wherever it is called.  Spans stay in memory; ``layer_metrics``
reduces them to the per-layer metrics and ``dump`` writes them out.

Allocation tracing slows every call it covers, so it is kept out of the
timed spans: ``Tracer(memory=True)`` wraps only ``asymptotic_variance``
and records its tracemalloc peak (``traced_peak_mb``) in an execution of
its own.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
import tracemalloc
import weakref
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    attrs: dict = field(default_factory=dict)


# (module, attribute, span name).  "Class.method" patches the class; a
# leading "*" patches the method on every model class in REGISTRY.
TARGETS = [
    ("lssurv.likelihood", "LikelihoodContext.value_and_score", "likelihood.value_and_score"),
    ("lssurv.likelihood", "LikelihoodContext.__init__", "likelihood.context"),
    ("lssurv.models", "*.log_density", "models.log_density"),
    ("lssurv.models", "*.log_density_grad", "models.log_density_grad"),
    ("lssurv.variance", "asymptotic_variance", "variance.asymptotic_variance"),
    ("lssurv.variance", "a_matrix_fd", "variance.a_matrix_fd"),
    ("lssurv.estimator", "fit", "estimator.fit"),
    ("lssurv.estimator", "source_only_mle", "estimator.source_only_mle"),
    ("lssurv.estimator", "conditional_functional", "estimator.conditional_functional"),
    ("lssurv.estimator", "bic_select", "estimator.bic_select"),
    ("lssurv.nonparam", "kaplan_meier", "nonparam.kaplan_meier"),
    ("lssurv.simulation", "generate_dataset", "simulation.generate_dataset"),
    ("lssurv.simulation", "sample_z_given_t_batch", "simulation.sample_z_given_t_batch"),
    ("lssurv.simulation", "QzSpec.sample", "simulation.qz_sample"),
    ("lssurv.simulation", "run_mc_study", "simulation.run_mc_study"),
    ("lssurv.shift_test", "label_shift_test", "shift_test.label_shift_test"),
    ("lssurv.shift_test", "stute_masses", "shift_test.stute_masses"),
    ("lssurv.cli", "read_source_csv", "cli.read"),
    ("lssurv.cli", "read_target_csv", "cli.read"),
]
MEMORY_TARGETS = [t for t in TARGETS if t[2] == "variance.asymptotic_variance"]


def _nbytes(out):
    return int(getattr(out, "nbytes", 0))


def _size(out):
    return int(getattr(out, "size", 1))


def _first_len(args, kwargs, pos, key):
    v = args[pos] if len(args) > pos else kwargs.get(key)
    try:
        return len(v)
    except TypeError:
        return int(v)


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0
        self.absent: list[str] = []
        self._undo: list = []
        self._last_theta = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, **attrs):
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), parent=self.stack[-1] if self.stack else None,
                  op=self.op, attrs=attrs)
        self.spans.append(sp)
        self.stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                if before:
                    before(sp, args, kwargs)
                out = fn(*args, **kwargs)
                if after:
                    after(sp, out, args, kwargs)
                return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- per-name hooks --------------------------------------------------------

    def _hooks(self, name):
        if name == "likelihood.value_and_score":
            def before(sp, args, kwargs):
                ctx, theta = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["theta"], float)
                key = theta.tobytes()
                sp.attrs["hit"] = int(self._last_theta.get(ctx) == key)
                self._last_theta[ctx] = key
            return before, None
        if name == "models.log_density":
            return None, lambda sp, out, a, k: sp.attrs.update(cells=_size(out))
        if name == "models.log_density_grad":
            return None, lambda sp, out, a, k: sp.attrs.update(bytes=_nbytes(out))
        if name == "variance.asymptotic_variance" and self.memory:
            def before(sp, args, kwargs):
                sp.attrs["own_tracemalloc"] = not tracemalloc.is_tracing()
                if sp.attrs["own_tracemalloc"]:
                    tracemalloc.start()
                tracemalloc.reset_peak()

            def after(sp, out, args, kwargs):
                sp.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                if sp.attrs.pop("own_tracemalloc"):
                    tracemalloc.stop()
            return before, after
        if name == "estimator.fit":
            return None, lambda sp, out, a, k: sp.attrs.update(iterations=int(out.iterations))
        if name == "nonparam.kaplan_meier":
            return (lambda sp, a, k: sp.attrs.update(records=_first_len(a, k, 0, "x"))), None
        if name == "simulation.sample_z_given_t_batch":
            return (lambda sp, a, k: sp.attrs.update(rows=_first_len(a, k, 3, "ts"))), None
        if name == "simulation.qz_sample":
            return (lambda sp, a, k: sp.attrs.update(rows=_first_len(a, k, 2, "n"))), None
        return None, None

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target; a target missing from the package is recorded
        in ``absent`` and skipped."""
        self.absent = []
        for modname, attr, name in (MEMORY_TARGETS if self.memory else TARGETS):
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{attr}")
                continue
            before, after = self._hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                if cls_name == "*":
                    classes = [type(m) for m in getattr(mod, "REGISTRY", {}).values()]
                else:
                    classes = [getattr(mod, cls_name, None)]
                # patch the class that defines the method, once per definition
                owners = {next((c for c in cls.__mro__ if meth in vars(c)), None)
                          for cls in classes if cls is not None}
                owners.discard(None)
                for owner in owners:
                    orig = vars(owner)[meth]
                    setattr(owner, meth, self._wrap(orig, name, before, after))
                    self._undo.append((owner, meth, orig))
                if not owners:
                    self.absent.append(f"{modname}.{attr}")
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(orig, name, before, after)
            # patch every binding of the same function object in the package
            for m in list(sys.modules.values()):
                if m is None or not getattr(m, "__name__", "").startswith("lssurv"):
                    continue
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)
                        self._undo.append((m, k, orig))
        return self

    def uninstall(self):
        while self._undo:
            owner, k, orig = self._undo.pop()
            setattr(owner, k, orig)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "attrs": s.attrs}) + "\n")


class NullTracer:
    """Stand-in for untraced runs: spans cost one context manager."""

    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield None


# -- reduction -----------------------------------------------------------------

def _union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _union_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def _ancestors(spans, i):
    p = spans[i].parent
    while p is not None:
        yield spans[p].name
        p = spans[p].parent


class SpanStats:
    """Totals per span name, with nested same-name spans counted once in
    the wall-time totals."""

    def __init__(self, spans):
        self.spans = spans
        self.self_t = self_times(spans)

    def of(self, name):
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def calls(self, name):
        return len(self.of(name))

    def wall(self, name):
        return sum(self.spans[i].end - self.spans[i].start for i in self.of(name)
                   if name not in _ancestors(self.spans, i))

    def self_s(self, name):
        return sum(self.self_t[i] for i in self.of(name))

    def attr(self, name, key):
        return sum(self.spans[i].attrs.get(key, 0) for i in self.of(name))

    def calls_under(self, name, ancestor, exclude=None):
        return sum(1 for i in self.of(name)
                   if ancestor in (anc := list(_ancestors(self.spans, i)))
                   and (exclude is None or exclude not in anc))

    def wall_under(self, name, ancestor):
        return sum(self.spans[i].end - self.spans[i].start for i in self.of(name)
                   if ancestor in _ancestors(self.spans, i))


def layer_metrics(spans, n_ops):
    """Per-layer metrics per traced operation (times in s unless named)."""
    st = SpanStats(spans)
    per = 1.0 / n_ops
    vas = "likelihood.value_and_score"
    n_vas = st.calls(vas)
    qz_rows = sum(st.spans[i].attrs.get("rows", 0) for i in st.of("simulation.qz_sample")
                  if "simulation.sample_z_given_t_batch" in _ancestors(st.spans, i))
    return {
        f"{vas}.calls": n_vas * per,
        f"{vas}.ms_per_call": 1e3 * st.wall(vas) / n_vas if n_vas else 0.0,
        f"{vas}.self_s": st.self_s(vas) * per,
        "likelihood.cache_hit_frac": st.attr(vas, "hit") / n_vas if n_vas else 0.0,
        "likelihood.context.calls": st.calls("likelihood.context") * per,
        "likelihood.context.s": st.wall("likelihood.context") * per,
        "models.log_density.calls": st.calls("models.log_density") * per,
        "models.log_density.cells": st.attr("models.log_density", "cells") * per,
        "models.log_density.self_s": st.self_s("models.log_density") * per,
        "models.log_density_grad.calls": st.calls("models.log_density_grad") * per,
        "models.log_density_grad.bytes_out": st.attr("models.log_density_grad", "bytes") * per,
        "models.log_density_grad.self_s": st.self_s("models.log_density_grad") * per,
        "variance.asymptotic_variance.s": st.wall("variance.asymptotic_variance") * per,
        "variance.asymptotic_variance.self_s": st.self_s("variance.asymptotic_variance") * per,
        "variance.a_matrix_fd.s": st.wall("variance.a_matrix_fd") * per,
        "variance.a_matrix_fd.score_calls": st.calls_under(vas, "variance.a_matrix_fd") * per,
        "estimator.fit.s": st.wall("estimator.fit") * per,
        "estimator.fit.self_s": st.self_s("estimator.fit") * per,
        "estimator.fit.iterations": st.attr("estimator.fit", "iterations") * per,
        "estimator.fit.score_calls":
            st.calls_under(vas, "estimator.fit", exclude="variance.asymptotic_variance") * per,
        "estimator.source_only_mle.s": st.wall("estimator.source_only_mle") * per,
        "estimator.conditional_functional.s": st.wall("estimator.conditional_functional") * per,
        "estimator.conditional_functional.integrand_evals":
            st.calls_under("models.log_density", "estimator.conditional_functional") * per,
        "estimator.bic_select.s": st.wall("estimator.bic_select") * per,
        "nonparam.kaplan_meier.calls": st.calls("nonparam.kaplan_meier") * per,
        "nonparam.kaplan_meier.s": st.wall("nonparam.kaplan_meier") * per,
        "nonparam.kaplan_meier.records": st.attr("nonparam.kaplan_meier", "records") * per,
        "simulation.generate_dataset.s": st.wall("simulation.generate_dataset") * per,
        "simulation.sample_z_given_t_batch.s": st.wall("simulation.sample_z_given_t_batch") * per,
        "simulation.sample_z_given_t_batch.accept_frac":
            st.attr("simulation.sample_z_given_t_batch", "rows") / qz_rows if qz_rows else 0.0,
        "shift_test.label_shift_test.s": st.wall("shift_test.label_shift_test") * per,
        "shift_test.label_shift_test.self_s": st.self_s("shift_test.label_shift_test") * per,
        "shift_test.stute_masses.calls": st.calls("shift_test.stute_masses") * per,
        "cli.read.s": st.wall("cli.read") * per,
        "cli.shift-test.s": st.wall("cli.shift-test") * per,
        "cli.select.s": st.wall("cli.select") * per,
        "cli.fit.s": st.wall("cli.fit") * per,
        "cli.predict.s": st.wall("cli.predict") * per,
    }


def traced_peak_mb(spans):
    """Largest tracemalloc peak of an ``asymptotic_variance`` span, in MiB."""
    return max((s.attrs.get("peak_bytes", 0) for s in spans), default=0) / 2**20


def rep_seconds(spans):
    """Per-replication time of an MC study: dataset generation plus fit
    spans under ``run_mc_study``."""
    st = SpanStats(spans)
    return (st.wall_under("simulation.generate_dataset", "simulation.run_mc_study")
            + st.wall_under("estimator.fit", "simulation.run_mc_study"))
