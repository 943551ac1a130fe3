"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions that one ``gnmodel`` module
calls in another with timing wrappers, wherever a module holds them by name
(``gnmodel.gn.normalized_kernel_grid``, ``gnmodel.cli.estimate_nli_psd``,
...), plus the ``evaluate`` method of every spectral shape and
``KernelModel.__post_init__``.  ``Tracer.uninstall`` puts the originals back.
Nothing under ``src/`` is edited.

A span is (name, start, end, parent).  The parent is the innermost open span
of the calling thread or, for a worker thread with nothing open, the
innermost open span of the thread that activated the tracer (the request's
thread, which is blocked waiting for its workers).  A call that re-enters a
span of the same name on the same thread (``normalized_kernel_grid`` calling
``kernel_closed_form``) is counted once, at the outer call.

Self time is a span's duration minus the *union* of its children's
intervals: with ``--threads 2`` children overlap, and a plain sum would
exceed the parent.
"""
from __future__ import annotations

import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import gnmodel
from gnmodel import kernel, montecarlo, moments, rng, spectra


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: "Span | None" = None
    counts: dict = field(default_factory=dict)


# span name -> the public functions it wraps; each is replaced in every
# gnmodel module that holds it under its own name
_FUNCTION_SPANS = {
    "config.load": (gnmodel.config.load_config,),
    "kernel.quadrature": (kernel.kernel_quadrature,),
    "kernel.closed_form": (kernel.kernel_closed_form,
                           kernel.normalized_kernel_grid),
    "gn.psd": (gnmodel.gn.nli_psd_x,),
    "montecarlo.estimate": (montecarlo.estimate_nli_psd,),
    "rng.stream": (rng.field_stream, rng.moment_stream),
    "moments.check": (moments.theorem1_discrete_check, moments.theorem2_check,
                      moments.theorem3_discrete_check),
}


def _gnmodel_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "gnmodel" or name.startswith("gnmodel."))]


def _axis_cells(shape, step):
    lo, hi = shape.support
    return max(1, math.ceil((hi - lo) / step))


def gn_cells(req) -> int:
    """(f1, f2) cells the GN integrator visits for one request, computed
    from the supports and the step: per output point, SPM covers
    main x main and XPolM main x partner, for shapes of nonzero power."""
    psd, step = req.psd, req.inner_grid_step_hz
    main, other = psd.gx, psd.gy
    per_point = 0
    if main.power_integral() > 0:
        n_main = _axis_cells(main, step)
        per_point += n_main * n_main
        if other.power_integral() > 0:
            per_point += n_main * _axis_cells(other, step)
    return per_point * np.asarray(req.output_grid_hz).size


def _grid_bounds(cfg, shape):
    nz = np.nonzero(np.asarray(shape.evaluate(cfg.frequencies_hz)) > 0)[0]
    return (int(nz[0]), int(nz[-1])) if nz.size else None


def _triple_count(count, b1, b2, b3) -> int:
    """#(j, m, n) with j in [0, count), j+m in b1, j+m+n in b2, j+n in b3."""
    if b1 is None or b2 is None or b3 is None:
        return 0
    total = 0
    for j in range(count):
        m = np.arange(b1[0] - j, b1[1] - j + 1)
        lo = np.maximum(b2[0] - j - m, b3[0] - j)
        hi = np.minimum(b2[1] - j - m, b3[1] - j)
        total += int(np.sum(np.clip(hi - lo + 1, 0, None)))
    return total


def mc_triples(cfg, psd, polarization="x") -> int:
    """In-support (j, m, n) products per trial of the perturbation sum for
    one output polarization (SPM plus XPolM), computed from the grid."""
    main, other = (psd.gx, psd.gy) if polarization == "x" else (psd.gy, psd.gx)
    count = cfg.grid_indices.size
    bm, bo = _grid_bounds(cfg, main), _grid_bounds(cfg, other)
    return _triple_count(count, bm, bm, bm) + _triple_count(count, bm, bo, bo)


def _counts_for(name, func, args, kwargs, result) -> dict:
    """Work counts recorded at a layer boundary."""
    if name == "kernel.closed_form":
        return {"F": int(np.size(args[1] if len(args) > 1 else kwargs["F"]))}
    if name == "gn.psd":
        req = inspect.signature(func).bind(*args, **kwargs).arguments["req"]
        return {"points": int(np.asarray(req.output_grid_hz).size),
                "cells": gn_cells(req)}
    if name == "montecarlo.estimate":
        bound = inspect.signature(func).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return {"trials": a["cfg"].num_trials,
                "triples": mc_triples(a["cfg"], a["psd"], a["polarization"])}
    if name == "moments.check":
        trials = inspect.signature(func).bind(*args, **kwargs).arguments["trials"]
        return {"checks": len(result.checks),
                "samples": len(result.checks) * int(trials)}
    return {}


class Tracer:
    """Collects spans while active; inactive wrappers only pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, func, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack()
        if not self.active or getattr(self._local, "quiet", False) \
                or (stack and stack[-1].name == name):
            return func(*args, **kwargs)
        parent = stack[-1] if stack else \
            (self._home_stack[-1] if self._home_stack else None)
        span = Span(name, 0.0, parent=parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        # counting may call wrapped functions (shape.evaluate); keep those
        # calls out of the trace
        self._local.quiet = True
        try:
            span.counts = _counts_for(name, func, args, kwargs, result)
        finally:
            self._local.quiet = False
        return result

    def activate(self):
        """Start recording; the calling thread becomes the home thread."""
        self._home_stack = self._stack()
        self.active = True

    def deactivate(self):
        self.active = False

    # -- patching -----------------------------------------------------------

    def _wrap(self, name, func):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, func, *args, **kwargs)

        traced.__wrapped__ = func
        return traced

    def install(self):
        for name, funcs in _FUNCTION_SPANS.items():
            for func in funcs:
                wrapper = self._wrap(name, func)
                for module in _gnmodel_modules():
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, func))
        targets = [(kernel.KernelModel, "__post_init__", "kernel.model_init")]
        targets += [(cls, "evaluate", "spectra.evaluate")
                    for cls in vars(spectra).values()
                    if isinstance(cls, type) and issubclass(cls, spectra.PsdShape)
                    and "evaluate" in vars(cls) and cls is not spectra.PsdShape]
        for cls, attr, name in targets:
            original = vars(cls)[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._restore.append((cls, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """id(span) -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): (s.end - s.start) - _union_length(children.get(id(s), ()))
            for s in spans}


# per-layer metric name -> (unit, how it is derived from the spans of a pass)
TIME_METRICS = {
    "config.load_s": ("duration", "config.load"),
    "kernel.model_init_s": ("duration", "kernel.model_init"),
    "kernel.quadrature_s": ("duration", "kernel.quadrature"),
    "kernel.closed_form_s": ("duration", "kernel.closed_form"),
    "gn.psd_s": ("duration", "gn.psd"),
    "gn.self_s": ("self", "gn.psd"),
    "spectra.evaluate_s": ("duration", "spectra.evaluate"),
    "montecarlo.estimate_s": ("duration", "montecarlo.estimate"),
    "montecarlo.self_s": ("self", "montecarlo.estimate"),
    "rng.stream_init_s": ("duration", "rng.stream"),
    "moments.check_s": ("duration", "moments.check"),
    "moments.self_s": ("self", "moments.check"),
    "cli.self_s": ("self", "cli.run"),
}

COUNT_METRICS = {
    "kernel.quadrature_calls": ("calls", "kernel.quadrature"),
    "kernel.closed_form_F": ("F", "kernel.closed_form"),
    "gn.points": ("points", "gn.psd"),
    "gn.cells": ("cells", "gn.psd"),
    "spectra.evaluate_calls": ("calls", "spectra.evaluate"),
    "montecarlo.trials": ("trials", "montecarlo.estimate"),
    "rng.streams": ("calls", "rng.stream"),
    "moments.checks": ("checks", "moments.check"),
    "moments.samples": ("samples", "moments.check"),
}


def layer_metrics(spans) -> dict:
    """Per-layer (value, unit) of one traced pass, summed over its spans."""
    own = self_times(spans)
    out = {}
    for metric, (kind, name) in TIME_METRICS.items():
        chosen = [s for s in spans if s.name == name]
        if kind == "duration":
            out[metric] = (sum((s.end - s.start for s in chosen), 0.0), "s")
        else:
            out[metric] = (sum((own[id(s)] for s in chosen), 0.0), "s")
    for metric, (key, name) in COUNT_METRICS.items():
        chosen = [s for s in spans if s.name == name]
        count = len(chosen) if key == "calls" else \
            sum(s.counts.get(key, 0) for s in chosen)
        out[metric] = (count, "count")
    trials = out["montecarlo.trials"][0]
    mc = [s for s in spans if s.name == "montecarlo.estimate"]
    out["montecarlo.trials_per_s"] = \
        (trials / out["montecarlo.estimate_s"][0] if trials else 0.0, "1/s")
    # computed, per trial: trial-weighted mean over the pass's MC requests
    out["montecarlo.triples"] = (
        sum(s.counts["triples"] * s.counts["trials"] for s in mc) // trials
        if trials else 0, "count")
    return out


def top_level_total(spans) -> float:
    """Children of the cli.run spans plus cli.run self time: the accounting
    that must add up to the traced wall time."""
    own = self_times(spans)
    return sum(s.end - s.start for s in spans
               if s.parent is not None and s.parent.name == "cli.run") \
        + sum(own[id(s)] for s in spans if s.name == "cli.run")
