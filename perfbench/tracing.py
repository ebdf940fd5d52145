"""Span tracing around the public functions of every robustpr layer.

``install`` replaces each public function of each ``robustpr.<module>`` with
a wrapper that records a span (name, start, end, parent, problem id) while a
problem is open.  Modules bind functions under their own names
(``from .measure import apply``, ``measure as take_measurements``, the CLI's
runner table), so the wrapper replaces every module attribute, and every
value of a module-level dict, that *is* the original function; patching only
the defining module would miss those calls.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer
numbers and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import sys
import time

# Modules whose public functions form the layers, in dependency order.
LAYERS = ("measure", "objective", "solver", "spectral", "landscape", "netpbm",
          "harness", "cli")

NAME, START, END, PARENT, PROBLEM, INFO = range(6)


def layer_functions():
    """{qualified name: function} for every public function of every layer."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"robustpr.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{attr}"] = obj
    return out


def robustpr_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "robustpr" or name.startswith("robustpr."))]


def _info(name, args, result):
    """Per-call facts kept on the span: work sizes and silent failures."""
    if name in ("measure.apply", "measure.apply_adjoint"):
        return {"bytes": matvec_bytes(args[0])}
    if name == "spectral.min_eigenvector":
        return {"iters": result.iters, "converged": bool(result.converged)}
    if name == "landscape.population_grid":
        return {"cells": int(result[0].size)}
    if name == "netpbm.atomic_write_bytes":
        return {"bytes": len(args[1])}
    return None


def matvec_bytes(ensemble):
    """Bytes one forward or adjoint product reads and writes, by a model.

    Dense: the m x d matrix plus both vectors.  Sketch: the k x l block is
    read and written once per butterfly level, plus the sign diagonals and
    both vectors.
    """
    m, d = ensemble.m, ensemble.d
    if ensemble.rows is not None:
        return 8 * (m * d + m + d)
    levels = int(math.log2(d))
    return 8 * (2 * m * levels + m + m + d)


class Tracer:
    """Span recorder; spans are kept only while a problem is open."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._problem = None
        self._originals = {}

    def begin_problem(self, problem_id):
        self._problem = problem_id
        self._stack.clear()

    def end_problem(self):
        self._problem = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._problem is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._problem, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[INFO] = _info(name, args, result)
            return result

        traced.__wrapped_layer__ = name
        return traced

    def install(self):
        """Replace every reference to a layer function in robustpr modules."""
        wrappers = {fn: self._wrap(name, fn) for name, fn in layer_functions().items()}
        _substitute(wrappers)
        self._originals = {w: fn for fn, w in wrappers.items()}

    def uninstall(self):
        """Put the original functions back."""
        _substitute(self._originals)
        self._originals = {}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _substitute(mapping):
    """Swap functions per ``mapping`` in module attributes and module-level dicts."""
    def swap(obj):
        return mapping.get(obj, obj) if inspect.isfunction(obj) else obj

    for mod in robustpr_modules():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, dict):
                for key, val in list(obj.items()):
                    obj[key] = swap(val)
            else:
                setattr(mod, attr, swap(obj))


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, solver_statuses):
    """The per-layer metrics of one traced run, keyed by metric name.

    ``solver_statuses`` holds the stop reason of every solver run, read from
    the program's summary files.
    """
    own = self_times(spans)
    calls, self_s, total_s = {}, {}, {}
    for s, t in zip(spans, own):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + t
        total_s[s[NAME]] = total_s.get(s[NAME], 0.0) + (s[END] - s[START])

    # A call that raised has no INFO; it counts as a call but adds no facts.
    def info_sum(name, key):
        return sum(s[INFO][key] for s in spans if s[NAME] == name and s[INFO] is not None)

    def layer_self(prefix):
        return sum(t for name, t in self_s.items() if name.startswith(prefix))

    in_init = []
    for s in spans:
        in_init.append(s[NAME] == "spectral.spectral_init"
                       or (s[PARENT] >= 0 and in_init[s[PARENT]]))
    matvec_names = ("measure.apply", "measure.apply_adjoint")
    eig = [s[INFO] for s in spans
           if s[NAME] == "spectral.min_eigenvector" and s[INFO] is not None]
    steps_per_run = {}
    for s in spans:
        if s[NAME] == "solver.polyak_step":
            steps_per_run[s[PARENT]] = steps_per_run.get(s[PARENT], 0) + 1
    runs = [i for i, s in enumerate(spans) if s[NAME] == "solver.run"]

    def median(values):
        return statistics.median(values) if values else 0

    def fraction(hits, total):
        return hits / total if total else 0.0

    count = calls.get
    return {
        "measure.apply.calls": count("measure.apply", 0),
        "measure.apply.self_s": self_s.get("measure.apply", 0.0),
        "measure.apply_adjoint.calls": count("measure.apply_adjoint", 0),
        "measure.apply_adjoint.self_s": self_s.get("measure.apply_adjoint", 0.0),
        "measure.matvecs": sum(count(n, 0) for n in matvec_names),
        "measure.matvec_bytes_computed": sum(info_sum(n, "bytes") for n in matvec_names),
        "measure.ensemble_s": sum(self_s.get(n, 0.0) for n in (
            "measure.gaussian_ensemble", "measure.hadamard_ensemble", "measure.measure")),
        "objective.value.calls": count("objective.value", 0),
        "objective.value.self_s": self_s.get("objective.value", 0.0),
        "objective.subgradient.calls": count("objective.subgradient", 0),
        "objective.subgradient.self_s": self_s.get("objective.subgradient", 0.0),
        "solver.polyak_step.calls": count("solver.polyak_step", 0),
        "solver.polyak_step.self_s": self_s.get("solver.polyak_step", 0.0),
        "solver.run.self_s": self_s.get("solver.run", 0.0),
        "solver.iterations_p50": median([steps_per_run.get(i, 0) for i in runs]),
        "solver.max_iters_fraction": fraction(
            sum(st == "max_iters" for st in solver_statuses), len(solver_statuses)),
        "spectral.spectral_init.s": total_s.get("spectral.spectral_init", 0.0),
        "spectral.min_eigenvector.self_s": self_s.get("spectral.min_eigenvector", 0.0),
        "spectral.matvecs": sum(1 for s, init in zip(spans, in_init)
                                if init and s[NAME] in matvec_names),
        "spectral.power_iters_p50": median([e["iters"] for e in eig]),
        "spectral.not_converged_fraction": fraction(
            sum(not e["converged"] for e in eig), len(eig)),
        "landscape.population_grid.calls": count("landscape.population_grid", 0),
        "landscape.population_grid.self_s": self_s.get("landscape.population_grid", 0.0),
        "landscape.population_grid.cells": info_sum("landscape.population_grid", "cells"),
        "landscape.grid_local_minima.self_s": self_s.get("landscape.grid_local_minima", 0.0),
        "landscape.graph_closeness_audit.self_s":
            self_s.get("landscape.graph_closeness_audit", 0.0),
        "harness.self_s": layer_self("harness."),
        "cli.self_s": layer_self("cli."),
        "netpbm.atomic_write_bytes.s": total_s.get("netpbm.atomic_write_bytes", 0.0),
        "netpbm.atomic_write_bytes.bytes": info_sum("netpbm.atomic_write_bytes", "bytes"),
        "netpbm.read_image.s": total_s.get("netpbm.read_image", 0.0),
        "netpbm.write_image.s": total_s.get("netpbm.write_image", 0.0),
        "trace.spans": len(spans),
    }
