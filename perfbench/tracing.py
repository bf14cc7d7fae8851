"""Spans around calls into genbal's public functions, recorded from outside.

Each traced function is replaced by a wrapper at every ``genbal.*`` module
attribute bound to it (and on its class, for methods), so a call is caught
wherever the program makes it: ``run_grid`` and ``cli.main`` run unchanged
and their internal calls land in spans. Spans live in memory as
``[name, start, end, parent, counters, error]`` rows and are written out
when the run ends. A span's self time is its duration minus the durations
of its direct children; children of one span never overlap, because the
program is single-threaded within a process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solution_iters(args, kwargs, result):
    return {"iters": result[0].iterations}


# (module, attribute path, counters taken from the call) for every function
# the per-layer metrics need. Counter hooks run after the span has closed.
TARGETS = (
    ("simulation", "draw_replicate", lambda a, k, r: {"redraws": r.redraws}),
    ("simulation", "true_target_ate", None),
    ("simulation", "run_grid", None),
    ("quadrature", "gauss_legendre_box", lambda a, k, r: {"points": r.size}),
    ("basis", "evaluate_basis", None),
    ("basis", "check_design_rank", None),
    ("basis", "align_target_summary", None),
    ("basis", "BasisSpec.evaluate_h", lambda a, k, r: {"rows": r.shape[0]}),
    ("basis", "BasisSpec.evaluate_g", lambda a, k, r: {"rows": r.shape[0]}),
    ("solver", "solve_extended", _solution_iters),
    ("solver", "solve_ebal", _solution_iters),
    ("solver", "solve_et_calibration", _solution_iters),
    ("estimators", "fit_logistic_irls", lambda a, k, r: {"iters": r.iterations}),
    ("estimators", "estimate_weighted_ate", None),
    ("estimators", "estimate_ipw", None),
    ("estimators", "estimate_ipw_et", None),
    ("estimators", "estimate_ebal", None),
    ("estimators", "estimate_extended", None),
    ("oracle", "asymptotic_variance", None),
    ("oracle", "solve_limiting_dual", None),
    ("oracle", "project_h", None),
    ("oracle", "project_g_perp", None),
    ("fileio", "load_source_csv", lambda a, k, r: {"rows": r[0].n_s}),
    (
        "fileio",
        "write_weights_csv",
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    ),
    ("fileio", "emit_report", lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, error=None):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield index
        except BaseException as exc:
            self.close(index, type(exc).__name__)
            raise
        self.close(index)

    def adopt(self, spans, parent):
        """Append spans recorded by another process under ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so a child's timestamps fall inside the parent's span.
        """
        offset = len(self.spans)
        for name, start, end, par, counters, error in spans:
            self.spans.append(
                [name, start, end, parent if par is None else par + offset, counters, error]
            )

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _wrap(tracer, name, fn, counters):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as index:
            result = fn(*args, **kwargs)
        if counters is not None:
            tracer.spans[index][4] = counters(args, kwargs, result)
        return result

    return traced


def install(tracer):
    """Wrap every target; returns an undo list for :func:`uninstall`.

    Raises ``LookupError`` when a listed function no longer exists, so a
    renamed layer cannot silently drop out of the per-layer metrics.
    """
    for module_name, _, _ in TARGETS:
        importlib.import_module(f"genbal.{module_name}")
    genbal_modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "genbal" or name.startswith("genbal."))
    ]
    undo = []
    for module_name, attr_path, counters in TARGETS:
        owner = sys.modules[f"genbal.{module_name}"]
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            raise LookupError(f"genbal.{module_name}.{attr_path} no longer exists")
        wrapper = _wrap(tracer, f"{module_name}.{attr_path}", original, counters)
        if owners:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in genbal_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def misnested(spans):
    """Spans that are unclosed or do not lie within their parent span's
    interval (child-process spans with a clock that disagrees, say)."""
    bad = []
    for name, start, end, parent, _, _ in spans:
        if end is None:
            bad.append(name)
        elif parent is not None:
            _, p_start, p_end, _, _, _ = spans[parent]
            if start < p_start or p_end is None or end > p_end:
                bad.append(name)
    return bad


def summarize(spans):
    """Per-name calls, self time, total time, summed counters and errors."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    agg = {}
    for i, (name, start, end, parent, counters, error) in enumerate(spans):
        a = agg.setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counters": {}, "errors": {}}
        )
        a["calls"] += 1
        a["total_s"] += end - start
        a["self_s"] += end - start - child_time[i]
        for key, value in (counters or {}).items():
            a["counters"][key] = a["counters"].get(key, 0) + value
        if error is not None:
            a["errors"][error] = a["errors"].get(error, 0) + 1
    return agg
