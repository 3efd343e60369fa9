"""Span tracer installed around the public functions of the ``tapprox`` modules.

The program itself is not edited: :func:`install` replaces each traced
function, in every ``tapprox.*`` module namespace that holds that same
function object, with a wrapper that records one span per call.  A span is
``(name, start, end, parent span, run id)``; spans stay in memory and are
written out as JSON once the run ends.

Span names are ``<module>.<qualname>`` without the package prefix, for
example ``bsta.hosvd_init`` or ``flrta.TuckerFactorization.reconstruct``.
Constructors are traced under the class name (``subspace.Subspace``).
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from collections.abc import Callable

# Public ``tapprox.cli`` functions traced besides the names in ``tapprox.__all__``.
CLI_FUNCTIONS = (
    "main",
    "cmd_info",
    "cmd_gen",
    "cmd_bsta",
    "cmd_flrta",
    "cmd_bench",
    "read_tensor_file",
    "write_tensor_file",
    "read_matrix_file",
    "write_matrix_file",
)

# (module, class, method): methods traced on the class object itself, so the
# wrapper is seen through every reference to the class.
METHODS = (
    ("tensor_core", "DenseTensor3", "__init__"),
    ("subspace", "Subspace", "__init__"),
    ("flrta", "TuckerFactorization", "reconstruct"),
)


class Tracer:
    """In-memory span recorder plus per-run counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.stack: list[int] = []
        self.run_id = 0
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def count(self, name: str, amount: float) -> None:
        self.counters[self.run_id][name] += amount

    def call(self, name, fn, args, kwargs, hook):
        parent = self.stack[-1] if self.stack else None
        span = [name, 0.0, 0.0, parent, self.run_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        result = exc = None
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, exc)

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": r}
            for i, (n, s, e, p, r) in enumerate(self.spans)
        ]

    def layer_totals(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count in one run.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice.  Self time subtracts the
        durations of direct child spans.
        """
        child_time: dict[int, float] = defaultdict(float)
        for n, s, e, p, r in self.spans:
            if r == run_id and p is not None:
                child_time[p] += e - s
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for i, (n, s, e, p, r) in enumerate(self.spans):
            if r != run_id:
                continue
            tot = totals[n]
            tot["calls"] += 1
            tot["self_s"] += (e - s) - child_time[i]
            if not _has_ancestor_named(self.spans, p, n):
                tot["s"] += e - s
        return totals


def _has_ancestor_named(spans, parent, name) -> bool:
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# ---------------------------------------------------------------------------
# counters read off arguments and results at layer boundaries

def _file_bytes(metric):
    def hook(tracer, args, kwargs, result, exc):
        path = args[0] if args else kwargs.get("path")
        if exc is None and path is not None and os.path.exists(path):
            tracer.count(metric, os.path.getsize(path))

    return hook


def _bsta_solve_hook(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    t = args[0]
    opts = args[1] if len(args) > 1 else kwargs["opts"]
    tracer.count("bsta.sweeps", result.sweeps)
    if result.sweeps == opts.max_sweeps:
        # Stopped by the sweep cap unless the last sweep's gain fell below
        # the stagnation floor (the stopping rule bsta_solve documents).
        hist = result.objective_history
        gain = hist[-1] - hist[-4] if len(hist) >= 4 else float("inf")
        flat = t.data.ravel()
        stagnated = gain < opts.rel_tol * float(flat @ flat)
        tracer.count("bsta.stop_max_sweeps", 0 if stagnated else 1)


def _select_indices_hook(tracer, args, kwargs, result, exc):
    selection = getattr(exc, "selection", None) if exc is not None else result
    if selection is None or selection.cond_report is None:
        return
    report = selection.cond_report
    finite = sum(1 for rec in report if rec.worst != float("inf"))
    tracer.count("flrta.select_indices.trials", len(report))
    tracer.count("flrta.select_indices.finite_trials", finite)


def _flrta_approx_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("flrta.core_scalars", result.core.size)


HOOKS = {
    "cli.read_tensor_file": _file_bytes("cli.read_tensor_file.bytes"),
    "cli.write_tensor_file": _file_bytes("cli.write_tensor_file.bytes"),
    "cli.write_matrix_file": _file_bytes("cli.write_matrix_file.bytes"),
    "bsta.bsta_solve": _bsta_solve_hook,
    "flrta.select_indices": _select_indices_hook,
    "flrta.flrta_approx": _flrta_approx_hook,
}


# ---------------------------------------------------------------------------
# installation

def _short_module(fn) -> str:
    return fn.__module__.split(".", 1)[-1]


def _make_wrapper(tracer: Tracer, fn, name: str):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    return wrapper


def install(tracer: Tracer) -> tuple[list[str], Callable[[], None]]:
    """Wrap the traced layers of the imported ``tapprox`` package.

    Returns the span names wrapped and a function that restores every
    original object.  A configured name the package no longer has is
    skipped; its layer metrics are then reported as absent.
    """
    import tapprox
    import tapprox.cli as cli

    modules = [m for k, m in sys.modules.items() if k == "tapprox" or k.startswith("tapprox.")]
    targets = {}  # id(original) -> (original, span name)
    candidates = [(tapprox, n) for n in getattr(tapprox, "__all__", ())]
    candidates += [(cli, n) for n in CLI_FUNCTIONS]
    for mod, attr in candidates:
        fn = getattr(mod, attr, None)
        if inspect.isfunction(fn):
            targets[id(fn)] = (fn, f"{_short_module(fn)}.{fn.__name__}")

    restore = []
    installed = []
    for fn, name in targets.values():
        wrapper = _make_wrapper(tracer, fn, name)
        installed.append(name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, fn))

    for mod_name, cls_name, meth in METHODS:
        cls = getattr(sys.modules.get(f"tapprox.{mod_name}"), cls_name, None)
        method = getattr(cls, meth, None) if cls is not None else None
        name = f"{mod_name}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
        if method is None:
            continue
        setattr(cls, meth, _make_wrapper(tracer, method, name))
        restore.append((cls, meth, method))
        installed.append(name)

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return sorted(installed), uninstall
