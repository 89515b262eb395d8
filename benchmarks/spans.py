"""Layer spans recorded from outside the quasiproj package.

A `Recorder` wraps the public functions of each layer (see `LAYERS`) by
rebinding every module attribute of the package that holds the original
function, so a call through any import site is recorded.  Spans stay in
memory as lists ``[id, parent, layer, start, end, run, counts]`` and are
handed to the caller when the run ends.  Counts are derived only from the
arguments a wrapped function receives and the public values it returns.

`layer_totals` turns a span list into per-layer self time and counts; a
span's self time is its duration minus the durations of its child spans.
Stacks are per thread, so children of one span never overlap in time.  This module imports neither numpy nor quasiproj at import time, so
run.py and the tests can use the arithmetic on its own.
"""

import itertools
import sys
import threading
import time

# layer -> (module, attribute) of the public function whose calls are spans.
# grid_transform and signal_eval are callables the package hands out, so
# they are wrapped where they are created (spectral_evaluator, functions.get).
LAYERS = {
    "spectral_weights": ("quasiproj.quasiprojection", "spectral_evaluator"),
    "compact_synthesis": ("quasiproj.quasiprojection", "evaluate_grid_compact"),
    "coefficients": ("quasiproj.analyzers", "analyze"),
    "quadrature_nodes": ("quasiproj.quadrature", "gauss_nodes_box"),
    "modulus": ("quasiproj.smoothness", "modulus"),
    "error_lp": ("quasiproj.quasiprojection", "error_lp"),
    "best_approx": ("quasiproj.smoothness", "best_approx"),
    "report": ("quasiproj.harness", "emit"),
}
ROOT = "run"

# per-layer count names reported besides self_s; "calls" is the span count
COUNTS = {
    "grid_transform": ("calls", "points"),
    "spectral_weights": ("calls", "alias_shifts"),
    "coefficients": ("count",),
    "quadrature_nodes": ("calls",),
    "compact_synthesis": ("calls", "points"),
    "signal_eval": ("calls", "points"),
    "modulus": ("calls", "steps"),
    "error_lp": ("calls",),
    "best_approx": ("calls",),
    "report": (),
}


def _rows(x, dim):
    """Number of points in a point argument: (n, d) arrays or, in 1-D, (n,)."""
    shape = getattr(x, "shape", ())
    if len(shape) >= 2 or (len(shape) == 1 and dim == 1):
        return int(shape[0])
    return 1


class Recorder:
    """In-memory span recorder for one run process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer):
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else None, layer,
                time.perf_counter(), None, self.run_id, None]
        stack.append(span)
        return span

    def close(self, span, counts=None):
        span[4] = time.perf_counter()
        span[6] = counts
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, layer, fn, count=None):
        """Span around every call of fn; count(args, kwargs, result) -> dict."""
        def traced(*args, **kwargs):
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span)
                raise
            self.close(span, count(args, kwargs, result) if count else None)
            return result
        return traced

    def install(self):
        """Rebind each layer's public function throughout the package."""
        import quasiproj.functions as functions
        import quasiproj.quasiprojection as qp

        counters = {
            "compact_synthesis": lambda a, kw, r: {
                "points": _rows(a[2] if len(a) > 2 else kw["pts"], a[0].dim)},
            "coefficients": lambda a, kw, r: {"count": 1},
            "modulus": lambda a, kw, r: {"steps": int(r.net_size)},
        }
        for layer, (modname, attr) in LAYERS.items():
            original = getattr(sys.modules[modname], attr)
            if layer == "spectral_weights":
                wrapper = self._spectral_wrapper(original, qp.alias_shifts)
            else:
                wrapper = self.wrap(layer, original, counters.get(layer))
            _rebind(original, wrapper)
        _rebind(functions.get, self._signal_wrapper(functions.get))

    def _spectral_wrapper(self, spectral_evaluator, alias_shifts):
        def traced(spec, f, *args, **kwargs):
            span = self.open("spectral_weights")
            try:
                evaluator = spectral_evaluator(spec, f, *args, **kwargs)
            except BaseException:
                self.close(span)
                raise
            self.close(span)
            # counted after the span closes, so the count costs it no time
            span[6] = {"alias_shifts": len(alias_shifts(spec, f))}
            return self.wrap("grid_transform", evaluator, lambda a, kw, r: {
                "points": _rows(a[0] if a else kw["x"], spec.dim)})
        return traced

    def _signal_wrapper(self, get):
        def traced(*args, **kwargs):
            f = get(*args, **kwargs)
            f.spatial = self.wrap("signal_eval", f.spatial, lambda a, kw, r: {
                "points": _rows(a[0], f.dim)})
            return f
        return traced


def _rebind(original, wrapper):
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "quasiproj" or
                               name.startswith("quasiproj.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


# -- self time arithmetic ------------------------------------------------------

def self_times(spans):
    """{span id: self time} for spans [id, parent, layer, start, end, ...]:
    duration minus the durations of its child spans."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_totals(spans):
    """Per layer: self_s and wall_s (span durations) summed over its spans,
    calls, and summed counts."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        t = totals.setdefault(s[2], {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
        t["self_s"] += own[s[0]]
        t["wall_s"] += s[4] - s[3]
        t["calls"] += 1
        for key, value in (s[6] or {}).items():
            t[key] = t.get(key, 0) + value
    return totals
