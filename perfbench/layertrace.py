"""Layer spans and work counters for a traced benchmark pass.

``Tracer.install`` wraps the public functions and methods of every hermlp
layer module and rebinds each wrapped function wherever a hermlp module
holds it, so names that modules import from one another directly
(``spectral.hermite_batch``, ``construct.local_lp_norm``,
``runner.local_lp_norm``, ``construct.lambda_lp``, ...) are traced too.

A call that crosses from one layer into another opens a span (layer,
parent span, start, end); calls within the layer already running open none.
The parent is tracked with a contextvar, and spans stay in memory until the
pass ends.  A layer's self time is its spans' durations minus the time their
child spans cover, so over a whole pass the self times sum to the duration
of the root spans: the ``config.parse_config`` and ``runner.run`` calls.

Counters are read from each instrumented call's arguments and result,
whether or not the call opened a span.  Their own cost (the Hermite repeat
check hashes every grid) is timed and taken out of the self time of the
span it ran in, and reported apart as ``counter_s``, so over a pass the
self times plus ``counter_s`` sum to the root spans.
"""

from __future__ import annotations

import contextvars
import dataclasses
import enum
import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("config", "runner", "construct", "spectral", "hermite",
          "normquad", "mehler", "phase", "stationary", "bounds")

COUNTS = ("hermite.point_steps", "spectral.points", "spectral.tile_flops",
          "normquad.nodes", "mehler.evals", "phase.points",
          "construct.terms", "runner.rows")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hermite_grid(tracer, args, kwargs, result):
    k_max = int(_arg(args, kwargs, 0, "k_max"))
    tracer.hermite_call(("grid", k_max), _arg(args, kwargs, 1, "xs"),
                        result.size)


def _hermite_batch(tracer, args, kwargs, result):
    orders = tuple(int(k) for k in _arg(args, kwargs, 0, "orders"))
    steps = (max(orders) + 1) * result.shape[1] if orders else 0
    tracer.hermite_call(("orders", orders), _arg(args, kwargs, 1, "xs"),
                        steps)


def _sparse_eval(tracer, args, kwargs, result):
    tracer.counts["spectral.points"] += result.size


def _dense_eval(tracer, args, kwargs, result):
    # The quadrature passes tensor-grid blocks, whose m1 * m2 distinct axis
    # pairs are exactly the result's points.
    tracer.counts["spectral.points"] += result.size
    tracer.counts["spectral.tile_flops"] += 2 * (args[0].level + 1) * result.size


def _kernel_sum(tracer, args, kwargs, result):
    tracer.counts["spectral.points"] += 2


def _phase_points(tracer, args, kwargs, result):
    tracer.counts["phase.points"] += int(np.size(result))


def _adder(name, read):
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += read(result)
    return count


COUNTERS = {
    "hermite.hermite_batch_grid": _hermite_grid,
    "hermite.hermite_batch": _hermite_batch,
    "spectral.Eigenfunction.__call__": _sparse_eval,
    "spectral.DenseEigenfunction2D.__call__": _dense_eval,
    "spectral.projection_kernel_sum": _kernel_sum,
    "normquad.local_lp_norm": _adder("normquad.nodes", lambda r: r.nodes),
    "mehler.kernel_oscillatory": _adder("mehler.evals", lambda r: r.evals),
    "phase.phase_value": _phase_points,
    "phase.phase_derivative": _phase_points,
    "phase.phase_second_derivative": _phase_points,
    "construct.build_concentrated": _adder(
        "construct.terms", lambda r: len(r.eigenfunction.indices)),
    "runner.run": _adder("runner.rows", lambda r: r.summary["row_count"]),
}


class Tracer:
    def __init__(self):
        # [layer, parent index or -1, start, end, counter seconds inside]
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.hermite_calls = 0
        self.hermite_repeats = 0
        self._hermite_seen: set = set()
        self._current = contextvars.ContextVar("layer_span",
                                               default=(-1, None))

    def hermite_call(self, orders_key, xs, steps: int) -> None:
        grid = np.ascontiguousarray(xs, dtype=float).tobytes()
        key = (orders_key, hashlib.blake2b(grid, digest_size=16).digest())
        self.hermite_calls += 1
        if key in self._hermite_seen:
            self.hermite_repeats += 1
        else:
            self._hermite_seen.add(key)
        self.counts["hermite.point_steps"] += steps

    def wrap(self, layer: str, fn, count=None):
        spans, current, clock = self.spans, self._current, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_layer = current.get()
            if parent_layer == layer:
                result = fn(*args, **kwargs)
            else:
                span = [layer, parent, 0.0, 0.0, 0.0]
                token = current.set((len(spans), layer))
                spans.append(span)
                span[2] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    current.reset(token)
            if count is not None:
                start = clock()
                count(self, args, kwargs, result)
                enclosing = current.get()[0]
                if enclosing >= 0:
                    spans[enclosing][4] += clock() - start
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public callables, in place, for this process.

        Raises if a ``COUNTERS`` entry names no callable that was wrapped,
        so a renamed hermlp function cannot leave its counter at 0.
        """
        wrapped, counted = {}, set()
        for layer in LAYERS:
            module = importlib.import_module(f"hermlp.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    counted.add(key)
                    wrapped[id(obj)] = (obj, self.wrap(
                        layer, obj, COUNTERS.get(key)))
                elif inspect.isclass(obj) and \
                        not issubclass(obj, (BaseException, enum.Enum)):
                    counted |= self._wrap_methods(layer, obj)
        missing = sorted(set(COUNTERS) - counted)
        if missing:
            raise LookupError("counted callables not found in hermlp: "
                              + ", ".join(missing))
        for modname, module in list(sys.modules.items()):
            if modname != "hermlp" and not modname.startswith("hermlp."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def _wrap_methods(self, layer: str, cls) -> set:
        """Wrap a class's public methods; returns their COUNTERS keys."""
        # Dataclass constructors only store fields; other classes (the
        # eigenfunction evaluators) do real work when built.
        plain = not dataclasses.is_dataclass(cls)
        keys = set()
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__" and \
                    not (name == "__init__" and plain):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                setattr(cls, name, type(attr)(
                    self.wrap(layer, attr.__func__, COUNTERS.get(key))))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, attr, COUNTERS.get(key)))
            else:
                continue
            keys.add(key)
        return keys

    def report(self) -> dict:
        """Per-layer metrics, the counters' own time and the root-span
        totals that the self times plus that time sum to."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = 0
            metrics[f"{layer}.self_s"] = 0.0
        roots = dict.fromkeys(LAYERS, 0.0)
        counter_s = 0.0
        for index, (layer, parent, start, end, counting) in \
                enumerate(self.spans):
            metrics[f"{layer}.calls"] += 1
            metrics[f"{layer}.self_s"] += \
                (end - start) - covered[index] - counting
            counter_s += counting
            if parent < 0:
                roots[layer] += end - start
        metrics.update(self.counts)
        metrics["hermite.repeat_share"] = (
            self.hermite_repeats / self.hermite_calls
            if self.hermite_calls else 0.0)
        return {"metrics": metrics, "root_s": roots, "counter_s": counter_s,
                "spans": len(self.spans)}
