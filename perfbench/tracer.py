"""Layer spans around the public functions of each ellis module.

The tracer replaces every public function and public method of the seven
``ellis`` modules with a wrapper that records one span per call.  Nothing in
``src/`` changes: the wrappers are installed from here, at run time, in the
traced benchmark process only.

* A span's self time is its duration minus the time its child spans cover.
* A method counts toward the module that defines the receiver's class, so
  ``HyperCascadeModel.iterate_images`` (inherited from ``spaces``) counts as
  ``hyperspace``.
* Work counts are read from return values, never from clocks, so they repeat
  exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("spaces", "hyperspace", "symbolic", "envelope", "algebra", "properties", "cli")

# Accessors called once per table cell or sequence symbol.  A span costs more
# than the work inside them, so their time stays with the caller: the size**2
# table fill in ``ExactEnvelope`` counts as ``exact_envelope`` self time.
UNTRACED = {"ExactEnvelope.fold", "FiniteSemigroup.mul", "WindowSampleModel.symbol"}


def _nbytes(images) -> int:
    if isinstance(images, np.ndarray):
        return images.nbytes
    if isinstance(images, (list, tuple)):
        return sum(_nbytes(x) for x in images)
    return 0


def _envelope_counts(env) -> dict:
    return {
        "envelope.elements": len(env.elements),
        "envelope.table_cells": 0 if env.table is None else int(env.table.size),
        "envelope.image_bytes": sum(_nbytes(e.images) for e in env.elements),
    }


# work counts per traced function, read from its return value
COUNTERS = {
    "envelope.exact_envelope": _envelope_counts,
    "envelope.approx_envelope": _envelope_counts,
    "algebra.from_envelope": lambda s: {"algebra.semigroup_elements": s.size},
    "hyperspace.build_hyper_model": lambda h: {"hyperspace.hyperpoints": h.n_points},
    "cli.emit_report": lambda paths: {"cli.report_bytes": sum(os.path.getsize(p) for p in paths)},
}


def _receiver_layer(obj) -> str:
    return type(obj).__module__.rpartition(".")[2]


class Tracer:
    """Per-function call counts and self time, plus return-value work counts."""

    def __init__(self):
        self.stack: list[float] = []
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()

    def install(self) -> None:
        """Wrap every public function and method of the ellis modules."""
        modules = [importlib.import_module(f"ellis.{name}") for name in LAYERS]
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped = self._wrap(obj, layer, method=False)
                    # rebind every module-level reference, including
                    # ``from .x import f`` copies in other modules
                    for other in modules:
                        for attr, val in list(vars(other).items()):
                            if val is obj:
                                setattr(other, attr, wrapped)

    def _wrap_class(self, cls) -> None:
        layer = cls.__module__.rpartition(".")[2]
        for name, fn in list(vars(cls).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or inspect.isgeneratorfunction(fn)
                    or f"{cls.__name__}.{name}" in UNTRACED):
                continue
            setattr(cls, name, self._wrap(fn, layer, method=True))

    def _wrap(self, fn, layer: str, method: bool):
        name = fn.__name__
        stack, stats, counts = self.stack, self.stats, self.counts
        counter = COUNTERS.get(f"{layer}.{name}")
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                key = f"{_receiver_layer(args[0]) if method else layer}.{name}"
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - child
            if counter is not None:
                for k, v in counter(result).items():
                    counts[k] = counts.get(k, 0) + int(v)
            return result

        return traced

    def snapshot(self) -> tuple[dict, dict]:
        """(timings, counts) of everything recorded since the last reset.

        Timings hold ``<layer>.<fn>.self_s`` and ``<layer>.self_s``; counts
        hold ``<layer>.<fn>.calls`` and the return-value work counts.
        """
        times: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        counts: dict[str, int] = dict(self.counts)
        for key, (calls, self_s) in self.stats.items():
            counts[f"{key}.calls"] = calls
            times[f"{key}.self_s"] = self_s
            layer = key.partition(".")[0]
            times[f"{layer}.self_s"] = times.get(f"{layer}.self_s", 0.0) + self_s
        return times, counts
