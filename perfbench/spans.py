"""Spans around the calls into turanlab's layers, recorded from outside.

The package binds its functions with ``from .x import f``, so a function
lives under several module attributes (``turanlab.poly.evaluate_many`` and
``turanlab.supnorm.evaluate_many`` are the same object).  ``Tracer.install``
replaces every such binding of each public function of the traced modules
with one wrapper, and ``uninstall`` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
``points`` counts zeros x evaluation points: a kernel span (``evaluate_many``,
``derivative_values``) records its own, every other span the points of the
outermost kernel calls beneath it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("poly", "supnorm", "classes", "bounds", "levelsets", "search",
          "constructions")
KERNELS = {"poly.evaluate_many", "poly.derivative_values"}


class _Frame:
    __slots__ = ("child_s", "points")

    def __init__(self):
        self.child_s = 0.0
        self.points = 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "points": 0})
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def install(self):
        import turanlab

        modules = [importlib.import_module(f"turanlab.{m}") for m in LAYERS]
        wrappers = {}
        for short, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{short}.{name}")
        for mod in modules + [turanlab, importlib.import_module("turanlab.cli")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in self._patched:
            setattr(mod, name, obj)
        self._patched.clear()

    def _enter(self):
        frame = _Frame()
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _leave(self, label, frame, t0, own_points=0, call=True):
        dt = time.perf_counter() - t0
        self._stack.pop()
        kernel = label in KERNELS
        points = own_points if kernel else frame.points
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dt
            parent.points += points
        st = self.stats[label]
        st["calls"] += call
        st["total_s"] += dt
        st["self_s"] += dt - frame.child_s
        st["points"] += points

    def _wrap(self, fn, label):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, label)
        kernel = label in KERNELS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, t0 = self._enter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                own = _points(args, out) if kernel else 0
                self._leave(_refine(label, out), frame, t0, own)
                self._count(label, out)

        return wrapper

    def _wrap_generator(self, fn, label):
        # one call per generator; one span per resumption, so the caller's
        # loop body between items is not charged to the generator
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stats[label]["calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame, t0 = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave(label, frame, t0, call=False)
                yield item

        return wrapper

    def _count(self, label, out):
        if label == "poly.derivative" and getattr(out, "coeffs", None) is not None:
            self.counts["poly.derivative.coeff_backed"] += 1
        elif label == "search.minimize_ratio" and out is not None:
            self.counts["search.evals"] += out.evals


def _refine(label, out):
    """Split sup_norm spans by the backend that produced the value."""
    if label == "supnorm.sup_norm" and out is not None:
        return label + (".cp" if out.method == "critical-points" else ".grid")
    return label


def _points(args, out):
    if out is None:
        return 0
    P = args[0]
    coeffs = getattr(P, "coeffs", None)
    width = len(coeffs) - 1 if coeffs is not None else len(P.zeros)
    return width * out.size
