"""Outside-in span trace of the ``mwrecon`` layers.

While :func:`installed` is active, every public function that a layer module
binds (its own or one imported from another ``mwrecon`` module) is replaced
in that module's namespace by a wrapper that records a span named
``<origin module>.<function>``.  Functions are chosen by their origin module,
so a function added later lands in its layer without touching this file.
Calls made through a module attribute, including the calls that
``mwrecon.pipelines`` makes to the layers below it, therefore nest as
``scan -> pipelines.reconstruct -> ...``.  Outside the ``with`` block the
original functions are back in place, so an untraced run pays nothing.

Spans are kept in memory as ``[id, parent, name, start, end]`` lists and
summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# ``cli`` and ``config`` only parse arguments and are not timed.
LAYERS = ("pipelines", "network", "filters", "grappa", "kspace", "metrics", "phantom")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every public layer function through ``tracer`` for the block."""
    layer_modules = {f"mwrecon.{name}": name for name in LAYERS}
    replaced = []
    try:
        for mod_name in layer_modules:
            mod = importlib.import_module(mod_name)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = layer_modules.get(obj.__module__)
                if origin is None:
                    continue
                replaced.append((mod, attr, obj))
                setattr(mod, attr, tracer.wrap(f"{origin}.{obj.__name__}", obj))
        yield tracer
    finally:
        for mod, attr, obj in reversed(replaced):
            setattr(mod, attr, obj)


def summarize(spans) -> dict:
    """Per root name and span name: ``{"calls", "total_s", "self_s"}``.

    Self time is a span's duration minus its children's; calls are
    sequential in one thread, so children never overlap.
    """
    root = [0] * len(spans)
    child_s = [0.0] * len(spans)
    for sid, parent, _name, start, end in spans:
        root[sid] = sid if parent is None else root[parent]
        if parent is not None:
            child_s[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}))
    for sid, _parent, name, start, end in spans:
        entry = out[spans[root[sid]][2]][name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s[sid]
    return {r: dict(v) for r, v in out.items()}
