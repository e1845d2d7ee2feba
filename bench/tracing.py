"""Spans at cbie's module boundaries, recorded from outside the program.

``Tracer.install`` rebinds every public function of the traced cbie modules,
wherever a cbie module holds a reference to it, to a wrapper that records a
span (name, start, end, parent, operation).  numpy.linalg is wrapped the
same way, including the ``svd`` that ``cond`` calls internally.  Self time of
a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("quadrature", "conditions", "manufactured", "assembly", "solver",
          "geometry", "kernel")
LINALG = ("svd", "solve", "cond", "lstsq")


def _is_traceable(value, module_name: str) -> bool:
    if inspect.isfunction(value):
        return value.__module__ == module_name
    # lru_cache wrappers (conditions.build_operators) are not plain functions
    return hasattr(value, "cache_info") and getattr(value, "__module__", None) == module_name


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent index, op)
        self.t0 = 0              # span times are ns since install()
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.op = 0
        self._stack = []         # [span index, child ns]
        self._patched = []       # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            frame = [index, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start - self.t0, end - self.t0, parent, self.op)
                self.calls[name] += 1
                self.self_ns[name] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
        return traced

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        self.t0 = time.perf_counter_ns()
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"cbie.{layer}")
            for attr, value in vars(module).items():
                if not attr.startswith("_") and _is_traceable(value, module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        cli = importlib.import_module("cbie.cli")
        for attr in ("write_csv", "write_json"):
            wrappers[id(getattr(cli, attr))] = self._wrap("cli.write", getattr(cli, attr))
        wrappers[id(cli.main)] = self._wrap("cli.main", cli.main)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cbie" or name.startswith("cbie.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        import numpy.linalg
        inner = sys.modules.get("numpy.linalg._linalg")
        for attr in LINALG:
            wrapper = self._wrap(f"linalg.{attr}", getattr(numpy.linalg, attr))
            self._patch(numpy.linalg, attr, wrapper)
            # numpy's cond calls the module-level svd of its implementation module
            if inner is not None and getattr(inner, attr, None) is not None:
                self._patch(inner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path) -> None:
        """Write the spans as JSON, one [name, start_ns, end_ns, parent, op] each;
        parent is the index of the enclosing span, -1 at the top."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
