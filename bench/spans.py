"""Span tracing of the library's layers, installed from outside.

`Tracer.install` replaces every public function of each layer module with
a wrapper that records a span (name, start, end, parent).  Modules bind
many of these functions directly (`from hyperkernel.relations import
beta`), so every module attribute that holds the function is replaced,
not only the defining one.  Spans stay in flat arrays in memory and are
written out by `write` when the run ends.  No code under src/ changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "hypio", "corpus", "core", "kernels", "relations", "groups",
          "quotients", "freeprod")

# Classes whose construction is a layer boundary: traced through __init__.
CLASSES = {"freeprod": ("FactorRegistry",)}

# Spans whose subset tests count towards quotients.scan.accept_ratio.
SCANS = ("quotients.subhypergroups", "quotients.heart", "quotients.derived")


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or not callable(obj):
            continue
        # A generator returns before its work is done, so a span would be empty.
        if inspect.isgeneratorfunction(obj):
            continue
        yield attr, obj


class Tracer:
    """Records spans around every public function of the layer modules."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"hyperkernel.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self.job = ""
        self.counts: dict[str, int] = {}
        self.tables: dict[str, set] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    def _plan(self) -> None:
        originals = {}
        for layer, module in self.modules.items():
            for attr, fn in _public_functions(module):
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in self.modules.values():
            for attr, obj in vars(module).items():
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj, originals[id(obj)][1]))
        for layer, classes in CLASSES.items():
            for cls_name in classes:
                cls = getattr(self.modules[layer], cls_name)
                init = cls.__init__
                self._patches.append((cls, "__init__", init, self._wrap(f"{layer}.{cls_name}", init)))

    def install(self) -> None:
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = self._observer(name)
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, sid)
            return result

        return traced

    def _count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _per_table(self, name: str, rows) -> None:
        self.tables.setdefault(name, set()).add((self.job, hash(rows)))

    def _observer(self, name: str):
        """Counters behind the per-layer ratios, keyed by span name."""
        if name == "kernels.assoc_witness":
            return lambda args, result, sid: self._per_table(name, args[0])
        if name == "relations.beta":
            return lambda args, result, sid: self._per_table(name, args[0].rows)
        if name == "kernels.census":
            return lambda args, result, sid: self._count("kernels.census.sets", len(result or ()))
        if name == "kernels.sr_check":
            return lambda args, result, sid: self._count("kernels.sr_check.accepted", bool(result))
        if name == "core.is_subhypergroup":
            def scan(args, result, sid):
                p = self.parent[sid]
                if p >= 0 and self.names[self.name_of[p]] in SCANS:
                    self._count("quotients.scan.tested")
                    self._count("quotients.scan.found", bool(result))
            return scan
        return None

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name over all recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; calls are single threaded, so children never overlap.
        """
        child = array("d", bytes(8 * len(self.start)))
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        start, end, parent = self.start, self.end, self.parent
        for sid in range(len(start)):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        for sid in range(len(start)):
            name = self.names[self.name_of[sid]]
            calls[name] += 1
            self_s[name] += end[sid] - start[sid] - child[sid]
        return calls, self_s

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_of:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with path.open("wb") as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(f)
