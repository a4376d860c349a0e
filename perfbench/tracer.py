"""Spans and counters taken from outside moyal-lab, by wrapping its functions.

Nothing under ``src/`` is edited: a wrapped function is replaced in its own
module and in every ``moyal_lab`` module that imported it by name, and a
wrapped method is replaced on its class.  A module that is not loaded yet is
wrapped as soon as it is imported.  ``restore`` puts every original back.
Spans live in memory and are written out once, when the run ends.

A span is ``[name, start, end, parent]`` with times from ``perf_counter``
and ``parent`` the index of the enclosing span (-1 at the top).  A layer's
self time is the time its spans cover minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# layer boundaries spanned in traced passes: (module, attribute[, span name])
SPANS = {
    "exact": [("star", "moyal_bracket"), ("star", "moyal_product"), ("star", "bracket_term"),
              ("star", "cj_coefficient"), ("certify", "gvh_certificate"),
              ("certify", "exp_test_bracket"), ("certify", "mpc_identity_check"),
              ("certify", "bracket_term_exp"), ("exppoly", "cj_exp"),
              ("exppoly", "pure_exp_collapse"), ("polysym", "poisson_bracket"),
              ("polysym", "directional_power"), ("polysym", "PolySymbol.__mul__"),
              ("polysym", "PolySymbol.partial_multi"),
              ("polysym", "PolySymbol.translated")],
    "numeric": [("evaluators", "SymbolEvaluator.__call__"), ("grid", "sample"),
                ("grid", "star_grid"), ("grid", "cj_grid"), ("grid", "remainder_scaling_scan"),
                ("weylop", "quantize_kernel"), ("weylop", "symbol_from_operator"),
                ("weylop", "heisenberg_evolve"), ("weylop", "egorov_compare"),
                ("gridio", "save_grid_symbol", "gridio.save"),
                ("gridio", "save_operator", "gridio.save"),
                ("gridio", "load_grid_symbol", "gridio.load"),
                ("gridio", "load_operator", "gridio.load")],
}


def _aliases(original):
    """(namespace, attribute) pairs in moyal_lab modules bound to `original`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "moyal_lab" or modname.startswith("moyal_lab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


class _OnImport(importlib.abc.MetaPathFinder):
    """Calls `loaded(module)` right after one of the named modules is executed."""

    def __init__(self, names: set, loaded):
        self.names, self.loaded = names, loaded

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            execute, loaded = spec.loader.exec_module, self.loaded

            def exec_module(module):
                execute(module)
                loaded(module)
            spec.loader.exec_module = exec_module
        return spec


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._mem_active: list[list] = []
        self._finders: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add_closed(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a span measured elsewhere (a child process, a subprocess)."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    # -- wrapping ----------------------------------------------------------

    def _replace(self, original, replacement, owner=None, attr=None) -> None:
        targets = [(owner, attr)] if owner is not None else list(_aliases(original))
        for ns, name in targets:
            self._undo.append((ns, name, getattr(ns, name) if owner is None else vars(ns)[name]))
            setattr(ns, name, replacement)

    def _spanned(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _memory(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = self._mem_enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks[name] = max(self.peaks[name], self._mem_exit(cell))
        return wrapper

    def _mem_enter(self) -> list:
        current, peak = tracemalloc.get_traced_memory()
        for cell in self._mem_active:
            cell[1] = max(cell[1], peak)
        tracemalloc.reset_peak()
        cell = [current, current]
        self._mem_active.append(cell)
        return cell

    def _mem_exit(self, cell: list) -> float:
        _, peak = tracemalloc.get_traced_memory()
        for c in self._mem_active:
            c[1] = max(c[1], peak)
        self._mem_active.remove(cell)
        return (cell[1] - cell[0]) / 2 ** 20

    def wrap(self, module, attr: str, kind: str = "span", name: str | None = None) -> None:
        """Wrap ``module.attr`` (a function, or ``Class.method`` as "Class.method")."""
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        make = {"span": self._spanned, "count": self._counted, "memory": self._memory}[kind]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[meth]
            self._replace(original, make(original, label), owner=cls, attr=meth)
            if meth == "__mul__" and vars(cls).get("__rmul__") is original:
                self._replace(original, vars(cls)[meth], owner=cls, attr="__rmul__")
        else:
            original = getattr(module, attr)
            self._replace(original, make(original, label))

    def wrap_layers(self, entries) -> None:
        """Span-wrap each (module, attribute[, span name]) of `entries`.

        A module already loaded is wrapped now; any other when it is imported.
        """
        wanted = defaultdict(list)
        for mod, attr, *name in entries:
            wanted[f"moyal_lab.{mod}"].append((attr, name[0] if name else None))

        def wrap_module(module):
            for attr, name in wanted[module.__name__]:
                self.wrap(module, attr, "span", name)

        pending = set()
        for modname in wanted:
            if modname in sys.modules:
                wrap_module(sys.modules[modname])
            else:
                pending.add(modname)
        if pending:
            self._finders.append(_OnImport(pending, wrap_module))
            sys.meta_path.insert(0, self._finders[-1])

    def restore(self) -> None:
        while self._finders:
            sys.meta_path.remove(self._finders.pop())
        while self._undo:
            ns, name, value = self._undo.pop()
            setattr(ns, name, value)

    @contextmanager
    def memory_tracking(self):
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()

    # -- reading -------------------------------------------------------------

    def totals(self, root: int) -> tuple[dict, dict]:
        """Per span name, the time and the call count of spans under `root`."""
        times: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for idx in self._descendants(root):
            name, start, end, _ = self.spans[idx]
            times[name] += end - start
            calls[name] += 1
        return times, calls

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per layer (the part of a span name before the first dot)."""
        members = self._descendants(root)
        child_time: dict[int, float] = defaultdict(float)
        for idx in members:
            _, start, end, parent = self.spans[idx]
            child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx in members:
            name, start, end, _ = self.spans[idx]
            out[name.split(".", 1)[0]] += end - start - child_time[idx]
        return out

    def _descendants(self, root: int) -> list[int]:
        inside = {root}
        found = []
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][3] in inside:
                inside.add(idx)
                found.append(idx)
        return found

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
