"""Per-layer spans recorded from outside the program.

``Tracer.install()`` wraps every public function of the layer modules, and
every public classmethod of their classes, at each attribute of a loaded
``tin_gdof`` module that binds it (so names copied by ``from ... import``
are wrapped too).  ``uninstall()`` restores the originals.

A span records its name, start, end, parent span and request.  Spans are
kept in flat arrays and aggregated once, at the end of the traced pass:
a span's self time is its duration minus the durations of its direct
children, which nest inside it because the benchmark is single-threaded.
A generator function gets one span per resumption, so the work done while
the caller iterates is charged to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("model", "regions", "potential", "conditions", "_lp", "analysis", "cellsim", "cli")

_PACKAGE = "tin_gdof"


def _layer_name(module_name: str) -> str:
    # Metric names must start with a letter or digit.
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _region_rows(args, kwargs, region):
    return len(region.inequalities)


def _lp_rows(args, kwargs, result):
    return len(kwargs["rows"] if "rows" in kwargs else args[1])


def _feasible(args, kwargs, result):
    return int(result.feasible)


#: Extra counts taken at a layer boundary: span name -> (counter, f(args, kwargs, result)).
_COUNTS = {
    "regions.polyhedral_region": ("rows", _region_rows),
    "lp.simplex_max": ("rows", _lp_rows),
    "potential.feasible_by_negative_cycle": ("feasible", _feasible),
}

#: Counter of items yielded, for generator functions; the default is "items".
_YIELD_COUNTS = {"model.enumerate_orders": "orders"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._request = -1
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        self.calls[name] += 1
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def begin_request(self, request_id: int) -> None:
        self._request = request_id

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            items = f"{name}.{_YIELD_COUNTS.get(name, 'items')}"

            def resumptions(it):
                while True:
                    idx = self._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts[items] += 1
                    yield item

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return resumptions(fn(*args, **kwargs))

            return generator_wrapper

        counter, count = _COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.counts[f"{name}.{counter}"] += count(args, kwargs, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"{_PACKAGE}.{layer}")
            prefix = _layer_name(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(f"{prefix}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and isinstance(meth, classmethod):
                            wrapped = self._wrap(f"{prefix}.{meth_name}", meth.__func__)
                            setattr(obj, meth_name, classmethod(wrapped))
                            self._restore.append((obj, meth_name, meth))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(n):
            out[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return dict(out)
