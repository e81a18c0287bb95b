"""Spans around the public functions of each leanfa layer, kept in memory.

`LayerTracer.install()` wraps every public function that a layer module
defines and rebinds the wrapper in every `leanfa` namespace that imported
the name, so calls between layers record nested spans with parent links.
It also counts `Machine.__post_init__` (machines built) and
`StageGame.__hash__` calls. A layer's self time is the time of its spans
minus the time of their child spans; time spent in private helpers counts
toward the public function that called them. A generator's span lasts
from the call until it is exhausted, which the callers in leanfa do at once.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("games", "machines", "sequences", "cycles", "equilibrium", "structure", "cli")

COUNTED = (("games", "StageGame", "__hash__"), ("machines", "Machine", "__post_init__"))
# spans of these functions delimit the deviation search
SEARCH_ROOTS = (("equilibrium", "is_lean"), ("equilibrium", "is_abreu_rubinstein"))


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class LayerTracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[str, str, str], int] = {}
        self._stack = [-1]

    def _wrap(self, fid: int, fn):
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        def traced_generator(*args, **kwargs):
            # the span runs from the call until the generator is exhausted or
            # closed; it is on the stack only while the generator's body runs
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            starts.append(clock())
            gen = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                    yield item
            finally:
                ends[idx] = clock()

        wrapper = traced_generator if inspect.isgeneratorfunction(fn) else traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "traced")
        return wrapper

    def _count(self, key, method):
        self.counts[key] = 0
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"leanfa.{layer}") for layer in LAYERS}
        rebind: dict[int, object] = {}
        for layer, module in modules.items():
            for name, fn in list(_public_functions(module)):
                self.names.append((layer, name))
                rebind[id(fn)] = (fn, self._wrap(len(self.names) - 1, fn))
        namespaces = [m for n, m in sys.modules.items() if n == "leanfa" or n.startswith("leanfa.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
        for layer, cls_name, method in COUNTED:
            cls = getattr(modules[layer], cls_name, None)
            if cls is None or method not in vars(cls):
                continue  # absent from the summary, so the caller reports it missing
            setattr(cls, method, self._count((layer, cls_name, method), vars(cls)[method]))

    def summary(self) -> dict:
        """Per-function calls, outermost inclusive time and self time; per-layer self time."""
        n = len(self.fid)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        search_fids = {self.names.index(r) for r in SEARCH_ROOTS if r in self.names}
        # parents precede children, so one forward pass settles both flags
        in_search = [False] * n
        nested = [False] * n  # an ancestor runs the same function
        for i in range(n):
            p = parents[i]
            if p < 0:
                continue
            in_search[i] = in_search[p] or fids[p] in search_fids
            while p >= 0 and not nested[i]:
                nested[i] = fids[p] == fids[i]
                p = parents[p]
        per_fn = [{"calls": 0, "s": 0.0, "self_s": 0.0, "in_search": 0} for _ in self.names]
        for i in range(n):
            rec = per_fn[fids[i]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child_time[i]
            if not nested[i]:
                rec["s"] += dur
            if in_search[i]:
                rec["in_search"] += 1
        functions = {f"{l}.{name}": rec for (l, name), rec in zip(self.names, per_fn)}
        layers = {layer: 0.0 for layer in LAYERS}
        for (layer, _), rec in zip(self.names, per_fn):
            layers[layer] += rec["self_s"]
        return {
            "spans": n,
            "functions": functions,
            "layer_self_s": layers,
            "counters": {".".join(k): v for k, v in self.counts.items()},
        }

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then fid, parent, start, end columns."""
        with open(path, "wb") as fh:
            header = {"names": [f"{l}.{n}" for l, n in self.names], "spans": len(self.fid),
                      "columns": ["fid:int32", "parent:int32", "start:float64", "end:float64"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.fid, self.parent, self.start, self.end):
                column.tofile(fh)
