"""Per-layer spans recorded from outside the laxcat modules.

A layer is one laxcat module.  ``Tracer.install`` wraps every public
module-level function of each layer, plus the ``validate`` methods of the
classes a layer defines, and rebinds each wrapper in every namespace that
binds the original function (the modules use ``from .x import y``, so
patching the defining module alone would miss most calls).  Functions that
return iterators, such as ``enumerate_functors``, are not wrapped: their work
runs while the caller consumes them and is timed through that caller.

A span is (name, start, end, parent, op id).  Spans are kept in flat arrays
in memory and written out only when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("core", "constructions", "diagrams", "grothendieck", "limits",
          "localization", "equiv", "generator", "checks", "io_formats")

# layers whose calls return categories; their morphism counts are recorded
_BUILDERS = ("constructions", "grothendieck", "limits", "localization")

# leaf helpers called once per element inside another function's loop (id
# minting, is_iso per isomorphism-search candidate, functor composition per
# composable pair in diagram validation and generation): a span costs about
# as much as their bodies, so they are not wrapped and their time counts as
# their caller's self time
_UNTIMED = frozenset({"short_id", "pair_id", "total_obj_id", "total_mor_id",
                      "tw_mor_id", "slice_mor_id", "inverse_name", "is_iso",
                      "compose_functors", "identity_functor"})


# module-level validation entry points, counted with the validate methods
_VALIDATORS = frozenset({"check_axioms", "validate_category", "validate_marking"})


def morphism_count(x) -> int:
    """Morphisms of the category a construction returned, 0 if it is none."""
    from laxcat.core import FinCat

    if isinstance(x, tuple) and x:
        x = x[0]  # lax_colimit / oplax_colimit return (result, fibration)
    for _ in range(3):
        if isinstance(x, FinCat):
            return len(x.morphisms)
        x = getattr(x, "cat", None) or getattr(x, "total", None)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # name id -> (layer, function)
        self.name_ = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_ = array("i")
        self.morphisms: dict[int, int] = {}  # span -> morphisms it returned
        self.out_bytes: dict[int, int] = {}  # span -> canonical JSON written
        self.loc_status: dict[int, str] = {}  # span -> localization status
        self.op = -1  # op id stamped on new spans
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        nid = len(self.names)
        self.names.append((layer, qualname))
        stack = self._stack
        name_, start, end, parent, op_ = (self.name_, self.start, self.end,
                                          self.parent, self.op_)
        builds = layer in _BUILDERS
        writes = layer == "io_formats" and qualname == "canonical_json"
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_.append(tracer.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if builds:
                tracer._record_build(idx, layer, result)
            elif writes:
                tracer.out_bytes[idx] = len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _record_build(self, idx: int, layer: str, result) -> None:
        n = morphism_count(result)
        if n:
            self.morphisms[idx] = n
        if layer == "localization":
            r = result[0] if isinstance(result, tuple) and result else result
            status = getattr(r, "status", None)
            if isinstance(status, str):
                self.loc_status[idx] = status

    def install(self) -> None:
        """Wrap every layer and rebind the wrappers wherever the originals
        are bound in a laxcat module."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"laxcat.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in _UNTIMED \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and \
                        inspect.isfunction(obj.__dict__.get("validate")):
                    fn = obj.__dict__["validate"]
                    self._undo.append((obj, "validate", fn))
                    setattr(obj, "validate",
                            self._wrap(layer, f"{name}.validate", fn))
        for modname, ns in sorted(sys.modules.items()):
            if modname != "laxcat" and not modname.startswith("laxcat."):
                continue
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((ns, name, obj))
                    setattr(ns, name, hit[1])

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._undo):
            setattr(ns, name, obj)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def is_entry(self, i: int) -> bool:
        """Whether span i entered its layer from outside it."""
        p = self.parent[i]
        return p < 0 or self.names[self.name_[p]][0] != \
            self.names[self.name_[i]][0]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: self seconds, calls entering the layer from outside it,
        validate calls and their self seconds, morphisms in the categories
        its calls returned, and canonical JSON characters written."""
        selfs = self.self_times()
        layer_of = [layer for layer, _ in self.names]
        validates = [q.endswith(".validate") or q in _VALIDATORS
                     for _, q in self.names]
        out = {layer: {"self_s": 0.0, "calls": 0, "validate_calls": 0,
                       "validate_self_s": 0.0, "morphisms_built": 0,
                       "bytes": 0} for layer in LAYERS}
        for i, s in enumerate(selfs):
            nid = self.name_[i]
            t = out[layer_of[nid]]
            t["self_s"] += s
            if self.is_entry(i):
                t["calls"] += 1
            if validates[nid]:
                t["validate_calls"] += 1
                t["validate_self_s"] += s
        for i, n in self.morphisms.items():
            out[layer_of[self.name_[i]]]["morphisms_built"] += n
        for i, n in self.out_bytes.items():
            out[layer_of[self.name_[i]]]["bytes"] += n
        return out

    def write(self, path: str) -> None:
        """Spans as text: a header line of span names, then one line
        'name-id start end parent op' per span, times in seconds."""
        with open(path, "w") as fh:
            fh.write(" ".join(f"{layer}.{fn}" for layer, fn in self.names) + "\n")
            rows = zip(self.name_, self.start, self.end, self.parent, self.op_)
            fh.writelines(f"{n} {s:.9f} {e:.9f} {p} {o}\n"
                          for n, s, e, p, o in rows)
