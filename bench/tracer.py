"""Outside-in spans around the public functions of every `edgeschur` layer.

`Tracer.install()` wraps each public function of the eight layer modules
(plus the `MultiPoly` operators and the `EdgeLabeledTableau` methods that
carry layer work) and rebinds the wrapper in every `edgeschur` module
namespace that refers to the original, including the alias
`MultiPoly.__rmul__`.  Library code is not edited.  A span is a name, a
start, an end and a parent span; spans live in flat arrays in memory and
can be written out after the run.  A generator function gets one span per
`next`, so its span time is the time spent producing each item.

Self time is a span's duration minus the durations of its child spans.  A
layer's self time is the sum over the spans whose name starts with it; the
time of an unwrapped helper lands in the span that called it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("poly", "shapes", "tableaux", "schur", "lattice", "crystal",
          "uncrowding", "cli")

# Public leaf helpers called millions of times per pass: a span each would
# cost more than the work, so their time counts in the calling span.  The
# module functions poly.add and poly.mul only apply the operators, whose
# spans already carry those names.
LEAVES = {"poly.monomial_mul", "poly.monomial_degree", "poly.xv", "poly.yv",
          "poly.av", "poly.var_name", "poly.add", "poly.mul",
          "shapes.content", "shapes.maya_bit"}


def _methods():
    """(class, attribute names, span name) for wrapped methods."""
    from edgeschur.poly import MultiPoly
    from edgeschur.tableaux import EdgeLabeledTableau
    return [(MultiPoly, ("__mul__", "__rmul__"), "poly.mul"),
            (MultiPoly, ("__add__",), "poly.add"),
            (MultiPoly, ("__sub__",), "poly.sub"),
            (MultiPoly, ("__pow__",), "poly.pow"),
            (MultiPoly, ("truncate",), "poly.truncate"),
            (EdgeLabeledTableau, ("validate",), "tableaux.validate"),
            (EdgeLabeledTableau, ("weight",), "tableaux.weight"),
            (EdgeLabeledTableau, ("key",), "tableaux.key")]


def _count_mul(counts, args, out):
    a, b = args
    counts["poly.mul.term_pairs"] += len(a.terms) * (
        1 if isinstance(b, int) else len(b.terms))
    counts["poly.mul.terms_out"] += len(out.terms)


def _count_add(counts, args, out):
    counts["poly.add.terms_copied"] += len(args[0].terms)


def _count_chains(counts, args, out):
    counts["shapes.strip_chains.chains"] += len(out)


def _count_cells(counts, args, out):
    g = args[0]
    counts["lattice.partition_function.cells"] += \
        len(g.rows) * (g.window[1] - g.window[0] + 1)


def _count_f_hits(counts, args, out):
    counts["crystal.f_elt.hits"] += out is not None


# work counts taken from a wrapped call's arguments and result
COUNT_HOOKS = {"poly.mul": _count_mul, "poly.add": _count_add,
               "shapes.strip_chains": _count_chains,
               "lattice.partition_function": _count_cells,
               "crystal.f_elt": _count_f_hits}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        span_names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts = self.counts
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            yielded = f"{name}.yielded"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(span_names)
                    span_names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    counts[yielded] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_names)
            span_names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out
        return wrapper

    # -- installing the wrappers ----------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"edgeschur.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in LEAVES
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(obj, name)
        for cls, attrs, name in _methods():
            orig = cls.__dict__[attrs[0]]
            wrapper = self._wrap(orig, name)
            for attr in attrs:
                self._rebind(cls, attr, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "edgeschur" and not modname.startswith("edgeschur."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._rebind(mod, attr, wrapped[id(obj)])

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped TSV, one line per span: index, parent, name, start, end
        (perf_counter seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
