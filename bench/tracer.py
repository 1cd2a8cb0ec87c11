"""Outside-in tracer: spans around calls into each loopcat module.

Every public module-level function of the seven layers, plus the methods
listed in METHODS, is replaced by a timing wrapper.  The wrapper is bound
under every name that held the original, in every loaded loopcat module,
so `from .linalg import rank` in statespaces is traced like `linalg.rank`,
and intra-module calls through module globals are traced too.

Leaves hot enough that a wrapper would swamp them stay unwrapped:
`FiniteMonoid.mul`, the Fraction operations, `linalg.rat` and
`linalg.rat_str`, and the Matrix / Polynomial constructors.  Their time is
part of the self time of whichever traced function called them.

Spans live in flat arrays (name, parent span, job, start, end); a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "fincat", "diagrams", "statespaces", "pseudochar",
          "frobenius", "linalg")
# Hot leaves, and `rank_nullspace`, whose only caller in the package is
# `rank`: left unwrapped, its elimination counts as `linalg.rank` self time.
LEAVES = {("linalg", "rat"), ("linalg", "rat_str"), ("linalg", "rank_nullspace")}
# (module, class, method, span name)
METHODS = (
    ("linalg", "Matrix", "__mul__", "linalg.matmul"),
    ("linalg", "Matrix", "__pow__", "linalg.matmul"),
    ("frobenius", "FrobeniusAlgebra", "multiply", "frobenius.multiply"),
    ("fincat", "MonoidCategory", "loop_class", "fincat.loop_class"),
    ("fincat", "TableCategory", "loop_class", "fincat.loop_class"),
    ("fincat", "FreeMonoidCategory", "loop_class", "fincat.loop_class"),
)


def _gram_entries(result):
    if hasattr(result, "gram"):
        return result.gram.rows * result.gram.cols
    return len(result.rows) * len(result.spanning)


# span name -> (counter name, amount of work in one call)
COUNTERS = {
    "linalg.rank": ("linalg.rank.rows", lambda args, result: args[0].rows),
    "statespaces.enumerate_kets": ("statespaces.kets",
                                   lambda args, result: len(result)),
    "statespaces.state_space_field": ("statespaces.gram_entries",
                                      lambda args, result: _gram_entries(result)),
    "statespaces.state_space_boolean": ("statespaces.gram_entries",
                                        lambda args, result: _gram_entries(result)),
    "pseudochar.degree": ("pseudochar.tuples_checked",
                          lambda args, result: result.tuples_checked),
    "pseudochar.graph_pseudoholonomy": (
        "pseudochar.tuples_checked",
        lambda args, result: result.degree.tuples_checked),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.counters: dict = defaultdict(int)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_id, parent, job = self.name_id, self.parent, self.job
        start, end, stack = self.start, self.end, self.stack
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and METHODS of the loaded layers."""
        modules = {layer: sys.modules[f"loopcat.{layer}"] for layer in LAYERS}
        everywhere = [m for n, m in sys.modules.items()
                      if n == "loopcat" or n.startswith("loopcat.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or (layer, attr) in LEAVES
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{attr}")
                for m in everywhere:
                    for alias, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, alias, wrapper)
        for layer, cls, method, name in METHODS:
            klass = getattr(modules[layer], cls)
            setattr(klass, method, self._wrap(getattr(klass, method), name))

    # -----------------------------------------------------------------------

    def aggregate(self) -> dict:
        """calls and self_s per span name, and per layer."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            own = self.end[i] - self.start[i] - child[i]
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                calls[key] += 1
                self_s[key] += own
        return {"calls": dict(calls), "self_s": dict(self_s)}

    def write(self, out_dir: Path) -> None:
        """Spans as raw arrays plus a JSON header naming them."""
        out_dir.mkdir(parents=True, exist_ok=True)
        fields = ("name_id", "parent", "job", "start", "end")
        with open(out_dir / "spans.bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        header = {"names": self.names, "count": len(self.start),
                  "fields": [[f, getattr(self, f).typecode] for f in fields],
                  "byteorder": sys.byteorder}
        (out_dir / "spans.json").write_text(json.dumps(header), encoding="utf-8")
