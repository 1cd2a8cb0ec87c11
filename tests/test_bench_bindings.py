"""The benchmark's tracer binds loopcat by name: the methods it wraps, the
functions whose spans a workload requires, and the functions its counters
read.  Each must still exist, so that a refactor which drops one fails
here rather than in a traced benchmark run.  The bench files are read,
never changed: `bench/tracer.py` imports only the standard library, and
`REQUIRED` is read off `bench/run.py`'s syntax tree."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _required() -> dict:
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["REQUIRED"]):
            return ast.literal_eval(node.value)
    raise LookupError("bench/run.py assigns no REQUIRED")


def _traced_function(tracer, name: str) -> bool:
    """Whether `tracer.install` wraps a function under span `name`: a
    public function of a traced layer, defined in it and not a leaf."""
    layer, attr = name.split(".", 1)
    if layer not in tracer.LAYERS or (layer, attr) in tracer.LEAVES:
        return False
    module = importlib.import_module(f"loopcat.{layer}")
    fn = getattr(module, attr, None)
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def test_tracer_methods_resolve():
    tracer = _tracer()
    for layer, cls, method, _span in tracer.METHODS:
        klass = getattr(importlib.import_module(f"loopcat.{layer}"), cls)
        assert inspect.isfunction(getattr(klass, method, None)), \
            f"{layer}.{cls}.{method}"


def test_required_spans_and_counters_name_traced_functions():
    tracer = _tracer()
    method_spans = {span for *_, span in tracer.METHODS}
    counters = {counter for counter, _amount in tracer.COUNTERS.values()}
    function_spans = {name for names in _required().values()
                      for name in names
                      if name not in method_spans | counters}
    assert "cli.main" in function_spans
    for name in sorted(function_spans | set(tracer.COUNTERS)):
        assert _traced_function(tracer, name), name
