"""The bench tracer's layer boundaries name live, distinct objects.

`perfbench/tracer.py` wraps each boundary it lists by (module, attribute):
a function in every sweedler namespace that holds it, or a method in its
class's own dict.  A boundary that no longer resolves breaks the traced
bench, and two spanned names bound to one function would share one span.
The tracer is loaded from its file, with no bytecode written next to it,
and never installed.
"""

import importlib
import importlib.util
import os
import sys

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("sweedler_bench_tracer",
                                                  TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = writes
    return tracer


def resolve(module: str, attr: str):
    mod = importlib.import_module(f"sweedler.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(mod, cls_name))[meth]
    return getattr(mod, attr)


tracer = load_tracer()


@pytest.mark.parametrize("module, attr", [*tracer.SPANS, *tracer.COUNTED])
def test_boundary_resolves(module, attr):
    assert callable(resolve(module, attr))


def test_spanned_boundaries_are_distinct_objects():
    spanned = [resolve(module, attr) for module, attr in tracer.SPANS]
    assert len({id(fn) for fn in spanned}) == len(spanned)
