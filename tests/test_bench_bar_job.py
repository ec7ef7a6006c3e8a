"""What the bench's jobs build: the bar-random job never builds the
coproduct of B A, and `normal_forms` rewrites in every job but one.

`perfbench/workloads.py` is loaded from its file, with no bytecode written
next to it, and never installed, as `test_tracer_boundaries.py` loads the
tracer.  One `bar_job` runs with `coalgebras._deconcat_map` counted: the
job reads dims, d², the d^int/d^ext anticommutator and homology, none of
which needs Δ, and its digest must equal the recorded one.  The algebras
of the bar-random shapes and the sweedler-product jobs are built with
`algebras._ideal_slices` counted, so a fall back from rewriting to the
closure cannot pass unseen.
"""

import importlib.util
import json
import os
import sys

from sweedler import algebras, coalgebras
from sweedler.scalars import QQ

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                              "perfbench", "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("sweedler_bench_workloads",
                                                  WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it runs
    sys.modules[spec.name] = workloads
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = writes
        del sys.modules[spec.name]
    return workloads


def test_bar_job_never_builds_the_coproduct(monkeypatch):
    workloads = load_workloads()
    calls = []
    build = coalgebras._deconcat_map

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(coalgebras, "_deconcat_map", counted)
    shape = workloads.BAR_SHAPES[0]
    digest = workloads.bar_job(workloads.shape_spec(shape), 0)
    assert calls == []
    with open(workloads.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["bar-random"]
    assert digest == expected[workloads.shape_key(shape)]


# the one sweedler-product job whose window cuts a multiplier: there the
# length-truncated ideal leaves 6 normal words in degree -2, the closure 8
CLOSURE_JOB = "primitive-coalgebra:1 > mc -2:2:4"


def test_every_bench_algebra_but_one_is_built_by_rewriting(monkeypatch):
    workloads = load_workloads()
    calls = []
    slices = algebras._ideal_slices

    def counted(*args):
        calls.append(args)
        return slices(*args)

    monkeypatch.setattr(algebras, "_ideal_slices", counted)
    for shape in workloads.BAR_SHAPES:
        workloads.build_algebra(QQ, workloads.shape_spec(shape), 0,
                                workloads.BAR_TRUNC)
        assert calls == [], workloads.shape_key(shape)
    for job in workloads.sweedler_jobs():
        job.run()
        assert len(calls) == (job.key == CLOSURE_JOB), job.key
        calls.clear()
