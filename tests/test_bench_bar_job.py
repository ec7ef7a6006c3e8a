"""What the bench's jobs build: the bar-random job never builds the
coproduct of B A, and `normal_forms` rewrites in every job but one.

`perfbench/workloads.py` is loaded from its file, with no bytecode written
next to it, and never installed, as `test_tracer_boundaries.py` loads the
tracer.  One `bar_job` runs with `coalgebras._deconcat_map` counted: the
job reads dims, d², the d^int/d^ext anticommutator and homology, none of
which needs Δ, and its digest must equal the recorded one.  The algebras
of the bar-random shapes and the sweedler-product jobs are built with
`algebras._ideal_slices` counted, so a fall back from rewriting to the
closure cannot pass unseen.  The rewriting path of `normal_forms` is
spied on for the words it touches: it lists no word of the free space, and
splices d only on the quotient words and the relation terms it reads.
Every cobar-hom-qq job builds Ω C, checks d² and takes homology without
building the word -> degree map of any word space: the splice places each
spliced word by its letters.  Homology takes its ranks through
`RowSpace.add`, once per nonzero column of d, which is the boundary the
traced bench run requires to be called.
"""

import importlib.util
import json
import os
import sys

from sweedler import (algebras, barcobar, coalgebras, complexes, linalg,
                      sweedler_ops)
from sweedler.graded import Truncation
from sweedler.presets import load_preset
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


def test_rewriting_lists_no_free_word_and_splices_only_the_words_it_reads(
        monkeypatch):
    workloads = load_workloads()
    dual6 = load_preset("dual-numbers").build(QQ, Truncation.parse("-6:6:6"))
    diff_alg = sweedler_ops.example_construction(
        "diff_alg", dual6, Truncation.parse("-6:6:5"), n=1).presentation
    listed, spliced, built = [], [], []
    list_words, make_splicer = algebras.WordSpace._list, algebras._splicer
    normal_forms = algebras.normal_forms

    def listing(space):
        listed.append(space)
        return list_words(space)

    def splicer(*args):
        splice = make_splicer(*args)

        def recorded(words, m):
            spliced.extend(words)
            return splice(words, m)

        return None if splice is None else recorded

    def building(P):
        built.append(P)
        return normal_forms(P)

    monkeypatch.setattr(algebras.WordSpace, "_list", listing)
    monkeypatch.setattr(algebras, "_splicer", splicer)
    monkeypatch.setattr(algebras, "normal_forms", building)
    monkeypatch.setattr(algebras, "_ideal_slices", None)   # no closure
    shape = workloads.BAR_SHAPES[0]      # -1p,-1p: d on both generators
    for build in (lambda: algebras.normal_forms(diff_alg),
                  lambda: workloads.build_algebra(
                      QQ, workloads.shape_spec(shape), 0,
                      workloads.BAR_TRUNC)):
        for log in (listed, spliced, built):
            log.clear()
        A = build()
        (P,) = built
        assert listed == []
        read = set(A.space.labels())
        terms = [w for rel in P.relations for w in rel]
        # diff_alg's d is zero, so it splices nothing at all
        assert bool(spliced) == any(P.d_gen.values())
        assert set(spliced) <= read | set(terms)
        assert len(spliced) <= len(read) + len(terms)


def test_cobar_jobs_build_no_word_degree_map(monkeypatch):
    workloads = load_workloads()
    asked = []
    lookup = algebras.WordSpace._degree_lookup

    def spy(space):
        asked.append(space)
        return lookup(space)

    monkeypatch.setattr(algebras.WordSpace, "_degree_lookup", spy)
    with open(workloads.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["cobar-hom-qq"]
    for shape in workloads.COBAR_SHAPES:
        C = workloads.build_coalgebra(QQ, workloads.shape_spec(shape), 0,
                                      workloads.COBAR_TRUNC)
        digest = workloads.cobar_job(C)
        assert asked == [], workloads.shape_key(shape)
        assert digest == expected[workloads.shape_key(shape)]


def test_homology_adds_each_nonzero_column_of_d_once(monkeypatch):
    # the traced cobar-hom-qq run fails when RowSpace.add is never called;
    # a rank that skipped add would fail here first
    workloads = load_workloads()
    shape = workloads.COBAR_SHAPES[0]
    C = workloads.build_coalgebra(QQ, workloads.shape_spec(shape), 0,
                                  workloads.COBAR_TRUNC)
    dg = barcobar.cobar(C, workloads.COBAR_TRUNC).algebra.dg
    added = []
    add = linalg.RowSpace.add

    def counted(self, v):
        added.append(v)
        return add(self, v)

    monkeypatch.setattr(linalg.RowSpace, "add", counted)
    H = complexes.homology(dg)
    space, columns = dg.space, dg.d.columns
    nonzero = [columns[w] for n in space.degrees() for w in space.basis(n)
               if columns.get(w)]
    assert len(added) == len(nonzero) > 900
    assert all(got is want for got, want in zip(added, nonzero))
    with open(workloads.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["cobar-hom-qq"][workloads.shape_key(shape)]
    assert {str(n): e.dim for n, e in H.items()} == expected["H"]
