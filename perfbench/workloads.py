"""Workloads of the sweedler benchmark: seeded inputs, jobs and output digests.

A job is a zero-argument callable that runs the library and returns a
*digest*: the part of its output that must not change under a refactor
(basis dims per degree, homology dims per degree, PASS/FAIL verdicts, exit
codes).  Trust flags and report text are left out on purpose, so a fix of
a trust flag does not count as a failed job.

Every digest is compared with the value recorded in `expected.json`.  The
random workloads key their digests by the *shape* of the drawn input (the
sorted generator degrees and which generators carry a differential), which
determines every recorded value; `expected.json` holds every shape of each
family (see below), so any seed can be checked.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import sweedler.algebras as algebras
import sweedler.barcobar as barcobar
import sweedler.complexes as complexes
import sweedler.graded as graded
import sweedler.presets as presets
import sweedler.sweedler_ops as sweedler_ops
from sweedler.coalgebras import DgCoalgebra
from sweedler.scalars import QQ, Field

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
MAP_FILE = "perfbench/data/my_cochain.swp"


@dataclass
class Job:
    key: str                      # digest key in expected.json
    run: Callable[[], dict]       # library job; returns the digest
    argv: list | None = None      # CLI job: arguments after `sweedler`


@dataclass
class Prepared:
    jobs: list[Job]
    sizes: dict                   # size counts of this seed's inputs


# -- digests ----------------------------------------------------------------------


def dims(space) -> dict:
    return {str(n): space.dim(n) for n in space.degrees()}


def homology_dims(dg) -> dict:
    return {str(n): e.dim for n, e in complexes.homology(dg).items()}


def verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def cli_digest(code: int, text: str) -> dict:
    """Exit code, PASS/FAIL check names, and every degree/dim table."""
    checks, tables, result = [], {}, None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith(("PASS ", "FAIL ")):
            checks.append(line.split("  [")[0])
        elif line.startswith("result: "):
            result = line[len("result: "):]
        elif line.startswith("table: ") and i + 1 < len(lines):
            headers = lines[i + 1].split()
            if headers[:2] == ["degree", "dim"]:
                rows = {}
                i += 2
                while i < len(lines) and lines[i].strip():
                    cells = lines[i].split()
                    rows[cells[0]] = int(cells[1])
                    i += 1
                tables[line[len("table: "):]] = rows
        i += 1
    return {"exit": code, "checks": checks, "dims": tables, "result": result}


# -- random workloads: shapes and families ------------------------------------------
#
# The test generators draw 2 to 4 primary generators of degree -1..2, each
# with or without a partner one degree lower that its differential hits.
# A *shape* is the sorted tuple of (degree, has-partner) over the primary
# generators.  Dims, homology dims and verdicts depend on the shape alone:
# names, the (nonzero) coefficients and the generator order do not change
# them, so expected.json keys digests by shape.
#
# Raw generator output is no fixed load: eager tensor labels range from
# 0.12 M to 14.4 M over seeds 1-12 at the test window.  So each random
# workload has a fixed *family* of shapes of similar cost (perfbench/README.md
# gives their sizes and how they were chosen).  A run draws from the copied
# test generator with its seed until it has met every shape of the family,
# and its job list is the first draw of each shape, in the order met.  Every
# seed then runs the same shapes, with its own coefficients, generator order
# and job order.


def shape_key(shape) -> str:
    return ",".join(f"{d}{'p' if p else ''}" for d, p in shape)


def parse_shape(key: str) -> tuple:
    """Inverse of shape_key: "-1p,2" -> ((-1, True), (2, False))."""
    return tuple(sorted((int(t.rstrip("p")), t.endswith("p"))
                        for t in key.split(",")))


def spec_shape(spec) -> tuple:
    return tuple(sorted((d, c is not None) for d, c in spec))


def shape_spec(shape) -> list:
    """The presentation of a shape with every coefficient 1."""
    return [(d, 1 if p else None) for d, p in shape]


def presentation(spec, field: Field, primary: str, partner: str, idx: int):
    """Generators and (generator, partner, coefficient) triples of a spec."""
    gens, pairs = [], []
    for i, (deg, coeff) in enumerate(spec):
        gens.append((f"{primary}{idx}_{i}", deg))
        if coeff is not None:
            gens.append((f"{partner}{idx}_{i}", deg - 1))
            pairs.append((f"{primary}{idx}_{i}", f"{partner}{idx}_{i}",
                          field.of(coeff)))
    return gens, pairs


def family_jobs(draw, seed: int, family: tuple, make_job) -> Prepared:
    """Draw with `seed` until every family shape is met; one job per shape,
    built by make_job(spec, draw index) from its first draw."""
    rng = random.Random(seed)
    picked: dict = {}
    drawn = 0
    while len(picked) < len(family):
        spec = draw(rng)
        shape = spec_shape(spec)
        if shape in family and shape not in picked:
            picked[shape] = make_job(spec, drawn)
        drawn += 1
    return Prepared([Job(shape_key(shape), run)
                     for shape, run in picked.items()],
                    {"jobs": len(picked), "drawn": drawn})


# -- bar-random -------------------------------------------------------------------
#
# Why: eager `graded.tensor_space` (the target of the deconcatenation
# coproduct of B A) does most of the work.  The cap on A's generators keeps
# `normal_forms`, whose cost grows with the free words over A's generators
# and not with B A, at the small share it has at the test suite's sizes;
# sweedler-product is the workload that measures it.

BAR_TRUNC = graded.Truncation(-4, 6, 4)     # the window of the test suite
BAR_PARTNER_PROBABILITY = 0.6
BAR_SHAPES = tuple(map(parse_shape, (
    "-1p,-1p", "-1p,1p", "-1,-1,1p", "-1,-1p,2", "-1,0p,1", "-1p,0,1",
    "-1p,0,2", "-1p,1,1", "0,0,0p")))


def draw_algebra(rng: random.Random) -> list:
    """The draws of tests/test_barcobar.py::random_pointed_dg_algebra, in
    its order: per primary generator, its degree and the coefficient of d
    onto its partner (None: no partner)."""
    return [(rng.randint(-1, 2),
             rng.choice([1, -1, 2])
             if rng.random() < BAR_PARTNER_PROBABILITY else None)
            for _ in range(rng.randint(2, 4))]


def build_algebra(field: Field, spec, idx: int, trunc: graded.Truncation):
    """Square-zero pointed dg-algebra: all products of generators vanish."""
    gens, pairs = presentation(spec, field, "r", "s", idx)
    word = algebras.word_label
    rels = [{word((g1, g2)): field.one()} for g1, _ in gens for g2, _ in gens]
    d_gen = {a: {word((b,)): c} for a, b, c in pairs}
    return algebras.normal_forms(algebras.PresentedAlgebra(
        field, gens, rels, d_gen, trunc,
        aug_gen={g: field.zero() for g, _ in gens}))


def bar_job(spec, idx: int) -> dict:
    A = build_algebra(QQ, spec, idx, BAR_TRUNC)
    b = barcobar.bar(A, BAR_TRUNC)
    dg = b.coalgebra.dg
    return {"A": dims(A.space), "BA": dims(dg.space),
            "d2": verdict(complexes.check_square_zero(dg).passed),
            "anticommute": verdict(not barcobar.anticommutator_issues(
                b.d_int, b.d_ext, dg.space)),
            "H": homology_dims(dg)}


def prepare_bar(seed: int) -> Prepared:
    return family_jobs(draw_algebra, seed, BAR_SHAPES,
                       lambda spec, idx: lambda: bar_job(spec, idx))


# -- cobar-hom-qq -------------------------------------------------------------------
#
# Why: elimination (`linalg`) and `algebras.extend_derivation` dominate;
# `normal_forms` is never called.

COBAR_TRUNC = graded.Truncation(-6, 6, 5)   # the window of the test suite
COBAR_PARTNER_PROBABILITY = 0.5
COBAR_SHAPES = tuple(map(parse_shape, (
    "-1p,-1p,1p", "-1p,0,1p", "0,0p,0p", "-1,-1,0,1p", "-1,-1,1,1p",
    "-1,-1p,0p,1", "-1,-1p,2,2", "-1,0,0p,1", "-1,0,0p,2", "-1,0p,1,1",
    "-1,0p,1,2", "-1p,-1p,0,2", "-1p,0,1,2", "-1p,0,2,2", "-1p,1,1,2",
    "-1p,1,2,2")))


def draw_coalgebra(rng: random.Random) -> list:
    """The draws of tests/test_barcobar.py::random_pointed_dg_coalgebra, in
    its order, as for draw_algebra."""
    return [(rng.randint(-1, 2),
             rng.choice([1, -1])
             if rng.random() < COBAR_PARTNER_PROBABILITY else None)
            for _ in range(rng.randint(2, 4))]


def build_coalgebra(field: Field, spec, idx: int,
                    trunc: graded.Truncation) -> DgCoalgebra:
    """Pointed coalgebra, every non-atom primitive, with a square-zero d."""
    names, pairs = presentation(spec, field, "c", "z", idx)
    space = graded.GradedSpace(field, trunc)
    e = f"e{idx}"
    space.add(e, 0)
    for nm, deg in names:
        space.add(nm, deg)
    TT = graded.tensor_space(space, space)
    comult = graded.GradedMap(space, TT, 0)
    comult.set(e, {graded.tensor_label(e, e): field.one()})
    for nm, _ in names:
        comult.set(nm, {graded.tensor_label(nm, e): field.one(),
                        graded.tensor_label(e, nm): field.one()})
    d = graded.GradedMap(space, space, -1)
    for a, b, c in pairs:
        d.set(a, {b: c})
    return DgCoalgebra(complexes.DgSpace(space, d), comult, {e: field.one()},
                       atom=e)


def cobar_job(C: DgCoalgebra) -> dict:
    cb = barcobar.cobar(C, COBAR_TRUNC)
    dg = cb.algebra.dg
    return {"cobar": dims(dg.space),
            "d2": verdict(complexes.check_square_zero(dg).passed),
            "H": homology_dims(dg)}


def prepare_cobar(seed: int) -> Prepared:
    def make_job(spec, idx):
        C = build_coalgebra(QQ, spec, idx, COBAR_TRUNC)   # input generation
        return lambda: cobar_job(C)

    return family_jobs(draw_coalgebra, seed, COBAR_SHAPES, make_job)


# -- sweedler-product ---------------------------------------------------------------
#
# Why: the library calls behind acceptance criteria 7 and 8, over ℚ, in
# smaller windows.  Self time sits in `algebras.normal_forms` (the u·r·v
# loop) and `linalg.RowSpace.add`; `tensor_space` is negligible, so this is
# the control for lazy tensor spaces.  No randomness: the seed only orders
# the jobs.


def _T(text: str) -> graded.Truncation:
    return graded.Truncation.parse(text)


def _preset(name: str, trunc: graded.Truncation):
    return presets.load_preset(name).build(QQ, trunc)


def _sp_digest(sp) -> dict:
    return {"dims": dims(sp.algebra.space)}


def sweedler_jobs() -> list[Job]:
    dual6 = _preset("dual-numbers", _T("-6:6:6"))

    def diff_alg(n):
        return _sp_digest(sweedler_ops.example_construction(
            "diff_alg", dual6, _T("-6:6:5"), n=n))

    def mc_bridge(coalgebra, dmin):
        tr = graded.Truncation(dmin, -dmin, 4)
        mc = barcobar.mc_algebra(QQ, graded.Truncation(dmin, 0, 4))
        return _sp_digest(sweedler_ops.sweedler_product(
            _preset(coalgebra, tr), mc.algebra, tr, pointed=True))

    def free_tx():
        tr = _T("-4:4:4")
        C = sweedler_ops.primitive_coalgebra(QQ, tr, degree=1)
        A = algebras.tensor_algebra(QQ, [("x", 1)], tr)
        return _sp_digest(sweedler_ops.sweedler_product(C, A, tr))

    def free_product():
        # verify=True raises unless the universal measuring passes
        tr = _T("-6:6:4")
        sp = sweedler_ops.sweedler_product(
            _preset("diagonal-coalgebra:2", tr), _preset("dual-numbers", tr),
            tr, verify=True)
        return {**_sp_digest(sp), "measuring": "PASS"}

    return [Job("diff_alg n=0 -6:6:5", lambda: diff_alg(0)),
            Job("diff_alg n=1 -6:6:5", lambda: diff_alg(1)),
            Job("primitive-coalgebra:1 > mc -2:2:4",
                lambda: mc_bridge("primitive-coalgebra:1", -2)),
            Job("diagonal-coalgebra:2 > mc -3:3:4",
                lambda: mc_bridge("diagonal-coalgebra:2", -3)),
            Job("primitive > T(x) -4:4:4", free_tx),
            Job("diagonal-coalgebra:2 > dual-numbers -6:6:4", free_product)]


# -- readme-cli ---------------------------------------------------------------------
#
# Why: the only workload that measures start-up and `cli`.  Interpreter
# start plus `import sweedler` carry about 85% of the cost, then `cli.main`
# itself and the `mc` checks; no heavy layer runs.  Every command of
# README's CLI section, each in a fresh process.

README_COMMANDS = [
    "mc --homology",
    "bar --preset dual-numbers --trunc -1:6:6 --homology",
    "cobar --preset primitive-coalgebra:1 --trunc -4:4:4",
    "convolve --coalgebra preset:diagonal-coalgebra:2 "
    "--algebra preset:dual-numbers",
    "sweedler-product --coalgebra preset:diagonal-coalgebra:2 "
    "--algebra preset:dual-numbers --trunc -3:3:3",
    "sweedler-dual --algebra preset:dual-numbers",
    "twist enumerate --field Fp:2 --coalgebra preset:primitive-coalgebra:1 "
    "--algebra preset:dual-numbers --trunc -3:3:3 --pointed",
    f"twist verify --map {MAP_FILE} --pointed",
    f"adjoint --map {MAP_FILE}",
    "signs compare --preset dual-numbers --trunc -1:6:6",
    "verify --preset mc",
    "dims --preset mc --basis",
    "homology --preset dual-numbers",
]


def cli_jobs() -> list[Job]:
    return [Job(cmd, None, cmd.split()) for cmd in README_COMMANDS]


# -- entry points -----------------------------------------------------------------


def prepare(name: str, seed: int) -> Prepared:
    """The job list of one run: inputs drawn from `seed`, in run order."""
    if name == "bar-random":
        return prepare_bar(seed)
    if name == "cobar-hom-qq":
        return prepare_cobar(seed)
    if name == "sweedler-product":
        jobs = sweedler_jobs()
    elif name == "readme-cli":
        jobs = cli_jobs()
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(jobs)
    return Prepared(jobs, {"jobs": len(jobs)})


def recordable_jobs(name: str) -> list[Job]:
    """Every job any seed can draw: the source of expected.json."""
    if name == "bar-random":
        return [Job(shape_key(shape),
                    lambda spec=shape_spec(shape): bar_job(spec, 0))
                for shape in BAR_SHAPES]
    if name == "cobar-hom-qq":
        return [Job(shape_key(shape), lambda C=build_coalgebra(
                    QQ, shape_spec(shape), 0, COBAR_TRUNC): cobar_job(C))
                for shape in COBAR_SHAPES]
    return prepare(name, 0).jobs
