"""The bar-cobar layer against the loops it replaced, key order included.

Each reference below is the earlier implementation, kept as it was: the
Maurer-Cartan enumeration with its own guard and product loop, the twisting
cochain and pointed coalgebra map enumerations with their own slot loops,
and the bialgebra check with its own four-fold loop for Δ(x)Δ(y).  The
library now runs every 𝔽p enumeration through `_assignments`, computes
Δ(x)Δ(y) in `algebra_tensor`, and turns a convention into a sign in one
place.  The last tests check that sign rule and the paper's Tw(C,A) =
MC([C,A]).
"""

import itertools
import random

import pytest

from sweedler.scalars import QQ, Field
from sweedler.graded import Truncation, GradedMap, tensor_label, label_str
from sweedler.algebras import (PresentedAlgebra, normal_forms, tensor_algebra,
                               word_label, UNIT_WORD)
from sweedler.coalgebras import tensor_coalgebra
from sweedler.sweedler_ops import convolution_algebra
from sweedler.barcobar import (mc_algebra, mc_verify, mc_enumerate,
                               verify_twisting_cochain, bar, cobar,
                               enumerate_twisting_cochains,
                               enumerate_pointed_coalgebra_maps,
                               coalgebra_map_issues, bialgebra_compat_issues,
                               hopf_on_cobar, ConventionMismatch,
                               EnumerationTooLarge, MINUS, PLUS)
from sweedler.presets import load_preset
from sweedler.linalg import vaddmul

F2, F3 = Field(2), Field(3)
TR = Truncation(-3, 3, 3)


def items(vec: dict) -> list:
    return list(vec.items())


def columns(f: GradedMap) -> list:
    return [(k, items(v)) for k, v in f.columns.items()]


def longest_column(maps) -> int:
    """The most terms in one column of the maps: key order needs two."""
    return max((len(v) for f in maps for v in f.columns.values()),
               default=0)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:        # noqa: BLE001 - the type is compared
        return type(exc)


# -- the parent's enumerations ---------------------------------------------------------


def ref_mc_enumerate(A, limit=200000):
    field = A.field
    if field.p is None:
        raise EnumerationTooLarge("enumeration needs a finite field")
    basis = A.space.basis(-1)
    if field.p ** len(basis) > limit:
        raise EnumerationTooLarge(
            f"{field.p}^{len(basis)} candidates exceed the limit")
    out = []
    for coeffs in itertools.product(range(field.p), repeat=len(basis)):
        a = {b: field.of(c) for b, c in zip(basis, coeffs) if c}
        if not mc_verify(A, a):
            out.append(a)
    return out


def ref_assignments(field, slots, limit):
    if field.p is None:
        raise EnumerationTooLarge("enumeration needs a finite field")
    if slots and field.p ** slots > limit:
        raise EnumerationTooLarge(
            f"{field.p}^{slots} candidates exceed the limit {limit}")
    return itertools.product(range(field.p), repeat=slots)


def ref_enumerate_twisting_cochains(C, A, pointed=True, limit=1 << 20):
    field = C.field
    c_labels = [x for x in C.space.labels() if x != C.atom] if pointed \
        else C.space.labels()
    a_basis = A.reduced_basis() if pointed else A.space.labels()
    slots = []
    for x in c_labels:
        for b in a_basis:
            if A.space.degree_of(b) == C.space.degree_of(x) - 1:
                slots.append((x, b))
    out = []
    for combo in ref_assignments(field, len(slots), limit):
        alpha = GradedMap(C.space, A.space, -1)
        cols: dict = {}
        for (x, b), cv in zip(slots, combo):
            if cv:
                cols.setdefault(x, {})[b] = field.of(cv)
        for x, vec in cols.items():
            alpha.set(x, vec)
        if verify_twisting_cochain(alpha, C, A, pointed=pointed).passed:
            out.append(alpha)
    return out


def ref_enumerate_pointed_coalgebra_maps(C, b, limit=1 << 20):
    field = C.field
    BA = b.coalgebra
    c_labels = [x for x in C.space.labels() if x != C.atom]
    slots = []
    for x in c_labels:
        for w in BA.space.labels():
            if w == UNIT_WORD:
                continue
            if BA.space.degree_of(w) == C.space.degree_of(x):
                slots.append((x, w))
    out = []
    for combo in ref_assignments(field, len(slots), limit):
        f = GradedMap(C.space, BA.space, 0)
        f.set(C.atom, {UNIT_WORD: field.one()})
        cols: dict = {}
        for (x, w), cv in zip(slots, combo):
            if cv:
                cols.setdefault(x, {})[w] = field.of(cv)
        for x in c_labels:
            vec = dict(cols.get(x, {}))
            eps = C.counit.get(x, field.zero())
            if not field.is_zero(eps):
                vec[UNIT_WORD] = eps
            f.set(x, vec)
        if not coalgebra_map_issues(f, C, BA):
            out.append(f)
    return out


def ref_bialgebra_compat_issues(alg, comult, counit):
    field = alg.field
    space = alg.space
    TT = comult.target
    cap = space.window.weight_cap
    issues = []
    for x in space.labels():
        for y in space.labels():
            wx, wy = space.weight_of(x), space.weight_of(y)
            if wx is not None and wy is not None and wx + wy > cap:
                continue
            lhs = comult(alg._pair(x, y))
            dx = comult.apply_label(x)
            dy = comult.apply_label(y)
            rhs: dict = {}
            for t1, c1 in dx.items():
                _, x1, x2 = t1
                for t2, c2 in dy.items():
                    _, y1, y2 = t2
                    sign = field.sign(space.degree_of(x2)
                                      * space.degree_of(y1))
                    for m1, cm1 in alg._pair(x1, y1).items():
                        for m2, cm2 in alg._pair(x2, y2).items():
                            lab = tensor_label(m1, m2)
                            if lab in TT:
                                coeff = field.mul(field.mul(c1, c2),
                                                  field.mul(cm1, cm2))
                                rhs = vaddmul(field, rhs,
                                              field.mul(sign, coeff),
                                              {lab: field.one()})
            lhs = {k: v for k, v in lhs.items() if k in TT}
            if lhs != rhs:
                issues.append(
                    f"Δ not multiplicative at ({label_str(x)},{label_str(y)})")
                return issues
            el = counit.get(x, field.zero())
            er = counit.get(y, field.zero())
            exy = field.zero()
            for m, cm in alg._pair(x, y).items():
                exy = field.add(exy, field.mul(cm,
                                               counit.get(m, field.zero())))
            if exy != field.mul(el, er):
                issues.append(
                    f"ε not multiplicative at ({label_str(x)},{label_str(y)})")
                return issues
    return issues


# -- inputs ---------------------------------------------------------------------------


def presets(field, names, tr=TR):
    return [load_preset(name).build(field, tr) for name in names]


def coalgebras(field):
    return presets(field, ["primitive-coalgebra:0", "primitive-coalgebra:1",
                           "diagonal-coalgebra:2"]) \
        + [tensor_coalgebra(field, [("x", 1)], Truncation(-3, 3, 2))]


def algebras(field):
    # T(a, b, c) on words of length ≤ 2, |a| = |b| = -1, |c| = 0 and
    # d(c) = a + b: six slots in degree -1, with products and a d
    gens = [("a", -1), ("b", -1), ("c", 0)]
    one = field.one()
    d_gen = {"c": {word_label(("a",)): one, word_label(("b",)): one}}
    return presets(field, ["dual-numbers", "free-algebra:x=-1"]) \
        + [tensor_algebra(field, gens, Truncation(-3, 3, 2), d_gen=d_gen,
                          augmented=True)]


def square_zero(field, tr, b_degree):
    """F ⊕ F·a ⊕ F·b, zero reduced products, |a| = 0; d(b) = a when
    |b| = 1, and d = 0 when |b| = 0 (so B A has two words sa, sb of
    degree 1, and a map into it can have two terms in one column)."""
    gens = [("a", 0), ("b", b_degree)]
    rels = [{word_label((g1, g2)): field.one()} for g1, _ in gens
            for g2, _ in gens]
    d_gen = {"b": {word_label(("a",)): field.one()}} if b_degree == 1 \
        else {}
    return normal_forms(PresentedAlgebra(
        field, gens, rels, d_gen, tr,
        aug_gen={"a": field.zero(), "b": field.zero()}))


# -- enumerations ------------------------------------------------------------------------


def test_mc_enumerate_matches_reference():
    seen = longest = 0
    for field in (F2, F3):
        mc = mc_algebra(field, Truncation(-4, 0, 4))
        targets = [mc.algebra, *algebras(field)]
        targets += [convolution_algebra(C, A)
                    for C in coalgebras(field) for A in algebras(field)[:2]]
        for A in targets:
            new = outcome(mc_enumerate, A)
            ref = outcome(ref_mc_enumerate, A)
            if isinstance(ref, list):
                assert [items(a) for a in new] == [items(a) for a in ref]
                seen += len(ref)
                longest = max([longest, *map(len, ref)])
            else:
                assert new is ref
        # the guard: exactly p^n candidates pass, one fewer does not
        A = algebras(field)[2]
        n = len(A.space.basis(-1))
        assert n >= 2
        for limit in (field.p ** n, field.p ** n - 1, 1):
            new = outcome(mc_enumerate, A, limit=limit)
            ref = outcome(ref_mc_enumerate, A, limit=limit)
            if isinstance(ref, list):
                assert [items(a) for a in new] == [items(a) for a in ref]
            else:
                assert new is ref is EnumerationTooLarge
    assert seen > 40 and longest >= 2
    A = presets(QQ, ["dual-numbers"])[0]
    assert outcome(mc_enumerate, A) is outcome(ref_mc_enumerate, A) \
        is EnumerationTooLarge


def test_enumerate_twisting_cochains_matches_reference():
    seen = longest = 0
    for field in (F2, F3):
        for C in coalgebras(field):
            for A in algebras(field):
                for pointed in (True, False):
                    for limit in (1 << 12, 3):
                        new = outcome(enumerate_twisting_cochains, C, A,
                                      pointed=pointed, limit=limit)
                        ref = outcome(ref_enumerate_twisting_cochains, C, A,
                                      pointed=pointed, limit=limit)
                        if isinstance(ref, list):
                            assert [columns(f) for f in new] \
                                == [columns(f) for f in ref]
                            seen += len(ref)
                            longest = max(longest, longest_column(ref))
                        else:
                            assert new is ref
    assert seen > 100 and longest >= 2
    C = presets(QQ, ["primitive-coalgebra:1"])[0]
    A = presets(QQ, ["dual-numbers"])[0]
    assert outcome(enumerate_twisting_cochains, C, A) \
        is outcome(ref_enumerate_twisting_cochains, C, A) \
        is EnumerationTooLarge


def test_enumerate_pointed_coalgebra_maps_matches_reference():
    tr = Truncation(-3, 3, 4)
    seen = longest = 0
    for field in (F2, F3):
        pairs = [(load_preset("primitive-coalgebra:1").build(field, tr),
                  load_preset("dual-numbers").build(field, tr)),
                 (load_preset("primitive-coalgebra:1").build(field, tr),
                  square_zero(field, tr, 0)),
                 (load_preset("primitive-coalgebra:2").build(field, tr),
                  square_zero(field, tr, 1)),
                 (tensor_coalgebra(field, [("x", 1)], Truncation(-3, 3, 2)),
                  square_zero(field, tr, 1)),
                 (load_preset("diagonal-coalgebra:2").build(field, tr),
                  load_preset("free-algebra:x=-1").build(field, tr))]
        for C, A in pairs:
            b = bar(A, tr)
            for limit in (1 << 12, 2):
                new = outcome(enumerate_pointed_coalgebra_maps, C, b,
                              limit=limit)
                ref = outcome(ref_enumerate_pointed_coalgebra_maps, C, b,
                              limit=limit)
                if isinstance(ref, list):
                    assert [columns(f) for f in new] \
                        == [columns(f) for f in ref]
                    seen += len(ref)
                    longest = max(longest, longest_column(ref))
                else:
                    assert new is ref
    assert seen >= 10 and longest >= 2


# -- the bialgebra check ------------------------------------------------------------------


def bialgebras():
    """(algebra, comult, counit) of mc and of coshuffle cobars."""
    out = []
    for field in (QQ, F2, F3):
        mc = mc_algebra(field, Truncation(-6, 0, 6))
        out.append((mc.algebra, mc.comult, mc.counit))
        for name in ("primitive-coalgebra:1", "primitive-coalgebra:2",
                     "diagonal-coalgebra:2"):
            C = load_preset(name).build(field, TR)
            cob = cobar(C, TR)
            comult, _ = hopf_on_cobar(cob)
            out.append((cob.algebra, comult, {UNIT_WORD: field.one()}))
    return out


def mutated(comult, label, vec):
    out = GradedMap(comult.source, comult.target, comult.degree,
                    comult.columns)
    out.set(label, vec)
    return out


def test_bialgebra_compat_matches_reference():
    rng = random.Random(13)
    messages = set()
    for alg, comult, counit in bialgebras():
        field = alg.field
        cases = [(comult, counit)]
        # Δ(x) = x⊗1 only on a generator: Δ stops being multiplicative
        for w in alg.space.labels():
            if len(w[1]) == 1:
                cases.append((mutated(comult, w, {
                    tensor_label(w, UNIT_WORD): field.one()}), counit))
                # ε(x) = 1 on a generator: ε(x)ε(x) ≠ ε(x·x) = 0
                cases.append((comult, {**counit, w: field.one()}))
                break
        # a random column scaled by a random unit
        labels = alg.space.labels()
        for _ in range(3):
            w = rng.choice(labels)
            c = field.of(rng.choice([-1, 2]))
            cases.append((mutated(comult, w, {
                k: field.mul(c, v)
                for k, v in comult.apply_label(w).items()}), counit))
        for co, eps in cases:
            new = bialgebra_compat_issues(alg, co, eps)
            assert new == ref_bialgebra_compat_issues(alg, co, eps)
            messages.update(m.split(" at ")[0] for m in new)
        assert bialgebra_compat_issues(alg, comult, counit) == []
    assert messages == {"Δ not multiplicative", "ε not multiplicative"}


def test_bialgebra_compat_on_mc_at_weight_10():
    # the product of A⊗A without its d: mc's lists, with Δ intact and with
    # Δ(u) cut down to u⊗1
    for field in (QQ, F3):
        mc = mc_algebra(field, Truncation(-10, 0, 10))
        alg, u = mc.algebra, word_label(("u",))
        cut = mutated(mc.comult, u, {tensor_label(u, UNIT_WORD): field.one()})
        for co in (mc.comult, cut):
            new = bialgebra_compat_issues(alg, co, mc.counit)
            assert new == ref_bialgebra_compat_issues(alg, co, mc.counit)
            assert bool(new) == (co is cut)


# -- one sign rule -----------------------------------------------------------------------


def test_conventions_give_one_sign_for_bar_and_cobar():
    tr = Truncation(-4, 4, 3)
    A = load_preset("free-algebra:x=1").build(QQ, tr)
    C = tensor_coalgebra(QQ, [("x", 1)], tr)
    for convention, sign in ((MINUS, QQ.of(-1)), (PLUS, QQ.one())):
        for built in (bar(A, tr, convention), cobar(C, tr, convention)):
            assert built.convention == convention
            assert not built.d_ext.is_zero()
            d = built.d_int.add(built.d_ext.scale(sign))
            assert d.equals(built.d)
    for convention in ("Minus", "PLUS", "", "minus "):
        with pytest.raises(ConventionMismatch):
            bar(A, tr, convention)
        with pytest.raises(ConventionMismatch):
            cobar(C, tr, convention)


# -- Tw(C,A) = MC([C,A]) -------------------------------------------------------------------


def test_twisting_cochains_are_the_mc_elements_of_the_convolution_algebra():
    """The twisting cochains C → A are the Maurer-Cartan elements of [C,A].

    One side checks d_A α + α d_C + α⋆α = 0 map by map; the other solves
    da + a·a = 0 in the convolution algebra, whose product and d are built
    from formulas.  A hom basis vector [c↦a] is the map c ↦ a.
    """
    def as_map(vec):
        cols: dict = {}
        for (_, c, a), coeff in vec.items():
            cols.setdefault(c, {})[a] = coeff
        return frozenset((c, frozenset(v.items())) for c, v in cols.items())

    def key(f):
        return frozenset((c, frozenset(v.items()))
                         for c, v in f.columns.items())

    nonzero = 0
    for field in (F2, F3):
        for C in coalgebras(field)[:3]:
            for A in presets(field, ["dual-numbers", "free-algebra:x=-1"]):
                tw = [key(f) for f in
                      enumerate_twisting_cochains(C, A, pointed=False)]
                mc = [as_map(a) for a in mc_enumerate(
                    convolution_algebra(C, A))]
                assert len(set(tw)) == len(tw) == len(mc)
                assert set(tw) == set(mc)
                nonzero += len(tw) - 1
    assert nonzero >= 15
