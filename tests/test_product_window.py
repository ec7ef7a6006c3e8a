"""One window rule for products, and the checks that multiply basis labels.

`DgAlgebra.window_tuples(k)` owns the rule for which k-tuples of basis
labels the window can multiply.  The first part breaks one product, unit,
d, augmentation or Δ at a known label and asserts the first witness of each
check that multiplies labels.  The second part keeps the rule's earlier
form, `_representable` filtering `itertools.product`, and the earlier loop
of `DgAlgebra.verify`, and compares them with the owner, order included,
over ℚ, 𝔽2 and 𝔽5; `bialgebra_compat_issues` and `algebra_map_issues` are
compared with the every-pair, weight-only loops kept as references in
`test_barcobar_references` and `test_rule_owners`.
`hopf_on_bar` and `double_dual_compare` keep their loop over every pair: on
A⊗B the window drops pairs whose products are not empty, and the last test
shows such a pair carrying the first witness.
"""

import itertools
import random

import pytest

from sweedler import barcobar, sweedler_ops
from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedMap,
                             identity_map, tensor_label, label_str)
from sweedler.complexes import DgSpace, check_square_zero
from sweedler.linalg import vaddmul, vscale
from sweedler.algebras import (DgAlgebra, PresentedAlgebra, normal_forms,
                               tensor_algebra, algebra_tensor, word_label,
                               UNIT_WORD)
from sweedler.coalgebras import DgCoalgebra, dual_algebra
from sweedler.barcobar import (mc_algebra, bialgebra_compat_issues,
                               algebra_map_issues, hopf_on_bar, bar,
                               NotCommutative)
from sweedler.sweedler_ops import (double_dual_compare, sweedler_product,
                                   convolution_algebra)
from sweedler.presets import load_preset

from test_algebras import _random_presentation
from test_barcobar_references import ref_bialgebra_compat_issues
from test_rule_owners import ref_algebra_map_issues

FIELDS = (QQ, Field(2), Field(5))


def w(*syms):
    return word_label(syms)


def mutate(f: GradedMap, label, vec: dict) -> GradedMap:
    """A copy of f whose image of `label` is vec."""
    return GradedMap(f.source, f.target, f.degree, {**f.columns, label: vec})


def with_pair(A: DgAlgebra, at: tuple, vec: dict) -> DgAlgebra:
    """A with the product of the label pair `at` replaced by vec."""
    def pair(a, b):
        return dict(vec) if (a, b) == at else A._pair(a, b)
    return DgAlgebra(A.dg, pair, A.unit, A.aug, A.name)


def with_d(A: DgAlgebra, label, vec: dict) -> DgAlgebra:
    d = mutate(A.d, label, vec)
    return DgAlgebra(DgSpace(A.space, d, A.dg.d_raises), A._pair, A.unit,
                     A.aug, A.name)


def free_x(field):
    """T(x), |x| = 1, up to x⁴."""
    return tensor_algebra(field, [("x", 1)], Truncation(0, 4, 4),
                          augmented=True)


def free_xy_d(field):
    """T(x, y), |x| = 0, |y| = 1, dy = x."""
    return tensor_algebra(field, [("x", 0), ("y", 1)], Truncation(-1, 3, 3),
                          d_gen={"y": {w("x"): field.one()}}, augmented=True)


def dual_numbers(field):
    return load_preset("dual-numbers").build(field, Truncation(-2, 2, 3))


def square_zero_with_d(field):
    """k⟨a, b⟩ / (all products), |a| = 0, |b| = 1, db = a."""
    gens = [("a", 0), ("b", 1)]
    rels = [{w(g, h): field.one()} for g, _ in gens for h, _ in gens]
    return normal_forms(PresentedAlgebra(
        field, gens, rels, {"b": {w("a"): field.one()}},
        Truncation(-6, 6, 6), aug_gen={"a": field.zero(), "b": field.zero()}))


# -- the mutation corpus and its first witnesses (over ℚ) ------------------------


def broken_algebras(field):
    """name -> an algebra with one product, unit, d or augmentation broken."""
    one, two = field.one(), field.of(2)
    T, D, N = free_x(field), free_xy_d(field), dual_numbers(field)
    return {
        "product": with_pair(T, (w("x"), w("x")), {}),
        "unit": with_pair(T, (UNIT_WORD, w("x", "x")), {}),
        "d": with_d(D, w("x", "y"), {}),
        "augmentation of 1": DgAlgebra(N.dg, N._pair, N.unit,
                                       {UNIT_WORD: two}),
        "augmentation": DgAlgebra(N.dg, N._pair, N.unit,
                                  {UNIT_WORD: one, w("eps"): one}),
    }


VERIFY_WITNESSES = {
    "product": ["associativity fails at (x,x,x⊗x)"],
    "unit": ["associativity fails at (1,x,x)", "unit law fails at x⊗x"],
    "d": ["Leibniz fails at (x,y)",
          "d²≠0 at y⊗y: d²(y⊗y) = -1/1·x⊗x (1 witnesses)"],
    "augmentation of 1": ["augmentation does not send 1 to 1",
                          "augmentation not multiplicative at (1,1)"],
    "augmentation": ["augmentation not multiplicative at (eps,eps)"],
}


@pytest.mark.parametrize("name", VERIFY_WITNESSES)
def test_algebra_verify_names_the_first_witness(name):
    assert broken_algebras(QQ)[name].verify() == VERIFY_WITNESSES[name]


def broken_coalgebras(field):
    one, two = field.one(), field.of(2)
    C = load_preset("diagonal-coalgebra:2").build(field, Truncation(-2, 2, 2))
    twisted = mutate(C.comult, "e1", {tensor_label("e1", "e1"): one,
                                      tensor_label("e2", "e2"): one})
    P = load_preset("primitive-coalgebra:-1").build(field,
                                                    Truncation(-2, 2, 2))
    not_cycle = DgSpace(P.space, mutate(P.d, "e", {"delta": one}))
    return {
        "Δ": DgCoalgebra(C.dg, twisted, C.counit, None),
        "Δ of the atom": DgCoalgebra(C.dg, twisted, C.counit, "e1"),
        "counit of the atom": DgCoalgebra(C.dg, C.comult,
                                          {"e1": two, "e2": one}, "e1"),
        "d of the atom": DgCoalgebra(not_cycle, P.comult, P.counit, "e"),
    }


COALGEBRA_WITNESSES = {
    "Δ": ["coassociativity fails at e1", "counit law fails at e1"],
    "Δ of the atom": ["coassociativity fails at e1", "counit law fails at e1",
                      "atom is not grouplike"],
    "counit of the atom": ["counit law fails at e1",
                           "counit of atom is not 1"],
    "d of the atom": ["atom is not a cycle"],
}


@pytest.mark.parametrize("name", COALGEBRA_WITNESSES)
def test_coalgebra_verify_names_the_first_witness(name):
    assert broken_coalgebras(QQ)[name].verify() == COALGEBRA_WITNESSES[name]


def test_algebra_map_issues_names_the_first_witness():
    T = free_x(QQ)
    g = identity_map(T.space)
    assert algebra_map_issues(g, T, T) == []
    doubled = mutate(g, w("x"), {w("x"): QQ.of(2)})
    assert algebra_map_issues(doubled, T, T) == [
        "g not multiplicative at (x,x)"]
    no_unit = mutate(g, UNIT_WORD, {UNIT_WORD: QQ.of(2)})
    assert algebra_map_issues(no_unit, T, T) == [
        "g(1) ≠ 1", "g not multiplicative at (1,1)"]


def test_bialgebra_compat_names_the_first_witness():
    mc = mc_algebra(QQ, Truncation(-6, 0, 6))
    u = w("u")
    comult = mutate(mc.comult, w("u", "u"), {tensor_label(u, u): QQ.one()})
    assert bialgebra_compat_issues(mc.algebra, comult, mc.counit) == [
        "Δ not multiplicative at (u⊗u⊗u⊗u,u⊗u)"]
    assert bialgebra_compat_issues(mc.algebra, mc.comult,
                                   {UNIT_WORD: QQ.of(2)}) == [
        "ε not multiplicative at (1,1)"]


def test_hopf_on_bar_names_the_first_witness(monkeypatch):
    tr = Truncation(-1, 6, 4)
    b = bar(load_preset("free-algebra:x=2").build(QQ, tr), tr)
    assert hopf_on_bar(b)[1] == []
    shuffle = barcobar.shuffle_product
    x1, x2 = b.coalgebra.space.labels()[1:3]
    assert [label_str(x1), label_str(x2)] == ["s[x]", "s[x⊗x]"]

    def broken_at(word):
        def product(T):
            return mutate(shuffle(T), tensor_label(UNIT_WORD, word),
                          {word: QQ.of(2)})
        return product

    monkeypatch.setattr(barcobar, "shuffle_product", broken_at(x1))
    assert hopf_on_bar(b)[1] == ["shuffle unit law fails at s[x]"]
    monkeypatch.setattr(barcobar, "shuffle_product", broken_at(x2))
    assert hopf_on_bar(b)[1] == [
        "shuffle product not a chain map at (1)⊗(s[x]⊗s[x])",
        "shuffle unit law fails at s[x⊗x]"]
    monkeypatch.undo()
    A = load_preset("free-algebra:x=2,y=2").build(QQ, tr)
    with pytest.raises(NotCommutative,
                       match=r"^product not commutative at \(x,y\)$"):
        hopf_on_bar(bar(A, tr))


def test_double_dual_compare_names_the_first_witness(monkeypatch):
    dual = sweedler_ops.dual_algebra
    A = square_zero_with_d(QQ)
    assert double_dual_compare(A) == []

    def broken(kind):
        def dual_of(C, name=""):
            DD = dual(C, name)
            first, last = DD.space.labels()[0], DD.space.labels()[-1]
            if kind == "product":
                return with_pair(DD, (first, first), {})
            if kind == "unit":
                return DgAlgebra(DD.dg, DD._pair, vscale(QQ, QQ.of(2),
                                                         DD.unit), DD.aug)
            return with_d(DD, last, vscale(QQ, QQ.of(2),
                                           DD.d.apply_label(last)))
        return dual_of

    for kind, want in (("product", "double dual product mismatch at (1,1)"),
                       ("unit", "double dual unit mismatch"),
                       ("d", "double dual differential mismatch at b")):
        monkeypatch.setattr(sweedler_ops, "dual_algebra", broken(kind))
        assert double_dual_compare(A) == [want]


# -- the rule's earlier form and the loops it replaced ---------------------------


def ref_representable(space, *labels) -> bool:
    """`DgAlgebra._representable` as it was, on a space."""
    degs = [space.degree_of(k) for k in labels]
    for i in range(len(degs)):
        total = 0
        for j in range(i, len(degs)):
            total += degs[j]
            if not space.window.contains(total):
                return False
    weights = [space.weight_of(k) for k in labels]
    if all(w is not None for w in weights) and \
            sum(weights) > space.window.weight_cap:
        return False
    return True


def ref_window_tuples(A, k):
    space = A.space
    return [t for t in itertools.product(space.labels(), repeat=k)
            if ref_representable(space, *t)]


def ref_verify(A, check_d_squared=True):
    """`DgAlgebra.verify` as it was: every tuple, kept by `_representable`."""
    issues = []
    field = A.field
    labels = A.space.labels()
    one = field.one()
    for a, b, c in itertools.product(labels, repeat=3):
        if not ref_representable(A.space, a, b, c):
            continue
        lhs = A.product(A._pair(a, b), {c: one})
        rhs = A.product({a: one}, A._pair(b, c))
        if lhs != rhs:
            issues.append(
                f"associativity fails at ({label_str(a)},{label_str(b)},"
                f"{label_str(c)})")
            break
    if A.unit is not None:
        for a in labels:
            if A.product(A.unit, {a: one}) != {a: one} or \
                    A.product({a: one}, A.unit) != {a: one}:
                issues.append(f"unit law fails at {label_str(a)}")
                break
    for a, b in itertools.product(labels, repeat=2):
        if not ref_representable(A.space, a, b):
            continue
        lhs = A.d(A._pair(a, b))
        rhs = A.product(A.d.apply_label(a), {b: one})
        sign = field.sign(A.space.degree_of(a))
        rhs = vaddmul(field, rhs, sign,
                      A.product({a: one}, A.d.apply_label(b)))
        if lhs != rhs:
            issues.append(f"Leibniz fails at ({label_str(a)},{label_str(b)})")
            break
    if A.aug is not None and A.unit is not None:
        if not field.is_one(A.augmentation(A.unit)):
            issues.append("augmentation does not send 1 to 1")
        for a, b in itertools.product(labels, repeat=2):
            if not ref_representable(A.space, a, b):
                continue
            lhs = A.augmentation(A._pair(a, b))
            rhs = field.mul(A.augmentation({a: one}),
                            A.augmentation({b: one}))
            if lhs != rhs:
                issues.append(
                    f"augmentation not multiplicative at "
                    f"({label_str(a)},{label_str(b)})")
                break
    if check_d_squared:
        report = check_square_zero(A.dg)
        if not report.passed:
            issues.append(report.describe(A.space))
    return issues


# -- the owner against the earlier rule ------------------------------------------


def small_algebras(field):
    """Every algebra preset, the duals of the coalgebra presets, and the
    derived algebras whose weights are not word lengths (A⊗B, C▷A) or
    unknown ([C,A], the duals)."""
    tr = Truncation(-3, 3, 3)
    out = [load_preset(name).build(field, tr) for name in
           ("dual-numbers", "free-algebra:x=1,y=1", "free-algebra:x=1,y=-2",
            "free-algebra:x=0,y=-1")]
    out.append(load_preset("mc").build(field, Truncation(-5, 0, 5)))
    coalgebras = [load_preset(name).build(field, tr) for name in
                  ("diagonal-coalgebra:2", "primitive-coalgebra:1",
                   "primitive-coalgebra:-1", "matrix-coalgebra:2")]
    out += [dual_algebra(C) for C in coalgebras]
    N = out[0]
    out.append(algebra_tensor(free_x(field), load_preset(
        "free-algebra:z=-1").build(field, Truncation(-2, 4, 2))))
    out.append(sweedler_product(coalgebras[1], N, tr).algebra)
    out.append(convolution_algebra(coalgebras[1], N))
    return out


def mixed_weights(field) -> DgAlgebra:
    """Labels of known and of unknown weight, some heavier than the cap."""
    space = GradedSpace(field, Truncation(-2, 3, 3))
    for i, (degree, weight) in enumerate(
            [(-2, 1), (-1, None), (-1, 2), (0, 0), (0, None), (0, 4),
             (1, 1), (1, None), (2, 3), (3, None)]):
        space.add(f"v{i}", degree, weight=weight)
    return DgAlgebra(DgSpace(space), lambda a, b: {}, None)


def test_window_tuples_matches_representable_on_presets():
    dropped = 0
    for field in FIELDS:
        for A in [*small_algebras(field), mixed_weights(field)]:
            for k in (2, 3):
                want = ref_window_tuples(A, k)
                assert list(A.window_tuples(k)) == want
                dropped += len(A.space.labels()) ** k - len(want)
    assert dropped > 10000


def test_window_tuples_on_a_mix_of_known_and_unknown_weights():
    A = mixed_weights(QQ)
    pairs = set(A.window_tuples(2))
    # an unknown weight lets a pair past any total; known weights do not
    assert ("v4", "v5") in pairs and ("v3", "v5") not in pairs
    assert ("v1", "v8") in pairs and ("v2", "v8") not in pairs
    assert ("v4", "v3", "v5") in set(A.window_tuples(3))


def test_window_tuples_matches_representable_on_random_presentations():
    rng = random.Random(16)
    weighted = triples = 0
    for i in range(300):
        field = FIELDS[i % 3]
        P = _random_presentation(rng, field)
        if i % 2:
            # weights that are not word lengths, as in C▷A
            P.gen_weights = {g: rng.randint(0, 2) for g, _ in P.generators}
            weighted += 1
        A = normal_forms(P)
        assert list(A.window_tuples(2)) == ref_window_tuples(A, 2)
        if len(A.space.labels()) <= 25:     # bounds the reference's n³ walk
            assert list(A.window_tuples(3)) == ref_window_tuples(A, 3)
            triples += 1
    assert triples >= 200 and weighted == 150


# -- the rewritten checks against their earlier loops ----------------------------


def test_verify_matches_the_representable_loop():
    for field in FIELDS:
        corpus = [*broken_algebras(field).values(), *small_algebras(field),
                  square_zero_with_d(field)]
        for A in corpus:
            assert A.verify() == ref_verify(A)
            for a in A.space.basis(A.space.degrees()[0])[:1]:
                # a product broken at the lowest degree, in and out of the
                # window
                for b in A.space.labels()[::3]:
                    B = with_pair(A, (a, b), {a: field.one()})
                    assert B.verify(check_d_squared=False) == \
                        ref_verify(B, check_d_squared=False)


def weight_pairs(A) -> int:
    """How many pairs the earlier loops compared: all but the known-heavy."""
    weights = [A.space.weight_of(x) for x in A.space.labels()]
    cap = A.space.window.weight_cap
    return sum(1 for u, v in itertools.product(weights, repeat=2)
               if u is None or v is None or u + v <= cap)


def test_bialgebra_compat_matches_the_weight_loop():
    found = cut = 0
    for field in FIELDS:
        for tr in (Truncation(-6, 0, 6), Truncation(-4, 0, 6)):
            mc = mc_algebra(field, tr)
            cut += weight_pairs(mc.algebra) - len(list(
                mc.algebra.window_tuples(2)))
            # Δ broken at one word, or ε at the one word of degree 0: ε has
            # degree 0, which the vacuity of the dropped pairs rests on
            broken = [(mutate(mc.comult, lab, vscale(
                field, field.of(2), mc.comult.apply_label(lab))), mc.counit)
                for lab in mc.space.labels()]
            broken.append((mc.comult, {UNIT_WORD: field.of(3)}))
            for comult, counit in broken:
                new = bialgebra_compat_issues(mc.algebra, comult, counit)
                assert new == ref_bialgebra_compat_issues(mc.algebra, comult,
                                                          counit)
                found += bool(new)
    # the owner also drops pairs of degree outside the window
    assert found > 20 and cut > 0


def test_algebra_map_issues_matches_the_weight_loop():
    found = cut = 0
    for field in FIELDS:
        for A in small_algebras(field)[:5]:
            cut += weight_pairs(A) - len(list(A.window_tuples(2)))
            g = identity_map(A.space)
            for lab in A.space.labels():
                for image in ({}, {lab: field.of(2)}):
                    h = mutate(g, lab, image)
                    new = algebra_map_issues(h, A, A)
                    assert new == ref_algebra_map_issues(h, A, A)
                    found += bool(new)
    assert found > 50 and cut > 0


def test_heavy_pairs_of_a_tensor_product_carry_witnesses():
    """Why `hopf_on_bar` and `double_dual_compare` keep every pair: in A⊗B a
    pair heavier than the cap can still have a product, and the first
    commutativity witness of this A⊗B, ((x)⊗(z), (x)⊗(1)) of weight 3, is
    such a pair."""
    tr = Truncation(-2, 4, 2)
    A = algebra_tensor(*(load_preset(f"free-algebra:{gen}").build(QQ, tr)
                         for gen in ("x=1", "z=-2")))
    light = list(A.window_tuples(2))

    def witnesses(pairs):
        return [(a, b) for a, b in pairs if A._pair(a, b) != vscale(
            QQ, QQ.sign(A.space.degree_of(a) * A.space.degree_of(b)),
            A._pair(b, a))]

    every = witnesses(itertools.product(A.space.labels(), repeat=2))
    first = every[0]
    assert first not in light and A._pair(*first)
    assert witnesses(light)[0] != first
    with pytest.raises(NotCommutative) as exc:
        hopf_on_bar(bar(A, tr))
    assert str(exc.value) == \
        "product not commutative at ((x)⊗(z),(x)⊗(1))"
