import pathlib
import random
from math import comb

import pytest

from sweedler import coalgebras
from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, tensor_label, identity_map,
                             strength_tensor)
from sweedler.complexes import check_square_zero, homology
from sweedler.algebras import (word_label, word_syms, UNIT_WORD,
                               PresentedAlgebra, normal_forms,
                               free_word_space)
from sweedler.barcobar import bar, anticommutator_issues
from sweedler.coalgebras import (tensor_coalgebra,
                                 coshuffle_coalgebra, odd_binomial, radical,
                                 primitives, coextend_coderivation,
                                 cofree_coalgebra, coextend_map,
                                 shuffle_product, quasi_shuffle_product,
                                 tensor_product_coalgebra, finite_dual,
                                 dual_algebra, ReducedCoalgebra,
                                 RegimeViolation, CoalgebraError,
                                 NotGradedFinite, red_label)
from sweedler.sweedler_ops import primitive_coalgebra, double_dual_compare
from sweedler.presets import load_preset
from sweedler.presentation import parse_file, parse_text
from sweedler.linalg import vaddmul

TR = Truncation(-6, 6, 6)


# -- tensor coalgebra --------------------------------------------------------


def test_deconcatenation_examples():
    T = tensor_coalgebra(QQ, [("x1", 1), ("x2", 1)], Truncation(0, 8, 4))
    one = QQ.one()
    # Δ(1) = 1⊗1
    assert T.comult.apply_label(UNIT_WORD) == \
        {tensor_label(UNIT_WORD, UNIT_WORD): one}
    # Δ(x1⊗x2) = 1⊗(x1x2) + x1⊗x2 + (x1x2)⊗1
    w = word_label(("x1", "x2"))
    assert T.comult.apply_label(w) == {
        tensor_label(UNIT_WORD, w): one,
        tensor_label(word_label(("x1",)), word_label(("x2",))): one,
        tensor_label(w, UNIT_WORD): one}


def test_tensor_coalgebra_axioms_up_to_length_4():
    T = tensor_coalgebra(QQ, [("x", 1), ("y", 2)], Truncation(0, 12, 4))
    assert T.verify() == []


def test_tensor_coalgebra_with_differential():
    d_gen = {"a": {"b": QQ.one()}}
    T = tensor_coalgebra(QQ, [("a", 1), ("b", 0)], Truncation(0, 8, 3),
                         d_gen={"a": {word_label(("b",)): QQ.one()}})
    assert T.verify() == []


def test_coassociativity_compares_only_what_both_sides_hold():
    # |y| = -1 in the window -1..1: y⊗y lies below it, so x⊗y⊗y is no
    # component of (1⊗Δ)Δ, and (Δ⊗1)Δ must leave it out too
    T = tensor_coalgebra(QQ, [("x", 1), ("y", -1)], Truncation(-1, 1, 3))
    assert T.verify() == []
    rng = random.Random(2113)
    for trial in range(60):
        field = (QQ, Field(2), Field(3))[trial % 3]
        gens = [("x", rng.randint(1, 2)), ("y", -rng.randint(1, 2))]
        gens += [("z", rng.randint(-2, 2))] * rng.randint(0, 1)
        tr = Truncation(-rng.randint(0, 3), rng.randint(0, 3),
                        rng.randint(2, 4))
        build = (tensor_coalgebra, coshuffle_coalgebra)[trial % 2]
        issues = build(field, gens, tr).verify(check_d_squared=False)
        assert not [i for i in issues if i.startswith("coassociativity")]
    # a wider window holds y⊗y, and a term dropped from Δ is caught
    T = tensor_coalgebra(QQ, [("x", 1), ("y", -1)], Truncation(-3, 3, 3))
    xyy = word_label(("x", "y", "y"))
    del T.comult.columns[xyy][tensor_label(word_label(("x",)),
                                           word_label(("y", "y")))]
    assert "coassociativity fails at x⊗y⊗y" in \
        T.verify(check_d_squared=False)


NOT_COASSOCIATIVE = """sweedler-presentation v1
field Q
kind coalgebra
trunc -1:2:3
basis 1 0
basis p -1
basis q 2
basis a 1
basis b 1
basis x 2
delta 1 1/1 1,1
delta p 1/1 p,1 1/1 1,p
delta q 1/1 q,1 1/1 1,q
delta b 1/1 b,1 1/1 1,b
delta a 1/1 a,1 1/1 1,a 1/1 p,q
delta x 1/1 x,1 1/1 1,x 1/1 a,b
counit 1 1/1
atom 1
"""


def test_coassociativity_compares_everything_where_nothing_is_cut():
    # a finite coalgebra inside the window: (Δ⊗1)Δx holds p⊗q⊗b and
    # (1⊗Δ)Δx does not, although |q|+|b| = 3 lies above the window
    C = parse_text(NOT_COASSOCIATIVE).build()
    assert not C.space.inexact_degrees()
    assert "coassociativity fails at x" in C.verify()
    # a degree where Δ is recorded to drop terms compares what both
    # sides hold, as on a truncated T^c(X)
    C.leaves = frozenset({2})
    assert not [i for i in C.verify() if i.startswith("coassociativity")]


def test_tensor_coalgebra_refuses_a_nonlinear_differential():
    # d(x) = y⊗z extends to a derivation of T(X) that fails co-Leibniz at x
    gens = [("x", 3), ("y", 1), ("z", 1)]
    yz = word_label(("y", "z"))
    for make in (tensor_coalgebra, coshuffle_coalgebra):
        with pytest.raises(CoalgebraError) as exc:
            make(QQ, gens, Truncation(-1, 6, 3), d_gen={"x": {yz: 1}})
        assert str(exc.value) == (
            "d of generator x is not linear: its term y⊗z is no single "
            "generator, so d would be no coderivation")
        # the empty word is no generator either; a zero term is dropped
        with pytest.raises(CoalgebraError, match="its term 1 is no single"):
            make(QQ, [("u", 1)], Truncation(-1, 6, 3),
                 d_gen={"u": {UNIT_WORD: 1}})
        C = make(QQ, gens, Truncation(-1, 6, 3),
                 d_gen={"x": {yz: 0, word_label(("y",)): 0}})
        assert C.d.is_zero()


def test_tensor_coalgebra_builds_its_coproduct_on_first_read(monkeypatch):
    calls = []
    build = coalgebras._deconcat_map

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(coalgebras, "_deconcat_map", counted)
    # the bar-random job of perfbench: bar, d², [d_int, d_ext] and homology
    P = PresentedAlgebra(
        QQ, [("a", -1), ("b", -2), ("c", 1)],
        [{word_label((g, h)): 1} for g in "abc" for h in "abc"],
        {"a": {word_label(("b",)): 1}}, Truncation(-4, 6, 4),
        aug_gen={"a": 0, "b": 0, "c": 0})
    b = bar(normal_forms(P), Truncation(-4, 6, 4))
    dg = b.coalgebra.dg
    assert check_square_zero(dg).passed
    assert not anticommutator_issues(b.d_int, b.d_ext, dg.space)
    homology(dg)
    TT = b.coalgebra.TT
    assert TT.dims() and calls == []
    comult = b.coalgebra.comult
    assert b.coalgebra.comult is comult and len(calls) == 1
    assert comult.target is TT
    assert b.coalgebra.verify() == []
    assert len(calls) == 1


# -- odd binomials -----------------------------------------------------------


def test_odd_binomial_table_rows_0_to_8():
    want = {0: [1], 1: [1, 1], 2: [1, 0, 1], 3: [1, 1, 1, 1],
            4: [1, 0, 2, 0, 1], 5: [1, 1, 2, 2, 1, 1],
            6: [1, 0, 3, 0, 3, 0, 1], 7: [1, 1, 3, 3, 3, 3, 1, 1],
            8: [1, 0, 4, 0, 6, 0, 4, 0, 1]}
    got = {n: [odd_binomial(n, k) for k in range(n + 1)] for n in range(9)}
    assert got == want


def test_odd_binomial_even_identity_and_units():
    for n in range(7):
        for k in range(n + 1):
            assert odd_binomial(2 * n, 2 * k) == comb(n, k)
    for n in range(13):
        assert odd_binomial(n, 0) == 1


def test_odd_binomial_out_of_range():
    with pytest.raises(CoalgebraError):
        odd_binomial(3, 5)
    with pytest.raises(CoalgebraError):
        odd_binomial(2, -1)


# -- coshuffle ----------------------------------------------------------------


def test_coshuffle_odd_generator_uses_odd_binomials():
    C = coshuffle_coalgebra(QQ, [("u", -1)], Truncation(-8, 0, 8))
    for n in range(1, 8):
        img = C.comult.apply_label(word_label(("u",) * n))
        got = {}
        for t, c in img.items():
            _, left, right = t
            got[len(word_syms(left))] = c
        for k in range(n + 1):
            want = odd_binomial(n, k)
            assert got.get(k, QQ.zero()) == QQ.of(want)


def test_coshuffle_even_generator_uses_binomials():
    C = coshuffle_coalgebra(QQ, [("x", 2)], Truncation(0, 12, 5))
    img = C.comult.apply_label(word_label(("x", "x")))
    mid = img[tensor_label(word_label(("x",)), word_label(("x",)))]
    assert mid == QQ.of(2)


def test_coshuffle_coalgebra_marks_the_degrees_its_coproduct_leaves():
    # coshuffle_comult hands the degrees back unmarked; the coalgebra
    # marks them on its own space, next to the word space's own marks
    rng = random.Random(2117)
    marked = 0
    for trial in range(30):
        field = (QQ, Field(2), Field(3))[trial % 3]
        gens = [("x", rng.randint(-2, 2)), ("y", rng.randint(-2, 2))]
        lo = rng.randint(-4, 2)                 # sometimes without 0
        tr = Truncation(lo, lo + rng.randint(0, 4), rng.randint(2, 4))
        free = free_word_space(field, gens, tr)
        _, leaves = coalgebras.coshuffle_comult(
            free_word_space(field, gens, tr), dict(gens))
        C = coshuffle_coalgebra(field, gens, tr)
        assert C.space.inexact_degrees() == free.inexact_degrees() | leaves
        marked += bool(leaves - free.inexact_degrees())
    assert marked >= 3, marked


def test_coshuffle_is_algebra_map_two_generators():
    # Δ(vw) = Δ(v)Δ(w) for words of length ≤ 3 over two generators
    gens = [("x", 1), ("y", 2)]
    C = coshuffle_coalgebra(QQ, gens, Truncation(0, 10, 3))
    space = C.space
    TT = C.TT
    one = QQ.one()
    for v in space.labels():
        for w in space.labels():
            if len(word_syms(v)) + len(word_syms(w)) > 3:
                continue
            vw = word_label(word_syms(v) + word_syms(w))
            if vw not in space:
                continue
            lhs = C.comult.apply_label(vw)
            rhs = {}
            for t1, c1 in C.comult.apply_label(v).items():
                _, a1, b1 = t1
                for t2, c2 in C.comult.apply_label(w).items():
                    _, a2, b2 = t2
                    sign = QQ.sign(space.degree_of(b1) * space.degree_of(a2))
                    lab = tensor_label(word_label(word_syms(a1) + word_syms(a2)),
                                       word_label(word_syms(b1) + word_syms(b2)))
                    if lab in TT:
                        rhs = vaddmul(QQ, rhs, QQ.mul(sign, QQ.mul(c1, c2)),
                                      {lab: one})
            assert lhs == rhs


def test_coshuffle_cocommutative_deconcat_not():
    C = coshuffle_coalgebra(QQ, [("u", -1)], Truncation(-6, 0, 6))
    assert C.is_cocommutative() is None
    T = tensor_coalgebra(QQ, [("x", 1), ("y", 1)], Truncation(0, 6, 3))
    assert T.is_cocommutative() is not None


# -- radical and primitives ------------------------------------------------------


def test_radical_of_tensor_coalgebra_is_everything():
    T = tensor_coalgebra(QQ, [("x", 1)], Truncation(0, 5, 5))
    r = radical(T)
    reduced_dims = {n: T.space.dim(n) for n in T.space.degrees()}
    reduced_dims[0] -= 1     # remove the atom
    reduced_dims = {n: d for n, d in reduced_dims.items() if d}
    assert r.dims == reduced_dims
    assert r.flag == "proven"


def test_radical_of_diagonal_is_atom_only():
    C = load_preset("diagonal-coalgebra:3").build(QQ, TR)
    r = radical(C)
    assert r.dims == {}


def test_radical_of_primitive_is_whole():
    C = primitive_coalgebra(QQ, TR, degree=1)
    r = radical(C)
    assert r.dims == {1: 1}


def test_radical_closed_under_coderivations():
    # a coderivation of T^c(X) preserves the radical (= everything here);
    # check instead on a mixed coalgebra: diagonal ⊗ primitive
    C = load_preset("diagonal-coalgebra:2").build(QQ, TR)
    D = primitive_coalgebra(QQ, TR, degree=1)
    CD = tensor_product_coalgebra(C, D)
    r = radical(CD)
    # radical of CD is atom ⊗ primitive part
    assert sum(r.dims.values()) == 1
    # the differential (a coderivation) maps radical vectors into the span
    R = ReducedCoalgebra(CD)
    from sweedler.linalg import RowSpace
    span = RowSpace(QQ, R.space.labels())
    for v in r.vectors:
        span.add(v)
    for v in r.vectors:
        image = R.d(v)
        assert span.contains(image)


def test_radical_window_flag_on_truncated_input():
    # a degree-0 cogenerator leaves truncation-affected degrees, so
    # conilpotency is only window-certified
    C = tensor_coalgebra(QQ, [("x", 0)], Truncation(-2, 2, 3))
    r = radical(C)
    assert r.flag == "window-conilpotent"
    assert sum(r.dims.values()) == 3


def test_primitives_of_tensor_coalgebra():
    T = tensor_coalgebra(QQ, [("x", 1), ("y", 2)], Truncation(0, 8, 3))
    prim = primitives(T)
    assert len(prim) == 2
    labels = {next(iter(p))[1] for p in prim}
    assert labels == {word_label(("x",)), word_label(("y",))}


def test_primitives_of_diagonal_vanish():
    C = load_preset("diagonal-coalgebra:3").build(QQ, TR)
    assert primitives(C) == []


def test_primitives_of_tensor_product():
    C = primitive_coalgebra(QQ, TR, degree=1)
    D = primitive_coalgebra(QQ, TR, degree=2)
    CD = tensor_product_coalgebra(C, D)
    assert len(primitives(CD)) == len(primitives(C)) + len(primitives(D))


# -- coderivation coextension -----------------------------------------------------


def oracle_coext(space, generators, phi, degree, lab):
    """Direct expansion of the coextension formula for one word."""
    degree_of = dict(generators)
    syms = word_syms(lab)
    k = len(syms)
    out = {}
    for i in range(k + 1):
        prefix = sum(degree_of[s] for s in syms[:i])
        sign = QQ.sign(degree * prefix)
        for j in range(i + 1, k + 1):
            chunk = word_label(syms[i:j])
            for sym, coeff in phi.get(chunk, {}).items():
                new = word_label(syms[:i] + (sym,) + syms[j:])
                if new in space:
                    out = vaddmul(QQ, out, QQ.mul(sign, coeff),
                                  {new: QQ.one()})
    return out


def test_coextend_zero_map():
    T = tensor_coalgebra(QQ, [("x", 1)], Truncation(0, 5, 5))
    D = coextend_coderivation(T.space, [("x", 1)], {}, -1)
    assert D.is_zero()


def test_coextension_formula_and_co_leibniz_random():
    rng = random.Random(23)
    gens = [("a", 1), ("b", 2)]
    T = tensor_coalgebra(QQ, gens, Truncation(0, 9, 3))
    space = T.space
    for degree in (-1, 1):
        phi = {}
        for w in space.labels():
            if not word_syms(w):
                continue
            img = {g: QQ.of(rng.randint(-2, 2)) for g, gd in gens
                   if gd == space.degree_of(w) + degree
                   and rng.random() < 0.6}
            img = {k: v for k, v in img.items() if v}
            if img:
                phi[w] = img
        D = coextend_coderivation(space, gens, phi, degree)
        for lab in space.labels():
            assert D.apply_label(lab) == oracle_coext(space, gens, phi,
                                                      degree, lab)
        # graded co-Leibniz: Δ∘D = (D⊗1 + 1⊗D)∘Δ
        DT = strength_tensor(D, identity_map(space)).add(
            strength_tensor(identity_map(space), D))
        for lab in space.labels():
            assert T.comult(D.apply_label(lab)) == \
                DT(T.comult.apply_label(lab))


def test_coderivation_determined_by_corestriction():
    # reconstruct D from p∘D
    gens = [("a", 1)]
    T = tensor_coalgebra(QQ, gens, Truncation(0, 6, 4))
    phi = {word_label(("a", "a")): {"a": QQ.of(3)}}
    D = coextend_coderivation(T.space, gens, phi, -1)
    phi2 = {}
    for w in T.space.labels():
        img = D.apply_label(w)
        val = {}
        for t, c in img.items():
            if len(word_syms(t)) == 1:
                val[word_syms(t)[0]] = c
        # corestriction only sees the length-1 part of D on w... p∘D
    # p∘D determines D: coextend the corestriction and compare
    cores = {}
    for w in T.space.labels():
        val = {}
        for t, c in D.apply_label(w).items():
            if len(word_syms(t)) == 1:
                val[word_syms(t)[0]] = c
        if val:
            cores[w] = val
    D2 = coextend_coderivation(T.space, gens, cores, -1)
    assert D.equals(D2)


# -- cofree coalgebra and coextension of maps -----------------------------------------


def test_cofree_regime_violation():
    with pytest.raises(RegimeViolation):
        cofree_coalgebra(QQ, [("x", 0)], TR)
    with pytest.raises(RegimeViolation):
        cofree_coalgebra(QQ, [("x", 1), ("y", -1)], TR)
    cofree_coalgebra(QQ, [("x", 1), ("y", 2)], TR)
    cofree_coalgebra(QQ, [("x", -1)], TR)


def test_coextend_map_counit_of_adjunction():
    # f = p on C = T^c(X) gives g = identity
    T = cofree_coalgebra(QQ, [("x", 1)], Truncation(0, 5, 5))
    f = {}
    for lab in T.space.labels():
        syms = word_syms(lab)
        if len(syms) == 1:
            f[red_label(lab)] = {syms[0]: QQ.one()}
    g = coextend_map(T, f, T)
    assert g.equals(identity_map(T.space))


def test_coextend_map_primitive_source():
    # C = Fδ₊ primitive, f(δ) = x: g(δ) = x, higher terms vanish
    C = primitive_coalgebra(QQ, TR, degree=1)
    T = cofree_coalgebra(QQ, [("x", 1)], Truncation(0, 5, 5))
    f = {red_label("delta"): {"x": QQ.one()}}
    g = coextend_map(C, f, T)
    assert g.apply_label("delta") == {word_label(("x",)): QQ.one()}
    assert g.apply_label("e") == {UNIT_WORD: QQ.one()}
    # g is a coalgebra map: (g⊗g)Δ = Δg on basis
    from sweedler.barcobar import coalgebra_map_issues
    assert coalgebra_map_issues(g, C, T) == []


def test_coextend_map_is_coalgebra_map():
    C = tensor_coalgebra(QQ, [("a", 1)], Truncation(0, 6, 3))
    T = cofree_coalgebra(QQ, [("x", 1), ("y", 2)], Truncation(0, 6, 3))
    f = {}
    for lab in C.space.labels():
        syms = word_syms(lab)
        if len(syms) == 1:
            f[red_label(lab)] = {"x": QQ.one()}
        elif len(syms) == 2:
            f[red_label(lab)] = {"y": QQ.of(2)}
    g = coextend_map(C, f, T)
    from sweedler.barcobar import coalgebra_map_issues
    assert coalgebra_map_issues(g, C, T) == []


# -- shuffle and quasi-shuffle products ---------------------------------------------


def test_shuffle_length_one_times_length_one():
    T = tensor_coalgebra(QQ, [("x", 1), ("y", 2)], Truncation(0, 9, 4))
    mu = shuffle_product(T)
    wx, wy = word_label(("x",)), word_label(("y",))
    out = mu.apply_label(tensor_label(wx, wy))
    assert out == {word_label(("x", "y")): QQ.one(),
                   word_label(("y", "x")): QQ.sign(1 * 2)}
    # odd·odd: the Koszul sign is -1
    out2 = mu.apply_label(tensor_label(wx, wx))
    assert out2 == {}  # x⊗x + (-1) x⊗x


def test_shuffle_unit_law():
    T = tensor_coalgebra(QQ, [("x", 1)], Truncation(0, 5, 5))
    mu = shuffle_product(T)
    for w in T.space.labels():
        assert mu.apply_label(tensor_label(UNIT_WORD, w)) == {w: QQ.one()}
        assert mu.apply_label(tensor_label(w, UNIT_WORD)) == {w: QQ.one()}


def _assoc_check(T, mu):
    TT = mu.source
    ok = True
    for a in T.space.labels():
        for b in T.space.labels():
            for c in T.space.labels():
                lhs = {}
                for m, cm in mu.apply_label(tensor_label(a, b)).items():
                    t = tensor_label(m, c)
                    if t in TT:
                        lhs = vaddmul(QQ, lhs, cm, mu.apply_label(t))
                rhs = {}
                for m, cm in mu.apply_label(tensor_label(b, c)).items():
                    t = tensor_label(a, m)
                    if t in TT:
                        rhs = vaddmul(QQ, rhs, cm, mu.apply_label(t))
                if lhs != rhs:
                    return False
    return True


def test_quasi_shuffle_associativity_square_zero():
    # A = F·eps with eps² = 0 (zero product): quasi-shuffle = shuffle
    T = tensor_coalgebra(QQ, [("eps", 1)], Truncation(0, 6, 3))
    mu = quasi_shuffle_product(T, None)
    assert _assoc_check(T, mu)


def test_quasi_shuffle_associativity_nonzero_product():
    # A = reduced part of F[e]/e³: basis {e, e²}, e·e = e², e·e² = 0
    gens = [("E1", 2), ("E2", 4)]
    mult = {("E1", "E1"): {"E2": QQ.one()}}
    T = tensor_coalgebra(QQ, gens, Truncation(0, 14, 3))
    mu = quasi_shuffle_product(T, mult)
    assert _assoc_check(T, mu)
    # the length-1·length-1 product now has the A-product term
    w1 = word_label(("E1",))
    out = mu.apply_label(tensor_label(w1, w1))
    assert out == {word_label(("E2",)): QQ.one(),
                   word_label(("E1", "E1")): QQ.of(2)}


def test_quasi_shuffle_bialgebra_compatibility():
    T = tensor_coalgebra(QQ, [("eps", 1)], Truncation(0, 6, 3))
    mu = quasi_shuffle_product(T, None)
    # Δ(μ(x,y)) = μ⊗μ applied to the tensor-square coproduct, on pairs the
    # cap can represent in full
    CC = tensor_product_coalgebra(T, T)
    cap = T.space.window.weight_cap
    for lab in CC.space.labels():
        _, wl, wr = lab
        if len(word_syms(wl)) + len(word_syms(wr)) > cap:
            continue
        lhs = T.comult(mu.apply_label(lab))
        rhs = {}
        for t, c in CC.comult.apply_label(lab).items():
            _, p1, p2 = t
            for m1, c1 in mu.apply_label(p1).items():
                for m2, c2 in mu.apply_label(p2).items():
                    lab2 = tensor_label(m1, m2)
                    if lab2 in T.TT:
                        rhs = vaddmul(QQ, rhs, QQ.mul(c, QQ.mul(c1, c2)),
                                      {lab2: QQ.one()})
        assert lhs == rhs


# -- finite duals ----------------------------------------------------------------


def test_dual_of_field_is_field():
    from sweedler.algebras import tensor_algebra
    F = tensor_algebra(QQ, [], TR)
    D = finite_dual(F)
    assert D.space.dims() == {0: 1}
    assert D.verify() == []


def test_dual_of_dual_numbers_coproduct():
    from sweedler.graded import dual_label
    A = load_preset("dual-numbers").build(QQ, TR)
    D = finite_dual(A)
    assert D.verify() == []
    eps_star = dual_label(word_label(("eps",)))
    one_star = dual_label(UNIT_WORD)
    assert D.comult.apply_label(eps_star) == {
        tensor_label(eps_star, one_star): QQ.one(),
        tensor_label(one_star, eps_star): QQ.one()}


def test_double_dual_of_presets():
    for preset in ["dual-numbers"]:
        A = load_preset(preset).build(QQ, TR)
        assert double_dual_compare(A) == []


def test_dual_with_differential_is_a_coalgebra():
    # A = F⊕F·a⊕F·b with zero products on the ideal and d(a) = b
    from sweedler.algebras import PresentedAlgebra, normal_forms
    gens = [("a", 1), ("b", 0)]
    rels = [{word_label((g1, g2)): QQ.one()} for g1, _ in gens
            for g2, _ in gens]
    P = PresentedAlgebra(QQ, gens, rels, {"a": {word_label(("b",)): QQ.one()}},
                         Truncation(-3, 3, 4),
                         aug_gen={"a": QQ.zero(), "b": QQ.zero()})
    A = normal_forms(P)
    assert A.verify() == []
    D = finite_dual(A)
    assert D.verify() == []
    assert dual_algebra(D, name="dd").verify() == []


def test_dual_refuses_truncation_affected():
    from sweedler.algebras import tensor_algebra
    T = tensor_algebra(QQ, [("x", 0)], Truncation(-2, 2, 4))
    with pytest.raises(NotGradedFinite):
        finite_dual(T)


def test_dual_algebra_refuses_duals_outside_the_window():
    # δ has degree 1, so δ* would sit in degree -1, below the window
    C = load_preset("primitive-coalgebra:1").build(QQ, Truncation(0, 3, 3))
    with pytest.raises(NotGradedFinite, match="degrees 1 dualize outside"):
        dual_algebra(C)
    assert dual_algebra(load_preset("primitive-coalgebra:1").build(
        QQ, Truncation(-1, 3, 3))).space.dims() == {-1: 1, 0: 1}


def test_coderivation_commutator_and_odd_square_are_coderivations():
    gens = [("a", 1), ("b", 2)]
    T = tensor_coalgebra(QQ, gens, Truncation(0, 10, 4))
    space = T.space
    # two distinct degree -1 (odd) coderivations
    phi1 = {word_label(("a", "a")): {"a": QQ.one()}}
    phi2 = {word_label(("b",)): {"a": QQ.of(2)},
            word_label(("a", "b")): {"b": QQ.one()}}
    D1 = coextend_coderivation(space, gens, phi1, -1)
    D2 = coextend_coderivation(space, gens, phi2, -1)

    def is_coderivation(D):
        DT = strength_tensor(D, identity_map(space)).add(
            strength_tensor(identity_map(space), D))
        for lab in space.labels():
            if T.comult(D.apply_label(lab)) != DT(T.comult.apply_label(lab)):
                return False
        return True

    # odd/odd commutator = D1D2 + D2D1; odd square = D·D
    comm = D1.compose(D2).add(D2.compose(D1))
    assert is_coderivation(comm)
    assert is_coderivation(D1.compose(D1))
    assert is_coderivation(D2.compose(D2))


def test_coextend_map_rejects_non_conilpotent():
    from sweedler.coalgebras import NotConilpotent, cofree_coalgebra
    C = load_preset("diagonal-coalgebra:2").build(QQ, Truncation(-4, 4, 4))
    T = cofree_coalgebra(QQ, [("x", 1)], Truncation(-4, 4, 4))
    f = {red_label("e2"): {}}
    with pytest.raises(NotConilpotent):
        coextend_map(C, {red_label("e2"): {"x": QQ.one()}}, T)


def test_verify_names_the_element_that_breaks_co_leibniz():
    # x primitive of degree 1 with dx = e: (d⊗1+1⊗d)Δx = 2e⊗e, Δ(dx) = e⊗e
    path = pathlib.Path(__file__).parent / "data" / "not_coleibniz.swp"
    C = parse_file(str(path)).build()
    assert C.verify() == ["co-Leibniz fails at x"]
    # the same coalgebra with dx = 0 passes
    C.d.set("x", {})
    assert C.verify() == []
