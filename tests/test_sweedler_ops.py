import itertools

import pytest

from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedMap, tensor_space,
                             tensor_label, hom_label)
from sweedler.complexes import check_square_zero
from sweedler.algebras import (tensor_algebra, word_label, word_syms,
                               UNIT_WORD, omega_bimodule, normal_forms,
                               PresentedAlgebra)
from sweedler.coalgebras import (tensor_coalgebra, coshuffle_coalgebra,
                                 RegimeViolation)
from sweedler.sweedler_ops import (convolution_algebra, verify_measuring,
                                   sweedler_product, example_construction,
                                   sweedler_hom_free, sweedler_dual,
                                   corestriction_identity_report,
                                   primitive_coalgebra, matrix_algebra,
                                   rh_label)
from sweedler.presets import load_preset, matrix_label
from sweedler.linalg import vaddmul, vscale

TR = Truncation(-6, 6, 6)


def dual_numbers(field=QQ, tr=TR):
    return load_preset("dual-numbers").build(field, tr)


# -- convolution --------------------------------------------------------------


def test_convolution_with_unit_coalgebra_is_A():
    C = load_preset("diagonal-coalgebra:1").build(QQ, TR)
    A = dual_numbers()
    conv = convolution_algebra(C, A)
    assert conv.space.dims() == A.space.dims()
    assert conv.verify() == []


def test_convolution_diagonal_is_componentwise():
    C = load_preset("diagonal-coalgebra:2").build(QQ, TR)
    A = dual_numbers()
    conv = convolution_algebra(C, A)
    assert conv.verify() == []
    one = QQ.one()
    eps = word_label(("eps",))
    f = {hom_label("e1", eps): one}   # f(e1) = eps, f(e2) = 0
    g = {hom_label("e1", eps): one, hom_label("e2", UNIT_WORD): one}
    fg = conv.product(f, g)
    # (f⋆g)(e1) = eps² = 0, (f⋆g)(e2) = 0·1 = 0
    assert fg == {}
    gg = conv.product(g, g)
    # (g⋆g)(e1) = eps² = 0; (g⋆g)(e2) = 1
    assert gg == {hom_label("e2", UNIT_WORD): one}


def test_convolution_tensor_coalgebra_is_cauchy_product():
    # [T^c(x), A] is the truncated power series algebra: Cauchy product of
    # coefficient sequences (|x| = 0, matching the jet-algebra context)
    C = tensor_coalgebra(QQ, [("x", 0)], Truncation(-6, 6, 6))
    A = dual_numbers()
    conv = convolution_algebra(C, A)
    assert conv.verify() == []
    one = QQ.one()

    def series(coeffs):
        # coeffs[n] = scalar coefficient of x^n ↦ 1
        out = {}
        for n, c in coeffs.items():
            if c:
                out[hom_label(word_label(("x",) * n), UNIT_WORD)] = QQ.of(c)
        return out

    fc = {0: 1, 1: 2, 2: 1}
    gc = {1: 3, 2: 1}
    fg = conv.product(series(fc), series(gc))
    # brute-force Cauchy convolution of the coefficient sequences
    want = {}
    for i, fi in fc.items():
        for j, gj in gc.items():
            want[i + j] = want.get(i + j, 0) + fi * gj
    want = {n: v for n, v in want.items() if v}
    assert want == {1: 3, 2: 7, 3: 5, 4: 1}
    got = {}
    for lab, c in fg.items():
        _, cw, aw = lab
        got[len(word_syms(cw))] = c
    assert got == {n: QQ.of(v) for n, v in want.items()}


def test_convolution_differential_is_a_derivation():
    # the [C,A] differential satisfies Leibniz on a compatible window: the
    # window must cover every hom degree amax - cmin
    tr = Truncation(-8, 8, 4)
    C = tensor_coalgebra(QQ, [("x", -1)], tr)
    gens = [("a", 1), ("b", 0)]
    rels = [{word_label((g1, g2)): QQ.one()} for g1, _ in gens
            for g2, _ in gens]
    A = normal_forms(PresentedAlgebra(
        QQ, gens, rels, {"a": {word_label(("b",)): QQ.one()}},
        tr, aug_gen={"a": QQ.zero(), "b": QQ.zero()}))
    conv = convolution_algebra(C, A)
    assert conv.verify() == []
    assert not conv.space.inexact_degrees()


# -- measurings ----------------------------------------------------------------


def test_unit_isomorphism_is_a_measuring():
    C = load_preset("diagonal-coalgebra:1").build(QQ, TR)
    A = dual_numbers()
    T = tensor_space(C.space, A.space)
    f = GradedMap(T, A.space, 0)
    for lab in T.labels():
        _, c, a = lab
        f.set(lab, {a: QQ.one()})
    assert verify_measuring(f, C, A, A).passed


def test_reversed_evaluation_is_a_measuring_and_mutation_fails():
    # rev: C⊗[C,A] → A with rev(c⊗f) = (-1)^{|f||c|} f(c); corrupting one
    # sign breaks measuring where the coproduct genuinely splits
    tr = Truncation(-8, 8, 2)
    C = tensor_coalgebra(QQ, [("x", -1)], tr)
    A = dual_numbers(tr=tr)
    conv = convolution_algebra(C, A)
    T = tensor_space(C.space, conv.space)
    rev = GradedMap(T, A.space, 0)
    for lab in T.labels():
        _, c, h = lab
        _, hc, ha = h
        sign = QQ.sign(conv.space.degree_of(h) * C.space.degree_of(c))
        rev.set(lab, {ha: sign} if hc == c else {})
    rep = verify_measuring(rev, C, conv, A)
    assert rep.passed
    # flip the sign of rev at (x ⊗ (x↦eps))
    bad = GradedMap(T, A.space, 0)
    for lab, img in rev.columns.items():
        bad.set(lab, img)
    wx = word_label(("x",))
    lab0 = tensor_label(wx, hom_label(wx, word_label(("eps",))))
    bad.set(lab0, vscale(QQ, QQ.of(-1), rev.apply_label(lab0)))
    rep2 = verify_measuring(bad, C, conv, A)
    assert not rep2.passed
    assert rep2.failures


# -- Sweedler products -----------------------------------------------------------


def test_unit_coalgebra_sweedler_product_is_A():
    C = load_preset("diagonal-coalgebra:1").build(QQ, Truncation(-4, 4, 4))
    A = dual_numbers(tr=Truncation(-4, 4, 4))
    sp = sweedler_product(C, A, Truncation(-4, 4, 4), verify=True)
    assert sp.algebra.space.dims() == A.space.dims()


def dims_by_weight(space, cap=None):
    out = {}
    for lab in space.labels():
        w = space.weight_of(lab)
        if cap is not None and w is not None and w > cap:
            continue
        key = (space.degree_of(lab), w)
        out[key] = out.get(key, 0) + 1
    return out


def test_sweedler_product_free_target():
    # C▷T(X) ≅ T(C⊗X): dims per (degree, weight ≤ 4)
    tr = Truncation(-6, 6, 4)
    C = primitive_coalgebra(QQ, tr, degree=1)
    A = tensor_algebra(QQ, [("x", 1)], tr)
    sp = sweedler_product(C, A, tr)
    got = dims_by_weight(sp.algebra.space, cap=4)
    # oracle: T(C⊗X) on generators e⊗x (degree 1), δ⊗x (degree 2)
    oracle = tensor_algebra(QQ, [("ex", 1), ("dx", 2)], tr)
    want = dims_by_weight(oracle.space, cap=4)
    assert got == want


def test_sweedler_product_diagonal_vs_free_product_oracle():
    # F{1,2}▷A vs the free product A⊔A: alternating-word dims to weight 3
    tr = Truncation(-6, 6, 3)
    C = load_preset("diagonal-coalgebra:2").build(QQ, tr)
    A = dual_numbers(tr=tr)
    sp = sweedler_product(C, A, tr, verify=True)
    # alternating words in two copies of A_- = F·eps (degree 0)
    def alternating_count(length):
        return 2 if length >= 1 else 1
    want = {}
    for k in range(4):
        want[(0, k)] = alternating_count(k)
    assert dims_by_weight(sp.algebra.space, cap=3) == want


def test_matrix_algebra_products_at_n_10():
    # two-digit indices: e1,10·e10,1 = e1,1, not a label parsed from "e110";
    # at n = 11, e1,11 and e11,1 are two labels, not both "e111"
    assert matrix_label(2, 3, 9) == "e23"
    assert matrix_label(1, 11, 11) != matrix_label(11, 1, 11)
    for n in (10, 11):
        A = matrix_algebra(QQ, n, TR)
        e = {(i, j): matrix_label(i, j, n) for i in range(1, n + 1)
             for j in range(1, n + 1)}
        assert A.space.labels() == list(e.values())
        assert A.product({e[1, n]: 1}, {e[n, 1]: 1}) == {e[1, 1]: 1}
        for (i, j), x in e.items():
            for (k, l), y in e.items():
                assert A._pair(x, y) == ({e[i, l]: 1} if j == k else {})
            assert A.product(A.unit, {x: 1}) == {x: 1}
            assert A.product({x: 1}, A.unit) == {x: 1}


def test_matrix_coalgebra_at_n_11():
    # the preset and the dual of Mat(11) name e_ij alike, and the Sweedler
    # product of Mat(11)* runs
    n, tr = 11, Truncation(-1, 1, 1)
    C = load_preset(f"matrix-coalgebra:{n}").build(QQ, tr)
    assert C.space.labels() == matrix_algebra(QQ, n, tr).space.labels()
    assert C.verify() == []
    e = {(i, j): matrix_label(i, j, n) for i in range(1, n + 1)
         for j in range(1, n + 1)}
    assert C.comult.apply_label(e[1, 11]) == {
        tensor_label(e[1, k], e[k, 11]): 1 for k in range(1, n + 1)}
    sp = example_construction("matrix", dual_numbers(tr=tr), tr, n=n)
    assert sp.algebra.space.dims() == {0: 1 + n * n}


def test_matrix_coalgebra_n1_gives_A_back():
    tr = Truncation(-4, 4, 4)
    A = dual_numbers(tr=tr)
    sp = example_construction("matrix", A, tr, n=1)
    assert sp.algebra.space.dims() == A.space.dims()


def test_derham_relation_shape():
    # Fδ₊▷A: δ▷(xy) = (δ▷x)(1▷y) + (-1)^{n|x|} (1▷x)(δ▷y)
    tr = Truncation(-4, 4, 4)
    A = dual_numbers(tr=tr)
    sp = example_construction("diff_alg", A, tr, n=1, verify=True)
    alg = sp.algebra
    one = QQ.one()
    eps = word_label(("eps",))
    # Φ is a measuring, so the relation is built in; spot check the identity
    T = sp.measuring.source
    lhs = sp.measuring.apply_label(tensor_label("delta", UNIT_WORD))
    assert lhs == {} or lhs == {UNIT_WORD: QQ.zero()}  # δ▷1 = ε(δ) = 0
    # δ▷(ε·ε) = 0 must equal (δ▷ε)(e▷ε) + (e▷ε)(δ▷ε) with |ε| = 0
    d_eps = sp.measuring.apply_label(tensor_label("delta", eps))
    e_eps = sp.measuring.apply_label(tensor_label("e", eps))
    total = vaddmul(QQ, alg.product(d_eps, e_eps), one,
                    alg.product(e_eps, d_eps))
    assert total == {}


def test_derham_dims_vs_omega_oracle():
    # dims of Fδ₊▷(F[ε]/ε²) per (degree, Ω-weight) against T_A(SⁿΩ_A) with
    # Ω computed independently as ker(m)
    n = 1
    tr = Truncation(-6, 6, 6)
    A = dual_numbers(tr=tr)
    om = omega_bimodule(A)
    W = 2
    sp = example_construction("diff_alg", A, Truncation(-6, 6, 2 * W + 2),
                              n=n)

    # Sweedler side: weight = number of δ▷(-) symbols
    def delta_weight(lab):
        return sum(1 for s in word_syms(lab) if s[1] == "delta")
    got = {}
    for lab in sp.algebra.space.labels():
        w = delta_weight(lab)
        if w <= W:
            key = (sp.algebra.space.degree_of(lab), w)
            got[key] = got.get(key, 0) + 1

    # oracle: T_A(SⁿΩ): weight 0 = A, weight k = SⁿΩ^{⊗_A k}
    want = {(0, 0): 2}
    # SⁿΩ^{⊗_A k} dims by quotienting Ω^{⊗k} by middle actions
    from sweedler.linalg import RowSpace
    om_basis = om.space.labels()          # 2 elements in degree 0
    for k in range(1, W + 1):
        words = list(itertools.product(om_basis, repeat=k))
        order = list(words)
        rs = RowSpace(QQ, order)
        eps = word_label(("eps",))
        for i in range(k - 1):
            for left in itertools.product(om_basis, repeat=i):
                for right in itertools.product(om_basis, repeat=k - i - 2):
                    for m1 in om_basis:
                        for m2 in om_basis:
                            # (m1·ε)⊗m2 - (-1)^{n|ε|} m1⊗(ε·m2), |ε| = 0
                            rel = {}
                            right_act = om.act_right({m1: QQ.one()}, eps)
                            for lab2, c in right_act.items():
                                rel = vaddmul(QQ, rel, c, {
                                    left + (lab2, m2) + right: QQ.one()})
                            left_act = om.act_left(eps, {m2: QQ.one()})
                            for lab2, c in left_act.items():
                                rel = vaddmul(QQ, rel, QQ.neg(c), {
                                    left + (m1, lab2) + right: QQ.one()})
                            rs.add(rel)
        dim = len(words) - rs.rank
        want[(k * n, k)] = want.get((k * n, k), 0) + dim
    assert got == want


def test_jet_relations():
    # Jet(A): xⁿ▷(ab) = Σ (xⁱ▷a)(x^{n-i}▷b); divided: with binomials
    tr = Truncation(-2, 2, 3)
    A = dual_numbers(tr=Truncation(-2, 2, 2))
    for kind in ("jet", "divided_jet"):
        sp = example_construction(kind, A, tr)
        rep = verify_measuring(sp.measuring, _coalg_of(kind, A, tr),
                               A, sp.algebra)
        assert rep.passed


def _coalg_of(kind, A, tr):
    if kind == "jet":
        return tensor_coalgebra(QQ, [("x", 0)], tr, name="Tc(x)")
    return coshuffle_coalgebra(QQ, [("x", 0)], tr, name="Tcsh(x)")


# -- the Sweedler hom, formula case ------------------------------------------------


def test_sweedler_hom_free_trivial_target():
    # B = F, X = F·u (|u| = -1): the unpointed {T(u),F} = T^c(F·u*) with
    # |u*| = +1 (the degenerate bar-of-F case)
    tr = Truncation(-1, 6, 6)
    B = tensor_algebra(QQ, [], tr, augmented=True)
    sh = sweedler_hom_free(QQ, [("u", -1)], B, tr, pointed=False)
    assert sh.coalgebra.space.dims() == {n: 1 for n in range(7)}
    assert sh.coalgebra.verify() == []
    # the pointed variant over B = F collapses to F
    sh2 = sweedler_hom_free(QQ, [("u", -1)], B, tr, pointed=True)
    assert sh2.coalgebra.space.dims() == {0: 1}


def test_sweedler_hom_dims_and_measuring():
    tr = Truncation(-1, 6, 4)
    B = dual_numbers(tr=tr)
    sh = sweedler_hom_free(QQ, [("u", -1)], B, tr)
    # dims equal T^c([X,B_-]) dims: one generator of degree 1
    want = tensor_coalgebra(QQ, [("h", 1)], tr)
    assert sh.coalgebra.space.dims() == want.space.dims()
    rep = verify_measuring(sh.measuring, sh.coalgebra, sh.source, B)
    assert rep.passed


def test_sweedler_hom_corestriction_identity():
    # with the mc source: q(d(h)) = d₂h♭i - (-1)^{|h|} h♭d₁i on words ≤ 3
    tr = Truncation(-1, 4, 4)
    B = dual_numbers(tr=tr)
    phi = {"u": {word_label(("u", "u")): QQ.of(-1)}}
    sh = sweedler_hom_free(QQ, [("u", -1)], B, tr, phi_der=phi)
    assert corestriction_identity_report(sh, QQ, [("u", -1)], phi, B) == []
    assert check_square_zero(sh.coalgebra.dg).passed


def test_sweedler_hom_regime_violation():
    tr = Truncation(-4, 4, 4)
    B = dual_numbers(tr=tr)
    # [X,B_-] with |x| = 0 hits degree 0
    with pytest.raises(RegimeViolation):
        sweedler_hom_free(QQ, [("x", 0)], B, tr)


# -- Sweedler duality ---------------------------------------------------------------


def test_sweedler_dual_of_field():
    F = tensor_algebra(QQ, [], TR)
    D = sweedler_dual(F)
    assert D.space.dims() == {0: 1}


def test_sweedler_dual_free_algebra_is_cofree_coalgebra():
    TX = tensor_algebra(QQ, [("x", 1)], Truncation(-6, 6, 6))
    D = sweedler_dual(TX)
    TC = tensor_coalgebra(QQ, [("xs", -1)], Truncation(-6, 6, 6))
    assert D.space.dims() == TC.space.dims()
    assert D.verify() == []


def test_sweedler_dual_dual_numbers_table():
    from sweedler.graded import dual_label
    A = dual_numbers()
    D = sweedler_dual(A)
    eps_star = dual_label(word_label(("eps",)))
    one_star = dual_label(UNIT_WORD)
    assert D.comult.apply_label(eps_star) == {
        tensor_label(eps_star, one_star): QQ.one(),
        tensor_label(one_star, eps_star): QQ.one()}


# -- the adjunction triple at desk scale over F2 ---------------------------------------


def test_triple_bijection_over_F2():
    """{algebra maps C▷A→B} ≅ {measurings C⊗A→B} ≅ {algebra maps A→[C,B]}
    by exhaustive enumeration, total dims ≤ 6 over F2."""
    F2 = Field(2)
    tr = Truncation(-2, 2, 3)
    C = load_preset("diagonal-coalgebra:2").build(F2, tr)
    A = load_preset("dual-numbers").build(F2, tr)
    B = load_preset("dual-numbers").build(F2, tr)
    one = F2.one()
    eps = word_label(("eps",))

    # measurings C⊗A→B: determined by f(e_i, eps) ∈ B_0 (4 params over F2)
    T = tensor_space(C.space, A.space)
    measurings = []
    for combo in itertools.product(range(2), repeat=4):
        f = GradedMap(T, B.space, 0)
        vals = {}
        for idx, (ci, bi) in enumerate(
                itertools.product(["e1", "e2"], [UNIT_WORD, eps])):
            vals[(ci, bi)] = combo[idx]
        for lab in T.labels():
            _, c, a = lab
            if a == UNIT_WORD:
                f.set(lab, {UNIT_WORD: one})
            else:
                img = {}
                for bi in (UNIT_WORD, eps):
                    if vals[(c, bi)]:
                        img[bi] = one
                f.set(lab, img)
        if verify_measuring(f, C, A, B).passed:
            measurings.append(f)

    # algebra maps A → [C,B]: determined by the image of eps with square 0
    conv = convolution_algebra(C, B)
    algebra_maps_to_conv = []
    basis0 = conv.space.basis(0)
    for combo in itertools.product(range(2), repeat=len(basis0)):
        img = {b: one for b, c in zip(basis0, combo) if c}
        if conv.product(img, img) == {}:
            algebra_maps_to_conv.append(img)

    # algebra maps C▷A → B: via the universal property = maps on the
    # generator classes (i▷eps) with square 0 and, because (1▷eps)(2▷eps)
    # is free, no further constraints; enumerate directly on the quotient
    sp = sweedler_product(C, A, tr)
    gens = [word_label((rh_label("e1", eps),)),
            word_label((rh_label("e2", eps),))]
    maps_from_product = []
    B0 = B.space.basis(0)
    for combo in itertools.product(range(2), repeat=2 * len(B0)):
        imgs = []
        for i in range(2):
            img = {b: one for b, c in zip(B0, combo[i * len(B0):(i + 1) *
                                                    len(B0)]) if c}
            imgs.append(img)
        ok = all(B.product(im, im) == {} for im in imgs)
        if ok:
            maps_from_product.append(imgs)

    assert len(measurings) == len(algebra_maps_to_conv) == \
        len(maps_from_product) == 4


def test_composing_universal_measuring_with_algebra_map_is_measuring():
    # g∘Φ is a measuring for an algebra map g out of C▷A (here g = ε)
    tr = Truncation(-2, 2, 3)
    C = load_preset("diagonal-coalgebra:2").build(QQ, tr)
    A = dual_numbers(tr=tr)
    sp = sweedler_product(C, A, tr, pointed=False)
    # choose g = the algebra map to A collapsing the C-coordinate: the
    # counit induces ε▷A: C▷A → F▷A = A on generators c▷a ↦ ε(c)·a
    target = A
    g = GradedMap(sp.algebra.space, target.space, 0)
    one = QQ.one()
    for w in sp.algebra.space.labels():
        val = dict(target.unit)
        for sym in word_syms(w):
            _, c, a = sym
            eps = C.counit.get(c, QQ.zero())
            val = target.product(val, vscale(QQ, eps, {a: one}))
        g.set(w, target.space.project(val))
    composed = GradedMap(sp.measuring.source, target.space, 0)
    for lab in sp.measuring.source.labels():
        composed.set(lab, g(sp.measuring.apply_label(lab)))
    assert verify_measuring(composed, C, A, target).passed


def test_sweedler_product_dims_invariant_under_relabeling():
    tr = Truncation(-2, 2, 3)
    A = dual_numbers(tr=tr)
    dims = []
    for order in (["e1", "e2"], ["e2", "e1"]):
        from sweedler.graded import GradedSpace
        from sweedler.complexes import DgSpace as _DgSpace
        space = GradedSpace(QQ, tr)
        for name in order:
            space.add(name, 0)
        TT = tensor_space(space, space)
        comult = GradedMap(space, TT, 0)
        for name in order:
            comult.set(name, {tensor_label(name, name): QQ.one()})
        from sweedler.coalgebras import DgCoalgebra
        C = DgCoalgebra(_DgSpace(space), comult,
                        {n: QQ.one() for n in order}, atom=order[0])
        sp = sweedler_product(C, A, tr)
        dims.append(sp.algebra.space.dims())
    assert dims[0] == dims[1]
