import gc
import random
import weakref

import pytest

from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedMap,
                             tensor_label)
from sweedler.complexes import check_square_zero, homology, DgSpace
from sweedler.algebras import (DgAlgebra, tensor_algebra, normal_forms,
                               PresentedAlgebra, word_label, word_syms,
                               UNIT_WORD)
from sweedler.coalgebras import (DgCoalgebra, CoalgebraError,
                                 tensor_coalgebra, odd_binomial)
from sweedler.barcobar import (mc_algebra, verify_mc, mc_verify, mc_enumerate,
                               verify_twisting_cochain, bar, cobar,
                               universal_bar_cochain, universal_cobar_cochain,
                               adjunction_transforms, anticommutator_issues,
                               sign_convention_report,
                               length_sign_automorphism,
                               enumerate_twisting_cochains,
                               enumerate_pointed_algebra_maps,
                               enumerate_pointed_coalgebra_maps,
                               hopf_on_bar, hopf_on_cobar, MINUS, PLUS,
                               ConventionMismatch, NotCocommutative,
                               NotCommutative, EnumerationTooLarge,
                               algebra_map_issues, coalgebra_map_issues,
                               s_label, s_inv_label)
from sweedler.presets import load_preset
from sweedler.linalg import vaddmul, vscale


def dual_numbers(field=QQ, tr=Truncation(-1, 6, 6)):
    return load_preset("dual-numbers").build(field, tr)


def square_zero_with_d(field=QQ, tr=Truncation(-3, 3, 4)) -> DgAlgebra:
    """A = F ⊕ F·a ⊕ F·b, zero reduced products, |b| = 1, d(b) = a."""
    gens = [("a", 0), ("b", 1)]
    rels = [{word_label((g1, g2)): field.one()} for g1, _ in gens
            for g2, _ in gens]
    d_gen = {"b": {word_label(("a",)): field.one()}}
    return normal_forms(PresentedAlgebra(
        field, gens, rels, d_gen, tr,
        aug_gen={"a": field.zero(), "b": field.zero()}))


# -- the Maurer-Cartan algebra -----------------------------------------------------


def test_mc_invariants_to_weight_10():
    mc = mc_algebra(QQ, Truncation(-10, 0, 10))
    assert verify_mc(mc) == []
    alg = mc.algebra
    for n in range(11):
        d = alg.d.apply_label(word_label(("u",) * n))
        if n % 2 == 0:
            assert d == {}
        elif n < 10:
            assert d == {word_label(("u",) * (n + 1)): QQ.of(-1)}


@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_mc_constructs_at_odd_and_even_weight_caps(cap):
    # at odd caps d(u^cap) = -u^(cap+1) leaves the window; the co-Leibniz
    # check must skip u^cap instead of reporting a failure
    mc = mc_algebra(QQ, Truncation(-10, 0, cap))
    assert verify_mc(mc) == []


def test_mc_homology_is_field_in_degree_zero():
    mc = mc_algebra(QQ, Truncation(-8, 0, 8))
    h = homology(mc.algebra.dg)
    for n, e in h.items():
        if e.trusted:
            assert e.dim == (1 if n == 0 else 0)
    assert h[0].trusted


def test_mc_coproduct_uses_odd_binomials():
    mc = mc_algebra(QQ, Truncation(-6, 0, 6))
    for n in range(7):
        img = mc.comult.apply_label(word_label(("u",) * n))
        for t, coeff in img.items():
            _, left, right = t
            k = len(word_syms(left))
            assert coeff == QQ.of(odd_binomial(n, k))


def test_odd_binomials_follow_pascals_rule_with_parity_zeroing():
    # row n comes from row n-1 by Pascal's rule, and an even row has zeros
    # at its odd places; the closed form must give every row to n = 40
    row = [1]
    for n in range(41):
        if n:
            row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
            if n % 2 == 0:
                row = [0 if k % 2 else v for k, v in enumerate(row)]
        assert [odd_binomial(n, k) for k in range(n + 1)] == row
    for n, k in [(-1, 0), (3, -1), (3, 4)]:
        with pytest.raises(CoalgebraError):
            odd_binomial(n, k)


def test_mc_elements_of_mc():
    mc = mc_algebra(Field(5), Truncation(-4, 0, 4))
    sols = mc_enumerate(mc.algebra)
    # MC(mc) = {0, u}
    u = word_label(("u",))
    assert len(sols) == 2
    assert {frozenset(s.items()) for s in sols} == \
        {frozenset(), frozenset({(u, 1)})}


def test_mc_elements_square_zero_all_of_degree_minus_one():
    # square-zero A with d = 0: every degree -1 element is Maurer-Cartan
    field = Field(3)
    gens = [("n", -1)]
    rels = [{word_label(("n", "n")): field.one()}]
    A = normal_forms(PresentedAlgebra(field, gens, rels, {},
                                      Truncation(-3, 3, 3),
                                      aug_gen={"n": field.zero()}))
    sols = mc_enumerate(A)
    assert len(sols) == 3


def test_mc_enumeration_too_large():
    mc = mc_algebra(Field(97), Truncation(-4, 0, 4))
    with pytest.raises(EnumerationTooLarge):
        mc_enumerate(mc.algebra, limit=10)


def test_mc_verify_over_Q():
    mc = mc_algebra(QQ, Truncation(-4, 0, 4))
    u = word_label(("u",))
    assert not mc_verify(mc.algebra, {u: QQ.one()})
    assert not mc_verify(mc.algebra, {})
    assert mc_verify(mc.algebra, {u: QQ.of(2)})


# -- twisting cochains ----------------------------------------------------------------


def test_zero_cochain_is_twisting():
    C = load_preset("primitive-coalgebra:1").build(QQ, Truncation(-3, 3, 3))
    A = dual_numbers(tr=Truncation(-3, 3, 3))
    alpha = GradedMap(C.space, A.space, -1)
    assert verify_twisting_cochain(alpha, C, A, pointed=True).passed


def test_universal_bar_cochain_and_convention_flip():
    tr = Truncation(-6, 6, 6)
    A = load_preset("free-algebra:x=1").build(QQ, tr)
    b = bar(A, tr)
    beta = universal_bar_cochain(b)
    assert verify_twisting_cochain(beta, b.coalgebra, A, pointed=True).passed
    b_plus = bar(A, tr, PLUS)
    rep = verify_twisting_cochain(beta, b_plus.coalgebra, A, pointed=True)
    assert not rep.passed          # the length-2 witness of the n=2 case
    assert any("⊗" in f for f in rep.failures)
    assert verify_twisting_cochain(beta.neg(), b_plus.coalgebra, A,
                                   pointed=True).passed
    with pytest.raises(ConventionMismatch):
        universal_bar_cochain(b_plus)


def test_universal_cobar_cochain():
    tr = Truncation(-4, 4, 4)
    C = load_preset("diagonal-coalgebra:2").build(QQ, tr)
    cb = cobar(C, tr)
    omega = universal_cobar_cochain(cb)
    assert verify_twisting_cochain(omega, C, cb.algebra, pointed=True).passed
    cb_minus = cobar(C, tr, MINUS)
    with pytest.raises(ConventionMismatch):
        universal_cobar_cochain(cb_minus)
    assert verify_twisting_cochain(omega.neg(), C, cb_minus.algebra,
                                   pointed=True).passed


# -- bar construction against the explicit formulas -------------------------------------


def explicit_bar_d_int(b, A, w):
    """d^int(sa₁⊗…⊗saₙ) = Σ ±sa₁⊗…⊗s(da_i)⊗…⊗saₙ, sign (-1)^{i+|a1..i-1|}."""
    syms = word_syms(w)
    out = {}
    for i, s in enumerate(syms, start=1):
        a = s[2]
        prefix = sum(A.space.degree_of(t[2]) for t in syms[:i - 1])
        sign = QQ.sign(i + prefix)
        for a2, c in A.d.apply_label(a).items():
            new = word_label(syms[:i - 1] + (s_label(a2),) + syms[i:])
            if new in b.coalgebra.space:
                out = vaddmul(QQ, out, QQ.mul(sign, c), {new: QQ.one()})
    return out


def explicit_bar_d_ext(b, A, w):
    """d^ext(sa₁⊗…⊗saₙ) = Σ ±sa₁⊗…⊗s(a_ia_{i+1})⊗…, sign (-1)^{i-1+|a1..i|}."""
    syms = word_syms(w)
    out = {}
    reduced = set(A.reduced_basis())
    for i in range(1, len(syms)):
        a, a2 = syms[i - 1][2], syms[i][2]
        prefix = sum(A.space.degree_of(t[2]) for t in syms[:i])
        sign = QQ.sign((i - 1) + prefix)
        for m, c in A._pair(a, a2).items():
            if m not in reduced:
                continue
            new = word_label(syms[:i - 1] + (s_label(m),) + syms[i + 1:])
            if new in b.coalgebra.space:
                out = vaddmul(QQ, out, QQ.mul(sign, c), {new: QQ.one()})
    return out


def test_bar_differentials_match_explicit_formulas():
    tr = Truncation(-3, 6, 4)
    for A in (dual_numbers(tr=tr), square_zero_with_d(tr=tr),
              load_preset("free-algebra:x=1").build(QQ, tr)):
        b = bar(A, tr)
        for w in b.coalgebra.space.labels():
            assert b.d_int.apply_label(w) == explicit_bar_d_int(b, A, w)
            assert b.d_ext.apply_label(w) == explicit_bar_d_ext(b, A, w)
            total = vaddmul(QQ, b.d_int.apply_label(w), QQ.of(-1),
                            b.d_ext.apply_label(w))
            assert b.coalgebra.d.apply_label(w) == total


def test_bar_d_ext_example_sign():
    # d^ext(sa⊗sb) = (-1)^{|a|} s(ab)
    tr = Truncation(-1, 8, 4)
    A = load_preset("free-algebra:x=1").build(QQ, tr)
    b = bar(A, tr)
    x = word_label(("x",))
    xx = word_label(("x", "x"))
    w = word_label((s_label(x), s_label(x)))
    assert b.d_ext.apply_label(w) == {word_label((s_label(xx),)): QQ.of(-1)}


def test_bar_of_field_is_field():
    tr = Truncation(-2, 2, 3)
    F = tensor_algebra(QQ, [], tr, augmented=True)
    b = bar(F, tr)
    assert b.coalgebra.space.dims() == {0: 1}


def test_bar_of_dual_numbers_homology():
    tr = Truncation(-1, 6, 6)
    A = dual_numbers(tr=tr)
    b = bar(A, tr)
    assert check_square_zero(b.coalgebra.dg).passed
    h = homology(b.coalgebra.dg)
    assert {n: e.dim for n, e in h.items()} == {n: 1 for n in range(7)}


def random_pointed_dg_algebra(rng, field, tr, idx) -> DgAlgebra:
    """Random square-zero pointed dg-algebras (dims ≤ 4 per degree)."""
    gens = []
    pairs = []
    k = rng.randint(2, 4)
    for i in range(k):
        deg = rng.randint(-1, 2)
        gens.append((f"r{idx}_{i}", deg))
        if rng.random() < 0.6:
            gens.append((f"s{idx}_{i}", deg - 1))
            pairs.append((f"r{idx}_{i}", f"s{idx}_{i}",
                          field.of(rng.choice([1, -1, 2]))))
    rels = [{word_label((g1, g2)): field.one()} for g1, _ in gens
            for g2, _ in gens]
    d_gen = {a: {word_label((b,)): c} for a, b, c in pairs}
    return normal_forms(PresentedAlgebra(
        field, gens, rels, d_gen, tr,
        aug_gen={g: field.zero() for g, _ in gens}))


def test_bar_square_zero_on_five_random_dg_algebras():
    rng = random.Random(42)
    tr = Truncation(-4, 6, 4)
    for k in range(5):
        A = random_pointed_dg_algebra(rng, QQ, tr, k)
        assert A.verify() == []
        b = bar(A, tr)
        assert check_square_zero(b.coalgebra.dg).passed
        assert anticommutator_issues(b.d_int, b.d_ext,
                                     b.coalgebra.space) == []
        # each summand squares to zero separately
        assert check_square_zero(
            DgSpace(b.coalgebra.space, b.d_int)).passed
        assert check_square_zero(
            DgSpace(b.coalgebra.space, b.d_ext)).passed


# -- cobar construction ------------------------------------------------------------------


def random_pointed_dg_coalgebra(rng, field, tr, idx) -> DgCoalgebra:
    """Random pointed coalgebras: primitive part with a square-zero d."""
    space = GradedSpace(field, tr)
    space.add(f"e{idx}", 0)
    k = rng.randint(2, 4)
    pairs = []
    names = []
    for i in range(k):
        deg = rng.randint(-1, 2)
        names.append((f"c{idx}_{i}", deg))
        if rng.random() < 0.5:
            names.append((f"z{idx}_{i}", deg - 1))
            pairs.append((f"c{idx}_{i}", f"z{idx}_{i}",
                          field.of(rng.choice([1, -1]))))
    for nm, deg in names:
        space.add(nm, deg)
    from sweedler.graded import tensor_space
    TT = tensor_space(space, space)
    comult = GradedMap(space, TT, 0)
    e = f"e{idx}"
    comult.set(e, {tensor_label(e, e): field.one()})
    for nm, _ in names:
        comult.set(nm, {tensor_label(nm, e): field.one(),
                        tensor_label(e, nm): field.one()})
    counit = {e: field.one()}
    d = GradedMap(space, space, -1)
    for a, b, c in pairs:
        d.set(a, {b: c})
    return DgCoalgebra(DgSpace(space, d), comult, counit, atom=e)


def test_cobar_square_zero_on_five_random_dg_coalgebras():
    rng = random.Random(43)
    tr = Truncation(-6, 6, 4)
    for k in range(5):
        C = random_pointed_dg_coalgebra(rng, QQ, tr, k)
        assert C.verify() == []
        cb = cobar(C, tr)
        assert check_square_zero(cb.algebra.dg).passed
        assert anticommutator_issues(cb.d_int, cb.d_ext,
                                     cb.algebra.space) == []
        assert check_square_zero(
            DgSpace(cb.algebra.space, cb.d_int, d_raises=1)).passed
        assert check_square_zero(
            DgSpace(cb.algebra.space, cb.d_ext, d_raises=1)).passed


def test_cobar_of_trivial_coalgebra_is_field():
    tr = Truncation(-2, 2, 3)
    C = load_preset("diagonal-coalgebra:1").build(QQ, tr)
    cb = cobar(C, tr)
    assert cb.algebra.space.dims() == {0: 1}


def test_cobar_of_primitive_has_zero_differential():
    tr = Truncation(-2, 4, 4)
    C = load_preset("primitive-coalgebra:1").build(QQ, tr)
    cb = cobar(C, tr)
    assert cb.algebra.d.is_zero()
    assert cb.algebra.space.dims() == {0: 5}


def test_cobar_diagonal_differential_formula():
    # Δ₋(c) = c⊗c: d(s⁻¹c) = -(s⁻¹c)(s⁻¹c)(-1)^{|c|} with |c| = 0
    tr = Truncation(-4, 4, 4)
    C = load_preset("diagonal-coalgebra:2").build(QQ, tr)
    cb = cobar(C, tr)
    g = word_label((s_inv_label("e2"),))
    want = {word_label((s_inv_label("e2"), s_inv_label("e2"))): QQ.of(-1)}
    assert cb.algebra.d.apply_label(g) == want


# -- adjunction transforms ------------------------------------------------------------------


def test_adjunction_zero_cochain_collapse():
    tr = Truncation(-3, 3, 3)
    C = load_preset("primitive-coalgebra:1").build(QQ, tr)
    A = dual_numbers(tr=tr)
    alpha = GradedMap(C.space, A.space, -1)
    b = bar(A, tr)
    cb = cobar(C, tr)
    res = adjunction_transforms(alpha, C, A, b, cb)
    assert res.issues == []
    # g collapses everything but the unit; f collapses to the coaugmentation
    assert res.to_algebra.apply_label(UNIT_WORD) == dict(A.unit)
    for w in cb.algebra.space.labels():
        if w != UNIT_WORD:
            assert res.to_algebra.apply_label(w) == {}
    for x in C.space.labels():
        want = {UNIT_WORD: C.counit.get(x, QQ.zero())}
        want = {k: v for k, v in want.items() if v}
        assert res.to_coalgebra.apply_label(x) == want


def test_adjunction_omega_gives_identity():
    # α = ω: the induced algebra map ΩC → ΩC is the identity
    tr = Truncation(-4, 4, 4)
    C = load_preset("primitive-coalgebra:1").build(QQ, tr)
    cb = cobar(C, tr)
    omega = universal_cobar_cochain(cb)
    b = bar(cb.algebra, tr)
    res = adjunction_transforms(omega, C, cb.algebra, b, cb)
    assert res.issues == []
    from sweedler.graded import identity_map
    assert res.to_algebra.equals(identity_map(cb.algebra.space))


def test_adjunction_nonzero_cochain():
    tr = Truncation(-3, 3, 4)
    C = load_preset("primitive-coalgebra:1").build(QQ, tr)
    A = dual_numbers(tr=tr)
    alpha = GradedMap(C.space, A.space, -1)
    alpha.set("delta", {word_label(("eps",)): QQ.one()})
    assert verify_twisting_cochain(alpha, C, A, pointed=True).passed
    b = bar(A, tr)
    cb = cobar(C, tr)
    res = adjunction_transforms(alpha, C, A, b, cb)
    assert res.issues == []


def test_classical_adjunction_desk_scale_F2():
    """Exhaustive over F2: |Tw| = |dgAlg(ΩC,A)| = |dgCoalg(C,BA)| and the
    transforms are inverse bijections, for two (C, A) pairs with both zero
    and nonzero differentials/coproducts."""
    F2 = Field(2)
    tr = Truncation(-3, 3, 4)
    pairs = []
    C1 = load_preset("primitive-coalgebra:1").build(F2, tr)
    A1 = load_preset("dual-numbers").build(F2, tr)
    pairs.append((C1, A1))
    C2 = tensor_coalgebra(F2, [("x", 1)], Truncation(-3, 3, 2))
    A2 = square_zero_with_d(field=F2, tr=tr)
    pairs.append((C2, A2))
    for C, A in pairs:
        tws = enumerate_twisting_cochains(C, A, pointed=True)
        b = bar(A, tr)
        cb = cobar(C, tr)
        gs = enumerate_pointed_algebra_maps(cb, A)
        fs = enumerate_pointed_coalgebra_maps(C, b)
        assert len(tws) == len(gs) == len(fs)
        assert len(tws) >= 2
        seen_g, seen_f = set(), set()
        for alpha in tws:
            res = adjunction_transforms(alpha, C, A, b, cb)
            assert res.issues == []
            seen_g.add(_map_key(res.to_algebra))
            seen_f.add(_map_key(res.to_coalgebra))
        # transforms are injective into the enumerated sets
        assert seen_g == {_map_key(g) for g in gs}
        assert seen_f == {_map_key(f) for f in fs}


def _map_key(f: GradedMap):
    return frozenset((k, frozenset(v.items())) for k, v in f.columns.items()
                     if v)


# -- sign conventions -------------------------------------------------------------------


def test_pi_conjugates_bar_conventions():
    tr = Truncation(-3, 6, 4)
    A = square_zero_with_d(tr=tr)
    b_minus = bar(A, tr, MINUS)
    b_plus = bar(A, tr, PLUS)
    assert sign_convention_report(b_minus.d_int, b_minus.d_ext,
                                  b_minus.coalgebra.dg) == []
    # π is a dg-coalgebra isomorphism (BA, d⁻) → (BA, d⁺)
    pi = length_sign_automorphism(b_minus.coalgebra.space)
    assert coalgebra_map_issues(pi, b_minus.coalgebra,
                                b_plus.coalgebra) == []
    # π is an involution, hence its own inverse
    from sweedler.graded import identity_map
    assert pi.compose(pi).equals(identity_map(b_minus.coalgebra.space))


def test_pi_conjugates_cobar_conventions():
    tr = Truncation(-4, 4, 4)
    C = load_preset("diagonal-coalgebra:2").build(QQ, tr)
    cb_plus = cobar(C, tr, PLUS)
    cb_minus = cobar(C, tr, MINUS)
    assert sign_convention_report(cb_plus.d_int, cb_plus.d_ext,
                                  cb_plus.algebra.dg) == []
    # π is a dg-algebra isomorphism (ΩC, d⁻) → (ΩC, d⁺)
    pi = length_sign_automorphism(cb_plus.algebra.space)
    assert algebra_map_issues(pi, cb_minus.algebra, cb_plus.algebra) == []


def test_pi_on_zero_differential_input():
    tr = Truncation(-1, 6, 4)
    A = dual_numbers(tr=tr)
    b = bar(A, tr)
    assert sign_convention_report(b.d_int, b.d_ext, b.coalgebra.dg) == []


# -- Hopf structures -------------------------------------------------------------------


def test_hopf_on_cobar_primitive():
    tr = Truncation(-4, 4, 4)
    C = load_preset("primitive-coalgebra:1").build(QQ, tr)
    cb = cobar(C, tr)
    comult, issues = hopf_on_cobar(cb)
    assert issues == []
    g = word_label((s_inv_label("delta"),))
    one = QQ.one()
    assert comult.apply_label(g) == {
        tensor_label(g, UNIT_WORD): one,
        tensor_label(UNIT_WORD, g): one}


def test_hopf_on_cobar_keeps_the_trust_flags_of_its_input(monkeypatch):
    # Δ of Ω C leaves the window 1..6 (the empty word lies below it); the
    # degrees it leaves are not marked on Ω C's space but handed to the
    # coalgebra that verifies Δ
    seen = []
    check = DgCoalgebra.verify

    def verify(co, *args, **kwargs):
        seen.append(co.leaves)
        return check(co, *args, **kwargs)

    monkeypatch.setattr(DgCoalgebra, "verify", verify)
    C = load_preset("primitive-coalgebra:3").build(QQ, Truncation(-1, 4, 3))
    cb = cobar(C, Truncation(1, 6, 3))
    space = cb.algebra.space

    def flags():
        return space.inexact_degrees(), {
            n: (h.dim, h.trusted) for n, h in homology(cb.algebra.dg).items()}

    before = flags()
    assert before[0] == set() and before[1][2][1] and before[1][4][1]
    hopf_on_cobar(cb)
    assert flags() == before
    assert seen == [{2, 4, 6}]


def test_hopf_on_cobar_skips_the_axioms_of_a_missing_empty_word():
    # Ω C at 1..6 holds no empty word: the counit laws, the atom axioms and
    # Δ's multiplicativity all need it, so they are skipped, not failed
    C = load_preset("primitive-coalgebra:3").build(QQ, Truncation(-1, 4, 3))
    cb = cobar(C, Truncation(1, 6, 3))
    assert UNIT_WORD not in cb.algebra.space
    assert hopf_on_cobar(cb)[1] == []
    # where the window holds it, a wrong counit still fails
    cb = cobar(C, Truncation(-1, 6, 3))
    comult, issues = hopf_on_cobar(cb)
    assert issues == []
    co = DgCoalgebra(DgSpace(cb.algebra.space, cb.algebra.d), comult,
                     {UNIT_WORD: QQ.of(2)}, atom=UNIT_WORD)
    issues = co.verify(check_d_squared=False)
    assert "counit law fails at 1" in issues
    assert "counit of atom is not 1" in issues


def test_hopf_on_bar_commutative():
    tr = Truncation(-1, 4, 4)
    A = dual_numbers(tr=tr)
    b = bar(A, tr)
    mu, issues = hopf_on_bar(b)
    assert issues == []


def test_hopf_rejections():
    tr = Truncation(-4, 4, 3)
    C = tensor_coalgebra(QQ, [("x", 1), ("y", 1)], tr)
    cb = cobar(C, tr)
    with pytest.raises(NotCocommutative):
        hopf_on_cobar(cb)
    A = load_preset("free-algebra:x=1,y=1").build(QQ, Truncation(-1, 4, 2))
    b = bar(A, Truncation(-1, 4, 2))
    with pytest.raises(NotCommutative):
        hopf_on_bar(b)


def test_corrupted_bar_sign_fails_square_zero_with_witness():
    # corrupt the sign of the external part on length-2 words: the
    # cancellation in d² needs the convention to be uniform, so the check
    # fails with a located length-3 witness
    tr = Truncation(-1, 6, 4)
    gens = [("x", 1)]
    rels = [{word_label(("x",) * 4): QQ.one()}]
    A = normal_forms(PresentedAlgebra(QQ, gens, rels, {}, tr,
                                      aug_gen={"x": QQ.zero()}))
    b = bar(A, tr)
    space = b.coalgebra.space
    assert check_square_zero(b.coalgebra.dg).passed
    # negate the differential on the single word s(x²)⊗s(x): the d²
    # cancellation at s(x)⊗s(x)⊗s(x) needs both length-2 columns aligned
    bad = GradedMap(space, space, -1)
    for lab in space.labels():
        bad.set(lab, b.coalgebra.d.apply_label(lab))
    target = word_label((s_label(word_label(("x", "x"))),
                         s_label(word_label(("x",)))))
    bad.set(target, vscale(QQ, QQ.of(-1),
                           b.coalgebra.d.apply_label(target)))
    rep = check_square_zero(DgSpace(space, bad))
    assert not rep.passed
    witness_label, residue = rep.witnesses[0]
    assert len(word_syms(witness_label)) == 3


def test_negated_beta_fails_under_minus_convention():
    # the length-2 witness of the Appendix-A n=2 computation
    tr = Truncation(-1, 6, 6)
    A = load_preset("free-algebra:x=1").build(QQ, tr)
    b = bar(A, tr, MINUS)
    beta = universal_bar_cochain(b)
    rep = verify_twisting_cochain(beta.neg(), b.coalgebra, A, pointed=True)
    assert not rep.passed
    assert any("⊗" in f for f in rep.failures)


def test_adjunction_under_conjugate_convention_pair():
    # bar with + and cobar with -: transforms still produce dg maps and
    # identity roundtrips (the universal cochains are negated, which the
    # transforms absorb)
    tr = Truncation(-3, 3, 4)
    C = load_preset("primitive-coalgebra:1").build(QQ, tr)
    A = load_preset("dual-numbers").build(QQ, tr)
    alpha = GradedMap(C.space, A.space, -1)
    alpha.set("delta", {word_label(("eps",)): QQ.one()})
    b = bar(A, tr, PLUS)
    cb = cobar(C, tr, MINUS)
    res = adjunction_transforms(alpha, C, A, b, cb)
    assert res.issues == []


def test_built_algebras_are_freed_without_the_cyclic_gc():
    # a product closure that refers back to its algebra would keep T(X),
    # every quotient and Ω C alive until the cyclic collector runs
    tr = Truncation(-6, 6, 6)

    def tensor():
        return tensor_algebra(QQ, [("x", 1), ("y", 3)], tr,
                              d_gen={"y": {word_label(("x", "x")): QQ.one()}})

    def quotient():
        return load_preset("dual-numbers").build(QQ, tr)

    def omega():
        C = load_preset("diagonal-coalgebra:2").build(QQ, tr)
        return cobar(C, tr).algebra

    gc.collect()
    gc.disable()
    try:
        for build in (tensor, quotient, omega):
            alg = build()
            alg.product({UNIT_WORD: QQ.one()}, {UNIT_WORD: QQ.one()})
            space = weakref.ref(alg.space)
            del alg
            assert space() is None, build.__name__
    finally:
        gc.enable()
