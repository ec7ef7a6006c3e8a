"""Each rule with one owner, against the copies it replaced, key order included.

The references below are the earlier implementations, kept as they were:
`d_reliable`, `d2_checkable` and the two skip loops of
`sign_convention_report` and `algebra_map_issues` (now
`DgSpace.d_checkable`), `convolution_square` and the antipode loop of
`verify_mc` (now `sweedler_ops.convolve`), `_reduce_word` (now
`DgAlgebra.product`) and the hand-built Fδ₊ (now the `primitive-coalgebra`
preset).  Inputs are random over ℚ, 𝔽2 and 𝔽5.
"""

import random

import pytest

from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedMap, GradedError,
                             tensor_space, tensor_label, hom_label,
                             identity_map, label_str)
from sweedler.complexes import DgSpace, dg_tensor, homology
from sweedler.algebras import (DgAlgebra, tensor_algebra, word_label,
                               word_syms, UNIT_WORD)
from sweedler.coalgebras import DgCoalgebra, tensor_coalgebra
from sweedler.sweedler_ops import (convolve, convolution_algebra,
                                   sweedler_product, primitive_coalgebra)
from sweedler.barcobar import (MaurerCartanAlgebra, mc_algebra, verify_mc,
                               bialgebra_compat_issues, TwistingCochainReport,
                               verify_twisting_cochain, bar, cobar,
                               universal_bar_cochain, cochain_to_algebra_map,
                               algebra_map_issues, sign_convention_report,
                               length_sign_automorphism)
from sweedler.presets import load_preset
from sweedler.linalg import vaddmul, vscale

FIELDS = (QQ, Field(2), Field(5))
TR = Truncation(-3, 3, 3)


def columns(f: GradedMap) -> list:
    return [(k, list(v.items())) for k, v in f.columns.items()]


def presets(field, names, tr=TR):
    return [load_preset(name).build(field, tr) for name in names]


def coalgebras(field):
    return presets(field, ["primitive-coalgebra:0", "primitive-coalgebra:1",
                           "diagonal-coalgebra:2"]) \
        + [tensor_coalgebra(field, [("x", 1)], TR)]


def algebras(field):
    one = field.one()
    d_gen = {"c": {word_label(("a",)): one, word_label(("b",)): one}}
    return presets(field, ["dual-numbers", "free-algebra:x=-1"]) \
        + [tensor_algebra(field, [("a", -1), ("b", -1), ("c", 0)],
                          Truncation(-3, 3, 2), d_gen=d_gen, augmented=True)]


def random_map(rng, field, C, A, degree):
    """A random graded map C → A of this degree; the atom maps to 0."""
    f = GradedMap(C.space, A.space, degree)
    for c in C.space.labels():
        if c == C.atom:
            continue
        targets = A.space.basis(C.space.degree_of(c) + degree)
        vec = {a: field.of(rng.randint(-2, 2))
               for a in rng.sample(targets, min(len(targets), 2))}
        f.set(c, vec)
    return f


# -- the d-window rule -----------------------------------------------------------------


def ref_d_reliable(X, degree):
    if X.space.dim(degree) == 0:
        return True
    if degree - 1 < X.window.degree_min:
        return False
    if X.d_raises:
        cap = X.window.weight_cap
        for label in X.space.basis(degree):
            w = X.space.weight_of(label)
            if w is not None and w + X.d_raises > cap:
                return False
    return True


def ref_d2_checkable(X, degree):
    if degree - 2 < X.window.degree_min:
        return []
    basis = X.space.basis(degree)
    if not X.d_raises:
        return basis
    top = X.window.weight_cap - 2 * X.d_raises
    weight = X.space.weight_of
    return [label for label in basis
            if (w := weight(label)) is None or w <= top]


def ref_sign_convention_report(d_int, d_ext, dg):
    space = dg.space
    field = space.field
    pi = length_sign_automorphism(space)
    plus = d_int.add(d_ext)
    minus = d_int.add(d_ext.scale(field.of(-1)))
    out = []
    cap = space.window.weight_cap
    for lab in space.labels():
        w = space.weight_of(lab)
        if w is not None and w + dg.d_raises > cap:
            continue
        if space.degree_of(lab) - 1 < space.window.degree_min:
            continue
        lhs = pi(plus(pi.apply_label(lab)))
        rhs = minus.apply_label(lab)
        if lhs != rhs:
            out.append(lab)
    return out


def ref_algebra_map_issues(g, source, target):
    issues = []
    if source.unit is not None and g(source.unit) != target.unit:
        issues.append("g(1) ≠ 1")
    cap = source.space.window.weight_cap
    for a in source.space.labels():
        for b in source.space.labels():
            wa = source.space.weight_of(a)
            wb = source.space.weight_of(b)
            if wa is not None and wb is not None and wa + wb > cap:
                continue
            lhs = g(source._pair(a, b))
            rhs = target.product(g.apply_label(a), g.apply_label(b))
            if lhs != rhs:
                issues.append(
                    f"g not multiplicative at ({label_str(a)},{label_str(b)})")
                return issues
    for a in source.space.labels():
        wa = source.space.weight_of(a)
        if wa is not None and wa + source.dg.d_raises > cap:
            continue
        if source.space.degree_of(a) - 1 < source.space.window.degree_min:
            continue
        if g(source.d.apply_label(a)) != target.d(g.apply_label(a)):
            issues.append(f"g not a chain map at {label_str(a)}")
            return issues
    return issues


def with_raise(dg, d_raises):
    return DgSpace(dg.space, dg.d, d_raises=d_raises)


def window_complexes(field):
    """bar and cobar (d raises length by 1), the inputs themselves and a
    tensor square (d keeps length), each also read with d_raises 0 to 2."""
    tr = Truncation(-2, 4, 3)
    out = []
    for A in algebras(field):
        out += [bar(A, tr).coalgebra.dg, A.dg]
    for C in coalgebras(field):
        out += [cobar(C, tr).algebra.dg, C.dg]
    A = algebras(field)[2]
    out.append(dg_tensor(A.dg, A.dg))      # weights up to twice the cap
    return [with_raise(X, k) for X in out for k in (0, 1, 2)]


def test_d_checkable_matches_d_reliable_and_d2_checkable():
    unreliable = partial = 0
    for field in FIELDS:
        for X in window_complexes(field):
            w = X.window
            for n in range(w.degree_min - 1, w.degree_max + 2):
                reliable = X.d_reliable(n)
                assert reliable == ref_d_reliable(X, n)
                assert X.d_checkable(n, times=2) == ref_d2_checkable(X, n)
                unreliable += not reliable
                partial += 0 < len(X.d_checkable(n)) < X.space.dim(n)
            trust = {n: e.trusted for n, e in homology(X, check=False).items()}
            assert trust == {n: X.space.is_exact(n) and X.space.is_exact(n + 1)
                             and ref_d_reliable(X, n)
                             and ref_d_reliable(X, n + 1)
                             for n in X.space.degrees()}
    assert unreliable > 50 and partial > 20


def test_sign_convention_report_matches_skip_loop():
    tr = Truncation(-2, 4, 3)
    witnesses = 0
    for field in FIELDS:
        splits = [(b, b.coalgebra.dg) for b in
                  (bar(A, tr) for A in algebras(field))]
        splits += [(c, c.algebra.dg) for c in
                   (cobar(C, tr) for C in coalgebras(field))]
        for s, dg in splits:
            for k in (0, 1, 2):
                X = with_raise(dg, k)
                # (d_int, d_ext) passes; swapped, it fails wherever both act
                for d1, d2 in ((s.d_int, s.d_ext), (s.d_ext, s.d_int)):
                    new = sign_convention_report(d1, d2, X)
                    assert new == ref_sign_convention_report(d1, d2, X)
                    witnesses = max(witnesses, len(new))
    assert witnesses >= 3


def test_algebra_map_issues_matches_skip_loop():
    rng = random.Random(14)
    tr = Truncation(-3, 3, 3)
    seen = {}
    for field in FIELDS:
        for C in coalgebras(field):
            cob = cobar(C, tr)
            for A in algebras(field):
                for trial in range(3):
                    alpha = random_map(rng, field, C, A, -1)
                    g = cochain_to_algebra_map(alpha, cob, A)
                    for k in (0, 1, 2):
                        src = cob.algebra
                        src = DgAlgebra(with_raise(src.dg, k), src._pair,
                                        src.unit, src.aug)
                        new = algebra_map_issues(g, src, A)
                        assert new == ref_algebra_map_issues(g, src, A)
                        key = new[0].split(" at ")[0] if new else "pass"
                        seen[key] = seen.get(key, 0) + 1
    assert seen.get("g not a chain map", 0) > 20 and seen.get("pass", 0) > 5


# -- convolution ----------------------------------------------------------------------


def ref_convolution_square(alpha, C, A):
    field = alpha.field
    out = GradedMap(C.space, A.space, 2 * alpha.degree)
    for c in C.space.labels():
        val: dict = {}
        for t, coeff in C.comult.apply_label(c).items():
            _, c1, c2 = t
            sign = field.sign(alpha.degree * C.space.degree_of(c1))
            val = vaddmul(field, val, field.mul(coeff, sign),
                          A.product(alpha.apply_label(c1),
                                    alpha.apply_label(c2)))
        out.set(c, A.space.project(val))
    return out


def ref_verify_twisting_cochain(alpha, C, A, pointed=False):
    report = TwistingCochainReport(alpha, pointed)
    if alpha.degree != -1:
        report.failures.append(f"degree {alpha.degree} ≠ -1")
        return report
    field = alpha.field
    square = ref_convolution_square(alpha, C, A)
    for c in C.space.labels():
        residue = A.d(alpha.apply_label(c))
        residue = vaddmul(field, residue, field.one(),
                          alpha(C.d.apply_label(c)))
        residue = vaddmul(field, residue, field.one(), square.apply_label(c))
        report.checked += 1
        if residue:
            report.failures.append(
                f"MC residue at {label_str(c)}: {A.space.render(residue)}")
    if pointed:
        if C.atom is None or A.aug is None:
            report.failures.append("pointed check needs pointed (co)algebras")
            return report
        if alpha.apply_label(C.atom):
            report.failures.append("α(e_C) ≠ 0")
        for c in C.space.labels():
            v = A.augmentation(alpha.apply_label(c))
            if not field.is_zero(v):
                report.failures.append(f"ε_A α ≠ 0 at {label_str(c)}")
                break
    return report


def test_convolve_matches_convolution_square():
    rng = random.Random(7)
    tr = Truncation(-3, 3, 3)
    passed = failed = longest = 0
    for field in FIELDS:
        cases = [(C, A, random_map(rng, field, C, A, -1))
                 for C in coalgebras(field) for A in algebras(field)
                 for _ in range(2)]
        for A in algebras(field):       # β: B A → A passes
            b = bar(A, tr)
            cases.append((b.coalgebra, A, universal_bar_cochain(b)))
        for C, A, alpha in cases:
            square = convolve(alpha, alpha, C, A)
            assert columns(square) == columns(
                ref_convolution_square(alpha, C, A))
            longest = max([longest, *map(len, square.columns.values())])
            for pointed in (False, True):
                new = verify_twisting_cochain(alpha, C, A, pointed=pointed)
                ref = ref_verify_twisting_cochain(alpha, C, A, pointed)
                assert (new.failures, new.checked) \
                    == (ref.failures, ref.checked)
                assert new.first_failure() == (ref.failures[0]
                                               if ref.failures else "")
                passed += new.passed
                failed += not new.passed
    assert passed >= 9 and failed >= 20 and longest >= 2


def test_convolve_is_the_product_of_the_convolution_algebra():
    """On elementary maps [c↦a], convolve is [C,A]'s product, also when
    the two factors have different degrees."""
    for field in FIELDS:
        for C in coalgebras(field)[:3]:
            for A in algebras(field)[:2]:
                conv = convolution_algebra(C, A)
                labels = conv.space.labels()
                for fl in labels:
                    for gl in labels:
                        f, g = (GradedMap(C.space, A.space,
                                          conv.space.degree_of(h),
                                          {h[1]: {h[2]: field.one()}})
                                for h in (fl, gl))
                        fg = convolve(f, g, C, A)
                        vec = {hom_label(c, a): v
                               for c, col in fg.columns.items()
                               for a, v in col.items()}
                        assert conv.space.project(vec) \
                            == conv._pair(fl, gl)


def ref_verify_mc(mc):
    alg, field = mc.algebra, mc.algebra.field
    space = alg.space
    issues = []
    u = word_label(("u",))
    du = alg.d.apply_label(u)
    uu = alg.product({u: field.one()}, {u: field.one()})
    if vaddmul(field, du, field.one(), uu):
        issues.append("du + u² ≠ 0")
    for lab in space.labels():
        n = len(word_syms(lab))
        d = alg.d.apply_label(lab)
        if n % 2 == 0:
            if d:
                issues.append(f"d(u^{n}) ≠ 0")
        elif n + 1 <= space.window.weight_cap:
            want = {word_label(("u",) * (n + 1)): field.of(-1)}
            if d != space.project(want):
                issues.append(f"d(u^{n}) ≠ -u^{n + 1}")
    co = DgCoalgebra(alg.dg, mc.comult, mc.counit, atom=UNIT_WORD, name="mc")
    issues.extend(co.verify())
    issues.extend(bialgebra_compat_issues(alg, mc.comult, mc.counit))
    cap = space.window.weight_cap
    for lab in space.labels():
        if len(word_syms(lab)) > cap - 1:
            continue
        left: dict = {}
        right: dict = {}
        for t, c in mc.comult.apply_label(lab).items():
            _, a, b = t
            left = vaddmul(field, left, c,
                           alg.product(mc.antipode.apply_label(a),
                                       {b: field.one()}))
            right = vaddmul(field, right, c,
                            alg.product({a: field.one()},
                                        mc.antipode.apply_label(b)))
        want = vscale(field, mc.counit.get(lab, field.zero()), alg.unit)
        if left != want or right != want:
            issues.append(f"antipode identity fails at {label_str(lab)}")
            break
    return issues


def antipodes(rng, mc):
    """The antipode, the identity, and the antipode with one word's sign
    flipped (the top word's flip is outside the checked words)."""
    space, field = mc.space, mc.algebra.field
    words = space.labels()
    out = [mc.antipode, identity_map(space)]
    for w in [words[-1], *rng.sample(words, 3)]:
        S = GradedMap(space, space, 0, dict(mc.antipode.columns))
        S.set(w, vscale(field, field.of(-1), mc.antipode.apply_label(w)))
        out.append(S)
    return out


def test_verify_mc_antipode_matches_reference_loop():
    rng = random.Random(3)
    failing = 0
    for field in FIELDS:
        for tr in (Truncation(-4, 0, 4), Truncation(-6, 0, 5),
                   Truncation(-3, 0, 6), Truncation(-6, 2, 6)):
            mc = mc_algebra(field, tr)
            for S in antipodes(rng, mc):
                m = MaurerCartanAlgebra(mc.algebra, mc.comult, mc.counit, S)
                new = verify_mc(m)
                assert new == ref_verify_mc(m)
                failing += any("antipode" in s for s in new)
    assert failing >= 20


# -- word reduction -------------------------------------------------------------------


def ref_reduce_word(alg, w):
    if w in alg.space:
        return {w: alg.field.one()}
    syms = word_syms(w)
    vec = {UNIT_WORD: alg.field.one()}
    for s in syms:
        vec = alg.product(vec, {word_label((s,)): alg.field.one()})
    return vec


def test_universal_measuring_matches_reduce_word():
    reduced = 0
    for field in FIELDS:
        mc = mc_algebra(field, Truncation(-2, 0, 4))
        tr = Truncation(-2, 2, 4)
        cases = [(presets(field, ["primitive-coalgebra:1"], tr)[0],
                  mc.algebra, True),
                 (presets(field, ["diagonal-coalgebra:2"], tr)[0],
                  presets(field, ["dual-numbers"], tr)[0], False),
                 (presets(field, ["primitive-coalgebra:0"], tr)[0],
                  tensor_algebra(field, [("x", 1)], tr), False)]
        for C, A, pointed in cases:
            sp = sweedler_product(C, A, tr, pointed=pointed)
            alg = sp.algebra
            ref = GradedMap(sp.measuring.source, alg.space, 0)
            for lab in sp.measuring.source.labels():
                w = word_label((("rh", lab[1], lab[2]),))
                ref.set(lab, alg.space.project(ref_reduce_word(alg, w)))
                reduced += w not in alg.space
            assert columns(sp.measuring) == columns(ref)
    assert reduced >= 10


# -- Fδ₊ --------------------------------------------------------------------------------


def ref_primitive_coalgebra(field, trunc, degree=1, name=""):
    space = GradedSpace(field, trunc)
    space.add("e", 0)
    space.add("delta", degree)
    TT = tensor_space(space, space)
    comult = GradedMap(space, TT, 0)
    one = field.one()
    comult.set("e", {tensor_label("e", "e"): one})
    comult.set("delta", {tensor_label("delta", "e"): one,
                         tensor_label("e", "delta"): one})
    counit = {"e": one}
    return DgCoalgebra(DgSpace(space), comult, counit, atom="e",
                       name=name or "Fδ+")


def coalgebra_parts(C):
    space = C.space
    return (C.name, C.atom, list(C.counit.items()),
            [(x, space.degree_of(x), space.weight_of(x))
             for x in space.labels()],
            columns(C.comult), columns(C.d), C.d.degree, C.dg.d_raises,
            sorted(space.inexact_degrees()),
            [(type(v), v) for v in C.counit.values()])


def test_primitive_coalgebra_matches_hand_built():
    for field in FIELDS:
        for tr in (Truncation(-3, 3, 3), Truncation(-2, 6, 2)):
            for degree in range(-2, 4):
                for name in ("", "P"):
                    new = primitive_coalgebra(field, tr, degree, name)
                    ref = ref_primitive_coalgebra(field, tr, degree, name)
                    assert coalgebra_parts(new) == coalgebra_parts(ref)
                    assert new.verify() == ref.verify() == []


def test_primitive_coalgebra_out_of_window_names_the_window():
    tr = Truncation(-2, 2, 2)
    with pytest.raises(GradedError, match="source lacks delta"):
        ref_primitive_coalgebra(QQ, tr, degree=3)
    with pytest.raises(GradedError, match=r"delta of degree 3 .*-2:2:2"):
        primitive_coalgebra(QQ, tr, degree=3)
