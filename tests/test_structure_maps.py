"""Structure maps against the loops they replaced, key order included.

Each reference below is the earlier implementation, kept as it was:
d⊗1+1⊗d built from `strength_tensor` and `identity_map` over every
label of X⊗Y; products of [C,A] and C* and the differential of a hom
complex that scan every source label; the deconcatenation and unshuffle
coproducts with their own loops; the multiplicative extension of
Ω C → A written out per word; and the dual differential, reduced
coalgebra and curry maps as they were.
"""

import itertools
import random

from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedMap,
                             tensor_space, tensor_label, hom_space,
                             hom_label, dual_label, strength_tensor,
                             identity_map, tensor_sum_apply, target_index,
                             koszul_sign_exponent, lambda1, lambda2,
                             uncurry1, uncurry2)
from sweedler.complexes import DgSpace, dg_tensor, dg_hom
from sweedler.algebras import (word_label, word_syms, free_word_space,
                               tensor_algebra, WordSpace)
from sweedler.coalgebras import (DgCoalgebra, tensor_coalgebra,
                                 coshuffle_coalgebra, coshuffle_comult,
                                 _deconcat_map, _mark_split_degrees,
                                 finite_dual, dual_algebra,
                                 ReducedCoalgebra, red_label)
from sweedler.sweedler_ops import convolution_algebra, matrix_algebra
from sweedler.barcobar import (cobar, cochain_to_algebra_map,
                               enumerate_pointed_algebra_maps, PLUS, MINUS)
from sweedler.presets import load_preset
from sweedler.linalg import vaddmul, vscale


def items(vec: dict) -> list:
    return list(vec.items())


def columns(f: GradedMap) -> list:
    return [(k, items(v)) for k, v in f.columns.items()]


def column_dicts(f: GradedMap) -> list:
    """The columns in order, each compared as a dict: its key order is
    whatever the build wrote."""
    return list(f.columns.items())


def random_space(rng, prefix, tr, field=QQ):
    X = GradedSpace(field, tr)
    for k in range(rng.randint(1, 7)):
        X.add(f"{prefix}{k}", rng.randint(tr.degree_min, tr.degree_max),
              weight=rng.choice([None, 1, 2]))
    for _ in range(rng.randint(0, 2)):
        X.mark_inexact(rng.randint(tr.degree_min, tr.degree_max))
    return X


def random_map(rng, X, Y, degree, field=QQ):
    f = GradedMap(X, Y, degree)
    for x in X.labels():
        img = {y: field.of(rng.randint(-2, 2))
               for y in Y.basis(X.degree_of(x) + degree)}
        f.set(x, img)
    return f


# -- (a) d⊗1 + 1⊗d from the factors --------------------------------------------


def ref_tensor_sum(f: GradedMap, g: GradedMap) -> GradedMap:
    return strength_tensor(f, identity_map(g.source)).add(
        strength_tensor(identity_map(f.source), g))


def test_tensor_sum_apply_matches_strength_reference():
    rng = random.Random(17)
    tr = Truncation(-3, 3, 4)
    drops = {"low": 0, "high": 0}
    for trial in range(60):
        field = [QQ, Field(5), Field(2)][trial % 3]
        X = random_space(rng, "x", tr, field)
        Y = random_space(rng, "y", tr, field)
        degree = rng.choice([-2, -1, 1, 2])
        f = random_map(rng, X, X, degree, field)
        g = random_map(rng, Y, Y, degree, field)
        XY = tensor_space(X, Y)
        ref = ref_tensor_sum(f, g)
        for (_, x, y) in XY.labels():
            for a in f.apply_label(x):
                n = X.degree_of(a) + Y.degree_of(y)
                if n < tr.degree_min:
                    drops["low"] += 1
                if n > tr.degree_max:
                    drops["high"] += 1
        # single labels, and random vectors mixing degrees
        vecs = [{lab: field.one()} for lab in XY.labels()]
        labels = XY.labels()
        for _ in range(5):
            if labels:
                vecs.append({lab: field.of(rng.randint(1, 3))
                             for lab in rng.sample(labels,
                                                   min(4, len(labels)))})
        for vec in vecs:
            assert items(tensor_sum_apply(f, g, vec, XY)) == items(ref(vec))
    # images left the window at both ends
    assert drops["low"] >= 3 and drops["high"] >= 3


def test_dg_tensor_matches_strength_reference_in_label_order():
    rng = random.Random(19)
    tr = Truncation(-3, 3, 4)
    for _ in range(30):
        X = random_space(rng, "x", tr)
        Y = random_space(rng, "y", tr)
        dX = DgSpace(X, random_map(rng, X, X, -1))
        dY = DgSpace(Y, random_map(rng, Y, Y, -1))
        T = dg_tensor(dX, dY)
        ref = ref_tensor_sum(dX.d, dY.d)
        assert list(T.d.columns) == [lab for lab in T.space.labels()
                                     if lab in ref.columns]
        for lab in T.space.labels():
            assert items(T.d.apply_label(lab)) == items(ref.apply_label(lab))


# -- (b) maps indexed by their targets --------------------------------------------


def ref_convolution_pair(C, A, space, fg, gg):
    _, c1, a1 = fg
    _, c2, a2 = gg
    field = space.field
    gdeg = space.degree_of(gg)
    prod = A._pair(a1, a2)
    out: dict = {}
    for x in C.space.labels():
        coeff = C.comult.apply_label(x).get(tensor_label(c1, c2))
        if coeff is None:
            continue
        sign = field.sign(gdeg * C.space.degree_of(c1))
        for m, cm in prod.items():
            lab = hom_label(x, m)
            if lab in space:
                out = vaddmul(field, out,
                              field.mul(coeff, field.mul(sign, cm)),
                              {lab: field.one()})
    return out


def ref_dual_pair(C, D, bd, cd):
    space, field = C.space, C.field
    b, c = bd[1], cd[1]
    sign = field.sign(space.degree_of(b) * space.degree_of(c))
    out: dict = {}
    for x in space.labels():
        coeff = C.comult.apply_label(x).get(tensor_label(b, c))
        if coeff is not None:
            out = vaddmul(field, out, field.mul(sign, coeff),
                          {dual_label(x): field.one()})
    return D.project(out)


def ref_dg_hom(X: DgSpace, Y: DgSpace) -> GradedMap:
    H = hom_space(X.space, Y.space)
    field = H.field
    d = GradedMap(H, H, -1)
    for label in H.labels():
        _, x, y = label
        img: dict = {}
        for y2, coeff in Y.d.apply_label(y).items():
            img[hom_label(x, y2)] = coeff
        sign = field.sign(H.degree_of(label) + 1)
        for z in X.space.labels():
            c = X.d.apply_label(z).get(x)
            if c is not None:
                img = vaddmul(field, img, field.mul(sign, c),
                              {hom_label(z, y): field.one()})
        d.set(label, H.project(img))
    return d


def some_coalgebras(tr):
    yield load_preset("diagonal-coalgebra:2").build(QQ, tr)
    yield load_preset("matrix-coalgebra:2").build(QQ, tr)
    yield load_preset("primitive-coalgebra:1").build(QQ, tr)
    yield tensor_coalgebra(QQ, [("x", 1), ("y", 2)], tr)
    yield coshuffle_coalgebra(QQ, [("x", 1), ("z", 1)], tr)
    yield coshuffle_coalgebra(QQ, [("x", -1), ("y", -2)], tr)


def test_target_index_lists_sources_in_basis_order():
    tr = Truncation(-3, 3, 3)
    for C in some_coalgebras(tr):
        index = target_index(C.comult)
        want: dict = {}
        for x in C.space.labels():
            for t, c in C.comult.apply_label(x).items():
                want.setdefault(t, []).append((x, c))
        assert list(index.items()) == list(want.items())


def test_convolution_products_match_scanning_reference():
    tr = Truncation(-3, 3, 3)
    algebras = [load_preset("dual-numbers").build(QQ, tr),
                tensor_algebra(QQ, [("a", 1), ("b", -1)], tr,
                               augmented=True)]
    for C in some_coalgebras(tr):
        for A in algebras:
            conv = convolution_algebra(C, A)
            space = conv.space
            labels = space.labels()
            for fg, gg in itertools.product(labels, repeat=2):
                assert items(conv._pair(fg, gg)) == items(
                    ref_convolution_pair(C, A, space, fg, gg))


def test_dual_algebra_products_match_scanning_reference():
    tr = Truncation(-3, 3, 3)
    for C in some_coalgebras(tr):
        D = dual_algebra(C)
        for bd, cd in itertools.product(D.space.labels(), repeat=2):
            assert items(D._pair(bd, cd)) == items(
                ref_dual_pair(C, D.space, bd, cd))


def test_dg_hom_matches_scanning_reference():
    rng = random.Random(23)
    tr = Truncation(-3, 3, 4)
    for _ in range(30):
        X = random_space(rng, "x", tr)
        Y = random_space(rng, "y", tr)
        dX = DgSpace(X, random_map(rng, X, X, -1))
        dY = DgSpace(Y, random_map(rng, Y, Y, -1))
        assert columns(dg_hom(dX, dY).d) == columns(ref_dg_hom(dX, dY))


# -- (c) one word-coproduct skeleton ------------------------------------------------


def ref_deconcat(space):
    field = space.field
    TT = tensor_space(space, space)
    comult = GradedMap(space, TT, 0)
    for lab in space.labels():
        syms = word_syms(lab)
        img: dict = {}
        for i in range(len(syms) + 1):
            t = tensor_label(word_label(syms[:i]), word_label(syms[i:]))
            if t in TT:
                img[t] = field.one()
            else:
                space.mark_inexact(space.degree_of(lab))
        comult.set(lab, img)
    return comult


def ref_coshuffle(space, degree_of):
    field = space.field
    TT = tensor_space(space, space)
    comult = GradedMap(space, TT, 0)
    for lab in space.labels():
        syms = word_syms(lab)
        k = len(syms)
        degrees = [degree_of[s] for s in syms]
        img: dict = {}
        for size in range(k + 1):
            for subset in itertools.combinations(range(k), size):
                rest = [i for i in range(k) if i not in subset]
                perm = list(subset) + rest
                exp = koszul_sign_exponent(degrees, perm)
                left = word_label(tuple(syms[i] for i in subset))
                right = word_label(tuple(syms[i] for i in rest))
                t = tensor_label(left, right)
                if t in TT:
                    img = vaddmul(field, img, field.sign(exp),
                                  {t: field.one()})
                else:
                    space.mark_inexact(space.degree_of(lab))
        comult.set(lab, img)
    return comult


def marked_coshuffle(space, degree_of):
    """coshuffle_comult with the degrees it leaves marked on the space, as
    coshuffle_coalgebra marks them."""
    comult, leaves = coshuffle_comult(space, degree_of)
    space.mark_inexact(*leaves)
    return comult


def test_word_coproducts_match_their_reference_loops():
    cases = [
        ([("a", 1)], Truncation(0, 6, 5)),             # a⊗a: terms cancel
        ([("a", 1), ("b", 0)], Truncation(-2, 3, 4)),
        ([("a", 1), ("b", 2), ("c", -1)], Truncation(-2, 2, 3)),
        ([("a", -1), ("b", -1)], Truncation(-3, 3, 4)),
        ([("a", 3)], Truncation(0, 7, 3)),
        ([("a", 1), ("b", 2)], Truncation(2, 6, 3)),    # 1 and a leave it
    ]
    cancelled = marked = 0
    for field in (QQ, Field(5), Field(2)):
        for gens, tr in cases:
            degree_of = dict(gens)
            for new, ref, same in (
                    (_deconcat_map, ref_deconcat, columns),
                    (lambda s: marked_coshuffle(s, degree_of),
                     lambda s: ref_coshuffle(s, degree_of), column_dicts)):
                S1 = free_word_space(field, gens, tr)
                S2 = free_word_space(field, gens, tr)
                before = S1.inexact_degrees()
                assert same(new(S1)) == same(ref(S2))
                assert S1.inexact_degrees() == S2.inexact_degrees()
                marked += S1.inexact_degrees() != before
            S = free_word_space(field, gens, tr)
            comult, _ = coshuffle_comult(S, degree_of)
            for lab in S.labels():
                syms = word_syms(lab)
                if len(syms) == 2 and syms[0] == syms[1] \
                        and degree_of[syms[0]] % 2:
                    # the two one-letter splits of an odd square cancel
                    x = word_label(syms[:1])
                    assert tensor_label(x, x) not in comult.apply_label(lab)
                    cancelled += 1
    assert cancelled >= 6 and marked >= 6


def test_letter_by_letter_coshuffle_matches_the_subset_loop():
    # random words with repeated letters of odd, even, negative and zero
    # degree, over Q and small primes: the merged unshuffles give the
    # subset loop's values and marks
    rng = random.Random(1812)
    words = 0
    for trial in range(48):
        field = (QQ, Field(2), Field(3), Field(5))[trial % 4]
        gens = [(name, rng.randint(-2, 2))
                for name in "abc"[:rng.randint(1, 3)]]
        cap = rng.randint(3, 7 if len(gens) == 1 else 6)
        lo = rng.randint(-3 * cap, 0)
        tr = Truncation(lo, lo + rng.randint(0, 4 * cap), cap)
        degree_of = dict(gens)
        S1 = free_word_space(field, gens, tr)
        S2 = free_word_space(field, gens, tr)
        got = marked_coshuffle(S1, degree_of)
        want = ref_coshuffle(S2, degree_of)
        assert column_dicts(got) == column_dicts(want)
        assert S1.inexact_degrees() == S2.inexact_degrees()
        words += len(want.columns)
    assert words >= 1000, words


def test_lazy_deconcatenation_matches_its_reference_loop():
    # tensor_coalgebra marks the split degrees before Δ exists and builds
    # Δ on first read; windows without 0 and negative letters included
    rng = random.Random(1919)
    cases = [
        ([("a", 1), ("b", 2)], Truncation(2, 6, 3)),    # 1 and a leave it
        ([("a", -1), ("b", 2)], Truncation(-3, -1, 3)),  # 0 leaves it
        ([("a", -2), ("b", 1)], Truncation(-2, 3, 4)),  # prefixes dip below
        ([("a", 3), ("b", -1)], Truncation(-1, 4, 3)),
    ]
    for _ in range(60):
        lo = rng.randint(-6, 4)
        cases.append(([(f"g{i}", rng.randint(-3, 3))
                       for i in range(rng.randint(1, 3))],
                      Truncation(lo, lo + rng.randint(0, 5),
                                 rng.randint(1, 4))))
    marked = without_zero = split_only = 0
    for trial, (gens, tr) in enumerate(cases):
        field = (QQ, Field(5), Field(2))[trial % 3]
        T = tensor_coalgebra(field, gens, tr)
        marks, TT_marks = T.space.inexact_degrees(), T.TT.inexact_degrees()
        S = free_word_space(field, gens, tr)
        before = S.inexact_degrees()
        ref = ref_deconcat(S)
        assert marks == S.inexact_degrees()
        assert TT_marks == ref.target.inexact_degrees()
        assert columns(T.comult) == columns(ref)
        assert T.comult.target is T.TT
        assert T.space.inexact_degrees() == marks    # Δ marked nothing new
        marked += marks != before
        without_zero += not tr.contains(0) and bool(S.degrees())
        # the split rule alone, on word spaces without the overflow marks
        # that free_word_space adds, which cover every mixed-sign case
        bare, ref_bare = (WordSpace(field, gens, tr) for _ in range(2))
        _mark_split_degrees(bare, dict(gens))
        ref_deconcat(ref_bare)
        assert bare.inexact_degrees() == ref_bare.inexact_degrees()
        split_only += bool(bare.inexact_degrees()) and tr.contains(0)
    # most split marks repeat the overflow marks of free_word_space
    assert marked >= 4 and without_zero >= 15 and split_only >= 4


# -- (d) one multiplicative extension -------------------------------------------------


def ref_cochain_to_algebra_map(alpha, cob, A):
    field = A.field
    space = cob.algebra.space
    sign = field.one() if cob.convention == PLUS else field.of(-1)
    g = GradedMap(space, A.space, 0)
    for w in space.labels():
        val = dict(A.unit)
        for sym in word_syms(w):
            x = sym[2]
            val = A.product(val, vscale(field, sign, alpha.apply_label(x)))
        g.set(w, A.space.project(val))
    return g


def ref_enumerate_pointed_algebra_maps(cob, A):
    field = A.field
    gens = cob.generators
    slots = [(g, b) for g, dg in gens for b in A.reduced_basis()
             if A.space.degree_of(b) == dg]
    source = cob.algebra
    out = []
    for combo in itertools.product(range(field.p), repeat=len(slots)):
        images: dict = {}
        for (g, b), cv in zip(slots, combo):
            if cv:
                images.setdefault(g, {})[b] = field.of(cv)
        g_map = GradedMap(source.space, A.space, 0)
        for w in source.space.labels():
            val = dict(A.unit)
            for sym in word_syms(w):
                val = A.product(val, images.get(sym, {}))
            g_map.set(w, A.space.project(val))
        ok = True
        for g, _ in gens:
            w = word_label((g,))
            if g_map(source.d.apply_label(w)) != A.d(g_map.apply_label(w)):
                ok = False
                break
        if ok:
            out.append(g_map)
    return out


def test_cochain_to_algebra_map_matches_reference():
    rng = random.Random(29)
    tr = Truncation(-3, 3, 4)
    algebras = [load_preset("dual-numbers").build(QQ, tr),
                tensor_algebra(QQ, [("a", 0), ("b", 1)], tr,
                               augmented=True)]
    for C in [load_preset("primitive-coalgebra:1").build(QQ, tr),
              load_preset("primitive-coalgebra:2").build(QQ, tr),
              tensor_coalgebra(QQ, [("x", 1), ("y", 2)], tr)]:
        for A in algebras:
            for convention in (PLUS, MINUS):
                cob = cobar(C, tr, convention)
                for _ in range(3):
                    alpha = random_map(rng, C.space, A.space, -1)
                    alpha.set(C.atom, {})
                    assert columns(cochain_to_algebra_map(alpha, cob, A)) \
                        == columns(ref_cochain_to_algebra_map(alpha, cob, A))


def test_enumerate_pointed_algebra_maps_matches_reference():
    F2, F3 = Field(2), Field(3)
    tr = Truncation(-3, 3, 4)
    for field in (F2, F3):
        C = load_preset("primitive-coalgebra:1").build(field, tr)
        A = load_preset("dual-numbers").build(field, tr)
        cob = cobar(C, tr)
        new = enumerate_pointed_algebra_maps(cob, A)
        ref = ref_enumerate_pointed_algebra_maps(cob, A)
        assert len(new) == len(ref) >= 2
        for g, h in zip(new, ref):
            assert columns(g) == columns(h)
    C = tensor_coalgebra(F2, [("x", 1)], Truncation(-3, 3, 2))
    A = tensor_algebra(F2, [("a", 0)], Truncation(-3, 3, 2), augmented=True)
    cob = cobar(C, tr)
    new = enumerate_pointed_algebra_maps(cob, A)
    ref = ref_enumerate_pointed_algebra_maps(cob, A)
    assert [columns(g) for g in new] == [columns(h) for h in ref]


# -- the dual differential, the reduced part and the curry maps ----------------------


def ref_dual_differential(d, D):
    field, space = d.field, d.source
    dD = GradedMap(D, D, -1)
    for b in space.labels():
        for a, coeff in d.apply_label(b).items():
            sign = field.sign(1 + space.degree_of(a))
            prev = dD.apply_label(dual_label(a))
            prev = vaddmul(field, prev, field.mul(sign, coeff),
                           {dual_label(b): field.one()})
            dD.set(dual_label(a), D.project(prev))
    return dD


def ref_finite_dual_comult(A, D):
    field, space = A.field, A.space
    DD = tensor_space(D, D)
    cols: dict = {lab: {} for lab in D.labels()}
    for b in space.labels():
        for c in space.labels():
            prod = A._pair(b, c)
            if not prod:
                continue
            sign = field.sign(space.degree_of(b) * space.degree_of(c))
            for a, coeff in prod.items():
                t = tensor_label(dual_label(b), dual_label(c))
                if t in DD:
                    cols[dual_label(a)] = vaddmul(
                        field, cols[dual_label(a)],
                        field.mul(sign, coeff), {t: field.one()})
    return [(k, items(v)) for k, v in cols.items() if v]


def test_duals_match_reference_loops():
    rng = random.Random(31)
    tr = Truncation(-3, 3, 3)
    duals = []
    for C in some_coalgebras(tr):
        d = GradedMap(C.space, C.space, -1)
        for x in C.space.labels():
            img = {y: QQ.of(rng.randint(-2, 2))
                   for y in C.space.basis(C.space.degree_of(x) - 1)}
            d.set(x, img)
        C = DgCoalgebra(DgSpace(C.space, d), C.comult, C.counit, C.atom)
        D = dual_algebra(C)
        assert columns(D.d) == columns(ref_dual_differential(d, D.space))
        duals.append(D)
    for A in [matrix_algebra(QQ, 2, tr),
              tensor_algebra(QQ, [("a", 1), ("b", 2)], tr, augmented=True),
              *duals]:
        Ad = finite_dual(A)
        assert columns(Ad.d) == columns(ref_dual_differential(A.d, Ad.space))
        assert columns(Ad.comult) == ref_finite_dual_comult(A, Ad.space)


def ref_reduced(C):
    field, e = C.field, C.atom
    R = ReducedCoalgebra(C)

    def incl(r):
        out: dict = {}
        for lab, c in r.items():
            x = lab[1]
            out = vaddmul(field, out, c, {x: field.one()})
            eps = C.counit.get(x, field.zero())
            out = vaddmul(field, out, field.neg(field.mul(c, eps)),
                          {e: field.one()})
        return out

    def proj(v):
        out: dict = {}
        for x, c in v.items():
            if x != e:
                out = vaddmul(field, out, c, {red_label(x): field.one()})
        return out

    return R, incl, proj


def test_reduced_inclusion_and_projection_match_reference():
    rng = random.Random(37)
    tr = Truncation(-3, 3, 3)
    for C in some_coalgebras(tr):
        if C.atom is None:
            continue
        C.counit = {x: QQ.of(rng.randint(-1, 2)) for x in C.space.labels()}
        C.counit[C.atom] = QQ.one()
        R, incl, proj = ref_reduced(C)
        for lab in R.space.labels():
            vec = {lab: QQ.of(rng.randint(1, 3))}
            assert items(R.include(vec)) == items(incl(vec))
            full = {x: QQ.of(rng.randint(-1, 1)) for x in C.space.labels()}
            assert items(R.project(full)) == items(proj(full))


def ref_lambda2(f, X, Y):
    Z = f.target
    H = hom_space(Y, Z)
    g = GradedMap(X, H, f.degree)
    for x in X.labels():
        img: dict = {}
        for y in Y.labels():
            for z, coeff in f.apply_label(tensor_label(x, y)).items():
                img[hom_label(y, z)] = coeff
        g.set(x, H.project(img))
    return g


def ref_lambda1(f, X, Y):
    Z = f.target
    H = hom_space(X, Z)
    field = f.field
    g = GradedMap(Y, H, f.degree)
    for y in Y.labels():
        img: dict = {}
        sign_base = Y.degree_of(y)
        for x in X.labels():
            sign = field.sign(X.degree_of(x) * sign_base)
            for z, coeff in f.apply_label(tensor_label(x, y)).items():
                img[hom_label(x, z)] = field.mul(sign, coeff)
        g.set(y, H.project(img))
    return g


def ref_uncurry2(g, X, Y, Z):
    XY = tensor_space(X, Y)
    f = GradedMap(XY, Z, g.degree)
    for x in X.labels():
        gx = g.apply_label(x)
        for y in Y.labels():
            img = {}
            for h, coeff in gx.items():
                if h[1] == y:
                    img[h[2]] = coeff
            if tensor_label(x, y) in XY:
                f.set(tensor_label(x, y), img)
    return f


def ref_uncurry1(g, X, Y, Z):
    XY = tensor_space(X, Y)
    field = g.field
    f = GradedMap(XY, Z, g.degree)
    for y in Y.labels():
        gy = g.apply_label(y)
        for x in X.labels():
            sign = field.sign(X.degree_of(x) * Y.degree_of(y))
            img = {}
            for h, coeff in gy.items():
                if h[1] == x:
                    img[h[2]] = field.mul(sign, coeff)
            if tensor_label(x, y) in XY:
                f.set(tensor_label(x, y), img)
    return f


def test_curry_maps_match_reference_loops():
    rng = random.Random(41)
    tr = Truncation(-3, 3, 4)
    for _ in range(20):
        X = random_space(rng, "x", tr)
        Y = random_space(rng, "y", tr)
        Z = random_space(rng, "z", tr)
        f = random_map(rng, tensor_space(X, Y), Z, rng.randint(-1, 1))
        g2, g1 = lambda2(f, X, Y), lambda1(f, X, Y)
        assert columns(g2) == columns(ref_lambda2(f, X, Y))
        assert columns(g1) == columns(ref_lambda1(f, X, Y))
        assert columns(uncurry2(g2, X, Y, Z)) == \
            columns(ref_uncurry2(g2, X, Y, Z))
        assert columns(uncurry1(g1, X, Y, Z)) == \
            columns(ref_uncurry1(g1, X, Y, Z))
