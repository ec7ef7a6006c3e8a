import itertools
import random

import pytest

from sweedler import algebras
from sweedler.scalars import QQ, Field
from sweedler.graded import Truncation, GradedMap, tensor_label
from sweedler.complexes import check_square_zero
from sweedler.linalg import RowSpace, vaddmul, vscale
from sweedler.algebras import (DgAlgebra, tensor_algebra, extend_derivation,
                               free_word_space, PresentedAlgebra,
                               normal_forms, algebra_tensor, opposite,
                               omega_bimodule, word_label, word_syms,
                               UNIT_WORD, InconsistentDifferential,
                               AlgebraError)
from sweedler.presets import load_preset

TR = Truncation(-6, 6, 6)


def dual_numbers(field=QQ, tr=TR) -> DgAlgebra:
    return load_preset("dual-numbers").build(field, tr)


def test_tensor_algebra_of_nothing_is_field():
    T = tensor_algebra(QQ, [], TR)
    assert T.space.dims() == {0: 1}
    assert T.verify() == []


def test_tensor_algebra_word_count_oracle():
    T = tensor_algebra(QQ, [("x", 1), ("y", 1)], Truncation(0, 6, 4))
    # dims of T(X) for dims X = {1:2} up to weight 4: 2^k words per length
    assert T.space.dims() == {0: 1, 1: 2, 2: 4, 3: 8, 4: 16}


def test_tensor_algebra_on_one_negative_generator():
    T = tensor_algebra(QQ, [("u", -1)], Truncation(-6, 0, 6))
    assert T.space.dims() == {-n: 1 for n in range(7)}
    assert T.verify() == []


def test_extend_derivation_zero_and_mc_parity():
    space = free_word_space(QQ, [("u", -1)], Truncation(-8, 0, 8))
    for zero in ({}, {"u": {}}):
        D0 = extend_derivation([("u", -1)], zero, space, -1)
        assert D0.is_zero() and D0.columns == {}
        assert (D0.source, D0.target, D0.degree) == (space, space, -1)
    phi = {"u": {word_label(("u", "u")): QQ.of(-1)}}
    D = extend_derivation([("u", -1)], phi, space, -1)
    # D(u^2) = 0, D(u^3) = -u^4
    assert D.apply_label(word_label(("u",) * 2)) == {}
    assert D.apply_label(word_label(("u",) * 3)) == \
        {word_label(("u",) * 4): QQ.of(-1)}


def test_extend_derivation_leibniz_random():
    rng = random.Random(13)
    gens = [("x", 1), ("y", 2)]
    space = free_word_space(QQ, gens, Truncation(0, 8, 4))
    for degree in (-1, 0, 1):
        phi = {}
        for g, _ in gens:
            img = {}
            for w in space.labels():
                if space.degree_of(w) == dict(gens)[g] + degree \
                        and rng.random() < 0.4:
                    img[w] = QQ.of(rng.randint(-2, 2))
            phi[g] = {k: v for k, v in img.items() if v}
        D = extend_derivation(gens, phi, space, degree)
        # Leibniz on random word pairs, against direct expansion
        words = [w for w in space.labels() if len(word_syms(w)) <= 2]
        for _ in range(20):
            a = rng.choice(words)
            b = rng.choice(words)
            if len(word_syms(a)) + len(word_syms(b)) > 4:
                continue
            ab = word_label(word_syms(a) + word_syms(b))
            lhs = D.apply_label(ab)
            rhs = {}
            from sweedler.linalg import vaddmul
            for t, c in D.apply_label(a).items():
                w = word_label(word_syms(t) + word_syms(b))
                if w in space:
                    rhs = vaddmul(QQ, rhs, c, {w: QQ.one()})
            sign = QQ.sign(degree * space.degree_of(a))
            for t, c in D.apply_label(b).items():
                w = word_label(word_syms(a) + word_syms(t))
                if w in space:
                    rhs = vaddmul(QQ, rhs, QQ.mul(sign, c), {w: QQ.one()})
            # drop overflow on the left too
            lhs = {k: v for k, v in lhs.items() if k in space}
            assert lhs == rhs


def test_extension_uniqueness():
    # a derivation vanishing on the generators is zero
    gens = [("x", 1)]
    space = free_word_space(QQ, gens, Truncation(0, 6, 4))
    phi = {"x": {word_label(("x", "x")): QQ.of(2)}}
    D1 = extend_derivation(gens, phi, space, 1)
    D2 = extend_derivation(gens, phi, space, 1)
    assert D1.equals(D2)
    Dz = extend_derivation(gens, {"x": {}}, space, 1)
    assert Dz.is_zero()


def test_normal_forms_without_relations_is_free():
    P = PresentedAlgebra(QQ, [("x", 1)], [], {}, Truncation(0, 5, 5))
    alg = normal_forms(P)
    T = tensor_algebra(QQ, [("x", 1)], Truncation(0, 5, 5))
    assert alg.space.dims() == T.space.dims()


def test_dual_numbers_normal_forms():
    A = dual_numbers()
    assert A.space.dims() == {0: 2}
    eps = word_label(("eps",))
    assert A.product({eps: QQ.one()}, {eps: QQ.one()}) == {}
    assert A.verify() == []
    assert A.space.is_exact(0)


def test_normal_forms_dimension_independent_of_relation_order():
    gens = [("x", 0), ("y", 0)]
    rels = [{word_label(("x", "x")): QQ.one()},
            {word_label(("x", "y")): QQ.one(),
             word_label(("y", "x")): QQ.one()},
            {word_label(("y", "y", "y")): QQ.one()}]
    dims = []
    for perm in itertools.permutations(rels):
        P = PresentedAlgebra(QQ, gens, list(perm), {}, Truncation(0, 4, 4))
        dims.append(normal_forms(P).space.dims())
    assert all(d == dims[0] for d in dims)


def test_inconsistent_differential_detected():
    # d(x) = y but relation x·x imposed without y·x + x·y: d does not
    # preserve the ideal
    gens = [("x", 1), ("y", 0)]
    rels = [{word_label(("x", "x")): QQ.one()}]
    d_gen = {"x": {word_label(("y",)): QQ.one()}}
    P = PresentedAlgebra(QQ, gens, rels, d_gen, Truncation(0, 4, 4))
    with pytest.raises(InconsistentDifferential):
        normal_forms(P)


def test_relation_outside_the_window_is_ignored():
    # x·x lives in degree 6, outside 0:4; it neither constrains the window
    # nor breaks the differential check
    x, y = word_label(("x",)), word_label(("y",))
    P = PresentedAlgebra(QQ, [("x", 3), ("y", 2)],
                         [{word_label(("x", "x")): QQ.one()}],
                         {"x": {y: QQ.one()}}, Truncation(0, 4, 4))
    A = normal_forms(P)
    assert A.space.dims() == {0: 1, 2: 1, 3: 1, 4: 1}
    assert A.d.apply_label(x) == {y: QQ.one()}


def test_truncated_polynomial_algebra():
    # F[x]/x^3 with |x| = 0
    gens = [("x", 0)]
    rels = [{word_label(("x",) * 3): QQ.one()}]
    P = PresentedAlgebra(QQ, gens, rels, {}, Truncation(-2, 2, 6),
                         aug_gen={"x": QQ.zero()})
    A = normal_forms(P)
    assert A.space.dims() == {0: 3}
    assert A.verify() == []


def test_algebra_tensor_unit_and_sign():
    A = dual_numbers()
    F = tensor_algebra(QQ, [], TR)
    AF = algebra_tensor(A, F)
    assert AF.space.dims() == A.space.dims()
    assert AF.verify() == []
    # odd ⊗ odd sign: (1⊗b)(a'⊗1) = (-1)^{|b||a'|} a'⊗b
    X = tensor_algebra(QQ, [("a", 1)], Truncation(0, 4, 2))
    Y = tensor_algebra(QQ, [("b", 1)], Truncation(0, 4, 2))
    T = algebra_tensor(X, Y)
    one_b = tensor_label(UNIT_WORD, word_label(("b",)))
    a_one = tensor_label(word_label(("a",)), UNIT_WORD)
    prod = T.product({one_b: QQ.one()}, {a_one: QQ.one()})
    assert prod == {tensor_label(word_label(("a",)),
                                 word_label(("b",))): QQ.of(-1)}


def test_algebra_tensor_associativity_element_chase():
    A = dual_numbers(tr=Truncation(-3, 3, 3))
    B = tensor_algebra(QQ, [("b", 1)], Truncation(-3, 3, 2))
    C = tensor_algebra(QQ, [("c", -1)], Truncation(-3, 3, 2))
    AB_C = algebra_tensor(algebra_tensor(A, B), C)
    A_BC = algebra_tensor(A, algebra_tensor(B, C))

    def flat_left(lab):
        t, ab, c = lab
        _, a, b = ab
        return (a, b, c)

    def flat_right(lab):
        t, a, bc = lab
        _, b, c = bc
        return (a, b, c)

    one = QQ.one()
    for x in AB_C.space.labels():
        for y in AB_C.space.labels():
            lhs = {flat_left(k): v
                   for k, v in AB_C.product({x: one}, {y: one}).items()}
            xr = tensor_label(x[1][1], tensor_label(x[1][2], x[2]))
            yr = tensor_label(y[1][1], tensor_label(y[1][2], y[2]))
            if xr not in A_BC.space or yr not in A_BC.space:
                continue
            rhs = {flat_right(k): v
                   for k, v in A_BC.product({xr: one}, {yr: one}).items()}
            assert lhs == rhs


def test_opposite_involution_and_odd_square():
    A = tensor_algebra(QQ, [("a", 1)], Truncation(0, 4, 4))
    Ao = opposite(A)
    Aoo = opposite(Ao)
    one = QQ.one()
    for x in A.space.labels():
        for y in A.space.labels():
            assert Aoo._pair(x, y) == A._pair(x, y)
    # odd a: aᵒaᵒ = -(aa)ᵒ
    a = word_label(("a",))
    assert Ao.product({a: one}, {a: one}) == \
        {word_label(("a", "a")): QQ.of(-1)}
    # commutative degree-0 algebra: Aᵒ = A
    D = dual_numbers()
    Do = opposite(D)
    for x in D.space.labels():
        for y in D.space.labels():
            assert Do._pair(x, y) == D._pair(x, y)


def test_opposite_is_an_algebra():
    A = tensor_algebra(QQ, [("a", 1), ("b", 2)], Truncation(0, 6, 3))
    assert opposite(A).verify() == []


def test_omega_of_field_is_zero():
    F = tensor_algebra(QQ, [], TR)
    om = omega_bimodule(F)
    assert om.space.dims() == {}


def test_omega_of_free_algebra_dims():
    # Ω_{T(x)} = T(x)⊗x⊗T(x): dims per degree within the window
    cap = 4
    T = tensor_algebra(QQ, [("x", 1)], Truncation(0, cap, cap))
    om = omega_bimodule(T)
    want = {}
    # words u⊗x⊗v with len(u)+len(v)+1 ≤ cap (that is how far A⊗A sees)
    for lu in range(cap):
        for lv in range(cap - lu):
            deg = lu + lv + 1
            if deg <= cap:
                want[deg] = want.get(deg, 0) + 1
    assert om.space.dims() == want


def test_omega_of_dual_numbers_via_kernel():
    A = dual_numbers()
    om = omega_bimodule(A)
    # kernel of the 4×2 multiplication matrix has dim 2, in degree 0
    assert om.space.dims() == {0: 2}
    d = om.universal_derivation()
    eps = word_label(("eps",))
    # d(eps) = 1⊗eps - eps⊗1 ≠ 0, d(1) = 0
    assert d.apply_label(eps)
    assert not d.apply_label(UNIT_WORD)
    assert om.generation_check()


def test_factor_derivation_universal_property():
    A = dual_numbers()
    om = omega_bimodule(A)
    d_univ = om.universal_derivation()
    # an inner derivation [eps,-] of the dual numbers is zero; use instead a
    # custom derivation D(eps) = eps (degree 0) ... Leibniz: D(eps²)=2eps·eps=0 ✓
    D = GradedMap(A.space, A.space, 0)
    eps = word_label(("eps",))
    D.set(eps, {eps: QQ.one()})
    f = om.factor_derivation(D)
    # f ∘ d_univ = D on basis
    for x in A.space.labels():
        assert f(d_univ.apply_label(x)) == D.apply_label(x)
    # f is a bimodule map (graded, degree 0): f(a·ω) = a·f(ω), f(ω·a) = f(ω)·a
    one = QQ.one()
    for a in A.space.labels():
        for om_lab in om.space.labels():
            base = {om_lab: one}
            lhs = f(om.act_left(a, base))
            rhs = A.product({a: one}, f.apply_label(om_lab))
            assert lhs == rhs
            lhs2 = f(om.act_right(base, a))
            rhs2 = A.product(f.apply_label(om_lab), {a: one})
            assert lhs2 == rhs2


def test_derivation_commutator_and_odd_square():
    rng = random.Random(17)
    gens = [("x", 1), ("y", 2)]
    space = free_word_space(QQ, gens, Truncation(0, 8, 4))

    def rand_der(degree):
        phi = {}
        for g, gd in gens:
            img = {w: QQ.of(rng.randint(-2, 2)) for w in space.labels()
                   if space.degree_of(w) == gd + degree
                   and rng.random() < 0.5}
            phi[g] = {k: v for k, v in img.items() if v}
        return extend_derivation(gens, phi, space, degree)

    def is_derivation(D, degree):
        from sweedler.linalg import vaddmul
        for a in space.labels():
            for b in space.labels():
                la, lb = len(word_syms(a)), len(word_syms(b))
                if la + lb > 2 or la + lb + 2 > 4:
                    continue
                ab = word_label(word_syms(a) + word_syms(b))
                lhs = {k: v for k, v in D.apply_label(ab).items()}
                rhs = {}
                for t, c in D.apply_label(a).items():
                    w = word_label(word_syms(t) + word_syms(b))
                    if w in space:
                        rhs = vaddmul(QQ, rhs, c, {w: QQ.one()})
                sign = QQ.sign(degree * space.degree_of(a))
                for t, c in D.apply_label(b).items():
                    w = word_label(word_syms(a) + word_syms(t))
                    if w in space:
                        rhs = vaddmul(QQ, rhs, QQ.mul(sign, c), {w: QQ.one()})
                if lhs != rhs:
                    return False
        return True

    for _ in range(3):
        D1 = rand_der(1)
        D2 = rand_der(-1)
        # commutator [D1,D2] = D1D2 - (-1)^{|D1||D2|} D2D1 is a derivation
        comm = D1.compose(D2).add(D2.compose(D1).scale(QQ.sign(1 * 1 + 1)))
        assert is_derivation(comm, 0)
        # square of an odd derivation is a derivation
        sq = D1.compose(D1)
        assert is_derivation(sq, 2)


def test_leibniz_and_d_squared_on_constructed_algebras():
    A = dual_numbers()
    assert check_square_zero(A.dg).passed
    assert A.verify() == []


# -- reference u·r·v loop ---------------------------------------------------------
#
# normal_forms as it was before it enumerated prefixes of the length-sorted
# words and before it built the ideal slices by one-letter closure: every
# pair (u, v) of free words is tested against the word cap, every u·r·v in
# the window is reduced, each element grows by one vaddmul copy per term,
# each reduction scans the whole vector for its least pivot after every
# step, and the derivation is extended by vaddmul copies.  The library must
# give the same span per degree (compared through its reduced echelon rows,
# since echelon rows depend on the order the vectors arrived in), the same
# quotient basis, and the same product table and differential, whose
# vectors list their words in the quotient basis order.


class _ScanRowSpace:
    """A label-keyed echelon span on its own: reduce scans the vector for
    its least pivot, clears it and scans again; add scales the residue to
    a leading 1 and stores it; `adds` counts the calls of add."""

    def __init__(self, field, order):
        self.field = field
        self.order = {label: i for i, label in enumerate(order)}
        self.rows = {}
        self.adds = 0

    def reduce(self, v):
        field, out = self.field, dict(v)
        while pivots := [k for k in out if k in self.rows]:
            p = min(pivots, key=self.order.__getitem__)
            out = vaddmul(field, out, field.neg(out[p]), self.rows[p])
        return out

    def add(self, v):
        self.adds += 1
        red = self.reduce(v)
        if not red:
            return None
        field = self.field
        piv = min(red, key=self.order.__getitem__)
        self.rows[piv] = vscale(field, field.inv(red[piv]), red)
        return piv


def _reduced_rows(space):
    """The reduced echelon rows of a span, from its echelon rows and its
    own reduce: the pivot p's row is p plus the residue of the rest of its
    echelon row, which lies in the span and clears every other pivot."""
    field = space.field
    return {p: {p: field.one(), **space.reduce(
                {k: c for k, c in row.items() if k != p})}
            for p, row in space.rows.items()}


def _ref_extend_derivation(generators, phi, space, degree):
    degree_of = dict(generators)
    field = space.field
    D = GradedMap(space, space, degree)
    for label in space.labels():
        syms = word_syms(label)
        img: dict = {}
        prefix_deg = 0
        for i, sym in enumerate(syms):
            sign = field.sign(degree * prefix_deg)
            for tgt, coeff in phi.get(sym, {}).items():
                spliced = word_label(syms[:i] + word_syms(tgt) + syms[i + 1:])
                if len(word_syms(spliced)) <= space.window.weight_cap:
                    img = vaddmul(field, img, field.mul(sign, coeff),
                                  {spliced: field.one()})
            prefix_deg += degree_of[sym]
        D.set(label, space.project(img))
    return D


def _word_sort_key(generators):
    """Length first, then the lexicographic order of the generator list."""
    gen_index = {g: i for i, (g, _) in enumerate(generators)}

    def key(label):
        syms = word_syms(label)
        return (len(syms), tuple(gen_index[s] for s in syms))
    return key


def _ref_normal_forms(P):
    """(reducers, basis per degree, product table, D) of the old loop."""
    field = P.field
    free = free_word_space(field, P.generators, P.trunc)
    sort_key = _word_sort_key(P.generators)
    cap = P.trunc.weight_cap
    reducers = {n: _ScanRowSpace(field, sorted(free.basis(n), key=sort_key,
                                               reverse=True))
                for n in free.degrees()}
    all_words = sorted(free.labels(), key=sort_key)
    for rel in P.relations:
        if not rel or any(w not in free for w in rel):
            continue
        rel_deg = free.degree_of(next(iter(rel)))
        max_len = max(len(word_syms(w)) for w in rel)
        for u in all_words:
            lu = len(word_syms(u))
            if lu + max_len > cap:
                continue
            for v in all_words:
                lv = len(word_syms(v))
                if lu + max_len + lv > cap:
                    continue
                element: dict = {}
                for w, coeff in rel.items():
                    spliced = word_label(
                        word_syms(u) + word_syms(w) + word_syms(v))
                    element = vaddmul(field, element, coeff,
                                      {spliced: field.one()})
                element = free.project(element)
                deg = free.degree_of(u) + rel_deg + free.degree_of(v)
                if not free.window.contains(deg):
                    continue
                reducers[deg].add(element)

    def normal(vec):
        out: dict = {}
        by_deg: dict = {}
        for w, c in vec.items():
            by_deg.setdefault(free.degree_of(w), {})[w] = c
        for deg, part in by_deg.items():
            out = vaddmul(field, out, field.one(), reducers[deg].reduce(part))
        return {w: c for w, c in out.items() if w in quotient}

    basis = {n: [w for w in sorted(free.basis(n), key=sort_key)
                 if w not in reducers[n].rows] for n in free.degrees()}
    quotient = {w for ws in basis.values() for w in ws}
    D_free = _ref_extend_derivation(P.generators, P.d_gen, free, -1)
    D = {w: normal(D_free.apply_label(w)) for w in quotient}
    product = {}
    for a in quotient:
        for b in quotient:
            lab = word_label(word_syms(a) + word_syms(b))
            product[a, b] = normal({lab: field.one()}) if lab in free else {}
    return reducers, basis, product, D


@pytest.fixture
def made(monkeypatch):
    """The RowSpaces `_ideal_slices` makes, in order; `adds` counts add
    calls and `added` lists each added vector with what add returned."""
    made = []

    class Recording(RowSpace):
        adds = 0

        def __init__(self, *args):
            super().__init__(*args)
            self.added = []
            made.append(self)

        def add(self, v):
            self.adds += 1
            pivot = super().add(v)
            self.added.append((dict(v), pivot))
            return pivot

    monkeypatch.setattr(algebras, "RowSpace", Recording)
    return made


def _closure_slices(P):
    """Run the closure of `normal_forms` on P's usable relations, whichever
    way normal_forms itself takes; returns the free word space."""
    free = free_word_space(P.field, P.generators, P.trunc)
    gen_degree = dict(P.generators)
    usable = algebras._screen_relations(free, gen_degree, P.relations)[0]
    algebras._ideal_slices(free, gen_degree, usable)
    return free


def _check_against_reference(P, made):
    """Compare normal_forms(P) and the closure's slices with the reference
    loop; returns the quotient and the add calls of the closure and of the
    reference."""
    A = normal_forms(P)
    reducers, basis, product, D = _ref_normal_forms(P)
    made.clear()
    free = _closure_slices(P)
    words = free.labels()
    assert len(made) == len(reducers)
    for rs, n in zip(made, sorted(reducers)):
        # the slice is keyed by word ids; translated back to words it is
        # the label-keyed slice: the same ambient order, the same pivots
        # returned, and the same rows, values and key order
        slice_ = RowSpace(P.field, [words[i] for i in rs.order])
        assert list(slice_.order) == free.basis(n)[::-1]
        for v, pivot in rs.added:
            got = slice_.add({words[i]: c for i, c in v.items()})
            assert got == (None if pivot is None else words[pivot])
        rows = [(words[p], [(words[k], c) for k, c in row.items()])
                for p, row in rs.rows.items()]
        assert rows == [(p, list(row.items()))
                        for p, row in slice_.rows.items()]
        # the reference loop adds other vectors in another order, so its
        # echelon rows differ; the span is compared through the reduced
        # echelon rows, by values, not key order
        assert _reduced_rows(slice_) == _reduced_rows(reducers[n])
    assert {n: A.space.basis(n) for n in A.space.degrees()} == \
        {n: ws for n, ws in basis.items() if ws}
    labels = A.space.labels()
    pairs = {(a, b): A._pair(a, b) for a in labels for b in labels}
    diffs = {w: A.d.apply_label(w) for w in labels}
    assert pairs == product
    assert diffs == D
    position = {w: i for i, w in enumerate(labels)}
    for vec in [*pairs.values(), *diffs.values()]:
        assert list(vec) == sorted(vec, key=position.__getitem__)
    return (A, sum(rs.adds for rs in made),
            sum(rs.adds for rs in reducers.values()))


def _random_presentation(rng, field):
    """Mixed-sign and degree-0 generators; relations whose terms differ in
    length, some only partly inside the window, some entirely outside, and
    some on short words inside the window, whose one-letter extensions
    often leave it."""
    gens = [(f"g{i}", rng.choice((-2, -1, 0, 0, 1, 2)))
            for i in range(rng.randint(2, 3))]
    degree_of = dict(gens)
    trunc = Truncation(-rng.randint(1, 3), rng.randint(1, 3),
                       rng.randint(3, 4))

    def words_of(names, degree, max_len):
        return [word_label(combo) for length in range(max_len + 1)
                for combo in itertools.product(names, repeat=length)
                if sum(degree_of[g] for g in combo) == degree]

    def combination(words):
        vec = {}
        for w in rng.sample(words, min(len(words), rng.randint(1, 3))):
            c = field.of(rng.choice((-2, -1, 1, 2, 3)))
            if not field.is_zero(c):
                vec[w] = c
        return vec

    names = list(degree_of)
    d_gen = {}
    if rng.random() < 0.6:
        # d on one generator x; the relations avoid x, so d preserves them
        x = rng.choice(names)
        targets = words_of(names, degree_of[x] - 1, 3)
        if targets:
            d_gen[x] = combination(targets)
        names = [g for g in names if g != x]
    relations = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(trunc.degree_min - 1, trunc.degree_max + 1)
        words = words_of(names, degree, trunc.weight_cap + 1)
        rel = combination(words) if words else {}
        if rel:
            relations.append(rel)
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(trunc.degree_min, trunc.degree_max)
        words = [w for w in words_of(names, degree, 2) if w != UNIT_WORD]
        rel = combination(words) if words else {}
        if rel:
            relations.append(rel)
    return PresentedAlgebra(field, gens, relations, d_gen, trunc)


def _tally_relations(P, seen):
    """Count P's relations that mix lengths, lie past the cap in a window
    degree, lie outside the window, or are scalars in the window."""
    degree_of = dict(P.generators)
    for rel in P.relations:
        lens = {len(word_syms(w)) for w in rel}
        in_window = P.trunc.contains(
            sum(degree_of[g] for g in word_syms(next(iter(rel)))))
        seen["mixed lengths"] += len(lens) > 1
        seen["partial"] += in_window and max(lens) > P.trunc.weight_cap
        seen["outside"] += not in_window
        seen["level 0"] += in_window and lens == {0}


def _every_parent_safe(monkeypatch):
    """Make normal_forms skip extensions without the safety rule."""
    kind = algebras._parent_kind
    monkeypatch.setattr(algebras, "_parent_kind",
                        lambda *args: min(kind(*args), 1))


def test_normal_forms_matches_reference_loop(made, monkeypatch):
    def adds_without_safety(P):
        with monkeypatch.context() as m:
            _every_parent_safe(m)
            made.clear()
            _closure_slices(P)
        return sum(rs.adds for rs in made)

    rng = random.Random(1999)
    seen = {"partial": 0, "outside": 0, "mixed lengths": 0, "nonzero d": 0,
            "rows": 0, "level 0": 0, "skipped": 0, "unsafe": 0}
    for field in (QQ, Field(5), Field(2)):
        for _ in range(40):
            P = _random_presentation(rng, field)
            A, adds, ref_adds = _check_against_reference(P, made)
            seen["rows"] += sum(rs.rank for rs in made)
            seen["skipped"] += adds < ref_adds
            # the safety rule decided whether some triple was built
            seen["unsafe"] += adds_without_safety(P) != adds

            _tally_relations(P, seen)
            seen["nonzero d"] += not A.d.is_zero()
    assert min(seen.values()) >= 3, seen


def test_free_word_space_lists_words_by_length_then_generator_order():
    # normal_forms reads each degree's words in this order, unsorted
    rng = random.Random(404)
    for _ in range(60):
        gens = [(f"x{i}", rng.randint(-2, 2))
                for i in rng.sample(range(5), rng.randint(1, 4))]
        trunc = Truncation(-rng.randint(0, 4), rng.randint(0, 4),
                           rng.randint(1, 5))
        free = free_word_space(QQ, gens, trunc)
        key = _word_sort_key(gens)
        for n in free.degrees():
            words = free.basis(n)
            assert words == sorted(words, key=key)
            assert len({key(w) for w in words}) == len(words)


def test_closure_needs_the_safety_rule(made, monkeypatch):
    # g0 = 0 with g1, g2 of degrees ±2 in -1:2: rows of degree 0 come from
    # u·g0·v with deg u = ±2, and one more letter of degree ±2 takes such a
    # u out of the window; skipping those extensions loses rows
    P = PresentedAlgebra(QQ, [("g0", 0), ("g1", 2), ("g2", -2)],
                         [{word_label(("g0",)): QQ.one()}], {},
                         Truncation(-1, 2, 4))
    ref = _ref_normal_forms(P)[0]
    words = free_word_space(QQ, P.generators, P.trunc).labels()

    def slices():
        # the recorded slices are keyed by word ids, the reference by words
        return [({words[p]: {words[k]: c for k, c in row.items()}
                  for p, row in _reduced_rows(rs).items()},
                 _reduced_rows(ref[n]))
                for rs, n in zip(made, sorted(ref))]

    _check_against_reference(P, made)
    assert all(got == want for got, want in slices())
    _every_parent_safe(monkeypatch)
    made.clear()
    _closure_slices(P)
    assert len(made) == len(ref)
    assert any(got != want for got, want in slices())


def _sweedler_product_presentations():
    """The presentations of the sweedler-product bench workload."""
    from sweedler import barcobar, sweedler_ops as so

    T = Truncation.parse

    def preset(name, trunc):
        return load_preset(name).build(QQ, trunc)

    dual6 = preset("dual-numbers", T("-6:6:6"))
    sps = [so.example_construction("diff_alg", dual6, T("-6:6:5"), n=n)
           for n in (0, 1)]
    for coalgebra, dmin in (("primitive-coalgebra:1", -2),
                            ("diagonal-coalgebra:2", -3)):
        tr = Truncation(dmin, -dmin, 4)
        mc = barcobar.mc_algebra(QQ, Truncation(dmin, 0, 4))
        sps.append(so.sweedler_product(preset(coalgebra, tr), mc.algebra, tr,
                                       pointed=True))
    tr = T("-4:4:4")
    sps.append(so.sweedler_product(so.primitive_coalgebra(QQ, tr, degree=1),
                                   tensor_algebra(QQ, [("x", 1)], tr), tr))
    tr = T("-6:6:4")
    sps.append(so.sweedler_product(preset("diagonal-coalgebra:2", tr),
                                   preset("dual-numbers", tr), tr))
    return [sp.presentation for sp in sps]


def test_closure_halves_the_ideal_elements_on_sweedler_products(made):
    adds = ref_adds = 0
    for P in _sweedler_product_presentations():
        _, a, r = _check_against_reference(P, made)
        adds, ref_adds = adds + a, ref_adds + r
    assert adds <= ref_adds // 2


# -- normal forms by rewriting --------------------------------------------------
#
# Where the window cuts no multiplier, normal_forms rewrites by a truncated
# Gröbner basis instead of eliminating the closure's slices.  Both give the
# residue modulo the same span in the same pivot order, so the algebras
# must agree in everything, values and key order included.


def _snapshot(A):
    """Bases per degree, d's columns, every pair product and the inexact
    degrees, each vector as its list of items."""
    labels = A.space.labels()
    return ({n: A.space.basis(n) for n in A.space.degrees()},
            [list(A.d.apply_label(w).items()) for w in labels],
            [list(A._pair(a, b).items()) for a in labels for b in labels],
            sorted(A.space.inexact_degrees()))


def _cuts_no_multiplier(P):
    free = free_word_space(P.field, P.generators, P.trunc)
    shapes = algebras._screen_relations(free, dict(P.generators),
                                        P.relations)[1]
    return algebras._cuts_no_multiplier(dict(P.generators).values(), shapes,
                                        P.trunc)


def test_rewriting_matches_the_closure(monkeypatch):
    rng = random.Random(2207)
    seen = {"partial": 0, "outside": 0, "mixed lengths": 0, "level 0": 0,
            "degree 0": 0, "nonzero d": 0, "killed": 0}
    for field in (QQ, Field(5), Field(2)):
        taken = 0
        while taken < 40:
            P = _random_presentation(rng, field)
            if not _cuts_no_multiplier(P):
                continue
            taken += 1
            with monkeypatch.context() as m:
                m.setattr(algebras, "_ideal_slices", None)
                A = normal_forms(P)
            with monkeypatch.context() as m:
                m.setattr(algebras, "_cuts_no_multiplier",
                          lambda *args: False)
                assert _snapshot(A) == _snapshot(normal_forms(P))
            _tally_relations(P, seen)
            seen["degree 0"] += 0 in dict(P.generators).values()
            seen["nonzero d"] += not A.d.is_zero()
            seen["killed"] += A.space.dim(0) < free_word_space(
                field, P.generators, P.trunc).dim(0)
    assert min(seen.values()) >= 3, seen


def _ref_normal_words(P, usable):
    """The normal words of the rewriting path as it found them before it
    pruned by tips: every free word, coded as a string, searched for a tip
    whose rule rewrites a word of its length."""
    free = free_word_space(P.field, P.generators, P.trunc)
    cap = P.trunc.weight_cap
    code = {g: chr(i) for i, (g, _) in enumerate(P.generators)}

    def encode(w):
        return "".join(code[x] for x in word_syms(w))

    rules = algebras._groebner_rules(
        P.field, {code[g]: d for g, d in P.generators},
        [{encode(w): c for w, c in rel.items() if not P.field.is_zero(c)}
         for rel, _ in usable], P.trunc)
    return {n: [w for w in free.basis(n)
                if not any(i <= cap - len(word_syms(w)) and tip in encode(w)
                           for tip, i, _ in rules)]
            for n in free.degrees()}, rules


def test_tip_pruned_listing_is_the_filter_of_every_free_word():
    rng = random.Random(2311)
    seen = {"scalar": 0, "killed 1": 0, "pruned": 0, "slack > 0": 0}
    for field in (QQ, Field(2), Field(5)):
        taken = 0
        while taken < 110:
            P = _random_presentation(rng, field)
            scalar = rng.random() < 0.2
            if scalar:
                # 1 alone, or 1 plus a letter of degree 0
                zero = [word_label((g,)) for g, d in P.generators
                        if d == 0]
                P.relations.append({UNIT_WORD: field.one(),
                                    **{w: field.of(2) for w in zero[:1]}})
            if not _cuts_no_multiplier(P):
                continue
            taken += 1
            seen["scalar"] += scalar
            free = free_word_space(field, P.generators, P.trunc)
            usable = algebras._screen_relations(free, dict(P.generators),
                                                P.relations)[0]
            want, rules = _ref_normal_words(P, usable)
            assert algebras._rewriting(free, P.generators, usable)[0] == want
            seen["killed 1"] += 0 in want and UNIT_WORD not in want[0]
            # a slack-0 tip shorter than the cap stops its prefixes
            seen["pruned"] += any(i == 0 and len(tip) < P.trunc.weight_cap
                                  for tip, i, _ in rules)
            seen["slack > 0"] += any(i > 0 for _, i, _ in rules)
    assert min(seen.values()) >= 10, seen


def _narrow_window_presentation():
    # x·x and y·y lie in degrees ±2, outside -1:1; u·r·v lands back inside
    x, y = ("x",), ("y",)
    return PresentedAlgebra(QQ, [("x", 1), ("y", -1)],
                            [{word_label(x + x): QQ.one()},
                             {word_label(y + y): QQ.one()}], {},
                            Truncation(-1, 1, 4))


def test_the_closure_stays_where_the_window_cuts_a_multiplier():
    # the window cuts the multipliers of x·x and y·y, so the closure's
    # slices are not those of the length-truncated ideal: no rewriting
    assert not _cuts_no_multiplier(_narrow_window_presentation())


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the closure drops a relation whose degree lies outside "
    "the window, so words that contain it stay normal forms"))
def test_a_relation_outside_the_window_still_kills_its_multiples():
    A = normal_forms(_narrow_window_presentation())
    # x⊗y⊗x holds no x⊗x and no y⊗y, so it is a basis word of the quotient
    assert word_label(("x", "y", "x")) in A.space
    for syms in (("y", "x", "x"), ("x", "x", "y")):
        assert word_label(syms) not in A.space


@pytest.mark.parametrize("relations, d_gen, message", [
    ([{word_label(("q",)): 1}], {}, "relation 1 uses 'q'"),
    ([{word_label(("x", "x")): 1}, {word_label(("y", "q", "y")): 2}], {},
     "relation 2 uses 'q'"),
    ([], {"x": {word_label(("y", "q")): 1}}, "d(x) uses 'q'"),
    ([], {"q": {word_label(("y",)): 1}}, "d is given on 'q'"),
], ids=["relation", "second relation", "d on a generator", "d on q"])
def test_a_letter_that_is_no_generator_raises_one_error(relations, d_gen,
                                                        message):
    # a letter that is no generator ends in one AlgebraError naming it and
    # where it appeared, in a relation and in d alike: no KeyError from
    # the relation's degree, and no d term dropped without a word
    P = PresentedAlgebra(QQ, [("x", 1), ("y", 0)], relations, d_gen,
                         Truncation.parse("0:4:3"))
    with pytest.raises(AlgebraError) as err:
        normal_forms(P)
    assert str(err.value) == message + ", which is no generator"


@pytest.mark.parametrize("cuts", [True, False], ids=["rewriting", "closure"])
def test_a_coefficient_that_vanishes_in_the_field_imposes_nothing(
        monkeypatch, cuts):
    # 2·x⊗x is zero over F2 and 3·x⊗x over F3; each path must read the
    # relation reduced into the field, with its vanishing terms dropped
    monkeypatch.setattr(algebras, "_cuts_no_multiplier",
                        lambda *args: cuts)
    tr = Truncation(0, 4, 3)
    xx, xy = word_label(("x", "x")), word_label(("x", "y"))
    for field, gens, rels, want in (
            (Field(2), [("x", 1)], [{xx: 2}], []),
            (Field(2), [("x", 1), ("y", -1)], [{xx: 2}], []),
            (Field(3), [("x", 1), ("y", 1)], [{xx: 3, xy: 1}], [{xy: 1}]),
            (Field(3), [("x", 1), ("y", -1)], [{xx: 6}, {xy: 4}],
             [{xy: 1}])):
        A = normal_forms(PresentedAlgebra(field, gens, rels, {}, tr))
        B = normal_forms(PresentedAlgebra(field, gens, want, {}, tr))
        assert A.space.dims() == B.space.dims()
        assert A.space.labels() == B.space.labels()
        assert A.space.inexact_degrees() == B.space.inexact_degrees()
    assert normal_forms(PresentedAlgebra(
        Field(2), [("x", 1)], [{xx: 2}], {}, tr)).space.dims() == {
            0: 1, 1: 1, 2: 1, 3: 1}
