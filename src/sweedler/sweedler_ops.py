"""Sweedler operations: convolution, measurings, C▷A, {T(X),B}, duality.

`convolution_algebra` builds [C,A] on its basis of elementary maps;
`convolve` is the same product on whole maps, f⋆g.  Twisting cochains
(α⋆α) and the antipode identity of mc (S⋆id = id⋆S = eε) both use it.

The Sweedler product is always materialized through the presentation engine
(generators c▷a, relations (m),(u) and, pointed, (a)), then closed-form
cases are compared against it in tests rather than silently preferred.

The Sweedler hom is implemented only in its formula case: for a free source
algebra, {T(X),B} = T^c([X,B]) whenever [X,B] is strictly positive or
strictly negative, the regime where the cofree coalgebra has a formula.
The general equalizer {A,B}, and Prop-style corollaries such as
{A,B} ≅ Hom(B*, A^∨) for graded-finite B, are intentionally not computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .scalars import Field
from .graded import (GradedSpace, GradedMap, Truncation, tensor_space,
                     tensor_label, hom_label, label_str, dual_label,
                     target_index, tensor_sum_apply)
from .complexes import DgSpace, dg_hom
from .algebras import (DgAlgebra, PresentedAlgebra, normal_forms, word_label,
                       word_syms, UNIT_WORD, tensor_algebra, AlgebraError)
from .coalgebras import (DgCoalgebra, TensorCoalgebra, tensor_coalgebra,
                         coshuffle_coalgebra, coextend_coderivation,
                         finite_dual, dual_algebra, check_cofree_regime,
                         CoalgebraError)
from .presets import load_preset, matrix_label
from .linalg import vaddmul_into, vscale


# -- convolution ------------------------------------------------------------------


def convolution_algebra(C: DgCoalgebra, A: DgAlgebra,
                        name: str = "") -> DgAlgebra:
    """[C,A] with (f⋆g)(c) = (-1)^{|g||c1|} f(c1)g(c2) and unit e∘ε."""
    H = dg_hom(C.dg, A.dg)
    space = H.space
    field = space.field
    # hom pairs falling outside the degree window make the nearest window
    # boundary degree untrustworthy (products can leak across it)
    for c in C.space.labels():
        for a in A.space.labels():
            n = A.space.degree_of(a) - C.space.degree_of(c)
            if not space.window.contains(n):
                clamp = max(min(n, space.window.degree_max),
                            space.window.degree_min)
                space.mark_inexact(clamp)
    into = target_index(C.comult)    # c1⊗c2 -> [(x, coefficient in Δx)]

    def pair(fg, gg):
        _, c1, a1 = fg
        _, c2, a2 = gg
        gdeg = space.degree_of(gg)
        prod = A._pair(a1, a2)
        out: dict = {}
        for x, coeff in into.get(tensor_label(c1, c2), ()):
            sign = field.sign(gdeg * C.space.degree_of(c1))
            for m, cm in prod.items():
                lab = hom_label(x, m)
                if lab in space:
                    vaddmul_into(field, out,
                                 field.mul(coeff, field.mul(sign, cm)),
                                 {lab: field.one()})
        return out

    unit = None
    if A.unit is not None and C.counit is not None:
        unit = {}
        for x, ex in C.counit.items():
            for u, cu in A.unit.items():
                lab = hom_label(x, u)
                if lab in space:
                    unit[lab] = field.mul(ex, cu)
    aug = None
    if C.atom is not None and A.aug is not None:
        # evaluation at the atom followed by the augmentation of A
        aug = {}
        for lab in space.labels():
            _, c, a = lab
            if c == C.atom:
                v = A.aug.get(a, field.zero())
                if not field.is_zero(v):
                    aug[lab] = v
    return DgAlgebra(H, pair, unit, aug, name=name or f"[{C.name},{A.name}]")


def convolve(f: GradedMap, g: GradedMap, C: DgCoalgebra,
             A: DgAlgebra) -> GradedMap:
    """f⋆g: C → A, the product of [C,A] on whole maps:
    (f⋆g)(c) = Σ (-1)^{|g||c1|} f(c1)g(c2), of degree |f| + |g|."""
    field = f.field
    out = GradedMap(C.space, A.space, f.degree + g.degree)
    for c in C.space.labels():
        val: dict = {}
        for (_, c1, c2), coeff in C.comult.apply_label(c).items():
            sign = field.sign(g.degree * C.space.degree_of(c1))
            vaddmul_into(field, val, field.mul(coeff, sign),
                         A.product(f.apply_label(c1), g.apply_label(c2)))
        out.set(c, A.space.project(val))
    return out


# -- measurings -------------------------------------------------------------------


@dataclass
class MeasuringReport:
    checked: int = 0
    skipped: int = 0
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def first_failure(self) -> str:
        return self.failures[0] if self.failures else ""


def verify_measuring(f: GradedMap, C: DgCoalgebra, A: DgAlgebra,
                     B: DgAlgebra, pointed: bool = False) -> MeasuringReport:
    """Check f: C⊗A → B against the measuring conditions, basiswise.

    Conditions: f(c,ab) = (-1)^{|a||c2|} f(c1,a) f(c2,b); f(c,1) = ε(c)1;
    d f(c,a) = f(dc,a) + (-1)^{|c|} f(c,da); pointed adds ε f = ε⊗ε and
    f(e,a) = ε(a) e.
    """
    report = MeasuringReport()
    field = f.field
    T = f.source
    one = field.one()

    def F(cvec: dict, avec: dict) -> dict:
        out: dict = {}
        for c, cc in cvec.items():
            for a, ca in avec.items():
                lab = tensor_label(c, a)
                if lab in T:
                    vaddmul_into(field, out, field.mul(cc, ca),
                                 f.apply_label(lab))
        return out

    for c in C.space.labels():
        for a in A.space.labels():
            if tensor_label(c, a) not in T:
                report.skipped += 1
                continue
            for b in A.space.labels():
                prod = A._pair(a, b)
                lhs = F({c: one}, prod)
                rhs: dict = {}
                for t, coeff in C.comult.apply_label(c).items():
                    _, c1, c2 = t
                    sign = field.sign(A.space.degree_of(a)
                                      * C.space.degree_of(c2))
                    part = B.product(F({c1: one}, {a: one}),
                                     F({c2: one}, {b: one}))
                    vaddmul_into(field, rhs, field.mul(coeff, sign), part)
                report.checked += 1
                if lhs != rhs:
                    report.failures.append(
                        f"multiplicativity fails at (c,a,b)=("
                        f"{label_str(c)},{label_str(a)},{label_str(b)})")
                    return report
    if A.unit is not None and C.counit is not None and B.unit is not None:
        for c in C.space.labels():
            lhs = F({c: one}, A.unit)
            rhs = vscale(field, C.counit.get(c, field.zero()), B.unit)
            report.checked += 1
            if lhs != rhs:
                report.failures.append(f"unit condition fails at {label_str(c)}")
                return report
    for c in C.space.labels():
        for a in A.space.labels():
            if tensor_label(c, a) not in T:
                continue
            lhs = B.d(F({c: one}, {a: one}))
            rhs = f(tensor_sum_apply(C.d, A.d, {tensor_label(c, a): one}, T))
            report.checked += 1
            if lhs != rhs:
                report.failures.append(
                    f"chain condition fails at ({label_str(c)},{label_str(a)})")
                return report
    if pointed:
        if C.atom is None or A.aug is None or B.aug is None:
            raise CoalgebraError("pointed measuring needs pointed (co)algebras")
        for c in C.space.labels():
            for a in A.space.labels():
                if tensor_label(c, a) not in T:
                    continue
                lhs = B.augmentation(F({c: one}, {a: one}))
                rhs = field.mul(C.counit.get(c, field.zero()),
                                A.aug.get(a, field.zero()))
                report.checked += 1
                if lhs != rhs:
                    report.failures.append(
                        f"pointedness ε∘f fails at ({label_str(c)},{label_str(a)})")
                    return report
        for a in A.space.labels():
            if tensor_label(C.atom, a) not in T:
                continue
            lhs = F({C.atom: one}, {a: one})
            rhs = vscale(field, A.aug.get(a, field.zero()), B.unit)
            report.checked += 1
            if lhs != rhs:
                report.failures.append(
                    f"pointedness f(e,-) fails at {label_str(a)}")
                return report
    return report


# -- the Sweedler product -----------------------------------------------------------


def rh_label(c, a) -> tuple:
    return ("rh", c, a)


@dataclass
class SweedlerProduct:
    algebra: DgAlgebra
    measuring: GradedMap          # C⊗A → C▷A, the universal measuring
    presentation: PresentedAlgebra
    pointed: bool


def sweedler_product(C: DgCoalgebra, A: DgAlgebra, trunc: Truncation,
                     pointed: bool = False,
                     verify: bool = False) -> SweedlerProduct:
    """C▷A as the presented algebra on symbols c▷a.

    Relations: (m) c▷(ab) = (-1)^{|a||c2|} (c1▷a)(c2▷b); (u) c▷1 = ε(c);
    pointed adds (a) e▷a = ε(a) and the augmentation ε(c▷a) = ε(c)ε(a).
    The differential is d(c▷a) = dc▷a + (-1)^{|c|} c▷da.
    """
    field = C.field
    one = field.one()
    generators = []
    gen_weights = {}
    unit_labels = set(A.unit or {})
    for c in C.space.labels():
        for a in A.space.labels():
            g = rh_label(c, a)
            degree = C.space.degree_of(c) + A.space.degree_of(a)
            generators.append((g, degree))
            w = A.space.weight_of(a)
            if w is None:
                w = 0 if a in unit_labels else 1
            gen_weights[g] = w

    def lift(cvec: dict, avec: dict) -> dict:
        """Bilinear c⊗a ↦ word (c▷a) in the free algebra."""
        out: dict = {}
        for c, cc in cvec.items():
            for a, ca in avec.items():
                vaddmul_into(field, out, field.mul(cc, ca),
                             {word_label((rh_label(c, a),)): one})
        return out

    relations = []
    for c in C.space.labels():
        delta = C.comult.apply_label(c)
        cdeg = C.space.degree_of(c)
        for a in A.space.labels():
            for b in A.space.labels():
                rel_deg = cdeg + A.space.degree_of(a) + A.space.degree_of(b)
                if not trunc.contains(rel_deg):
                    continue
                lhs = lift({c: one}, A._pair(a, b))
                rhs: dict = {}
                for t, coeff in delta.items():
                    _, c1, c2 = t
                    sign = field.sign(A.space.degree_of(a)
                                      * C.space.degree_of(c2))
                    w = word_label((rh_label(c1, a), rh_label(c2, b)))
                    vaddmul_into(field, rhs, field.mul(coeff, sign), {w: one})
                relations.append(vaddmul_into(field, lhs, field.of(-1), rhs))
        # (u): c ▷ 1 = ε(c)
        if A.unit is not None and C.counit is not None:
            rel = lift({c: one}, A.unit)
            vaddmul_into(field, rel,
                         field.neg(C.counit.get(c, field.zero())),
                         {UNIT_WORD: one})
            relations.append(rel)
    if pointed:
        if C.atom is None or A.aug is None:
            raise CoalgebraError("pointed Sweedler product needs pointed data")
        for a in A.space.labels():
            rel = lift({C.atom: one}, {a: one})
            vaddmul_into(field, rel, field.neg(A.aug.get(a, field.zero())),
                         {UNIT_WORD: one})
            relations.append(rel)

    d_gen = {}
    for c in C.space.labels():
        for a in A.space.labels():
            img = lift(C.d.apply_label(c), {a: one})
            sign = field.sign(C.space.degree_of(c))
            vaddmul_into(field, img, sign, lift({c: one}, A.d.apply_label(a)))
            d_gen[rh_label(c, a)] = img

    aug_gen = None
    if pointed:
        aug_gen = {}
        for c in C.space.labels():
            for a in A.space.labels():
                aug_gen[rh_label(c, a)] = field.mul(
                    C.counit.get(c, field.zero()),
                    A.aug.get(a, field.zero()))

    P = PresentedAlgebra(field, generators, relations, d_gen, trunc,
                         aug_gen=aug_gen,
                         name=f"{C.name}▷{A.name}" + ("•" if pointed else ""),
                         gen_weights=gen_weights)
    alg = normal_forms(P)

    T = tensor_space(C.space, A.space)
    Phi = GradedMap(T, alg.space, 0)
    for lab in T.labels():
        _, c, a = lab
        Phi.set(lab, alg.product(alg.unit,
                                 {word_label((rh_label(c, a),)): one}))
    result = SweedlerProduct(alg, Phi, P, pointed)
    if verify:
        rep = verify_measuring(Phi, C, A, alg, pointed=pointed)
        if not rep.passed:
            raise AlgebraError(
                f"universal measuring failed: {rep.first_failure()}")
    return result


# -- type-I example constructions ------------------------------------------------------


def matrix_algebra(field: Field, n: int, trunc: Truncation) -> DgAlgebra:
    """Mat(n,F) in degree 0, with basis e_ij and (ab)_ij = Σ a_ik b_kj."""
    space = GradedSpace(field, trunc)
    label = {(i, j): matrix_label(i, j, n) for i in range(1, n + 1)
             for j in range(1, n + 1)}
    entry = {lab: ij for ij, lab in label.items()}
    for lab in label.values():
        space.add(lab, 0)

    def pair(a, b):
        i, j = entry[a]
        k, l = entry[b]
        if j == k:
            return {label[i, l]: field.one()}
        return {}

    unit = {label[i, i]: field.one() for i in range(1, n + 1)}
    return DgAlgebra(DgSpace(space), pair, unit, name=f"Mat({n})")


def example_construction(kind: str, A: DgAlgebra, trunc: Truncation,
                         n: int = 1, verify: bool = False) -> SweedlerProduct:
    """Named Sweedler products: matrix(n), diff_alg(n), jet, divided_jet."""
    field = A.field
    if kind == "matrix":
        C = finite_dual(matrix_algebra(field, n, trunc), name=f"Mat({n})*")
    elif kind == "diff_alg":
        C = primitive_coalgebra(field, trunc, degree=n)
    elif kind == "jet":
        C = tensor_coalgebra(field, [("x", 0)], trunc, name="Tc(x)")
    elif kind == "divided_jet":
        C = coshuffle_coalgebra(field, [("x", 0)], trunc, name="Tcsh(x)")
    else:
        raise AlgebraError(f"unknown example construction {kind!r}")
    return sweedler_product(C, A, trunc, verify=verify)


def primitive_coalgebra(field: Field, trunc: Truncation,
                        degree: int = 1, name: str = "") -> DgCoalgebra:
    """Fδ₊ = F ⊕ Fδ with Δ(δ) = δ⊗e + e⊗δ: the `primitive-coalgebra`
    preset, built at this field and window."""
    C = load_preset(f"primitive-coalgebra:{degree}").build(field, trunc)
    C.name = name or "Fδ+"
    return C


# -- the Sweedler hom, formula case ------------------------------------------------------


@dataclass
class SweedlerHom:
    coalgebra: DgCoalgebra            # T^c([X,B]) with the induced coderivation
    measuring: GradedMap              # T^c([X,B]) ⊗ T(X) → B, couniversal
    source: DgAlgebra                 # the free algebra T(X)
    pair_degrees: dict                # hom generator -> (x, b) with degrees


def hom_flat(field: Field, word, B: DgAlgebra, x_syms: tuple,
             deg_of_x: dict, B_space: GradedSpace) -> dict:
    """h♭ on a word of X-generators: Π f_i(x_i) with the strength sign.

    `word` is a word label over hom-pair generators ("h", x, b); the value is
    (-1)^{Σ_{i<j} |x_i||f_j|} b_1·…·b_k in B when the x's line up, else 0.
    """
    fs = word_syms(word)
    if len(fs) != len(x_syms):
        return {}
    prod = dict(B.unit) if B.unit is not None else {}
    for f, x in zip(fs, x_syms):
        _, xf, bf = f
        if xf != x:
            return {}
        prod = B.product(prod, {bf: field.one()})
    exp = 0
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            fdeg = B_space.degree_of(fs[j][2]) - deg_of_x[fs[j][1]]
            exp += deg_of_x[x_syms[i]] * fdeg
    return vscale(field, field.sign(exp), prod)


def sweedler_hom_free(field: Field, x_gens: list[tuple], B: DgAlgebra,
                      trunc: Truncation, pointed: bool = True,
                      phi_der: dict | None = None,
                      name: str = "") -> SweedlerHom:
    """{T(X),B} = T^c([X,B]) where [X,B] is strictly positive or negative.

    The source is T(X) with the derivation extending `phi_der` (default: the
    zero map; pass u ↦ -u² to hom out of the Maurer-Cartan algebra).  The
    differential of the result is the unique coderivation whose
    corestriction is h ↦ d_B h♭ i - (-1)^{|h|} h♭ φ, and the couniversal
    measuring T^c([X,B])⊗T(X) → B is returned alongside.
    """
    deg_of_x = dict(x_gens)
    b_labels = B.reduced_basis() if pointed else B.space.labels()
    generators = []
    for x, dx in x_gens:
        for b in b_labels:
            h = hom_label(x, b)
            hdeg = B.space.degree_of(b) - dx
            generators.append((h, hdeg))
    check_cofree_regime(generators)

    base = tensor_coalgebra(field, generators, trunc,
                            name=name or f"{{T(X),{B.name}}}")
    space = base.space
    phi_der = phi_der or {}
    allowed_b = set(b_labels)

    # corestriction of the differential
    phi: dict = {}
    for w in space.labels():
        fs = word_syms(w)
        val: dict = {}
        if len(fs) == 1:
            _, x, b = fs[0]
            for b2, coeff in B.d.apply_label(b).items():
                vaddmul_into(field, val, coeff,
                             {hom_label(x, b2): field.one()})
        # -(-1)^{|h|} h♭(φ(x)) summed over generators x
        hdeg = space.degree_of(w)
        sign = field.sign(1 + hdeg)
        for x, dx in x_gens:
            for xw, coeff in phi_der.get(x, {}).items():
                flat = hom_flat(field, w, B, word_syms(xw), deg_of_x, B.space)
                for b2, c2 in flat.items():
                    if b2 not in allowed_b:
                        continue
                    vaddmul_into(field, val,
                                 field.mul(sign, field.mul(coeff, c2)),
                                 {hom_label(x, b2): field.one()})
        if val:
            phi[w] = val
    D = coextend_coderivation(space, generators, phi, -1)
    carrier = TensorCoalgebra(DgSpace(space, D), base.TT, name=base.name)

    # couniversal measuring ρ(h ⊗ x-word) = h♭(x-word)
    TX = tensor_algebra(field, x_gens, trunc, d_gen=phi_der, augmented=True,
                        name="T(X)")
    T = tensor_space(space, TX.space)
    rho = GradedMap(T, B.space, 0)
    for lab in T.labels():
        _, h, xw = lab
        if not word_syms(h) and not word_syms(xw):
            rho.set(lab, dict(B.unit or {}))
            continue
        rho.set(lab, B.space.project(
            hom_flat(field, h, B, word_syms(xw), deg_of_x, B.space)))
    return SweedlerHom(carrier, rho, TX,
                       {g: d for g, d in generators})


def corestriction_identity_report(sh: SweedlerHom, field: Field,
                                  x_gens: list[tuple],
                                  phi_der: dict | None, B: DgAlgebra) -> list:
    """Check q(d(h)) = d_B h♭ i - (-1)^{|h|} h♭ d₁ i on all basis words."""
    phi_der = phi_der or {}
    space = sh.coalgebra.space
    deg_of_x = dict(x_gens)
    failures = []
    for h in space.labels():
        dh = sh.coalgebra.d.apply_label(h)
        lhs: dict = {}   # q(d(h)): length-1 component, as a map X → B
        for w, coeff in dh.items():
            fs = word_syms(w)
            if len(fs) == 1:
                _, x, b = fs[0]
                vaddmul_into(field, lhs, coeff, {(x, b): field.one()})
        sign = field.sign(1 + space.degree_of(h))
        rhs: dict = {}
        for x, dx in x_gens:
            val = B.d(hom_flat(field, h, B, (x,), deg_of_x, B.space))
            for xw, coeff in phi_der.get(x, {}).items():
                vaddmul_into(field, val, field.mul(sign, coeff),
                             hom_flat(field, h, B, word_syms(xw), deg_of_x,
                                      B.space))
            for b, c in val.items():
                vaddmul_into(field, rhs, c, {(x, b): field.one()})
        if lhs != rhs:
            failures.append(label_str(h))
    return failures


# -- Sweedler duality ------------------------------------------------------------------


def sweedler_dual(A: DgAlgebra, name: str = "") -> DgCoalgebra:
    """A^∨ = A* for graded-finite A bounded in the window (formula regime)."""
    return finite_dual(A, name=name or f"{A.name}∨")


def double_dual_compare(A: DgAlgebra) -> list[str]:
    """Check (A*)* ≅ A under x ↦ (-1)^{|x|} x**, as algebras with unit."""
    field = A.field
    DD = dual_algebra(finite_dual(A))
    issues = []

    def into(vec: dict) -> dict:
        out = {}
        for x, c in vec.items():
            sign = field.sign(A.space.degree_of(x))
            out[dual_label(dual_label(x))] = field.mul(sign, c)
        return out

    one = field.one()
    # every pair: in A⊗B or C▷A a pair past the cap can have a product
    for a in A.space.labels():
        for b in A.space.labels():
            lhs = into(A._pair(a, b))
            rhs = DD.product(into({a: one}), into({b: one}))
            if lhs != rhs:
                issues.append(
                    f"double dual product mismatch at ({label_str(a)},"
                    f"{label_str(b)})")
                return issues
    if A.unit is not None and into(A.unit) != DD.unit:
        issues.append("double dual unit mismatch")
    for a in A.space.labels():
        if into(A.d.apply_label(a)) != DD.d(into({a: one})):
            issues.append(f"double dual differential mismatch at {label_str(a)}")
            return issues
    return issues
