"""Maurer-Cartan algebra, twisting cochains, bar and cobar constructions.

Sign regime.  The global identifications are s = u*, s⁻¹ = u (so s⊗s⁻¹ = 1
and s⁻¹⊗s = -1); the default convention is the minus-sign bar differential
d^int - d^ext together with the plus-sign cobar differential d^int + d^ext,
under which the universal twisting cochains are β(sa) = -a and ω(c) = s⁻¹c.
Both conventions are constructible and conjugate under the automorphism π
multiplying length-n words by (-1)^n; every report names the active
convention.  One rule turns a convention into a sign, for bar and cobar
alike: minus is -1 and plus is +1 (`_convention_sign`), d = d^int +
sign·d^ext, and the adjunction transforms scale generators by the same
sign.  Any other convention raises ConventionMismatch.

Bar:   B A  = (T^c(s A₋), d^int ∓ d^ext), coextending
           sa ↦ -s(da)            (internal)
           sa⊗sb ↦ (-1)^{|a|} s(ab)   (external)
Cobar: Ω C = (T(s⁻¹ C₋), d^int ± d^ext), extending
           s⁻¹c ↦ -s⁻¹(dc)           (internal)
           s⁻¹c ↦ -(-1)^{|c¹|} s⁻¹c¹ ⊗ s⁻¹c²   (external, reduced coproduct)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .scalars import Field
from .graded import (GradedSpace, GradedMap, Truncation, EnumerationTooLarge,
                     tensor_label, tensor_space, tensor_sum_apply, susp_label,
                     label_str, identity_map)
from .complexes import DgSpace
from .algebras import (DgAlgebra, tensor_algebra, extend_derivation,
                       tensor_pair, word_label, word_syms, UNIT_WORD,
                       AlgebraError)
from .coalgebras import (DgCoalgebra, TensorCoalgebra, tensor_coalgebra,
                         coshuffle_comult, coextend_coderivation, coextend_map,
                         ReducedCoalgebra, shuffle_product)
from .sweedler_ops import convolve
from .linalg import vaddmul, vaddmul_into, vscale


class ConventionMismatch(Exception):
    pass


class NotCocommutative(Exception):
    pass


class NotCommutative(Exception):
    pass


MINUS, PLUS = "minus", "plus"


def _convention_sign(field: Field, convention: str):
    """-1 for the minus convention, +1 for plus, for bar and cobar alike."""
    if convention == MINUS:
        return field.of(-1)
    if convention == PLUS:
        return field.one()
    raise ConventionMismatch(
        f"unknown convention {convention!r}, want {MINUS} or {PLUS}")


# -- the Maurer-Cartan algebra -------------------------------------------------------


@dataclass
class MaurerCartanAlgebra:
    algebra: DgAlgebra
    comult: GradedMap
    counit: dict
    antipode: GradedMap

    @property
    def space(self):
        return self.algebra.space


def mc_algebra(field: Field, trunc: Truncation) -> MaurerCartanAlgebra:
    """mc = (T(u), du = -u²), |u| = -1, with its Hopf structure.

    Construction verifies du + u² = 0, the parity formula for d(uⁿ), the
    dg-coalgebra axioms of the coshuffle coproduct, and the antipode
    convolution identity S⋆id = id⋆S = eε on the window.
    """
    if trunc.weight_cap < 2:
        raise AlgebraError("mc needs weight_cap ≥ 2")
    u = "u"
    d_gen = {u: {word_label((u, u)): field.of(-1)}}
    alg = tensor_algebra(field, [(u, -1)], trunc, d_gen=d_gen,
                         augmented=True, name="mc")
    space = alg.space
    comult, leaves = coshuffle_comult(space, {u: -1})
    space.mark_inexact(*leaves)
    counit = {UNIT_WORD: field.one()}
    S = GradedMap(space, space, 0)
    for lab in space.labels():
        n = len(word_syms(lab))
        exp = (n * (n - 1)) // 2 + n
        S.set(lab, {lab: field.sign(exp)})
    mc = MaurerCartanAlgebra(alg, comult, counit, S)
    issues = verify_mc(mc)
    if issues:
        raise AlgebraError(f"mc construction failed: {issues[0]}")
    return mc


def verify_mc(mc: MaurerCartanAlgebra) -> list[str]:
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
    # Δ and ε are algebra maps (bialgebra compatibility)
    issues.extend(bialgebra_compat_issues(alg, mc.comult, mc.counit))
    # antipode convolution identity on words the window can see in full
    ident = identity_map(space)
    left = convolve(mc.antipode, ident, co, alg)
    right = convolve(ident, mc.antipode, co, alg)
    cap = space.window.weight_cap
    for lab in space.labels():
        if len(word_syms(lab)) > cap - 1:
            continue
        want = vscale(field, mc.counit.get(lab, field.zero()), alg.unit)
        if left.apply_label(lab) != want or right.apply_label(lab) != want:
            issues.append(f"antipode identity fails at {label_str(lab)}")
            break
    return issues


def bialgebra_compat_issues(alg: DgAlgebra, comult: GradedMap,
                            counit: dict) -> list[str]:
    """Δ(xy) = Δ(x)Δ(y) with the Koszul middle swap, and ε multiplicative.

    Δ(x)Δ(y) is the product of A⊗A, built without its d; both sides keep
    only the components the target of Δ holds.
    """
    field, zero = alg.field, alg.field.zero()
    space = alg.space
    TT = comult.target
    T = tensor_space(space, space)
    AA = DgAlgebra(DgSpace(T), tensor_pair(alg, alg, T), None)
    for x, y in alg.window_tuples(2):
        lhs = TT.project(comult(alg._pair(x, y)))
        rhs = TT.project(AA.product(comult.apply_label(x),
                                    comult.apply_label(y)))
        if lhs != rhs:
            return [f"Δ not multiplicative at ({label_str(x)},{label_str(y)})"]
        exy = zero
        for m, cm in alg._pair(x, y).items():
            exy = field.add(exy, field.mul(cm, counit.get(m, zero)))
        if exy != field.mul(counit.get(x, zero), counit.get(y, zero)):
            return [f"ε not multiplicative at ({label_str(x)},{label_str(y)})"]
    return []


# -- Maurer-Cartan elements ------------------------------------------------------------


def mc_verify(A: DgAlgebra, a: dict) -> dict:
    """Residue of the Maurer-Cartan equation da + a·a (zero vector = pass)."""
    return vaddmul(A.field, A.d(a), A.field.one(), A.product(a, a))


def mc_enumerate(A: DgAlgebra, limit: int = 200000) -> list[dict]:
    """All Maurer-Cartan elements over F_p, by exhaustive enumeration."""
    out = []
    for cols in _assignments(A.field, [(None, b) for b in A.space.basis(-1)],
                             limit):
        a = cols.get(None, {})
        if not mc_verify(A, a):
            out.append(a)
    return out


# -- twisting cochains ------------------------------------------------------------------


@dataclass
class TwistingCochainReport:
    alpha: GradedMap
    pointed: bool
    failures: list = dc_field(default_factory=list)
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def first_failure(self) -> str:
        return self.failures[0] if self.failures else ""


def verify_twisting_cochain(alpha: GradedMap, C: DgCoalgebra, A: DgAlgebra,
                            pointed: bool = False) -> TwistingCochainReport:
    """Evaluate d_A α + α d_C + α⋆α on every basis element of C."""
    report = TwistingCochainReport(alpha, pointed)
    if alpha.degree != -1:
        report.failures.append(f"degree {alpha.degree} ≠ -1")
        return report
    field = alpha.field
    square = convolve(alpha, alpha, C, A)
    for c in C.space.labels():
        residue = A.d(alpha.apply_label(c))
        vaddmul_into(field, residue, field.one(), alpha(C.d.apply_label(c)))
        vaddmul_into(field, residue, field.one(), square.apply_label(c))
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


# -- bar construction --------------------------------------------------------------------


def s_label(a) -> tuple:
    return susp_label(1, a)


def s_inv_label(c) -> tuple:
    return susp_label(-1, c)


def _length_part(d: GradedMap, keep: bool, coeff) -> GradedMap:
    """coeff times the terms of each column of d that keep (or, with
    keep=False, change) the word length of their source.  A part is a
    checked column's terms times ±1, so it is stored without
    `GradedMap.set`'s checks; an empty part is left out, as `set` does."""
    mul = d.field.mul
    out = GradedMap(d.source, d.target, d.degree)
    for label, col in d.columns.items():
        n = len(word_syms(label))
        part = {k: mul(coeff, c) for k, c in col.items()
                if (len(word_syms(k)) == n) == keep}
        if part:
            out.columns[label] = part
    return out


class _LengthSplit:
    """d_int and d_ext of a bar or cobar construction, read off its d."""

    @cached_property
    def d_int(self) -> GradedMap:
        """The terms of d that keep the word length."""
        return _length_part(self.d, True, self.d.field.one())

    @cached_property
    def d_ext(self) -> GradedMap:
        """sign·(d - d_int), so that d = d_int + sign·d_ext."""
        return _length_part(self.d, False,
                            _convention_sign(self.d.field, self.convention))


@dataclass
class BarConstruction(_LengthSplit):
    coalgebra: DgCoalgebra
    algebra: DgAlgebra              # the input A
    convention: str
    generators: list

    @property
    def d(self) -> GradedMap:
        return self.coalgebra.d


def bar(A: DgAlgebra, trunc: Truncation,
        convention: str = MINUS) -> BarConstruction:
    """B A = (T^c(s A₋), d^int - d^ext) (minus is the default convention).

    d is one coderivation, coextended in one pass from
    φ = φ^int + sign·φ^ext (sign = -1 for minus, +1 for plus), with
    φ^int(sa) = -s(da) on words of length 1 and φ^ext(sa⊗sb) = (-1)^{|a|}
    s(ab) on words of length 2.
    d^int keeps the word length and d^ext lowers it by one, so the two never
    share a term: d^int is read off d as the terms of each column that keep
    the length, and d^ext as sign times the rest, on first use.
    """
    if A.aug is None:
        raise AlgebraError("bar needs an augmented algebra")
    field = A.field
    sign = _convention_sign(field, convention)
    reduced = A.reduced_basis()
    generators = [(s_label(a), A.space.degree_of(a) + 1) for a in reduced]
    base = tensor_coalgebra(field, generators, trunc, name="BA")
    space = base.space

    phi: dict = {}
    for a in reduced:
        w = word_label((s_label(a),))
        val = {s_label(a2): coeff
               for a2, coeff in A.d.apply_label(a).items()}
        if val:
            phi[w] = vscale(field, field.of(-1), val)
    reduced_set = set(reduced)
    for a in reduced:
        a_sign = field.mul(sign, field.sign(A.space.degree_of(a)))
        for b in reduced:
            w = word_label((s_label(a), s_label(b)))
            val = {s_label(m): field.mul(a_sign, coeff)
                   for m, coeff in A._pair(a, b).items() if m in reduced_set}
            if val:
                phi[w] = val
    d = coextend_coderivation(space, generators, phi, -1)
    # base's Δ is not read here: reading it would build it
    coalg = TensorCoalgebra(DgSpace(space, d), base.TT, name=f"B({A.name})")
    return BarConstruction(coalg, A, convention, generators)


@dataclass
class CobarConstruction(_LengthSplit):
    algebra: DgAlgebra
    coalgebra: DgCoalgebra          # the input C
    convention: str
    generators: list
    reduced: ReducedCoalgebra

    @property
    def d(self) -> GradedMap:
        return self.algebra.d


def cobar(C: DgCoalgebra, trunc: Truncation,
          convention: str = PLUS) -> CobarConstruction:
    """Ω C = (T(s⁻¹ C₋), d^int + d^ext) (plus is the default convention).

    d is one derivation, extended in one pass from φ = φ^int + sign·φ^ext
    on generators (sign = +1 for plus, -1 for minus), with
    φ^int(s⁻¹c) = -s⁻¹(dc) and φ^ext(s⁻¹c) = -(-1)^{|c¹|}
    s⁻¹c¹⊗s⁻¹c².
    d^int keeps the word length and d^ext raises it by one, so the two never
    share a term: d^int is read off d as the terms of each column that keep
    the length, and d^ext as sign times the rest, on first use.
    """
    field = C.field
    sign = _convention_sign(field, convention)
    R = ReducedCoalgebra(C)
    one = field.one()
    gens = []
    for lab in R.space.labels():
        x = lab[1]
        gens.append((s_inv_label(x), C.space.degree_of(x) - 1))

    phi: dict = {}
    for lab in R.space.labels():
        x = lab[1]
        val: dict = {}
        for lab2, coeff in R.d.apply_label(lab).items():
            val[word_label((s_inv_label(lab2[1]),))] = field.neg(coeff)
        for t, coeff in R.comult.apply_label(lab).items():
            _, r1, r2 = t
            c1, c2 = r1[1], r2[1]
            c_sign = field.mul(sign, field.sign(1 + C.space.degree_of(c1)))
            w = word_label((s_inv_label(c1), s_inv_label(c2)))
            vaddmul_into(field, val, field.mul(c_sign, coeff), {w: one})
        if val:
            phi[s_inv_label(x)] = val

    base = tensor_algebra(field, gens, trunc, augmented=True,
                          name=f"Ω({C.name})")
    space = base.space
    d = extend_derivation(gens, phi, space, -1)
    dg = DgSpace(space, d, d_raises=1)
    alg = DgAlgebra(dg, base._pair, base.unit, base.aug,
                    name=f"Ω({C.name})")
    return CobarConstruction(alg, C, convention, gens, R)


def anticommutator_issues(d1: GradedMap, d2: GradedMap,
                          space: GradedSpace) -> list:
    """Witnesses of d1d2 + d2d1 ≠ 0 (both degree -1), window-checkable only."""
    field = space.field
    out = []
    for lab in space.labels():
        if space.degree_of(lab) - 2 < space.window.degree_min:
            continue
        r = vaddmul(field, d1(d2.apply_label(lab)), field.one(),
                    d2(d1.apply_label(lab)))
        if r:
            out.append(lab)
    return out


# -- universal cochains ---------------------------------------------------------------------


def universal_bar_cochain(b: BarConstruction) -> GradedMap:
    """β: B A → A, sa ↦ -a (default convention only)."""
    if b.convention != MINUS:
        raise ConventionMismatch(
            "with the plus convention the universal cochain is -β")
    A = b.algebra
    field = A.field
    beta = GradedMap(b.coalgebra.space, A.space, -1)
    for w in b.coalgebra.space.labels():
        syms = word_syms(w)
        if len(syms) == 1:
            a = syms[0][2]
            beta.set(w, {a: field.of(-1)})
    return beta


def universal_cobar_cochain(c: CobarConstruction) -> GradedMap:
    """ω: C → Ω C, c ↦ s⁻¹c on C₋ and atom ↦ 0 (default convention only)."""
    if c.convention != PLUS:
        raise ConventionMismatch(
            "with the minus convention the universal cochain is -ω")
    C = c.coalgebra
    field = C.field
    omega = GradedMap(C.space, c.algebra.space, -1)
    for x in C.space.labels():
        if x == C.atom:
            continue
        omega.set(x, c.algebra.space.project(
            {word_label((s_inv_label(x),)): field.one()}))
    return omega


# -- bar-cobar adjunction transforms ------------------------------------------------------------


@dataclass
class AdjunctionResult:
    to_algebra: GradedMap           # g: Ω C → A
    to_coalgebra: GradedMap         # f: C → B A
    issues: list


def cochain_to_algebra_map(alpha: GradedMap, cob: CobarConstruction,
                           A: DgAlgebra) -> GradedMap:
    """g: Ω C → A, multiplicative extension of s⁻¹c ↦ ±α(c).

    Under the default plus convention the sign is +; with the minus-sign
    cobar differential the universal cochain is -ω, so generators map
    through -α instead.
    """
    field = A.field
    sign = _convention_sign(field, cob.convention)
    images = {g: vscale(field, sign, alpha.apply_label(g[2]))
              for g, _ in cob.generators}
    return _extend_multiplicatively(cob.algebra.space, A, images)


def _extend_multiplicatively(space: GradedSpace, A: DgAlgebra,
                             images: dict) -> GradedMap:
    """g: T(X) → A with g(x1⊗…⊗xk) = g(x1)⋯g(xk); images maps generator
    symbols to vectors of A, a missing symbol meaning zero."""
    g = GradedMap(space, A.space, 0)
    for w in space.labels():
        val = dict(A.unit)
        for sym in word_syms(w):
            val = A.product(val, images.get(sym, {}))
        g.set(w, A.space.project(val))
    return g


def cochain_to_coalgebra_map(alpha: GradedMap, C: DgCoalgebra,
                             b: BarConstruction) -> GradedMap:
    """f: C → B A with cogenerator component φ = ∓s∘α (so extract gives α).

    f is the coextension of φ: f(e) = 1 and f(x) = Σ_{n≥1} φ^{⊗n} Δ₋^{(n)}(x)
    on the reduced part, for n up to the weight cap of B A.  Under the
    default minus convention φ = -sα; under the plus convention the
    universal cochain is -β, so φ = +sα.
    """
    field = C.field
    R = ReducedCoalgebra(C)
    phi_sign = _convention_sign(field, b.convention)
    phi = {r: {s_label(a): field.mul(phi_sign, c)
               for a, c in alpha(R.include({r: field.one()})).items()}
           for r in R.space.labels()}
    return coextend_map(C, phi, b.coalgebra,
                        max_terms=b.coalgebra.space.window.weight_cap)


def extract_from_algebra_map(g: GradedMap, cob: CobarConstruction,
                             C: DgCoalgebra) -> GradedMap:
    """α(c) = ±g(s⁻¹c), inverse to cochain_to_algebra_map."""
    field = g.field
    sign = _convention_sign(field, cob.convention)
    alpha = GradedMap(C.space, g.target, -1)
    for x in C.space.labels():
        if x == C.atom:
            continue
        w = word_label((s_inv_label(x),))
        if w in cob.algebra.space:
            alpha.set(x, vscale(field, sign, g.apply_label(w)))
    return alpha


def extract_from_coalgebra_map(f: GradedMap, b: BarConstruction,
                               C: DgCoalgebra) -> GradedMap:
    """α = ∓(unwrap ∘ p ∘ f): the cogenerator component, sign-normalized
    so the transform/extract roundtrip is the identity."""
    A = b.algebra
    field = A.field
    phi_sign = _convention_sign(field, b.convention)
    alpha = GradedMap(C.space, A.space, -1)
    for x in C.space.labels():
        val: dict = {}
        for w, coeff in f.apply_label(x).items():
            syms = word_syms(w)
            if len(syms) == 1:
                a = syms[0][2]
                vaddmul_into(field, val, field.mul(phi_sign, coeff),
                             {a: field.one()})
        alpha.set(x, val)
    return alpha


def algebra_map_issues(g: GradedMap, source: DgAlgebra,
                       target: DgAlgebra) -> list[str]:
    """Multiplicativity, unit, augmentation and chain conditions for g."""
    issues = []
    if source.unit is not None and g(source.unit) != target.unit:
        issues.append("g(1) ≠ 1")
    for a, b in source.window_tuples(2):
        lhs = g(source._pair(a, b))
        rhs = target.product(g.apply_label(a), g.apply_label(b))
        if lhs != rhs:
            issues.append(
                f"g not multiplicative at ({label_str(a)},{label_str(b)})")
            return issues
    for n in source.space.degrees():
        for a in source.dg.d_checkable(n):
            if g(source.d.apply_label(a)) != target.d(g.apply_label(a)):
                issues.append(f"g not a chain map at {label_str(a)}")
                return issues
    return issues


def coalgebra_map_issues(f: GradedMap, source: DgCoalgebra,
                         target: DgCoalgebra) -> list[str]:
    """Comultiplicativity, counit and chain conditions for f."""
    field = f.field
    issues = []
    TT = target.comult.target
    for x in source.space.labels():
        lhs = target.comult(f.apply_label(x))
        rhs: dict = {}
        for t, coeff in source.comult.apply_label(x).items():
            _, x1, x2 = t
            for y1, c1 in f.apply_label(x1).items():
                for y2, c2 in f.apply_label(x2).items():
                    lab = tensor_label(y1, y2)
                    if lab in TT:
                        vaddmul_into(field, rhs,
                                     field.mul(coeff, field.mul(c1, c2)),
                                     {lab: field.one()})
        if lhs != rhs:
            issues.append(f"f not comultiplicative at {label_str(x)}")
            return issues
        ex = source.counit.get(x, field.zero()) if source.counit else None
        if ex is not None:
            fx = target.counit_of(f.apply_label(x))
            if fx != ex:
                issues.append(f"f does not preserve counit at {label_str(x)}")
                return issues
        if f(source.d.apply_label(x)) != target.d(f.apply_label(x)):
            issues.append(f"f not a chain map at {label_str(x)}")
            return issues
    return issues


def adjunction_transforms(alpha: GradedMap, C: DgCoalgebra, A: DgAlgebra,
                          b: BarConstruction,
                          cob: CobarConstruction) -> AdjunctionResult:
    """α ↦ (g: ΩC → A, f: C → B A), with both map conditions checked."""
    g = cochain_to_algebra_map(alpha, cob, A)
    f = cochain_to_coalgebra_map(alpha, C, b)
    issues = []
    issues.extend("Ω-side " + s for s in algebra_map_issues(g, cob.algebra, A))
    issues.extend("B-side " + s
                  for s in coalgebra_map_issues(f, C, b.coalgebra))
    back_g = extract_from_algebra_map(g, cob, C)
    if not back_g.equals(alpha):
        issues.append("extract(g) ≠ α")
    back_f = extract_from_coalgebra_map(f, b, C)
    if not back_f.equals(alpha):
        issues.append("extract(f) ≠ α")
    return AdjunctionResult(g, f, issues)


# -- exhaustive enumerations over F_p ----------------------------------------------------------


def _assignments(field: Field, slots: list, limit: int):
    """Every assignment of F_p coefficients to slots [(x, y), ...], as
    columns {x: {y: c}} without the zero coefficients, in the order of
    itertools.product over the slots; more than limit candidates raise."""
    if field.p is None:
        raise EnumerationTooLarge("enumeration needs a finite field")
    if slots and field.p ** len(slots) > limit:
        raise EnumerationTooLarge(
            f"{field.p}^{len(slots)} candidates exceed the limit {limit}")
    for combo in itertools.product(range(field.p), repeat=len(slots)):
        cols: dict = {}
        for (x, y), cv in zip(slots, combo):
            if cv:
                cols.setdefault(x, {})[y] = field.of(cv)
        yield cols


def enumerate_twisting_cochains(C: DgCoalgebra, A: DgAlgebra,
                                pointed: bool = True,
                                limit: int = 1 << 20) -> list[GradedMap]:
    """All (pointed) twisting cochains C → A by brute force over F_p."""
    c_labels = [x for x in C.space.labels() if x != C.atom] if pointed \
        else C.space.labels()
    a_basis = A.reduced_basis() if pointed else A.space.labels()
    slots = [(x, b) for x in c_labels for b in a_basis
             if A.space.degree_of(b) == C.space.degree_of(x) - 1]
    out = []
    for cols in _assignments(C.field, slots, limit):
        alpha = GradedMap(C.space, A.space, -1, cols)
        if verify_twisting_cochain(alpha, C, A, pointed=pointed).passed:
            out.append(alpha)
    return out


def enumerate_pointed_algebra_maps(cob: CobarConstruction, A: DgAlgebra,
                                   limit: int = 1 << 20) -> list[GradedMap]:
    """All pointed dg-algebra maps Ω C → A: free on generators, so a map is
    an assignment of generator images in A₋ (same degree) satisfying the
    chain condition; multiplicativity is then automatic."""
    a_red = A.reduced_basis()
    slots = [(g, b) for g, dg in cob.generators for b in a_red
             if A.space.degree_of(b) == dg]
    gen_words = [word_label((g,)) for g, _ in cob.generators]
    source = cob.algebra
    out = []
    for images in _assignments(A.field, slots, limit):
        g_map = _extend_multiplicatively(source.space, A, images)
        # chain condition on generators determines it everywhere
        if all(g_map(source.d.apply_label(w)) == A.d(g_map.apply_label(w))
               for w in gen_words):
            out.append(g_map)
    return out


def enumerate_pointed_coalgebra_maps(C: DgCoalgebra, b: BarConstruction,
                                     limit: int = 1 << 20) -> list[GradedMap]:
    """All pointed dg-coalgebra maps C → B A by direct brute force."""
    field = C.field
    BA = b.coalgebra
    c_labels = [x for x in C.space.labels() if x != C.atom]
    slots = [(x, w) for x in c_labels for w in BA.space.labels()
             if w != UNIT_WORD
             and BA.space.degree_of(w) == C.space.degree_of(x)]
    out = []
    for cols in _assignments(field, slots, limit):
        f = GradedMap(C.space, BA.space, 0)
        f.set(C.atom, {UNIT_WORD: field.one()})
        for x in c_labels:
            vec = cols.get(x, {})
            eps = C.counit.get(x, field.zero())
            if not field.is_zero(eps):
                vec[UNIT_WORD] = eps
            f.set(x, vec)
        if not coalgebra_map_issues(f, C, BA):
            out.append(f)
    return out


# -- the sign-convention isomorphism π ------------------------------------------------------------


def length_sign_automorphism(space: GradedSpace) -> GradedMap:
    """π: multiply length-n words by (-1)^n."""
    field = space.field
    pi = GradedMap(space, space, 0)
    for lab in space.labels():
        pi.set(lab, {lab: field.sign(len(word_syms(lab)))})
    return pi


def sign_convention_report(d_int: GradedMap, d_ext: GradedMap,
                           dg: DgSpace) -> list:
    """Witnesses that π⁻¹(d^int+d^ext)π ≠ d^int-d^ext (empty = verified)."""
    space = dg.space
    field = space.field
    pi = length_sign_automorphism(space)
    plus = d_int.add(d_ext)
    minus = d_int.add(d_ext.scale(field.of(-1)))
    out = []
    for n in space.degrees():
        for lab in dg.d_checkable(n):
            lhs = pi(plus(pi.apply_label(lab)))   # π = π⁻¹
            if lhs != minus.apply_label(lab):
                out.append(lab)
    return out


# -- Hopf structures on bar and cobar -------------------------------------------------------------


def hopf_on_cobar(cob: CobarConstruction) -> tuple[GradedMap, list[str]]:
    """Coshuffle coproduct on Ω C for cocommutative C; errors carry a
    witness.  Δ's leaves go to the coalgebra it verifies, not to Ω C."""
    C = cob.coalgebra
    witness = C.is_cocommutative()
    if witness is not None:
        raise NotCocommutative(
            f"Δ not cocommutative at {label_str(witness)}")
    space = cob.algebra.space
    degree_of = {g: d for g, d in cob.generators}
    comult, leaves = coshuffle_comult(space, degree_of)
    counit = {UNIT_WORD: space.field.one()}
    co = DgCoalgebra(DgSpace(space, cob.algebra.d), comult, counit,
                     atom=UNIT_WORD, name="ΩC-coshuffle")
    co.leaves = frozenset(leaves)
    issues = co.verify(check_d_squared=False)
    issues.extend(bialgebra_compat_issues(cob.algebra, comult, counit))
    return comult, issues


def hopf_on_bar(b: BarConstruction) -> tuple[GradedMap, list[str]]:
    """Shuffle product on B A for commutative A; errors carry a witness."""
    A = b.algebra
    field = A.field
    # every pair: in A⊗B or C▷A a pair past the cap can have a product
    for x in A.space.labels():
        for y in A.space.labels():
            sign = field.sign(A.space.degree_of(x) * A.space.degree_of(y))
            if A._pair(x, y) != vscale(field, sign, A._pair(y, x)):
                raise NotCommutative(
                    f"product not commutative at ({label_str(x)},{label_str(y)})")
    mu = shuffle_product(b.coalgebra)
    issues = []
    # μ is a chain map for the full bar differential
    T = mu.source
    d = b.coalgebra.d
    one = T.field.one()
    for lab in T.labels():
        lhs = d(mu.apply_label(lab))
        rhs = mu(tensor_sum_apply(d, d, {lab: one}, T))
        if lhs != rhs:
            issues.append(f"shuffle product not a chain map at {label_str(lab)}")
            break
    # unit law and associativity on the window
    for w in b.coalgebra.space.labels():
        t = tensor_label(UNIT_WORD, w)
        if t in T and mu.apply_label(t) != {w: one}:
            issues.append(f"shuffle unit law fails at {label_str(w)}")
            break
    return mu, issues
