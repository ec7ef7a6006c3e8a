"""dg-coalgebras: tensor/coshuffle coalgebras, conilpotency, coextensions.

The comultiplication is a graded map C → C⊗C into the tensor space, which
answers membership from the factors without listing every pair.  Pointed
coalgebras carry an atom: a basis label e with Δ(e) = e⊗e, ε(e) = 1,
de = 0; the reduced part C_- = ker ε is materialized with its reduced
coproduct whenever conilpotency machinery needs it.  A coderivation of
T^c(X) is coextended from its corestriction by `algebras.splice_map`, the
splice rule it shares with the derivations of T(X).

The deconcatenation coproduct of T^c(X), and so of B A, is fixed by the
words alone, so a `TensorCoalgebra` builds it the first time something
reads `comult`.  Its target C⊗C and the degrees where Δ leaves the window
are fixed when the coalgebra is built.

The unshuffle coproduct of T^csh(X) and of mc = T(u) hands back the degrees
where it leaves the window; the builder of the coalgebra marks them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .scalars import Field
from .graded import (GradedSpace, GradedMap, Truncation, tensor_space,
                     tensor_label, tensor_vec, tensor_sum_apply,
                     target_index, label_str, graded_dual, dual_label,
                     not_homogeneous, TensorSpace)
from .complexes import DgSpace, check_square_zero, dg_tensor
from .linalg import RowSpace, vaddmul_into, vdot, kernel_basis
from .algebras import (DgAlgebra, word_label, word_syms, UNIT_WORD,
                       free_word_space, extend_derivation, splice_map)


class CoalgebraError(Exception):
    pass


class NotAnAtom(CoalgebraError):
    pass


class NotConilpotent(CoalgebraError):
    pass


class RegimeViolation(CoalgebraError):
    pass


class NotGradedFinite(CoalgebraError):
    pass


class DgCoalgebra:
    """Carrier + comultiplication + optional counit/atom + differential."""

    leaves = frozenset()    # where Δ drops terms the space leaves unmarked

    def __init__(self, dg: DgSpace, comult: GradedMap, counit: dict | None,
                 atom=None, name: str = ""):
        self.dg = dg
        self.comult = comult          # C → C⊗C
        self.counit = counit          # basis label -> scalar
        self.atom = atom              # a basis label, or None
        self.name = name

    @property
    def space(self) -> GradedSpace:
        return self.dg.space

    @property
    def field(self) -> Field:
        return self.space.field

    @property
    def d(self) -> GradedMap:
        return self.dg.d

    @property
    def TT(self) -> GradedSpace:
        return self.comult.target

    def counit_of(self, vec: dict):
        if self.counit is None:
            raise CoalgebraError("coalgebra has no counit")
        return vdot(self.field, self.counit, vec)

    # -- verification ----------------------------------------------------------
    def verify(self, check_d_squared: bool = True) -> list[str]:
        issues: list[str] = []
        field = self.field
        zero = field.zero()

        def acc(out: dict, key, coeff) -> None:
            out[key] = field.add(out.get(key, zero), coeff)

        # coassociativity, compared in flattened triple coordinates; sums
        # grow in place and drop their zeros.  Where Δ drops terms, a side
        # keeps only what the other can hold (`joins`): a2 with b on the
        # left, a with b1 on the right; elsewhere all is compared
        joins, degree = self.joins, self.space.degree_of
        cut = self.space.inexact_degrees() | self.leaves
        for x in self.space.labels():
            left: dict = {}
            right: dict = {}
            for t, c in self.comult.apply_label(x).items():
                _, a, b = t
                for t2, c2 in self.comult.apply_label(a).items():
                    _, a1, a2 = t2
                    acc(left, (a1, a2, b), field.mul(c, c2))
                for t2, c2 in self.comult.apply_label(b).items():
                    _, b1, b2 = t2
                    acc(right, (a, b1, b2), field.mul(c, c2))
            exact = degree(x) not in cut
            left = {k: v for k, v in left.items() if not field.is_zero(v)
                    and (exact or joins(k[1], k[2]))}
            right = {k: v for k, v in right.items() if not field.is_zero(v)
                     and (exact or joins(k[0], k[1]))}
            if left != right:
                issues.append(f"coassociativity fails at {label_str(x)}")
                break
        # counit laws and atom axioms, where the space holds the counit's
        # labels and the atom: Ω C above degree 0 holds no empty word, so Δ
        # there has no component x⊗1 or 1⊗x for them to read
        if self.counit is not None and \
                all(k in self.space for k in self.counit):
            for x in self.space.labels():
                lhs: dict = {}
                rhs: dict = {}
                for t, c in self.comult.apply_label(x).items():
                    _, a, b = t
                    acc(lhs, b, field.mul(c, self.counit.get(a, zero)))
                    acc(rhs, a, field.mul(c, self.counit.get(b, zero)))
                lhs = {k: v for k, v in lhs.items() if not field.is_zero(v)}
                rhs = {k: v for k, v in rhs.items() if not field.is_zero(v)}
                if lhs != {x: field.one()} or rhs != {x: field.one()}:
                    issues.append(f"counit law fails at {label_str(x)}")
                    break
        # co-Leibniz, skipping x whose differential leaves the weight window
        raises, cap = self.dg.d_raises, self.space.window.weight_cap
        for x in self.space.labels():
            w = self.space.weight_of(x)
            if raises and w is not None and w + raises > cap:
                continue
            lhs = self.comult(self.d.apply_label(x))
            rhs = tensor_sum_apply(self.d, self.d,
                                   self.comult.apply_label(x), self.TT)
            if lhs != rhs:
                issues.append(f"co-Leibniz fails at {label_str(x)}")
                break
        # atom axioms
        if self.atom is not None and self.atom in self.space:
            e = self.atom
            if self.comult.apply_label(e) != \
                    {tensor_label(e, e): field.one()}:
                issues.append("atom is not grouplike")
            if self.counit is not None and \
                    not field.is_one(self.counit.get(e, field.zero())):
                issues.append("counit of atom is not 1")
            if self.d.apply_label(e):
                issues.append("atom is not a cycle")
        if check_d_squared:
            report = check_square_zero(self.dg)
            if not report.passed:
                issues.append(report.describe(self.space))
        return issues

    def joins(self, a, b) -> bool:
        """Whether the window can hold a label whose Δ has the term a⊗b:
        here, whether |a| + |b| lies in the window."""
        return self.space.window.contains(self.space.degree_of(a)
                                          + self.space.degree_of(b))

    def is_cocommutative(self):
        """None if cocommutative; else a witness basis label."""
        field, degree = self.field, self.space.degree_of
        for x in self.space.labels():
            delta = self.comult.apply_label(x)
            swapped = {tensor_label(b, a):
                       field.mul(field.sign(degree(a) * degree(b)), c)
                       for (_, a, b), c in delta.items()}
            if swapped != delta:
                return x
        return None


# -- reduced part of a pointed coalgebra ------------------------------------------


def red_label(x) -> tuple:
    return ("red", x)


class ReducedCoalgebra:
    """C_- = ker ε with the reduced coproduct, for a pointed coalgebra.

    Basis: for each non-atom label x, the vector x - ε(x)·e.
    """

    def __init__(self, C: DgCoalgebra):
        if C.atom is None or C.counit is None:
            raise NotAnAtom("reduced part needs a pointed counital coalgebra")
        self.C = C
        field = C.field
        e = C.atom
        space = GradedSpace(field, C.space.window)
        for x in C.space.labels():
            if x != e:
                space.add(red_label(x), C.space.degree_of(x),
                          weight=C.space.weight_of(x))
        space.mark_inexact(*C.space.inexact_degrees())
        self.space = space
        self.RR = tensor_space(space, space)

        def incl_vec(r: dict) -> dict:
            out: dict = {}
            for (_, x), c in r.items():
                eps = C.counit.get(x, field.zero())
                vaddmul_into(field, out, c, {x: field.one(),
                                             e: field.neg(eps)})
            return out

        def proj_vec(v: dict) -> dict:
            return {red_label(x): c for x, c in v.items()
                    if x != e and not field.is_zero(c)}

        self.include = incl_vec
        self.project = proj_vec
        # reduced coproduct: (π⊗π)Δ on included vectors
        comult = GradedMap(space, self.RR, 0)
        one = field.one()
        for lab in space.labels():
            img: dict = {}
            for (_, a, b), c in C.comult(incl_vec({lab: one})).items():
                img.update(tensor_vec(proj_vec({a: one}), proj_vec({b: one}),
                                      self.RR, c))
            comult.set(lab, img)
        self.comult = comult
        d = GradedMap(space, space, -1)
        for lab in space.labels():
            d.set(lab, space.project(
                proj_vec(C.d(incl_vec({lab: field.one()})))))
        self.d = d


# -- radical and primitives --------------------------------------------------------


@dataclass
class RadicalResult:
    vectors: list            # basis of R^c(C_-) in reduced coordinates
    dims: dict
    proven: bool             # filtration stabilized inside the window
    steps: int

    @property
    def flag(self) -> str:
        return "proven" if self.proven else "window-conilpotent"


def radical(C: DgCoalgebra) -> RadicalResult:
    """Largest conilpotent subcoalgebra of C_-, by the kernel filtration.

    F_1 = ker Δ_-, F_{k+1} = Δ_-^{-1}(F_k ⊗ C_-); the chain stabilizes inside
    the window, which proves maximality there.  The result is only
    window-certified when C itself carries truncation-affected degrees.
    """
    R = ReducedCoalgebra(C)
    field = C.field
    space, RR = R.space, R.RR

    def filtration_step(current: list | None) -> list:
        # basis of {x : Δ_-(x) ∈ span(current) ⊗ C_-}; None means F_1
        quotient_rows: dict[int, RowSpace] = {}
        if current is not None:
            # mark the complement: reduce Δ_-(x) modulo span{f ⊗ c}
            span = []
            for f in current:
                for c in space.labels():
                    vec = tensor_vec(f, {c: field.one()}, RR)
                    if vec:
                        span.append(vec)
            for n in RR.degrees():
                quotient_rows[n] = RowSpace(field, RR.basis(n))
            for v in span:
                n = RR.degree_of_vector(v)
                if n is not None:
                    quotient_rows[n].add(v)

        def residue(x_label):
            img = R.comult.apply_label(x_label)
            if current is None or not img:
                return img
            n = RR.degree_of_vector(img)
            return quotient_rows[n].reduce(img) if n is not None else {}

        out = []
        for n in space.degrees():
            cols = {lab: residue(lab) for lab in space.basis(n)}
            target_order = RR.basis(n)
            out.extend(kernel_basis(field, cols, space.basis(n), target_order))
        return out

    prev: list | None = None
    current = filtration_step(None)
    steps = 1
    bound = space.total_dim() + 1
    while True:
        nxt = filtration_step(current)
        steps += 1
        if len(nxt) == len(current):
            break
        current = nxt
        if steps > bound:
            break
    proven = not C.space.inexact_degrees()
    dims: dict[int, int] = {}
    for v in current:
        n = space.degree_of_vector(v)
        dims[n] = dims.get(n, 0) + 1
    return RadicalResult(current, dict(sorted(dims.items())), proven, steps)


def primitives(C: DgCoalgebra) -> list:
    """Basis of ker(Δ_-) ⊆ C_-, in reduced coordinates."""
    R = ReducedCoalgebra(C)
    field = C.field
    out = []
    for n in R.space.degrees():
        cols = {lab: R.comult.apply_label(lab) for lab in R.space.basis(n)}
        out.extend(kernel_basis(field, cols, R.space.basis(n), R.RR.basis(n)))
    return out


# -- tensor and coshuffle coalgebras --------------------------------------------------


def _word_comult(space: GradedSpace, splits,
                 TT: TensorSpace | None = None) -> tuple[GradedMap, set]:
    """Δ(w) = Σ c·u⊗v over (u, v, c) in splits(syms of w), summed in place;
    each c is nonzero.  TT is space⊗space, built here if not given.

    Also returns the degrees where a term leaves the window, unmarked.
    """
    field = space.field
    if TT is None:
        TT = tensor_space(space, space)
    comult = GradedMap(space, TT, 0)
    inside = TT._degree_lookup()
    leaves: set[int] = set()
    for n in space.degrees():
        for lab in space.basis(n):
            img: dict = {}
            for u, v, c in splits(word_syms(lab)):
                t = tensor_label(word_label(u), word_label(v))
                got = inside(t)
                if got != n:
                    if got is None:
                        leaves.add(n)
                        continue
                    raise not_homogeneous(lab, t, got, n)
                if t in img:
                    s = field.add(img[t], c)
                    if field.is_zero(s):
                        del img[t]
                    else:
                        img[t] = s
                else:
                    img[t] = c
            if img:
                comult.columns[lab] = img
    return comult, leaves


def _deconcat_map(space: GradedSpace,
                  TT: TensorSpace | None = None) -> GradedMap:
    """Deconcatenation Δ, its degrees outside the window marked inexact."""
    one = space.field.one()
    comult, leaves = _word_comult(space, lambda syms: (
        (syms[:i], syms[i:], one) for i in range(len(syms) + 1)), TT)
    space.mark_inexact(*leaves)
    return comult


def _split_leaves(syms: tuple, degree_of: dict, lo: int, hi: int) -> bool:
    """Does a prefix degree of the word (the empty prefix included, the
    whole word left out) fall outside lo..hi?"""
    p = 0
    for sym in syms:
        if not lo <= p <= hi:
            return True
        p += degree_of[sym]
    return False


def _mark_split_degrees(space: GradedSpace, degree_of: dict) -> None:
    """Mark inexact the degrees that `_deconcat_map` marks, without it.

    A split u⊗v of a word of degree n leaves the window when |u| or
    n - |u| does, so the prefix degrees must lie in
    max(dmin, n - dmax)..min(dmax, n - dmin).  The whole word as prefix is
    the empty prefix read backwards.  A degree stops at its first word
    with a split outside; a degree already marked is skipped.
    """
    dmin, dmax = space.window.degree_min, space.window.degree_max
    for n in space.degrees():
        if not space.is_exact(n):
            continue
        lo, hi = max(dmin, n - dmax), min(dmax, n - dmin)
        if any(_split_leaves(word_syms(w), degree_of, lo, hi)
               for w in space.basis(n)):
            space.mark_inexact(n)


def _require_linear(field: Field, d_gen: dict) -> None:
    """Refuse a d_gen whose derivation extension is no coderivation: on
    T^c(X) and T^csh(X) that needs every image linear in the generators."""
    for g, vec in d_gen.items():
        for w, c in vec.items():
            if len(word_syms(w)) != 1 and not field.is_zero(c):
                raise CoalgebraError(
                    f"d of generator {label_str(g)} is not linear: its term "
                    f"{label_str(w)} is no single generator, so d would be "
                    "no coderivation")


class TensorCoalgebra(DgCoalgebra):
    """T^c(X) on a word space: deconcatenation Δ, the length-0 projection
    as counit and the empty word as atom.

    Δ is built the first time something reads `comult`.  TT = C⊗C is
    given with the coalgebra, and the caller marks the degrees where Δ
    leaves the window (`_mark_split_degrees`) after building TT, as Δ
    itself would; so neither `TT` nor the inexact degrees wait for Δ.
    """

    def __init__(self, dg: DgSpace, TT: TensorSpace, name: str = ""):
        # DgCoalgebra.__init__ is skipped on purpose: it stores comult
        self.dg = dg
        self.counit = {UNIT_WORD: dg.field.one()}
        self.atom = UNIT_WORD
        self.name = name
        self._TT = TT

    @cached_property
    def comult(self) -> GradedMap:
        return _deconcat_map(self.space, self._TT)

    @property
    def TT(self) -> TensorSpace:
        return self._TT


def tensor_coalgebra(field: Field, generators: list[tuple], trunc: Truncation,
                     d_gen: dict | None = None,
                     name: str = "") -> TensorCoalgebra:
    """T^c(X): deconcatenation coproduct, counit = length-0 projection.

    `d_gen` maps generators to vectors of single generators (default
    zero); a longer or empty word raises CoalgebraError.
    """
    d_gen = d_gen or {}
    _require_linear(field, d_gen)
    space = free_word_space(field, generators, trunc)
    TT = tensor_space(space, space)     # before the marks, as in Δ
    _mark_split_degrees(space, dict(generators))
    D = extend_derivation(generators, d_gen, space, -1)
    return TensorCoalgebra(DgSpace(space, D), TT, name=name or "Tc(X)")


def odd_binomial(n: int, k: int) -> int:
    """⟨n choose k⟩, the Gaussian binomial at q = -1: Pascal's rule, zero
    when n is even and k is odd, has the closed form C(⌊n/2⌋, ⌊k/2⌋) off
    those zeros."""
    if k < 0 or k > n or n < 0:
        raise CoalgebraError(f"odd binomial out of range: ({n},{k})")
    return 0 if n % 2 == 0 and k % 2 else math.comb(n // 2, k // 2)


def coshuffle_comult(space: GradedSpace,
                     degree_of: dict) -> tuple[GradedMap, set]:
    """Signed unshuffle coproduct on a word space, and the degrees where it
    leaves the window, which the caller marks.

    Δ is the algebra map fixed by x ↦ x⊗1 + 1⊗x, so it is built letter by
    letter, Δ(w·x) = Δ(w)·(x⊗1 + 1⊗x); putting x on the left moves it past
    the right half R, at the sign (-1)^{|x|·|R|}.  Equal halves (L, R)
    merge as integers; a total that is zero in the field is left out.
    """
    field = space.field

    def unshuffles(syms):
        halves = {((), (), 0): 1}          # (L, R, |R| mod 2) -> total
        for x in syms:
            odd, grown = degree_of[x] % 2, {}
            for (L, R, r), c in halves.items():
                left, right = (L + (x,), R, r), (L, R + (x,), r ^ odd)
                grown[left] = grown.get(left, 0) + (-c if odd & r else c)
                grown[right] = grown.get(right, 0) + c
            halves = grown
        terms = ((L, R, field.of(c)) for (L, R, _), c in halves.items())
        return [t for t in terms if not field.is_zero(t[2])]

    return _word_comult(space, unshuffles)


def coshuffle_coalgebra(field: Field, generators: list[tuple],
                        trunc: Truncation, d_gen: dict | None = None,
                        name: str = "") -> DgCoalgebra:
    """T^csh(X): the unshuffle coproduct; odd binomials on one odd generator.

    `d_gen` is as for `tensor_coalgebra`.
    """
    d_gen = d_gen or {}
    _require_linear(field, d_gen)
    space = free_word_space(field, generators, trunc)
    comult, leaves = coshuffle_comult(space, dict(generators))
    space.mark_inexact(*leaves)
    counit = {UNIT_WORD: field.one()}
    D = extend_derivation(generators, d_gen, space, -1)
    return DgCoalgebra(DgSpace(space, D), comult, counit, atom=UNIT_WORD,
                       name=name or "Tcsh(X)")


# -- coderivations ---------------------------------------------------------------


def coextend_coderivation(space: GradedSpace, generators: list[tuple],
                          phi: dict, degree: int) -> GradedMap:
    """Unique coderivation of T^c(X) with corestriction phi.

    phi maps word labels to vectors over generator symbols.  The coextension
    is D(x1⊗…⊗xk) = Σ_{i<j} (-1)^{degree·(|x1|+…+|xi|)}
    x1…xi ⊗ φ(x_{i+1}…x_j) ⊗ x_{j+1}…xk, spliced by `splice_map`: T^c(X)
    is pointed, so φ is only consulted on words of length ≥ 1.
    """
    chunks = {word_syms(w): {word_label((sym,)): c for sym, c in v.items()}
              for w, v in phi.items() if word_syms(w)}
    return splice_map(space, generators, chunks, degree)


# -- cofree conilpotent coalgebra ----------------------------------------------------


def check_cofree_regime(generators: list[tuple]) -> None:
    degs = [d for _, d in generators]
    if not degs:
        return
    if all(d > 0 for d in degs) or all(d < 0 for d in degs):
        return
    raise RegimeViolation(
        "cofree coalgebra formula needs strictly positive or strictly "
        f"negative cogenerators, got degrees {sorted(set(degs))}")


def cofree_coalgebra(field: Field, generators: list[tuple], trunc: Truncation,
                     d_gen: dict | None = None, name: str = "") -> DgCoalgebra:
    """T^∨(X) in the regime where it equals T^c(X)."""
    check_cofree_regime(generators)
    return tensor_coalgebra(field, generators, trunc, d_gen,
                            name=name or "Tv(X)")


def coextend_map(C: DgCoalgebra, f: dict, target: DgCoalgebra,
                 max_terms: int | None = None) -> GradedMap:
    """Unique coalgebra map g: C → T^c(X) with p∘g = f, for conilpotent C.

    f maps reduced labels of C to vectors over the generator symbols of the
    word coalgebra `target`; g(x) = Σ_{n≥1} f^{⊗n} Δ_-^{(n)}(x) on C_-, and
    g(atom) = empty word.
    """
    R = ReducedCoalgebra(C)
    field = C.field
    T = target.space
    cap = T.window.weight_cap
    bound = max_terms if max_terms is not None else max(cap, R.space.total_dim() + 1)
    g = GradedMap(C.space, T, 0)
    one = field.one()
    for x in C.space.labels():
        if x == C.atom:
            g.set(x, {UNIT_WORD: one})
            continue
        # include counit correction: x = ε(x)e + (reduced part)
        img: dict = {}
        eps = C.counit.get(x, field.zero())
        if not field.is_zero(eps):
            img[UNIT_WORD] = eps
        terms = {(red_label(x),): one}
        n = 1
        while terms and n <= bound:
            for key, c in terms.items():
                # apply f slotwise and concatenate
                pieces = [f.get(lab, {}) for lab in key]
                for combo in itertools.product(*(p.items() for p in pieces)):
                    syms = tuple(s for s, _ in combo)
                    coeff = c
                    for _, cc in combo:
                        coeff = field.mul(coeff, cc)
                    w = word_label(syms)
                    if len(syms) <= cap and w in T:
                        vaddmul_into(field, img, coeff, {w: one})
            new: dict = {}
            for key, c in terms.items():
                last = key[-1]
                for t, c2 in R.comult.apply_label(last).items():
                    _, a, b = t
                    vaddmul_into(field, new, field.mul(c, c2),
                                 {key[:-1] + (a, b): one})
            terms = new
            n += 1
        if terms and max_terms is None and n > bound:
            raise NotConilpotent(
                f"Δ_- fails to vanish on {label_str(x)} after {bound} steps")
        g.set(x, img)
    return g


# -- (quasi-)shuffle products ---------------------------------------------------------


class ProductCoalgebra(DgCoalgebra):
    """C⊗D: a label joins another when its window holds the join and each
    factor's window holds the join of its factors."""

    def __init__(self, dg, comult, counit, atom, name, factors):
        super().__init__(dg, comult, counit, atom, name)
        self.factors = factors

    def joins(self, a, b) -> bool:
        C, D = self.factors
        return super().joins(a, b) and C.joins(a[1], b[1]) \
            and D.joins(a[2], b[2])


def tensor_product_coalgebra(C: DgCoalgebra, D: DgCoalgebra,
                             name: str = "") -> DgCoalgebra:
    """C⊗D with Δ(c⊗d) = (-1)^{|c2||d1|} (c1⊗d1)⊗(c2⊗d2).

    A split whose factor lies outside that factor's window is dropped, and
    so is every term where a factor's Δ dropped one; their degrees become
    the coalgebra's `leaves`."""
    dg = dg_tensor(C.dg, D.dg)
    T = dg.space
    field = T.field
    TT = tensor_space(T, T)
    comult = GradedMap(T, TT, 0)
    leaves = set()
    for lab in T.labels():
        _, c, d = lab
        if C.space.degree_of(c) in C.leaves or \
                D.space.degree_of(d) in D.leaves:
            leaves.add(T.degree_of(lab))
        img: dict = {}
        for t1, c1 in C.comult.apply_label(c).items():
            _, ca, cb = t1
            for t2, c2 in D.comult.apply_label(d).items():
                _, da, db = t2
                sign = field.sign(C.space.degree_of(cb)
                                  * D.space.degree_of(da))
                left = tensor_label(ca, da)
                right = tensor_label(cb, db)
                t = tensor_label(left, right)
                if left in T and right in T and t in TT:
                    vaddmul_into(field, img,
                                 field.mul(sign, field.mul(c1, c2)),
                                 {t: field.one()})
                else:
                    leaves.add(T.degree_of(lab))
        comult.set(lab, img)
    counit = None
    if C.counit is not None and D.counit is not None:
        counit = tensor_vec(C.counit, D.counit, T)
    atom = None
    if C.atom is not None and D.atom is not None:
        atom = tensor_label(C.atom, D.atom)
    CD = ProductCoalgebra(dg, comult, counit, atom,
                          name or f"{C.name}⊗{D.name}", (C, D))
    CD.leaves = frozenset(leaves)
    return CD


def quasi_shuffle_product(T: DgCoalgebra, mult: dict | None) -> GradedMap:
    """The unique coalgebra map μ: T^c(A)⊗T^c(A) → T^c(A) with
    pμ(x,y) = p(x)p(y) + ε(x)p(y) + p(x)ε(y).

    `mult` gives the non-unital product of A on generator symbols
    ((a, b) -> vector over symbols); None or missing entries mean zero, which
    yields the shuffle product.
    """
    field = T.field
    CC = tensor_product_coalgebra(T, T)
    mult = mult or {}

    # f: (T⊗T)_- → generators of T, in reduced coordinates of CC
    f: dict = {}
    for lab in CC.space.labels():
        _, x, y = lab
        sx, sy = word_syms(x), word_syms(y)
        val: dict = {}
        if len(sx) == 1 and len(sy) == 1:
            val = dict(mult.get((sx[0], sy[0]), {}))
        elif len(sx) == 1 and len(sy) == 0:
            val = {sx[0]: field.one()}
        elif len(sx) == 0 and len(sy) == 1:
            val = {sy[0]: field.one()}
        if val:
            f[red_label(lab)] = val

    # reduced label ("red", x) stands for x - ε(x)·atom; ε vanishes on the
    # labels where f is supported (they involve a word of length ≥ 1), so f
    # needs no correction term
    return coextend_map(CC, f, T)


def shuffle_product(T: DgCoalgebra) -> GradedMap:
    return quasi_shuffle_product(T, None)


# -- finite duals ----------------------------------------------------------------


def _dual_differential(d: GradedMap, D: GradedSpace) -> GradedMap:
    """d(a*) = -(-1)^{|a|} Σ_b (coefficient of a in db) b* on the dual D."""
    field, space = d.field, d.source
    dD = GradedMap(D, D, -1)
    for a, terms in target_index(d).items():
        # d(a*) picks up -(-1)^{|a*|} from d(φ) = -(-1)^{|φ|} φ∘d
        sign = field.sign(1 + space.degree_of(a))
        dD.set(dual_label(a), D.project(
            {dual_label(b): field.mul(sign, coeff) for b, coeff in terms}))
    return dD


def _require_dualizable(space: GradedSpace, noun: str) -> None:
    """The window rule of both duals: the space is exact in every degree,
    and every degree n has its dual degree -n inside the window."""
    if space.inexact_degrees():
        raise NotGradedFinite(
            f"dual of a truncation-affected {noun} would not be the "
            "truncation of the dual")
    outside = [n for n in space.degrees() if not space.window.contains(-n)]
    if outside:
        raise NotGradedFinite(
            f"dual leaves the window {space.window}: degrees "
            f"{', '.join(map(str, outside))} dualize outside it")


def finite_dual(A: DgAlgebra, name: str = "") -> DgCoalgebra:
    """A* as a dg-coalgebra, for graded-finite A bounded in the window.

    Δ(a*) = Σ_{b,c} (coefficient of a in bc) (-1)^{|b||c|} b*⊗c*.
    """
    space = A.space
    _require_dualizable(space, "algebra")
    field = A.field
    D = graded_dual(space)
    DD = tensor_space(D, D)
    comult = GradedMap(D, DD, 0)
    cols: dict = {lab: {} for lab in D.labels()}
    for b in space.labels():
        for c in space.labels():
            t = tensor_label(dual_label(b), dual_label(c))
            sign = field.sign(space.degree_of(b) * space.degree_of(c))
            for a, coeff in A._pair(b, c).items():
                if t in DD:
                    vaddmul_into(field, cols[dual_label(a)],
                                 field.mul(sign, coeff), {t: field.one()})
    for lab, img in cols.items():
        comult.set(lab, img)
    counit = {}
    if A.unit is not None:
        for a, coeff in A.unit.items():
            counit[dual_label(a)] = coeff
    dD = _dual_differential(A.d, D)
    atom = None
    if A.aug is not None:
        # the augmentation, as a functional, is grouplike in A*
        labels = [lab for lab, v in A.aug.items() if not field.is_zero(v)]
        if len(labels) == 1 and field.is_one(A.aug[labels[0]]):
            atom = dual_label(labels[0])
    return DgCoalgebra(DgSpace(D, dD), comult, counit, atom,
                       name=name or f"{A.name}*")


def dual_algebra(C: DgCoalgebra, name: str = "") -> DgAlgebra:
    """C* as a dg-algebra (convolution with scalars): b*·c* = ±(Δ-transpose)."""
    space = C.space
    _require_dualizable(space, "coalgebra")
    field = C.field
    D = graded_dual(space)
    into = target_index(C.comult)    # b⊗c -> [(x, coefficient in Δx)]

    def pair(bd, cd):
        b, c = bd[1], cd[1]
        sign = field.sign(space.degree_of(b) * space.degree_of(c))
        out: dict = {}
        for x, coeff in into.get(tensor_label(b, c), ()):
            vaddmul_into(field, out, field.mul(sign, coeff),
                         {dual_label(x): field.one()})
        return D.project(out)

    unit = None
    if C.counit is not None:
        unit = {dual_label(x): v for x, v in C.counit.items()}
    dD = _dual_differential(C.d, D)
    aug = None
    if C.atom is not None:
        aug = {dual_label(C.atom): field.one()}
    alg = DgAlgebra(DgSpace(D, dD), pair, unit, aug,
                    name=name or f"{C.name}*")
    return alg
