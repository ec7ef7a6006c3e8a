"""dg-vector spaces: differentials, dg tensor/hom, d²=0 checks, homology.

Homology is computed degreewise by exact Gaussian elimination.  Each report
carries a trust flag per degree: a degree is trusted only when both the
incoming and outgoing ranks are fully representable inside the truncation
window (a differential that raises word length makes top-weight degrees
unreliable, and the lowest window degree cannot see its own boundary).
`DgSpace.d_checkable` owns that window rule for d: trust flags, the d²
check and the bar–cobar sign and chain-map checks all ask it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from .graded import (GradedSpace, GradedMap, Truncation, hom_space,
                     hom_label, tensor_space, tensor_sum_apply, target_index,
                     label_str, suspend, susp_label)
from .linalg import rank_of_columns, kernel_basis, vaddmul_into


class NotAComplex(Exception):
    pass


class DgSpace:
    """A graded space with a degree -1 differential.

    `d_raises` bounds how much the differential can raise word length (0 for
    internal differentials, 1 for cobar-type external ones); it feeds the
    window-exactness bookkeeping.
    """

    def __init__(self, space: GradedSpace, d: GradedMap | None = None,
                 d_raises: int = 0):
        self.space = space
        if d is None:
            d = GradedMap(space, space, -1)
        if d.degree != -1:
            raise NotAComplex("differential must have degree -1")
        self.d = d
        self.d_raises = d_raises

    @property
    def field(self):
        return self.space.field

    @property
    def window(self) -> Truncation:
        return self.space.window

    def d_checkable(self, degree: int, times: int = 1) -> list:
        """The basis labels of this degree whose dᵗⁱᵐᵉˢ stays in the window.

        The one window rule for d: degree - times ≥ degree_min, and, when d
        raises word length, weight + times·d_raises ≤ weight_cap.  A d that
        keeps word length cannot leave the cap, so weight is then ignored.
        The space answers the weight half (`basis_within`); a word space
        lists a degree's words by length, so there it is a prefix.
        """
        if degree - times < self.window.degree_min:
            return []
        if not self.d_raises:
            return self.space.basis(degree)
        return self.space.basis_within(
            degree, self.window.weight_cap - times * self.d_raises)

    def d_reliable(self, degree: int) -> bool:
        """Is the restriction of d to this degree fully in-window?"""
        return len(self.d_checkable(degree)) == self.space.dim(degree)


@dataclass
class SquareZeroReport:
    witnesses: list = dc_field(default_factory=list)
    checked: int = 0
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def describe(self, space: GradedSpace) -> str:
        if self.passed:
            return f"d²=0 on {self.checked} checkable basis elements"
        label, residue = self.witnesses[0]
        return (f"d²≠0 at {label_str(label)}: d²({label_str(label)}) = "
                f"{space.render(residue)}"
                f" ({len(self.witnesses)} witnesses)")


def check_square_zero(X: DgSpace) -> SquareZeroReport:
    """List all checkable basis elements where d² fails to vanish."""
    report = SquareZeroReport()
    d = X.d
    for n in X.space.degrees():
        checkable = X.d_checkable(n, times=2)
        report.skipped += X.space.dim(n) - len(checkable)
        report.checked += len(checkable)
        for label in checkable:
            residue = d(d.columns.get(label, {}))
            if residue:
                report.witnesses.append((label, residue))
    return report


@dataclass
class HomologyEntry:
    dim: int
    trusted: bool


def homology(X: DgSpace, check: bool = True) -> dict[int, HomologyEntry]:
    """dim H_n = dim X_n - rank d_n - rank d_{n+1}, with trust flags."""
    if check:
        report = check_square_zero(X)
        if not report.passed:
            raise NotAComplex(report.describe(X.space))
    space, d = X.space, X.d
    ranks: dict[int, int] = {}
    for n in space.degrees():
        ranks[n] = rank_of_columns(space.field, d.columns, space.basis(n),
                                   space.basis(n - 1))
    reliable = functools.cache(X.d_reliable)    # asked at most once a degree
    out: dict[int, HomologyEntry] = {}
    for n in space.degrees():
        dim = space.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        trusted = (space.is_exact(n) and space.is_exact(n + 1)
                   and reliable(n) and reliable(n + 1))
        out[n] = HomologyEntry(dim, trusted)
    return out


def cycles(X: DgSpace, degree: int) -> list[dict]:
    """Basis of ker(d) in one degree."""
    space = X.space
    return kernel_basis(space.field, X.d.columns, space.basis(degree),
                        space.basis(degree - 1))


def dg_tensor(X: DgSpace, Y: DgSpace) -> DgSpace:
    """d(x⊗y) = dx⊗y + (-1)^{|x|} x⊗dy, built from the factors' d."""
    XY = tensor_space(X.space, Y.space)
    one = XY.field.one()
    d = GradedMap(XY, XY, -1)
    for label in XY.labels():
        d.set(label, tensor_sum_apply(X.d, Y.d, {label: one}, XY))
    return DgSpace(XY, d, d_raises=max(X.d_raises, Y.d_raises))


def dg_hom(X: DgSpace, Y: DgSpace) -> DgSpace:
    """d(f) = d_Y f - (-1)^{|f|} f d_X on the hom space."""
    H = hom_space(X.space, Y.space)
    field = H.field
    into = target_index(X.d)    # x -> [(z, coefficient of x in dz)]
    d = GradedMap(H, H, -1)
    for label in H.labels():
        _, x, y = label
        img: dict = {}
        for y2, coeff in Y.d.apply_label(y).items():
            img[hom_label(x, y2)] = coeff
        sign = field.sign(H.degree_of(label) + 1)  # -(-1)^{|f|}
        for z, c in into.get(x, ()):
            vaddmul_into(field, img, field.mul(sign, c),
                         {hom_label(z, y): field.one()})
        d.set(label, H.project(img))
    return DgSpace(H, d)


def shift_complex(X: DgSpace, n: int) -> DgSpace:
    """Dimension-level shift: same basis relabelled by degree + n."""
    S = suspend(X.space, n)
    d = GradedMap(S, S, -1)
    field = S.field
    sign = field.sign(n)
    for label in S.labels():
        x = label[2]
        img = {susp_label(n, y): field.mul(sign, c)
               for y, c in X.d.apply_label(x).items()
               if susp_label(n, y) in S}
        d.set(label, img)
    return DgSpace(S, d, d_raises=X.d_raises)
