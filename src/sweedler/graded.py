"""Graded vector spaces with named bases, graded maps, and the Koszul rule.

Basis elements are hashable labels: plain strings for user-declared
generators, structured tuples for constructed elements:

    ("w", (x1, ..., xn))   tensor word (empty tuple = unit word)
    ("t", x, y)            binary tensor factor
    ("h", x, y)            elementary hom basis vector, sends x to y
    ("d", x)               dual basis vector x*
    ("s", n, x)            n-fold suspension s^n x

All constructions are truncated to a window: a degree interval plus a word
length cap.  Operations drop components that fall outside the window and
record which degrees that touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Field, require_same_field
from .linalg import vaddmul, vaddmul_into, vscale


class GradedError(Exception):
    pass


class EnumerationTooLarge(Exception):
    """A construction or enumeration would list more items than its limit."""


@dataclass(frozen=True)
class Truncation:
    """Degree window and word-length cap for all infinite constructions."""
    degree_min: int
    degree_max: int
    weight_cap: int

    def __post_init__(self):
        if self.degree_min > self.degree_max:
            raise GradedError("degree_min > degree_max")
        if self.weight_cap < 1:
            raise GradedError("weight_cap < 1")

    def contains(self, degree: int) -> bool:
        return self.degree_min <= degree <= self.degree_max

    def __str__(self):
        return f"{self.degree_min}:{self.degree_max}:{self.weight_cap}"

    @staticmethod
    def parse(text: str) -> "Truncation":
        try:
            dmin, dmax, cap = map(int, text.split(":"))
        except ValueError:
            raise GradedError(
                f"bad truncation {text!r}, want dmin:dmax:L") from None
        return Truncation(dmin, dmax, cap)


# label kind -> tuple length; other tuples render through repr
_LABEL_ARITY = {"w": 2, "t": 3, "h": 3, "d": 2, "s": 3, "rh": 3}


def label_str(label) -> str:
    """Readable rendering of a basis label."""
    if isinstance(label, str):
        return label
    if not (isinstance(label, tuple) and label
            and len(label) == _LABEL_ARITY.get(label[0])):
        return repr(label)
    kind = label[0]
    if kind == "w":
        return "1" if not label[1] else "⊗".join(label_str(x) for x in label[1])
    if kind == "t":
        return f"({label_str(label[1])})⊗({label_str(label[2])})"
    if kind == "h":
        return f"[{label_str(label[1])}↦{label_str(label[2])}]"
    if kind == "d":
        return f"{label_str(label[1])}*"
    if kind == "s":
        n = label[1]
        power = "s" if n == 1 else f"s^{n}"
        return f"{power}[{label_str(label[2])}]"
    if kind == "rh":
        return f"{label_str(label[1])}▷{label_str(label[2])}"
    return repr(label)


class GradedSpace:
    """Finite named basis per integer degree, inside a truncation window."""

    def __init__(self, field: Field, window: Truncation):
        self.field = field
        self.window = window
        self._by_degree: dict[int, list] = {}
        self._degree_of: dict = {}
        self._weight_of: dict = {}
        self._inexact: set[int] = set()

    # -- construction --------------------------------------------------------
    def add(self, label, degree: int, weight: int | None = None) -> bool:
        """Insert a basis element; returns False if outside the window."""
        if label in self._degree_of:
            raise GradedError(f"duplicate basis label {label_str(label)}")
        if not self.window.contains(degree):
            return False
        self._by_degree.setdefault(degree, []).append(label)
        self._degree_of[label] = degree
        if weight is not None:
            self._weight_of[label] = weight
        return True

    def mark_inexact(self, degree: int) -> None:
        self._inexact.add(degree)

    def is_exact(self, degree: int) -> bool:
        return degree not in self._inexact

    def inexact_degrees(self) -> set[int]:
        return set(self._inexact)

    # -- queries ---------------------------------------------------------------
    def degrees(self) -> list[int]:
        return sorted(self._by_degree)

    def basis(self, degree: int) -> list:
        return list(self._by_degree.get(degree, []))

    def labels(self) -> list:
        out = []
        for n in self.degrees():
            out.extend(self._by_degree[n])
        return out

    def __contains__(self, label) -> bool:
        return label in self._degree_of

    def _degree_lookup(self):
        """A callable: label -> degree, None for a non-member."""
        return self._degree_of.get

    def degree_of(self, label) -> int:
        try:
            return self._degree_of[label]
        except KeyError:
            raise GradedError(f"unknown basis label {label_str(label)}") from None

    def weight_of(self, label, default=None):
        return self._weight_of.get(label, default)

    def basis_within(self, degree: int, weight_cap: int) -> list:
        """The basis labels of this degree whose weight is unknown or at
        most weight_cap, in basis order."""
        weight = self.weight_of
        return [label for label in self.basis(degree)
                if (w := weight(label)) is None or w <= weight_cap]

    def dim(self, degree: int) -> int:
        return len(self._by_degree.get(degree, []))

    def dims(self) -> dict[int, int]:
        return {n: len(b) for n, b in sorted(self._by_degree.items())}

    def total_dim(self) -> int:
        return len(self._degree_of)

    # -- vectors ---------------------------------------------------------------
    def project(self, formal: dict) -> dict:
        """Drop components outside this space."""
        degree = self._degree_lookup()
        return {label: coeff for label, coeff in formal.items()
                if degree(label) is not None}

    def degree_of_vector(self, vec: dict) -> int | None:
        """Common degree of a homogeneous vector (None for zero)."""
        degs = {self.degree_of(k) for k in vec}
        if not degs:
            return None
        if len(degs) > 1:
            raise GradedError(f"vector not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def render(self, vec: dict) -> str:
        if not vec:
            return "0"
        parts = []
        order = {k: i for i, k in enumerate(self.labels())}
        for k in sorted(vec, key=order.__getitem__):
            parts.append(f"{self.field.format(vec[k])}·{label_str(k)}")
        return " + ".join(parts)


def unit_space(field: Field, window: Truncation) -> GradedSpace:
    """The field as a graded space concentrated in degree 0."""
    F = GradedSpace(field, window)
    F.add(("unit",), 0, weight=0)
    return F


def not_homogeneous(label, term, got: int, want: int) -> GradedError:
    """The error for an image of `label` whose `term` has the wrong degree."""
    return GradedError(f"image of {label_str(label)} not homogeneous: "
                       f"{label_str(term)} has degree {got}, want {want}")


class GradedMap:
    """Homogeneous linear map stored as sparse images of basis elements."""

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: int,
                 columns: dict | None = None):
        require_same_field(source.field, target.field)
        self.source = source
        self.target = target
        self.degree = degree
        self.columns: dict = {}
        if columns:
            for label, vec in columns.items():
                self.set(label, vec)

    @property
    def field(self) -> Field:
        return self.source.field

    def set(self, label, vec: dict) -> None:
        """Store the nonzero terms of vec as the image of label, in one
        pass that checks each term's degree."""
        degree = self.source._degree_lookup()(label)
        if degree is None:
            raise GradedError(f"source lacks {label_str(label)}")
        want = degree + self.degree
        target_degree = self.target._degree_lookup()
        is_zero = self.field.is_zero
        col = {}
        for k, c in vec.items():
            if is_zero(c):
                continue
            got = target_degree(k)
            if got != want:
                if got is None:
                    self.target.degree_of(k)    # raises: unknown basis label
                raise not_homogeneous(label, k, got, want)
            col[k] = c
        if col:
            self.columns[label] = col
        else:
            self.columns.pop(label, None)

    def __call__(self, vec: dict) -> dict:
        out: dict = {}
        for label, coeff in vec.items():
            vaddmul_into(self.field, out, coeff, self.columns.get(label, {}))
        return out

    def apply_label(self, label) -> dict:
        return dict(self.columns.get(label, {}))

    # -- algebra of maps ---------------------------------------------------------
    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other."""
        if other.target is not self.source:
            require_same_field(other.target.field, self.source.field)
        out = GradedMap(other.source, self.target, self.degree + other.degree)
        for label, vec in other.columns.items():
            out.set(label, self(vec))
        return out

    def add(self, other: "GradedMap") -> "GradedMap":
        if self.degree != other.degree:
            raise GradedError("cannot add maps of different degrees")
        out = GradedMap(self.source, self.target, self.degree)
        for label in dict.fromkeys([*self.columns, *other.columns]):
            out.set(label, vaddmul(self.field, self.apply_label(label),
                                   self.field.one(), other.apply_label(label)))
        return out

    def scale(self, coeff) -> "GradedMap":
        out = GradedMap(self.source, self.target, self.degree)
        for label, vec in self.columns.items():
            out.set(label, {k: self.field.mul(coeff, c) for k, c in vec.items()})
        return out

    def neg(self) -> "GradedMap":
        return self.scale(self.field.of(-1))

    def is_zero(self) -> bool:
        return not self.columns

    def equals(self, other: "GradedMap") -> bool:
        if self.degree != other.degree:
            return False
        labels = set(self.columns) | set(other.columns)
        return all(self.apply_label(k) == other.apply_label(k) for k in labels)


def target_index(f: GradedMap) -> dict:
    """target label -> [(source label, coeff)] of f, in source basis order."""
    out: dict = {}
    for x in f.source.labels():
        for y, c in f.columns.get(x, {}).items():
            out.setdefault(y, []).append((x, c))
    return out


def identity_map(X: GradedSpace) -> GradedMap:
    f = GradedMap(X, X, 0)
    for label in X.labels():
        f.set(label, {label: X.field.one()})
    return f


# -- Koszul sign machinery -----------------------------------------------------

def koszul_sign_exponent(degrees: list[int], perm: list[int]) -> int:
    """Sign exponent for reordering graded symbols.

    `perm[i]` is the original position of the symbol landing in slot i; each
    inversion of an odd pair contributes one to the exponent.
    """
    exp = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                exp += degrees[perm[i]] * degrees[perm[j]]
    return exp


# -- constructions --------------------------------------------------------------

def tensor_label(x, y) -> tuple:
    return ("t", x, y)


class TensorSpace(GradedSpace):
    """X⊗Y, answered from its two factors; read-only.

    (X⊗Y)_n = ⊕_{i+j=n} X_i⊗Y_j inside X's window.  Membership, degree and
    weight of a label ("t", x, y) come from the factors.  A degree's basis is
    listed on first request, in the order: X-degree ascending, then X's
    basis, then Y's basis.  Dimensions and inexact degrees are fixed when
    the space is built, so later marks on a factor do not reach it.
    """

    def __init__(self, X: GradedSpace, Y: GradedSpace):
        # GradedSpace.__init__ is skipped on purpose: without the label
        # dicts of an eager space, no inherited method can read them empty
        require_same_field(X.field, Y.field)
        self.field = X.field
        self.window = X.window
        self.left = X
        self.right = Y
        # bound once, since _degree answers every `t in TT` of a coproduct
        self._left_degree = X._degree_lookup()
        self._right_degree = Y._degree_lookup()
        self._dmin, self._dmax = X.window.degree_min, X.window.degree_max
        xdims, ydims = X.dims(), Y.dims()
        dims: dict[int, int] = {}
        for i, dx in xdims.items():
            for j, dy in ydims.items():
                if self.window.contains(i + j):
                    dims[i + j] = dims.get(i + j, 0) + dx * dy
        self._dims = dict(sorted(dims.items()))
        self._total = sum(dims.values())
        self._bases: dict[int, list] = {}
        # a degree fed by an inexact input degree is itself inexact
        self._inexact = {i + j for i in X.inexact_degrees() for j in ydims
                         if self.window.contains(i + j)}
        self._inexact |= {i + j for j in Y.inexact_degrees() for i in xdims
                          if self.window.contains(i + j)}

    def add(self, label, degree: int, weight: int | None = None) -> bool:
        raise GradedError("a tensor space is read-only")

    def _degree(self, label) -> int | None:
        """Degree of a member label; None for anything else."""
        if type(label) is not tuple or len(label) != 3 or label[0] != "t":
            return None
        dx = self._left_degree(label[1])
        dy = self._right_degree(label[2])
        if dx is None or dy is None:
            return None
        n = dx + dy
        return n if self._dmin <= n <= self._dmax else None

    def _degree_lookup(self):
        return self._degree

    def _listed(self, degree: int) -> list:
        out = self._bases.get(degree)
        if out is None:
            out = []
            if degree in self._dims:
                for i in self.left.degrees():
                    ys = self.right.basis(degree - i)
                    if ys:
                        for x in self.left.basis(i):
                            out.extend(tensor_label(x, y) for y in ys)
            self._bases[degree] = out
        return out

    def degrees(self) -> list[int]:
        return list(self._dims)

    def basis(self, degree: int) -> list:
        return list(self._listed(degree))

    def labels(self) -> list:
        out = []
        for n in self._dims:
            out.extend(self._listed(n))
        return out

    def __contains__(self, label) -> bool:
        return self._degree(label) is not None

    def degree_of(self, label) -> int:
        n = self._degree(label)
        if n is None:
            raise GradedError(f"unknown basis label {label_str(label)}")
        return n

    def weight_of(self, label, default=None):
        if self._degree(label) is None:
            return default
        wx = self.left.weight_of(label[1])
        wy = self.right.weight_of(label[2])
        return default if wx is None or wy is None else wx + wy

    def dim(self, degree: int) -> int:
        return self._dims.get(degree, 0)

    def dims(self) -> dict[int, int]:
        return dict(self._dims)

    def total_dim(self) -> int:
        return self._total


def tensor_space(X: GradedSpace, Y: GradedSpace) -> TensorSpace:
    """(X⊗Y)_n = ⊕_{i+j=n} X_i⊗Y_j, inside the shared window."""
    return TensorSpace(X, Y)


def koszul_swap(X: GradedSpace, Y: GradedSpace) -> GradedMap:
    """σ(x⊗y) = (-1)^{|x||y|} y⊗x."""
    XY = tensor_space(X, Y)
    YX = tensor_space(Y, X)
    f = GradedMap(XY, YX, 0)
    for label in XY.labels():
        _, x, y = label
        sign = X.field.sign(X.degree_of(x) * Y.degree_of(y))
        f.set(label, {tensor_label(y, x): sign})
    return f


def hom_label(x, y) -> tuple:
    return ("h", x, y)


def hom_space(X: GradedSpace, Y: GradedSpace) -> GradedSpace:
    """[X,Y]_n has basis the pairs x↦y with |y|-|x| = n, in the window."""
    require_same_field(X.field, Y.field)
    H = GradedSpace(X.field, X.window)
    for i in X.degrees():
        for j in Y.degrees():
            if not X.window.contains(j - i):
                continue
            for x in X.basis(i):
                for y in Y.basis(j):
                    H.add(hom_label(x, y), j - i)
    return H


def lambda2(f: GradedMap, X: GradedSpace, Y: GradedSpace) -> GradedMap:
    """λ²(f): X → [Y,Z] with λ²(f)(x)(y) = f(x⊗y) (no sign)."""
    Z = f.target
    H = hom_space(Y, Z)
    g = GradedMap(X, H, f.degree)
    for x in X.labels():
        img = {hom_label(y, z): coeff for y in Y.labels()
               for z, coeff in f.apply_label(tensor_label(x, y)).items()}
        g.set(x, H.project(img))
    return g


def lambda1(f: GradedMap, X: GradedSpace, Y: GradedSpace) -> GradedMap:
    """λ¹(f): Y → [X,Z] with λ¹(f)(y)(x) = (-1)^{|x||y|} f(x⊗y)."""
    Z = f.target
    H = hom_space(X, Z)
    field = f.field
    g = GradedMap(Y, H, f.degree)
    for y in Y.labels():
        n = Y.degree_of(y)
        img = {hom_label(x, z): field.mul(field.sign(X.degree_of(x) * n), c)
               for x in X.labels()
               for z, c in f.apply_label(tensor_label(x, y)).items()}
        g.set(y, H.project(img))
    return g


def uncurry2(g: GradedMap, X: GradedSpace, Y: GradedSpace,
             Z: GradedSpace) -> GradedMap:
    """Inverse of λ²: f(x⊗y) = g(x)(y)."""
    XY = tensor_space(X, Y)
    f = GradedMap(XY, Z, g.degree)
    for x in X.labels():
        at: dict = {}    # y -> g(x)(y)
        for (_, y, z), coeff in g.apply_label(x).items():
            at.setdefault(y, {})[z] = coeff
        for y in Y.labels():
            if tensor_label(x, y) in XY:
                f.set(tensor_label(x, y), at.get(y, {}))
    return f


def uncurry1(g: GradedMap, X: GradedSpace, Y: GradedSpace,
             Z: GradedSpace) -> GradedMap:
    """Inverse of λ¹: f(x⊗y) = (-1)^{|x||y|} g(y)(x)."""
    XY = tensor_space(X, Y)
    field = g.field
    f = GradedMap(XY, Z, g.degree)
    for y in Y.labels():
        at: dict = {}    # x -> g(y)(x)
        for (_, x, z), coeff in g.apply_label(y).items():
            at.setdefault(x, {})[z] = coeff
        for x in X.labels():
            sign = field.sign(X.degree_of(x) * Y.degree_of(y))
            if tensor_label(x, y) in XY:
                f.set(tensor_label(x, y), vscale(field, sign, at.get(x, {})))
    return f


def strength_tensor(f: GradedMap, g: GradedMap) -> GradedMap:
    """(f⊗g)(x⊗y) = (-1)^{|g||x|} f(x)⊗g(y)."""
    X, Y = f.source, g.source
    XY = tensor_space(X, Y)
    TT = tensor_space(f.target, g.target)
    field = f.field
    out = GradedMap(XY, TT, f.degree + g.degree)
    for label in XY.labels():
        _, x, y = label
        sign = field.sign(g.degree * X.degree_of(x))
        img: dict = {}
        fx = f.apply_label(x)
        gy = g.apply_label(y)
        for xt, cf in fx.items():
            for yt, cg in gy.items():
                img[tensor_label(xt, yt)] = field.mul(sign, field.mul(cf, cg))
        out.set(label, TT.project(img))
    return out


def tensor_sum_apply(f: GradedMap, g: GradedMap, vec: dict,
                     TT: GradedSpace) -> dict:
    """(f⊗1 + 1⊗g)(vec) from f(x) and g(y), projected into TT:
    x⊗y ↦ f(x)⊗y + (-1)^{|g||x|} x⊗g(y)."""
    field, out = f.field, {}
    for (_, x, y), c in vec.items():
        vaddmul_into(field, out, c, TT.project(
            {tensor_label(a, y): v for a, v in f.columns.get(x, {}).items()}))
        sign = field.sign(g.degree * f.source.degree_of(x))
        vaddmul_into(field, out, field.mul(sign, c), TT.project(
            {tensor_label(x, b): v for b, v in g.columns.get(y, {}).items()}))
    return out


def susp_label(n: int, x) -> tuple:
    return ("s", n, x)


def suspend(X: GradedSpace, n: int) -> GradedSpace:
    """S^n(X)_i = s^n ⊗ X_{i-n}."""
    S = GradedSpace(X.field, X.window)
    for d in X.degrees():
        for x in X.basis(d):
            ok = S.add(susp_label(n, x), d + n, weight=X.weight_of(x))
            if not ok:
                S.mark_inexact(d + n)
    for d in X.inexact_degrees():
        S.mark_inexact(d + n)
    return S


def dual_label(x) -> tuple:
    return ("d", x)


def graded_dual(X: GradedSpace) -> GradedSpace:
    """(X*)_n = (X_{-n})* with the dual basis."""
    D = GradedSpace(X.field, X.window)
    for d in X.degrees():
        for x in X.basis(d):
            D.add(dual_label(x), -d, weight=X.weight_of(x))
    for d in X.inexact_degrees():
        D.mark_inexact(-d)
    return D


def transpose(f: GradedMap, Xdual: GradedSpace, Ydual: GradedSpace) -> GradedMap:
    """ᵗf(φ) = (-1)^{|φ||f|} φ∘f, as a map Y* → X* of degree |f|.

    (A functional of degree m pulled back along a degree-n morphism kills
    everything but X_{-m-n}, so it sits in (X*)_{m+n}.)
    """
    field = f.field
    out = GradedMap(Ydual, Xdual, f.degree)
    cols: dict = {}
    for x, img in f.columns.items():
        for y, coeff in img.items():
            sign = field.sign(f.target.degree_of(y) * f.degree)
            cols.setdefault(dual_label(y), {})[dual_label(x)] = \
                field.mul(sign, coeff)
    for ylab in Ydual.labels():
        out.set(ylab, Xdual.project(cols.get(ylab, {})))
    return out
