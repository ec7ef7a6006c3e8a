"""Exact sparse linear algebra over Q or F_p.

Vectors are dicts mapping basis labels to nonzero field elements.  All
elimination uses deterministic pivoting: the pivot of a row is its first
nonzero coordinate in the ambient basis order, and rows are processed in
insertion order, so bases of kernels, quotients and row spaces are
reproducible across runs.

`RowSpace` is the one elimination routine.  It works on integer column
ids: a label's id is its position in the ambient order, so it is also its
pivot priority (lower wins), and a row's pivot is the least id it holds.
Labels become ids once, when a vector enters `reduce`, `add` or
`contains`, and ids become labels once, when a result leaves; hashing an
int is several times cheaper than hashing a nested label tuple.  `add`
hands back only the new row's pivot label (or None), so a vector that
enters the span costs no label-keyed copy of its row; a caller whose
labels are nested tuples can number them first and build the RowSpace
over the numbers, as `algebras._ideal_slices` (the closure way of
`normal_forms`, where the window cuts a multiplier) does.  The rows
are kept in reduced row echelon form: each row has a leading 1 at its
pivot and zeros at every other pivot.  Subtracting a row therefore never
brings a pivot coordinate back, and a vector is reduced by one sweep over
its pivot coordinates in pivot order.  A column index maps each non-pivot
id to the pivots of the rows that hold it, so inserting a row
back-eliminates its pivot from exactly the rows that hold that column,
editing them in place.  Kernels and membership combinations are tracked
by extra tracking columns, one per source vector, whose ids follow every
ambient id so they are never pivots; the tracked combination of a reduced
vector is its tracking part.
"""

from __future__ import annotations

from .scalars import Field


# -- sparse vector helpers ----------------------------------------------------

def vaddmul_into(field: Field, out: dict, coeff, v: dict) -> dict:
    """out += coeff * v in place, dropping zero sums; returns out.

    Over Q the field operations are plain `+`, `*` and `== 0`, so that
    branch skips the method calls; values and key order are the same.
    """
    if field.p is None:
        get = out.get
        for k, c in v.items():
            s = get(k, 0) + coeff * c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out
    zero = field.zero()
    for k, c in v.items():
        s = field.add(out.get(k, zero), field.mul(coeff, c))
        if field.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vaddmul(field: Field, u: dict, coeff, v: dict) -> dict:
    """u + coeff * v."""
    if field.is_zero(coeff):
        return dict(u)
    return vaddmul_into(field, dict(u), coeff, v)


def vscale(field: Field, coeff, v: dict) -> dict:
    if field.is_zero(coeff):
        return {}
    return {k: field.mul(coeff, c) for k, c in v.items()}


class RowSpace:
    """Incrementally built reduced row echelon span of sparse vectors.

    `order` maps each ambient basis label to its id, which is also its
    pivot priority (lower wins).  Internally rows map a pivot id to
    {id: coefficient} and the column index maps a non-pivot id to the set
    of pivot ids whose rows hold it.  `rows`, `cols` and `pivots()` are
    label-keyed views built on request; `reduce` returns a label-keyed
    snapshot of the residue, and `add` returns the pivot label of the row
    it inserted, or None when the vector reduced to zero.  A pivot label
    may be falsy (the int 0), so test the result with `is not None`.  Int
    dicts keep insertion order, so a returned or viewed dict lists its
    labels in the order the elimination wrote them.
    """

    def __init__(self, field: Field, order: list):
        self.field = field
        self._labels = list(order)    # id -> label
        self.order = {label: i for i, label in enumerate(self._labels)}
        self._rows: dict = {}         # pivot id -> reduced row (leading 1)
        self._cols: dict = {}         # non-pivot id -> pivot ids holding it

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict:
        """pivot label -> reduced row, over labels."""
        return {self._labels[p]: self._labels_of(row)
                for p, row in self._rows.items()}

    @property
    def cols(self) -> dict:
        """non-pivot label -> the pivot labels of the rows that hold it."""
        labels = self._labels
        return {labels[k]: {labels[q] for q in qs}
                for k, qs in self._cols.items()}

    def pivots(self) -> set:
        labels = self._labels
        return {labels[p] for p in self._rows}

    def _ids_of(self, v: dict) -> dict:
        ids = self.order
        return {ids[k]: c for k, c in v.items()}

    def _labels_of(self, v: dict) -> dict:
        labels = self._labels
        return {labels[k]: c for k, c in v.items()}

    def _reduce(self, out: dict) -> dict:
        """Fully reduce the id vector `out` in place; returns it."""
        field, rows = self.field, self._rows
        for p in sorted([k for k in out if k in rows]):
            vaddmul_into(field, out, field.neg(out[p]), rows[p])
        return out

    def _insert(self, red: dict) -> int:
        """Insert the nonzero reduced id vector `red`: scale its pivot to 1
        and back-eliminate that pivot, in place, from the rows that hold
        it.  `red` becomes the new row; returns its pivot id."""
        field, rows, cols = self.field, self._rows, self._cols
        piv = min(red)
        inv = field.inv(red[piv])
        # over Q a product with 1 is the value itself; over F_p it also
        # reduces mod p, so it is never skipped there
        if field.p is not None or not field.is_one(inv):
            mul = field.mul
            for k, c in red.items():
                red[k] = mul(inv, c)
        for q in cols.pop(piv, ()):
            row = rows[q]
            vaddmul_into(field, row, field.neg(row[piv]), red)
            for k in red:
                if k in row:
                    cols.setdefault(k, set()).add(q)
                elif k in cols:
                    cols[k].discard(q)
        for k in red:
            if k != piv:
                cols.setdefault(k, set()).add(piv)
        rows[piv] = red
        return piv

    def reduce(self, v: dict) -> dict:
        """Fully reduce v against the span; the residue has no pivot coords."""
        return self._labels_of(self._reduce(self._ids_of(v)))

    def add(self, v: dict):
        """Reduce and insert v; returns the new row's pivot label, or None
        when v lies in the span already."""
        red = self._reduce(self._ids_of(v))
        if not red:
            return None
        return self._labels[self._insert(red)]

    def contains(self, v: dict) -> bool:
        return not self._reduce(self._ids_of(v))


def rank(field: Field, vectors, ambient_order: list) -> int:
    rs = RowSpace(field, ambient_order)
    for v in vectors:
        if v:
            rs.add(v)
    return rs.rank


_TRACK = object()   # tag of the tracking column labels (_TRACK, s)


def _tracking_span(field: Field, vectors, tags,
                   ambient_order: list) -> tuple[RowSpace, list]:
    """Reduce each vector, tracked by its tag, into one RowSpace.

    The tracking column of the i-th tag has id n + i, n the ambient size.
    Returns the span and the tracked combinations (over tags) of the
    vectors that reduced to zero in the ambient coordinates.
    """
    tags = list(tags)
    rs = RowSpace(field, [*ambient_order, *((_TRACK, t) for t in tags)])
    n, one = len(ambient_order), field.one()
    dependent = []
    for i, v in enumerate(vectors):
        red = rs._ids_of(v)
        red[n + i] = one
        rs._reduce(red)
        if min(red) < n:
            rs._insert(red)
        else:
            dependent.append({tags[k - n]: c for k, c in red.items()})
    return rs, dependent


def kernel_basis(field: Field, columns: dict, src_order: list,
                 tgt_order: list) -> list[dict]:
    """Kernel of the linear map sending src label s to columns.get(s, 0).

    Returns reduced kernel vectors (dicts over source labels), deterministic
    in the given orders.
    """
    return _tracking_span(field, (columns.get(s, {}) for s in src_order),
                          src_order, tgt_order)[1]


def rank_of_columns(field: Field, columns: dict, src_order: list,
                    tgt_order: list) -> int:
    return rank(field, (columns.get(s, {}) for s in src_order), tgt_order)


def solve_membership(field: Field, target: dict, vectors: list[dict],
                     ambient_order: list) -> dict | None:
    """Express target as a combination of vectors; None if not in the span.

    Returns a dict {index: coeff} over positions in `vectors`.
    """
    rs, _ = _tracking_span(field, vectors, range(len(vectors)), ambient_order)
    red = rs._reduce(rs._ids_of(target))
    n = len(ambient_order)
    if any(k < n for k in red):
        return None
    return {k - n: field.neg(c) for k, c in red.items()}
