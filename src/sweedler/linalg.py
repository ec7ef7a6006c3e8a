"""Exact sparse linear algebra over Q or F_p.

Vectors are dicts mapping basis labels to nonzero field elements.  All
elimination uses deterministic pivoting: the pivot of a row is its first
nonzero coordinate in the ambient basis order, and rows are processed in
insertion order, so bases of kernels, quotients and row spaces are
reproducible across runs.

`RowSpace` is the one elimination routine.  Its rows are kept in reduced
row echelon form: each row has a leading 1 at its pivot and zeros at every
other pivot.  Subtracting a row therefore never brings a pivot coordinate
back, and a vector is reduced by one sweep over its pivot coordinates in
pivot order.  A column index maps each non-pivot label to the pivots of
the rows that hold it, so inserting a row back-eliminates its pivot from
exactly the rows that hold that label, editing them in place.  The row
returned by `add`/`insert` is the live row, not a copy: later insertions
may edit it.  Kernels and membership combinations are tracked by extra
tracking columns (_TRACK, s), one per source vector, ordered after every
ambient label so they are never pivots; the tracked combination of a
reduced vector is its tracking part.
"""

from __future__ import annotations

from .scalars import Field


# -- sparse vector helpers ----------------------------------------------------

def vaddmul_into(field: Field, out: dict, coeff, v: dict) -> dict:
    """out += coeff * v in place, dropping zero sums; returns out."""
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

    `order` maps each ambient basis label to its pivot priority (lower wins).
    """

    def __init__(self, field: Field, order: list):
        self.field = field
        self.order = {label: i for i, label in enumerate(order)}
        self.rows: dict = {}          # pivot label -> reduced row (leading 1)
        self.cols: dict = {}          # non-pivot label -> pivots holding it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _pivot_of(self, v: dict):
        return min(v, key=self.order.__getitem__)

    def reduce(self, v: dict) -> dict:
        """Fully reduce v against the span; the residue has no pivot coords."""
        field, rows = self.field, self.rows
        out = dict(v)
        for p in sorted([k for k in v if k in rows], key=self.order.__getitem__):
            vaddmul_into(field, out, field.neg(out[p]), rows[p])
        return out

    def insert(self, red: dict) -> dict:
        """Insert a nonzero reduced vector: scale its pivot to 1 and
        back-eliminate that pivot, in place, from the rows that hold it.
        Takes ownership of `red`, which is scaled in place and becomes the
        (live) row it returns."""
        field, rows, cols = self.field, self.rows, self.cols
        piv = self._pivot_of(red)
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
        return red

    def add(self, v: dict) -> dict | None:
        """Reduce and insert v; returns the new reduced row or None."""
        red = self.reduce(v)
        return self.insert(red) if red else None

    def extend(self, vecs) -> None:
        for v in vecs:
            self.add(v)

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def pivots(self) -> set:
        return set(self.rows)


def rank(field: Field, vectors, ambient_order: list) -> int:
    rs = RowSpace(field, ambient_order)
    rs.extend(vectors)
    return rs.rank


_TRACK = object()   # tag of the tracking columns (_TRACK, s)


def _tracking_span(field: Field, vectors, tags,
                   ambient_order: list) -> tuple[RowSpace, list]:
    """Reduce each vector, tracked by its tag, into one RowSpace.

    Returns the span and the tracked combinations (over tags) of the
    vectors that reduced to zero in the ambient coordinates.
    """
    rs = RowSpace(field, [*ambient_order, *((_TRACK, t) for t in tags)])
    n = len(ambient_order)
    dependent = []
    for t, v in zip(tags, vectors):
        red = rs.reduce({**v, (_TRACK, t): field.one()})
        if rs.order[rs._pivot_of(red)] < n:
            rs.insert(red)
        else:
            dependent.append({k[1]: c for k, c in red.items()})
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
    red = rs.reduce(target)
    n = len(ambient_order)
    if any(rs.order[k] < n for k in red):
        return None
    return {k[1]: field.neg(c) for k, c in red.items()}
