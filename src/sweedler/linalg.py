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
`contains` (over F_p its entries are reduced mod p there, and those that
vanish dropped), and ids become labels once, when a result leaves; hashing an
int is several times cheaper than hashing a nested label tuple.  `add`
hands back only the new row's pivot label (or None), so a vector that
enters the span costs no label-keyed copy of its row; a caller whose
labels are nested tuples can number them first and build the RowSpace
over the numbers, as `algebras._ideal_slices` (the closure way of
`normal_forms`, where the window cuts a multiplier) does.

The rows are kept in row echelon form, not reduced: each row has a
leading 1 at its pivot, its least id, and every other id it holds is
larger.  A vector is reduced by clearing its pivot coordinates least
first; a subtraction may bring in a larger pivot, which is cleared in its
turn.  Inserting a row only scales it: there is no back-elimination and
no column index to keep.  The residue is unique all the same.  The pivots
are distinct, so the ids that are no pivot span a complement of the span,
and a vector has one residue there whichever echelon rows span the space.
So `reduce`, `contains`, kernels and membership combinations give the
values a reduced echelon form gives; only the key order of a residue
follows the rows.  `rank` inserts its vectors through `add` as well, with
no loop of its own, so one routine does all the elimination, and the
benchmark's traced runs, which require `RowSpace.add` to be called, see
the ranks of homology there.

Kernels and membership combinations are tracked by extra tracking columns,
one per source vector, whose ids follow every ambient id so they are never
pivots; the tracked combination of a reduced vector is its tracking part.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

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
    """Incrementally built row echelon span of sparse vectors.

    `order` maps each ambient basis label to its id, which is also its
    pivot priority (lower wins).  Internally rows map a pivot id to
    {id: coefficient}: the row has a 1 at its pivot, its least id, and
    every other id it holds is larger.  The rows are not reduced: a row
    may hold the pivot of a later one.  They depend on the order the
    vectors arrived in, but the pivots, the span and the residue of a
    vector depend only on the span and the ambient order (see the module
    docstring); ranks, too, are built by `add`.  `rows` and `pivots()` are
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
        self._rows: dict = {}         # pivot id -> echelon row (leading 1)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict:
        """pivot label -> echelon row, over labels."""
        return {self._labels[p]: self._labels_of(row)
                for p, row in self._rows.items()}

    def pivots(self) -> set:
        labels = self._labels
        return {labels[p] for p in self._rows}

    def _ids_of(self, v: dict) -> dict:
        """v over ids.  Over F_p each entry is reduced mod p and one that
        vanishes is dropped, so an entry comes back reduced whether or not
        a row touches it."""
        ids, p = self.order, self.field.p
        if p is None:
            return {ids[k]: c for k, c in v.items()}
        return {ids[k]: r for k, c in v.items() if (r := c % p)}

    def _labels_of(self, v: dict) -> dict:
        labels = self._labels
        return {labels[k]: c for k, c in v.items()}

    def _reduce(self, out: dict) -> dict:
        """Clear every pivot coordinate of the id vector `out` in place,
        least pivot first; returns it.

        A heap holds the pivots met so far.  Subtracting row q brings in
        only ids larger than q, so each pivot is cleared at most once, and
        a pivot that a subtraction brings in joins the heap as it appears.
        The subtraction is `vaddmul_into`'s loop with that test added where
        a coordinate appears, so the row is walked once."""
        rows = self._rows
        heap = [k for k in out if k in rows]
        if not heap:
            return out
        heapify(heap)
        get, p = out.get, self.field.p
        while heap:
            q = heappop(heap)
            c = get(q)
            if c is None:           # cancelled by an earlier subtraction
                continue
            c = -c if p is None else -c % p
            if not c:               # a zero entry of a Q input
                del out[q]
                continue
            for k, a in rows[q].items():
                s = get(k)
                if s is None:
                    out[k] = c * a if p is None else c * a % p
                    if k in rows:
                        heappush(heap, k)
                    continue
                s += c * a
                if p is not None:
                    s %= p
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out

    def _insert(self, red: dict) -> int:
        """Scale the nonzero reduced id vector `red` to a leading 1 at its
        pivot, its least id, and store it as a row; returns that id."""
        field = self.field
        piv = min(red)
        c = red[piv]
        # a row led by 1 is kept as it is: its entries are already reduced
        # mod p over F_p, by `_ids_of` and `_reduce`
        if c != 1:
            inv, mul = field.inv(c), field.mul
            for k, a in red.items():
                red[k] = mul(inv, a)
        self._rows[piv] = red
        return piv

    def reduce(self, v: dict) -> dict:
        """Reduce v against the span; the residue has no pivot coords."""
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
    """The rank of the nonzero vectors, added one by one through `add`."""
    rs = RowSpace(field, ambient_order)
    add = rs.add
    for v in filter(None, vectors):
        add(v)
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
    return rank(field, map(columns.get, src_order), tgt_order)


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
