import random
from fractions import Fraction

from hypothesis import given, strategies as st

from sweedler import linalg
from sweedler.scalars import QQ, Field
from sweedler.linalg import (RowSpace, rank, kernel_basis, solve_membership,
                             vaddmul, vscale)


def test_rowspace_reduce_and_rank():
    order = ["a", "b", "c"]
    rs = RowSpace(QQ, order)
    rs.add({"a": QQ.of(1), "b": QQ.of(2)})
    rs.add({"b": QQ.of(1), "c": QQ.of(1)})
    assert rs.rank == 2
    # a + 2b reduces to zero against itself
    assert rs.contains({"a": QQ.of(1), "b": QQ.of(2)})
    residue = rs.reduce({"a": QQ.of(1)})
    assert set(residue) <= {"c"}


def test_kernel_of_singular_map():
    # columns of [[1,1],[1,1]]: kernel is spanned by x - y
    cols = {"x": {"u": QQ.of(1), "v": QQ.of(1)},
            "y": {"u": QQ.of(1), "v": QQ.of(1)}}
    ker = kernel_basis(QQ, cols, ["x", "y"], ["u", "v"])
    assert len(ker) == 1
    combo = ker[0]
    total = vaddmul(QQ, vscale(QQ, combo.get("x", QQ.zero()), cols["x"]),
                    combo.get("y", QQ.zero()), cols["y"])
    assert not total


def test_solve_membership():
    vecs = [{"u": QQ.of(1)}, {"u": QQ.of(1), "v": QQ.of(1)}]
    combo = solve_membership(QQ, {"v": QQ.of(2)}, vecs, ["u", "v"])
    assert combo is not None
    assert solve_membership(QQ, {"w": QQ.of(1)}, vecs, ["u", "v", "w"]) is None


def test_rank_plus_kernel_dim_random():
    rng = random.Random(7)
    for field in (QQ, Field(5)):
        for _ in range(20):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            src = [f"x{i}" for i in range(n)]
            tgt = [f"y{j}" for j in range(m)]
            cols = {}
            for s in src:
                col = {t: field.of(rng.randint(-3, 3)) for t in tgt}
                cols[s] = {k: v for k, v in col.items()
                           if not field.is_zero(v)}
            r = rank(field, (cols[s] for s in src), tgt)
            ker = kernel_basis(field, cols, src, tgt)
            assert r + len(ker) == n
            for combo in ker:
                img = {}
                for s, c in combo.items():
                    img = vaddmul(field, img, c, cols[s])
                assert not img


# -- reference elimination ------------------------------------------------------
#
# A tracked-reduction loop of its own over label-keyed echelon rows: sort the
# vector, eliminate its first pivot coordinate, restart; a new row is scaled
# to a leading 1 and stored, and no other row changes.  So the least pivot is
# cleared first, as in RowSpace, but found by sorting the whole vector again
# after each step instead of by a heap.  The library must give the same
# kernel vectors, combinations, rows and residues, dict key order included.


def _ref_reduce(field, order, rows, tracked, v, combo):
    changed = True
    while changed:
        changed = False
        for k in sorted(v, key=order.__getitem__):
            row = rows.get(k)
            if row is not None:
                c = field.neg(v[k])
                v = vaddmul(field, v, c, row)
                if combo is not None:
                    combo = vaddmul(field, combo, c, tracked[k])
                changed = True
                break
    return v, combo


def _ref_insert(field, order, rows, tracked, v, combo):
    piv = min(v, key=order.__getitem__)
    scale = field.inv(v[piv])
    v = vscale(field, scale, v)
    combo = vscale(field, scale, combo)
    rows[piv] = v
    tracked[piv] = combo
    return v


def _ref_span(field, vectors, tags, ambient_order):
    order = {label: i for i, label in enumerate(ambient_order)}
    rows, tracked, dependent = {}, {}, []
    for t, v in zip(tags, vectors):
        v, combo = _ref_reduce(field, order, rows, tracked, dict(v),
                               {t: field.one()})
        if v:
            _ref_insert(field, order, rows, tracked, v, combo)
        else:
            dependent.append(combo)
    return order, rows, tracked, dependent


def _ref_solve(field, target, vectors, ambient_order):
    order, rows, tracked, _ = _ref_span(field, vectors,
                                        range(len(vectors)), ambient_order)
    res, out = dict(target), {}
    changed = True
    while changed:
        changed = False
        for k in sorted(res, key=order.__getitem__):
            row = rows.get(k)
            if row is not None:
                c = res[k]
                res = vaddmul(field, res, field.neg(c), row)
                out = vaddmul(field, out, c, tracked[k])
                changed = True
                break
    return None if res else out


def _items(v):
    return None if v is None else list(v.items())


def _pivot(order, row):
    """The pivot label of a reference row: its least key in `order`."""
    return None if row is None else min(row, key=order.__getitem__)


def _random_vectors(rng, field, labels, count):
    """count sparse vectors over labels, many of them dependent."""
    base = [{lab: field.of(rng.randint(-4, 4))
             for lab in rng.sample(labels, rng.randint(1, len(labels)))}
            for _ in range(rng.randint(1, 4))]
    out = []
    for _ in range(count):
        if rng.random() < 0.3:
            v = {lab: field.of(rng.randint(-4, 4))
                 for lab in rng.sample(labels, rng.randint(0, len(labels)))}
        else:
            v = {}
            for b in rng.sample(base, rng.randint(1, len(base))):
                v = vaddmul(field, v, field.of(rng.randint(-3, 3)), b)
        out.append({k: c for k, c in v.items() if not field.is_zero(c)})
    return out


# target and source pools overlap: "a", "b" and ("t", "a", "b") name both
TGT_POOL = ["a", "b", "c", "d", "e", "f", ("t", "a", "b"), ("w", ("a",))]
SRC_POOL = ["a", "b", "x", "y", "z", ("t", "a", "b"), 0, 1]


def test_elimination_matches_reference_loop():
    rng = random.Random(2013)
    cases = 0
    for field in (QQ, Field(5), Field(2)):
        for _ in range(60):
            tgt = rng.sample(TGT_POOL, rng.randint(1, len(TGT_POOL)))
            src = rng.sample(SRC_POOL, rng.randint(1, len(SRC_POOL)))

            cols = dict(zip(src, _random_vectors(rng, field, tgt, len(src))))
            if rng.random() < 0.2:
                del cols[src[0]]        # a source with a zero column
            ref = _ref_span(field, (cols.get(s, {}) for s in src), src, tgt)[3]
            got = kernel_basis(field, cols, src, tgt)
            assert [_items(v) for v in got] == [_items(v) for v in ref]
            cases += 1

            vecs = _random_vectors(rng, field, tgt, rng.randint(0, 7))
            for target in (_random_vectors(rng, field, tgt, 1)[0],
                           vecs[-1] if vecs else {}):
                assert (_items(solve_membership(field, target, vecs, tgt))
                        == _items(_ref_solve(field, target, vecs, tgt)))
                cases += 1

            rs = RowSpace(field, tgt)
            order, rows, tracked = rs.order, {}, {}
            for v in _random_vectors(rng, field, tgt, rng.randint(1, 8)):
                red, _ = _ref_reduce(field, order, rows, tracked, dict(v),
                                     None)
                assert _items(rs.reduce(v)) == _items(red)
                want = (_ref_insert(field, order, rows, tracked, red, {})
                        if red else None)
                assert rs.add(v) == _pivot(order, want)
                assert ([(k, _items(r)) for k, r in rs.rows.items()]
                        == [(k, _items(r)) for k, r in rows.items()])
            cases += 1
    assert cases >= 500


def _check_echelon(field, order, rows):
    """The echelon invariant of a RowSpace's label-keyed rows: each row
    has a 1 at its pivot, its least label in `order`, every other entry a
    later label, and every value nonzero (over F_p, reduced mod p).
    Returns how many entries sit at another row's pivot, which a reduced
    echelon form would have cleared."""
    held = 0
    for p, row in rows.items():
        assert min(row, key=order.__getitem__) == p
        assert field.is_one(row[p])
        for k, c in row.items():
            assert not field.is_zero(c)
            assert field.p is None or 0 <= c < field.p
            held += k != p and k in rows
    return held


def test_rowspace_echelon_invariant():
    # after every add the rows are in echelon form, span exactly the vectors
    # added so far, and leave a residue with no pivot coordinate; rows keep
    # the pivots of later rows, since nothing back-eliminates them
    rng = random.Random(1968)
    adds = held = 0
    for field in (QQ, Field(5), Field(2)):
        for _ in range(60):
            tgt = rng.sample(TGT_POOL, rng.randint(1, len(TGT_POOL)))
            rs = RowSpace(field, tgt)
            added = []
            for v in _random_vectors(rng, field, tgt, rng.randint(1, 8)):
                was = rs.rows
                pivot = rs.add(v)
                adds += 1
                added.append(v)
                rows = rs.rows
                held += _check_echelon(field, rs.order, rows)
                # an add stores at most one row and edits no other
                assert {p: r for p, r in rows.items() if p != pivot} == was
                assert (pivot is None) == (len(rows) == len(was))
                assert rs.rank == len(rows) == rank(field, added, tgt)
                assert all(rs.contains(u) for u in added)
                for u in (v, *_random_vectors(rng, field, tgt, 2)):
                    assert not set(rs.reduce(u)) & set(rows)
    assert adds >= 500 and held >= 100


_TAG = object()     # tag of this test's tracking-column labels (_TAG, s)


def test_rowspace_api_matches_reference_loop():
    # reduce, add and contains interleaved, some vectors carrying a
    # tracking coordinate: after every step the label-keyed views equal the
    # reference loop's, key order included, add returns the pivot of the
    # reference row (None when the vector lies in the span), and every
    # residue reduce returned earlier is a snapshot later steps leave alone
    rng = random.Random(1973)
    ops = {"reduce": 0, "add": 0, "contains": 0}
    for field in (QQ, Field(5), Field(2)):
        for _ in range(60):
            tgt = rng.sample(TGT_POOL, rng.randint(1, len(TGT_POOL)))
            tags = rng.sample(SRC_POOL, rng.randint(0, 4))
            labels = [*tgt, *((_TAG, t) for t in tags)]
            rs = RowSpace(field, labels)
            order = {label: i for i, label in enumerate(labels)}
            assert rs.order == order
            rows, tracked, returned = {}, {}, []
            for v in _random_vectors(rng, field, tgt, rng.randint(1, 10)):
                if tags and rng.random() < 0.5:
                    v = {**v, (_TAG, rng.choice(tags)): field.one()}
                red, _ = _ref_reduce(field, order, rows, tracked, dict(v),
                                     None)
                op = rng.choice(list(ops))
                if op == "reduce":
                    got = rs.reduce(v)
                    assert _items(got) == _items(red)
                    returned.append((got, _items(got)))
                elif op == "contains":
                    assert rs.contains(v) == (not red)
                else:
                    want = (_ref_insert(field, order, rows, tracked, red, {})
                            if red else None)
                    assert rs.add(v) == _pivot(order, want)
                ops[op] += 1
                assert ([(k, _items(r)) for k, r in rs.rows.items()]
                        == [(k, _items(r)) for k, r in rows.items()])
                assert rs.pivots() == set(rows)
                assert rs.rank == len(rows)
                _check_echelon(field, order, rs.rows)
                assert all(_items(d) == items for d, items in returned)
    assert min(ops.values()) >= 150


def test_add_returns_a_falsy_pivot_label():
    # int labels whose first pivot is 0: add returns 0, not None, and
    # the ambient order, not the label value, decides the pivot
    rs = RowSpace(QQ, [0, 1, 2])
    assert rs.add({1: QQ.of(1), 0: QQ.of(2)}) == 0
    assert rs.add({0: QQ.of(4), 1: QQ.of(2)}) is None
    assert rs.add({2: QQ.of(3), 1: QQ.of(1)}) == 1
    assert rs.add({0: QQ.of(1), 2: QQ.of(1)}) == 2
    assert rs.rank == 3 and rs.pivots() == {0, 1, 2}
    # echelon rows, in the key order the elimination wrote: row 0 keeps
    # the pivot 1, and the last add cleared the pivot 1 that subtracting
    # row 0 brought in
    assert ({p: list(row.items()) for p, row in rs.rows.items()}
            == {0: [(1, Fraction(1, 2)), (0, 1)], 1: [(2, 3), (1, 1)],
                2: [(2, 1)]})

    rs = RowSpace(Field(5), [2, 0, 1])
    assert rs.add({0: 3, 1: 1}) == 0
    assert rs.add({1: 4, 2: 1}) == 2
    assert rs.add({0: 1, 1: 2}) is None
    assert rs.pivots() == {2, 0}
    assert list(rs.rows) == [0, 2]
    assert rs.rows[0] == {0: 1, 1: 2}          # 3·0 + 1 scaled by 1/3 = 2
    assert rs.rows[2] == {1: 4, 2: 1}
    assert not rs.contains({1: 1})

    # over F_p a row led by 1 is scaled all the same, which reduces the
    # entries of an input not reduced mod p
    rs = RowSpace(Field(5), ["a", "b", "c"])
    assert rs.add({"a": 1, "b": -1, "c": 6}) == "a"
    assert list(rs.rows["a"].items()) == [("a", 1), ("b", 4), ("c", 1)]
    # an entry that vanishes mod p at a pivot is cleared and brings in no
    # zero entries from that row
    assert rs.reduce({"a": 5, "c": 2}) == {"c": 2}


# -- dense Gaussian elimination ---------------------------------------------------
#
# Independent of RowSpace: dense lists, Gauss-Jordan to the reduced row
# echelon form, and a linear system solved on its equations.  Over F_p the
# inputs hold entries not reduced mod p (-1, p + 1), so every row RowSpace
# stores must have been scaled even when it is led by 1.


def _rref(field, matrix):
    """(pivot columns, rows) of the reduced row echelon form of the dense
    rows `matrix`, each entry reduced by `field.of`."""
    rows = [[field.of(c) for c in row] for row in matrix]
    pivots, r = [], 0
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(r, len(rows))
                  if not field.is_zero(rows[i][col])), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, c) for c in rows[r]]
        for j, row in enumerate(rows):
            if j != r and not field.is_zero(row[col]):
                f = row[col]
                rows[j] = [field.sub(c, field.mul(f, e))
                           for c, e in zip(row, rows[r])]
        pivots.append(col)
        r += 1
    return pivots, rows[:r]


def _dense_residue(field, order, pivots, rows, v):
    """v minus, for each pivot column, its entry there times that row."""
    dense = [field.of(v.get(lab, 0)) for lab in order]
    for col, row in zip(pivots, rows):
        f = dense[col]
        dense = [field.sub(c, field.mul(f, e)) for c, e in zip(dense, row)]
    return {lab: c for lab, c in zip(order, dense) if not field.is_zero(c)}


def _dense_solve(field, order, vectors, target):
    """The coefficients x with Σ x_j vectors[j] = target, the vectors
    independent, from the equations, one per ambient label; None when the
    system has no solution."""
    k = len(vectors)
    pivots, rows = _rref(field, [[v.get(lab, 0) for v in vectors]
                                 + [target.get(lab, 0)] for lab in order])
    if k in pivots:
        return None
    return [row[k] for row in rows]      # pivot j is unknown j


def _dense_kernel_and_span(field, order, vectors):
    """The kernel vectors kernel_basis gives, over positions: each vector
    that depends on the earlier ones gives e_i minus its combination of the
    earlier independent vectors.  Also the positions of those."""
    kernel, independent = [], []
    for i, v in enumerate(vectors):
        x = _dense_solve(field, order, [vectors[j] for j in independent], v)
        if x is None:
            independent.append(i)
            continue
        vec = {i: field.one()}
        for j, c in zip(independent, x):
            if not field.is_zero(c):
                vec[j] = field.neg(c)
        kernel.append(vec)
    return kernel, independent


def _scalars(field):
    if field.p is None:
        return st.one_of(
            st.integers(-4, 4).filter(bool),
            st.builds(Fraction, st.integers(-4, 4).filter(bool),
                      st.integers(2, 3)))
    p = field.p
    return st.sampled_from([-1, 1, p + 1, 1 - p, *range(2, p)])


@st.composite
def _elimination_cases(draw):
    field = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    order = draw(st.permutations(TGT_POOL[:draw(st.integers(1, 6))]))
    scalar = _scalars(field)
    vector = st.dictionaries(st.sampled_from(order), scalar)
    vectors = draw(st.lists(vector, max_size=7))
    if vectors and draw(st.booleans()):
        # a combination of the vectors, often dependent on them
        picked = draw(st.lists(st.tuples(st.sampled_from(vectors), scalar),
                               max_size=3))
        target = {}
        for v, c in picked:
            target = vaddmul(field, target, c, v)
        target = {k: c for k, c in target.items()
                  if not field.is_zero(field.of(c))}
    else:
        target = draw(vector)
    return field, order, vectors, target


def _reduced(field, v):
    return None if v is None else {k: field.of(c) for k, c in v.items()}


@given(_elimination_cases())
def test_elimination_matches_dense_gaussian_elimination(case):
    field, order, vectors, target = case
    pivots, rows = _rref(field, [[v.get(lab, 0) for lab in order]
                                 for v in vectors])
    rs = RowSpace(field, order)
    for v in vectors:
        rs.add(v)
    assert rs.rank == rank(field, vectors, order) == len(pivots)
    assert rs.pivots() == {order[j] for j in pivots}
    _check_echelon(field, rs.order, rs.rows)
    for u in (*vectors, target):
        want = _dense_residue(field, order, pivots, rows, u)
        assert _reduced(field, rs.reduce(u)) == want
        assert rs.contains(u) == (not want)

    src = list(range(len(vectors)))
    kernel, independent = _dense_kernel_and_span(field, order, vectors)
    got = kernel_basis(field, dict(zip(src, vectors)), src, order)
    assert [_reduced(field, v) for v in got] == kernel

    x = _dense_solve(field, order, [vectors[j] for j in independent], target)
    want = (None if x is None else
            {j: c for j, c in zip(independent, x) if not field.is_zero(c)})
    assert _reduced(field, solve_membership(field, target, vectors,
                                            order)) == want


# -- the Q branch of vaddmul_into --------------------------------------------


def _ref_vaddmul_into(field, out, coeff, v):
    """out += coeff * v through the Field methods alone."""
    zero = field.zero()
    for k, c in v.items():
        s = field.add(out.get(k, zero), field.mul(coeff, c))
        if field.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _typed_items(v):
    return [(k, type(c), c) for k, c in v.items()]


def test_vaddmul_into_matches_the_field_method_loop():
    # over Q with int and Fraction coefficients, a zero coeff and sums that
    # cancel, and over F_p: the same values, value types and key order
    rng = random.Random(1850)
    keys = ["a", "b", "c", "d", ("t", "a", "b"), 0, 1]
    seen = {"cancelled": 0, "fraction": 0, "zero coeff": 0}
    for field in (QQ, Field(2), Field(5), Field(7)):
        for _ in range(300):
            def scalar():
                if field.p is None and rng.random() < 0.4:
                    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                return field.of(rng.randint(-6, 6))

            def vector():
                return {k: c for k in rng.sample(keys, rng.randint(0, 6))
                        if not field.is_zero(c := scalar())}

            out, v, coeff = vector(), vector(), scalar()
            if out and rng.random() < 0.4:
                # v cancels some of out's terms
                coeff = field.of(rng.choice([1, -1, 2])) or field.one()
                for k in rng.sample(list(out), rng.randint(1, len(out))):
                    v[k] = field.neg(field.div(out[k], coeff))
            want = _ref_vaddmul_into(field, dict(out), coeff, v)
            arg = dict(out)
            got = linalg.vaddmul_into(field, arg, coeff, v)
            assert got is arg
            assert _typed_items(got) == _typed_items(want)
            seen["cancelled"] += len(set(out) & set(v) - set(got))
            seen["fraction"] += any(type(c) is Fraction for c in got.values())
            seen["zero coeff"] += field.is_zero(coeff) and bool(v)
    assert min(seen.values()) >= 20, seen
