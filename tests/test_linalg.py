import random
from fractions import Fraction

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
# The tracked-reduction loop that kernel_basis, solve_membership and RowSpace
# each ran before they shared one RowSpace sweep: sort the vector, eliminate
# its first pivot coordinate, restart.  The library must give the same
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
    for k, row in list(rows.items()):
        if piv in row:
            c = field.neg(row[piv])
            rows[k] = vaddmul(field, row, c, v)
            tracked[k] = vaddmul(field, tracked[k], c, combo)
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


def _fresh_index(rows):
    """Non-pivot label -> pivots of the rows that hold it, from scratch."""
    index = {}
    for q, row in rows.items():
        for k in row:
            if k not in rows:
                index.setdefault(k, set()).add(q)
    return index


def test_rowspace_column_index_invariant():
    rng = random.Random(1968)
    adds = 0
    for field in (QQ, Field(5), Field(2)):
        for _ in range(60):
            tgt = rng.sample(TGT_POOL, rng.randint(1, len(TGT_POOL)))
            rs = RowSpace(field, tgt)
            for v in _random_vectors(rng, field, tgt, rng.randint(1, 8)):
                rs.add(v)
                adds += 1
                # emptied index entries may linger; they hold no row
                assert ({k: q for k, q in rs.cols.items() if q}
                        == _fresh_index(rs.rows))
                for p, row in rs.rows.items():
                    assert field.is_one(row[p])
                    assert all(k == p or k not in rs.rows for k in row)
    assert adds >= 500


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
                assert ({k: q for k, q in rs.cols.items() if q}
                        == _fresh_index(rows))
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
    assert rs.rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}

    rs = RowSpace(Field(5), [2, 0, 1])
    assert rs.add({0: 3, 1: 1}) == 0
    assert rs.add({1: 4, 2: 1}) == 2
    assert rs.add({0: 1, 1: 2}) is None
    assert rs.pivots() == {2, 0}
    assert list(rs.rows) == [0, 2]
    assert rs.rows[0] == {0: 1, 1: 2}          # 3·0 + 1 scaled by 1/3 = 2
    assert not rs.contains({1: 1})


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
