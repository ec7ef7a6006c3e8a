import random

import pytest

from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedMap, tensor_space,
                             tensor_label, koszul_swap, hom_space, hom_label,
                             lambda1, lambda2, uncurry1, uncurry2,
                             strength_tensor, suspend, graded_dual, transpose,
                             dual_label, identity_map, unit_space,
                             koszul_sign_exponent, label_str, GradedError)

TR = Truncation(-6, 6, 6)


def space_with(dims: dict) -> GradedSpace:
    X = GradedSpace(QQ, TR)
    for deg, count in dims.items():
        for i in range(count):
            X.add(f"x{deg}_{i}", deg)
    return X


def named(dims, prefix) -> GradedSpace:
    X = GradedSpace(QQ, TR)
    for deg, count in dims.items():
        for i in range(count):
            X.add(f"{prefix}{deg}_{i}", deg)
    return X


def random_map(rng, X, Y, degree) -> GradedMap:
    f = GradedMap(X, Y, degree)
    for x in X.labels():
        want = X.degree_of(x) + degree
        img = {y: QQ.of(rng.randint(-2, 2)) for y in Y.basis(want)}
        f.set(x, {k: v for k, v in img.items() if v})
    return f


def test_koszul_swap_signs_and_involution():
    # exhaustive on a space of total dim 8 spread over degrees
    X = named({0: 2, 1: 2, -1: 1, 2: 1, 3: 1, -2: 1}, "a")
    Y = named({0: 1, 1: 2, -1: 2, 2: 1, -3: 1, 4: 1}, "b")
    s1 = koszul_swap(X, Y)
    s2 = koszul_swap(Y, X)
    for x in X.labels():
        for y in Y.labels():
            lab = tensor_label(x, y)
            if lab not in s1.source:
                continue
            out = s1.apply_label(lab)
            sign = QQ.sign(X.degree_of(x) * Y.degree_of(y))
            assert out == {tensor_label(y, x): sign}
            # involution with coefficient +1
            assert s2(out) == {lab: QQ.one()}
    # the two quoted sign cases
    assert X.degree_of("a1_0") == 1


def test_koszul_degree_one_pair_gives_minus():
    X = named({1: 1}, "x")
    Y = named({1: 1}, "y")
    s = koszul_swap(X, Y)
    assert s.apply_label(tensor_label("x1_0", "y1_0")) == \
        {tensor_label("y1_0", "x1_0"): QQ.of(-1)}


def test_koszul_degree_zero_no_sign():
    X = named({0: 1}, "x")
    Y = named({3: 1}, "y")
    s = koszul_swap(X, Y)
    assert s.apply_label(tensor_label("x0_0", "y3_0")) == \
        {tensor_label("y3_0", "x0_0"): QQ.one()}


def test_tensor_dims_by_convolution_oracle():
    X = space_with({0: 2, 1: 1})
    Y = named({0: 1, 1: 3}, "y")
    T = tensor_space(X, Y)
    # brute-force convolution of the dimension sequences
    want = {}
    for i, di in X.dims().items():
        for j, dj in Y.dims().items():
            want[i + j] = want.get(i + j, 0) + di * dj
    assert T.dims() == {0: 2, 1: 7, 2: 3}
    assert T.dims() == want


def test_tensor_with_unit_object():
    X = space_with({0: 2, 2: 1})
    F = unit_space(QQ, TR)
    T = tensor_space(X, F)
    assert T.dims() == X.dims()


def test_hom_dims_oracle_and_dual():
    X = space_with({0: 2, 1: 1, 3: 1})
    Y = named({0: 1, 2: 2}, "y")
    H = hom_space(X, Y)
    want = {}
    for i, di in X.dims().items():
        for j, dj in Y.dims().items():
            if TR.contains(j - i):
                want[j - i] = want.get(j - i, 0) + di * dj
    assert H.dims() == want
    # [X,F]_{-n} has the dims of X_n
    F = unit_space(QQ, TR)
    D = hom_space(X, F)
    assert D.dims() == {-n: d for n, d in X.dims().items()}
    # [F,Y] has the dims of Y
    assert hom_space(F, Y).dims() == Y.dims()


def test_lambda_transforms_roundtrip_exhaustive():
    rng = random.Random(3)
    X = named({0: 1, 1: 1}, "x")
    Y = named({1: 1, 2: 1}, "y")
    Z = named({0: 1, 1: 1, 2: 1, 3: 1}, "z")
    XY = tensor_space(X, Y)
    for degree in (-1, 0, 1):
        for _ in range(5):
            f = random_map(rng, XY, Z, degree)
            g1 = lambda1(f, X, Y)
            g2 = lambda2(f, X, Y)
            assert uncurry1(g1, X, Y, Z).equals(f)
            assert uncurry2(g2, X, Y, Z).equals(f)


def test_lambda1_sign_rule():
    # |x| = |y| = 1, f(x⊗y) = z: λ¹(f)(y)(x) = -z
    X = named({1: 1}, "x")
    Y = named({1: 1}, "y")
    Z = named({2: 1}, "z")
    XY = tensor_space(X, Y)
    f = GradedMap(XY, Z, 0)
    f.set(tensor_label("x1_0", "y1_0"), {"z2_0": QQ.one()})
    g = lambda1(f, X, Y)
    assert g.apply_label("y1_0") == {hom_label("x1_0", "z2_0"): QQ.of(-1)}


def test_lambda2_of_evaluation_is_identity():
    # ev: [Y,Z]⊗Y → Z, λ²(ev) = identity of [Y,Z]
    Y = named({0: 1, 1: 1}, "y")
    Z = named({0: 1, 1: 1, 2: 1}, "z")
    H = hom_space(Y, Z)
    HY = tensor_space(H, Y)
    ev = GradedMap(HY, Z, 0)
    for h in H.labels():
        _, y, z = h
        for y2 in Y.labels():
            lab = tensor_label(h, y2)
            if lab in HY:
                ev.set(lab, {z: QQ.one()} if y2 == y else {})
    g = lambda2(ev, H, Y)
    assert g.equals(identity_map(H))


def test_strength_signs_and_interchange():
    rng = random.Random(5)
    X = named({0: 1, 1: 1}, "x")
    Y = named({0: 1, 1: 1}, "y")
    X2 = named({1: 1, 2: 1}, "p")
    Y2 = named({0: 1, 1: 1}, "q")
    X3 = named({0: 1, 1: 1, 2: 1, 3: 1}, "r")
    Y3 = named({0: 1, 1: 1, 2: 1}, "s")
    for _ in range(6):
        df, dg, dk, dr = (rng.choice([-1, 0, 1]) for _ in range(4))
        f = random_map(rng, X, X2, df)
        g = random_map(rng, Y, Y2, dg)
        k = random_map(rng, X2, X3, dk)
        r = random_map(rng, Y2, Y3, dr)
        # (k⊗r)(f⊗g) = (-1)^{|r||f|} (kf)⊗(rg), checked by element chase
        lhs = strength_tensor(k, r).compose(strength_tensor(f, g))
        rhs = strength_tensor(k.compose(f), r.compose(g)).scale(
            QQ.sign(dr * df))
        assert lhs.equals(rhs)


def test_strength_basic_signs():
    #  degree-0 g gives no sign; |g| = 1, |x| = 1 gives -1
    X = named({1: 1}, "x")
    Y = named({0: 1}, "y")
    Y2 = named({1: 1}, "w")
    g = GradedMap(Y, Y2, 1)
    g.set("y0_0", {"w1_0": QQ.one()})
    f = identity_map(X)
    fg = strength_tensor(f, g)
    assert fg.apply_label(tensor_label("x1_0", "y0_0")) == \
        {tensor_label("x1_0", "w1_0"): QQ.of(-1)}


def test_suspend_dims_and_roundtrip():
    X = space_with({0: 2, 1: 1, -2: 1})
    assert suspend(X, 0).dims() == X.dims()
    S = suspend(X, 1)
    assert S.dims() == {n + 1: d for n, d in X.dims().items()}
    SS = suspend(suspend(X, 1), -1)
    assert SS.dims() == X.dims()


def test_graded_dual_and_transpose_signs():
    rng = random.Random(9)
    X = named({0: 1, 1: 1, 2: 1}, "x")
    Y = named({0: 1, 1: 1, 2: 1}, "y")
    Z = named({0: 1, 1: 1, 2: 1, 3: 1}, "z")
    Xd, Yd, Zd = graded_dual(X), graded_dual(Y), graded_dual(Z)
    assert Xd.dims() == {-n: d for n, d in X.dims().items()}
    for _ in range(8):
        df, dg = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        f = random_map(rng, X, Y, df)
        g = random_map(rng, Y, Z, dg)
        # ᵗ(g∘f) = (-1)^{|f||g|} ᵗf∘ᵗg
        lhs = transpose(g.compose(f), Xd, Zd)
        rhs = transpose(f, Xd, Yd).compose(transpose(g, Yd, Zd)).scale(
            QQ.sign(df * dg))
        assert lhs.equals(rhs)


def test_transpose_sign_exhaustive_on_elementary_maps():
    # every elementary f = (x↦y), g = (y↦z) over a dim-8 total space
    X = named({0: 1, 1: 1, -1: 1}, "x")
    Y = named({0: 1, 1: 1, 2: 1}, "y")
    Z = named({1: 1, 2: 1}, "z")
    Xd, Yd, Zd = graded_dual(X), graded_dual(Y), graded_dual(Z)
    for x in X.labels():
        for y in Y.labels():
            for z in Z.labels():
                df = Y.degree_of(y) - X.degree_of(x)
                dg = Z.degree_of(z) - Y.degree_of(y)
                f = GradedMap(X, Y, df)
                f.set(x, {y: QQ.one()})
                g = GradedMap(Y, Z, dg)
                g.set(y, {z: QQ.one()})
                lhs = transpose(g.compose(f), Xd, Zd)
                rhs = transpose(f, Xd, Yd).compose(
                    transpose(g, Yd, Zd)).scale(QQ.sign(df * dg))
                assert lhs.equals(rhs)


def test_u_star_squared_pairing():
    # u of degree -1: (u*⊗u*)(u⊗u) = -1
    U = GradedSpace(QQ, TR)
    U.add("u", -1)
    Ud = graded_dual(U)
    # pairing (φ⊗ψ)(x⊗y) = (-1)^{|x||ψ|} φ(x)ψ(y)
    sign = QQ.sign(U.degree_of("u") * Ud.degree_of(dual_label("u")))
    value = QQ.mul(sign, QQ.one())
    assert value == QQ.of(-1)


def test_dual_of_unit_space():
    F = unit_space(QQ, TR)
    assert graded_dual(F).dims() == {0: 1}


def test_window_overflow_strict():
    X = GradedSpace(QQ, Truncation(-1, 1, 3))
    assert not X.add("silent", 5)


def test_koszul_sign_exponent():
    # swapping two odd symbols costs one sign
    assert koszul_sign_exponent([1, 1], [1, 0]) % 2 == 1
    assert koszul_sign_exponent([1, 2], [1, 0]) % 2 == 0
    assert koszul_sign_exponent([1, 1, 1], [2, 1, 0]) % 2 == 1


# -- TensorSpace against an eager reference enumeration ---------------------------


def eager_tensor(X, Y):
    """Every pair label of X⊗Y, listed the way the basis must be ordered."""
    bases, degree, weight = {}, {}, {}
    for i in X.degrees():
        for x in X.basis(i):
            for j in Y.degrees():
                if not X.window.contains(i + j):
                    continue
                for y in Y.basis(j):
                    lab = tensor_label(x, y)
                    bases.setdefault(i + j, []).append(lab)
                    degree[lab] = i + j
                    wx, wy = X.weight_of(x), Y.weight_of(y)
                    if wx is not None and wy is not None:
                        weight[lab] = wx + wy
    inexact = {i + j for i in X.inexact_degrees() for j in Y.degrees()
               if X.window.contains(i + j)}
    inexact |= {i + j for j in Y.inexact_degrees() for i in X.degrees()
                if X.window.contains(i + j)}
    return dict(sorted(bases.items())), degree, weight, inexact


def random_space(rng, prefix, tr, field=QQ):
    X = GradedSpace(field, tr)
    for k in range(rng.randint(0, 7)):
        weight = rng.choice([None, 0, 1, 2, 3])
        X.add(f"{prefix}{k}", rng.randint(tr.degree_min, tr.degree_max),
              weight=weight)
    for _ in range(rng.randint(0, 2)):
        X.mark_inexact(rng.randint(tr.degree_min, tr.degree_max))
    return X


def assert_matches_eager(T, X, Y):
    bases, degree, weight, inexact = eager_tensor(X, Y)
    tr = X.window
    for n in range(tr.degree_min - 2, tr.degree_max + 3):
        assert T.basis(n) == bases.get(n, [])
        assert T.dim(n) == len(bases.get(n, []))
    assert T.degrees() == list(bases)
    assert T.dims() == {n: len(b) for n, b in bases.items()}
    assert T.total_dim() == len(degree)
    assert T.labels() == [lab for b in bases.values() for lab in b]
    assert T.inexact_degrees() == inexact
    for lab in degree:
        assert lab in T
        assert T.degree_of(lab) == degree[lab]
        assert T.weight_of(lab, "none") == weight.get(lab, "none")
    # every pair of factor labels, in the window or not
    for x in X.labels():
        for y in Y.labels():
            lab = tensor_label(x, y)
            assert (lab in T) == (lab in degree)


def test_tensor_space_matches_eager_on_random_spaces():
    rng = random.Random(11)
    tr = Truncation(-3, 3, 4)
    for _ in range(40):
        X = random_space(rng, "x", tr)
        Y = random_space(rng, "y", tr)
        assert_matches_eager(tensor_space(X, Y), X, Y)


def test_tensor_space_rejects_non_tensor_labels():
    X = GradedSpace(QQ, TR)
    X.add("x", 0)
    Y = GradedSpace(QQ, TR)
    Y.add("y", 0)
    T = tensor_space(X, Y)
    assert tensor_label("x", "y") in T
    # "txy" would unpack as ("t", "x", "y")
    for lab in ("txy", "x", ("t", "x"), ("h", "x", "y"), ("t", "y", "x"),
                ("t", "x", "y", "z"), ("t", "x", "nope"), 3):
        assert lab not in T
        assert T.weight_of(lab, "none") == "none"
    for lab in ("txy", ("h", "x", "y"), ("t", "y", "x"), ("t", "x", "nope")):
        with pytest.raises(GradedError):
            T.degree_of(lab)
    # malformed labels: wrong arity for their kind, empty, not a tuple
    for lab in (("t", "x"), (), ("t", "x", "y", "z"), ("w",), ("s", 1),
                ("d", "x", "y"), 3):
        assert label_str(lab) == repr(lab)
        for space in (X, T):
            with pytest.raises(GradedError, match="unknown basis label"):
                space.degree_of(lab)


def test_tensor_space_project():
    X = named({0: 1, 4: 1}, "x")
    Y = named({0: 1, 4: 1}, "y")
    T = tensor_space(X, Y)
    inside = tensor_label("x0_0", "y4_0")
    high = tensor_label("x4_0", "y4_0")      # degree 8, outside the window
    vec = {inside: QQ.one(), high: QQ.one(), "txy": QQ.one()}
    assert T.project(vec) == {inside: QQ.one()}


def test_nested_tensor_space_resolves_through_factors():
    rng = random.Random(4)
    tr = Truncation(-3, 3, 4)
    for _ in range(15):
        X, Y, Z = (random_space(rng, p, tr) for p in "xyz")
        XY = tensor_space(X, Y)
        assert_matches_eager(tensor_space(XY, Z), XY, Z)
        assert_matches_eager(tensor_space(Z, XY), Z, XY)


def test_tensor_space_is_read_only():
    X = named({0: 1}, "x")
    T = tensor_space(X, X)
    with pytest.raises(GradedError):
        T.add(tensor_label("x0_0", "x0_0"), 0)


def test_tensor_space_inexact_is_a_snapshot():
    X = named({0: 1, 1: 1}, "x")
    Y = named({0: 1}, "y")
    X.mark_inexact(1)
    T = tensor_space(X, Y)
    assert T.inexact_degrees() == {1}
    X.mark_inexact(0)
    Y.mark_inexact(0)
    assert T.inexact_degrees() == {1}
    assert tensor_space(X, Y).inexact_degrees() == {0, 1}


def test_map_sum_keeps_column_order():
    # f's columns first, then g's new ones: no dependence on the hash seed
    X = space_with({0: 8})
    labels = X.labels()
    f = GradedMap(X, X, 0, {x: {x: QQ.one()} for x in labels[5:1:-1]})
    g = GradedMap(X, X, 0, {x: {x: QQ.one()} for x in labels[::2]})
    assert list(f.add(g).columns) == [labels[i] for i in (5, 4, 3, 2, 0, 6)]


# -- GradedMap.set against the two-pass reference ------------------------------

def _ref_set(f, label, vec):
    """GradedMap.set as it was: drop the zero terms into a copy, then check
    the degree of every key through degree_of."""
    if label not in f.source:
        raise GradedError(f"source lacks {label_str(label)}")
    want = f.source.degree_of(label) + f.degree
    vec = {k: c for k, c in vec.items() if not f.field.is_zero(c)}
    for k in vec:
        got = f.target.degree_of(k)
        if got != want:
            raise GradedError(
                f"image of {label_str(label)} not homogeneous: "
                f"{label_str(k)} has degree {got}, want {want}")
    if vec:
        f.columns[label] = vec
    else:
        f.columns.pop(label, None)


def _set_outcome(setter, f, label, vec):
    """The error raised, or the columns afterwards, key order included."""
    try:
        setter(f, label, vec)
    except GradedError as exc:
        return type(exc), str(exc)
    return [(k, list(v.items())) for k, v in f.columns.items()]


def test_map_set_matches_two_pass_reference():
    rng = random.Random(1979)
    kinds = set()
    for field in (QQ, Field(5)):
        for _ in range(40):
            tr = Truncation(-3, 3, 4)
            X = random_space(rng, "x", tr, field)
            Y = random_space(rng, "y", tr, field)
            target = tensor_space(X, Y) if rng.random() < 0.4 else Y
            degree = rng.randint(-1, 1)
            new, ref = (GradedMap(X, target, degree) for _ in range(2))
            pool = target.labels() + ["stray", ("t", "x0", "nowhere")]
            for _ in range(12):
                label = rng.choice(X.labels() + ["absent"])
                vec = {k: field.of(rng.randint(-1, 2))
                       for k in rng.sample(pool, min(len(pool),
                                                     rng.randint(0, 4)))}
                if label in X and rng.random() < 0.6:
                    # mostly terms of the right degree
                    want = X.degree_of(label) + degree
                    vec = {k: c for k, c in vec.items()
                           if k in target and target.degree_of(k) == want}
                got = _set_outcome(GradedMap.set, new, label, vec)
                assert got == _set_outcome(_ref_set, ref, label, vec)
                kinds.add(got[1].split(" ")[0] if isinstance(got, tuple)
                          else "ok")
                kinds.update("zero" for c in vec.values()
                             if field.is_zero(c))
    # every branch met: stored, zero terms dropped, inhomogeneous image,
    # unknown target label and unknown source label
    assert kinds == {"ok", "zero", "image", "unknown", "source"}
