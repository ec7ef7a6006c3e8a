import random

import pytest

from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedMap, tensor_label,
                             hom_label)
from sweedler.complexes import (DgSpace, check_square_zero, homology,
                                dg_tensor, dg_hom, NotAComplex, cycles,
                                shift_complex)
from sweedler.linalg import rank_of_columns, kernel_basis, vaddmul
from sweedler.presets import load_preset
from sweedler.barcobar import bar, cobar

TR = Truncation(-6, 6, 6)


def two_step(prefix: str, deg: int) -> DgSpace:
    """F·a in degree `deg`, F·b in degree deg-1, d(a) = b."""
    X = GradedSpace(QQ, TR)
    X.add(f"{prefix}a", deg)
    X.add(f"{prefix}b", deg - 1)
    d = GradedMap(X, X, -1)
    d.set(f"{prefix}a", {f"{prefix}b": QQ.one()})
    return DgSpace(X, d)


def random_complex(rng: random.Random, prefix: str, pieces: int = 3) -> DgSpace:
    """Direct sum of elementary two-step complexes and lone generators."""
    X = GradedSpace(QQ, TR)
    pairs = []
    for i in range(pieces):
        deg = rng.randint(-2, 3)
        if rng.random() < 0.7:
            X.add(f"{prefix}a{i}", deg)
            X.add(f"{prefix}b{i}", deg - 1)
            pairs.append((f"{prefix}a{i}", f"{prefix}b{i}",
                          QQ.of(rng.choice([1, -1, 2]))))
        else:
            X.add(f"{prefix}c{i}", deg)
    d = GradedMap(X, X, -1)
    for a, b, coeff in pairs:
        d.set(a, {b: coeff})
    return DgSpace(X, d)


def test_zero_differential_homology_is_dims():
    X = GradedSpace(QQ, TR)
    for i, deg in enumerate([0, 0, 1, 2]):
        X.add(f"z{i}", deg)
    dg = DgSpace(X)
    assert check_square_zero(dg).passed
    h = homology(dg)
    assert {n: e.dim for n, e in h.items()} == X.dims()


def test_two_step_homology_vanishes():
    dg = two_step("t", 1)
    h = homology(dg)
    assert all(e.dim == 0 for e in h.values())


def test_euler_characteristic_per_degree():
    rng = random.Random(1)
    for k in range(5):
        dg = random_complex(rng, f"e{k}_", pieces=4)
        h = homology(dg)
        from sweedler.linalg import rank_of_columns
        for n in dg.space.degrees():
            cols = {lab: dg.d.apply_label(lab) for lab in dg.space.basis(n)}
            rank_n = rank_of_columns(QQ, cols, dg.space.basis(n),
                                     dg.space.basis(n - 1))
            cols1 = {lab: dg.d.apply_label(lab)
                     for lab in dg.space.basis(n + 1)}
            rank_n1 = rank_of_columns(QQ, cols1, dg.space.basis(n + 1),
                                      dg.space.basis(n))
            assert dg.space.dim(n) == h[n].dim + rank_n + rank_n1
            # independent kernel-based identity
            assert h[n].dim == len(cycles(dg, n)) - rank_n1


def test_dg_tensor_sign_and_square_zero():
    # X = F·u with du = 0, |u| odd; Y = a -> b
    X = GradedSpace(QQ, TR)
    X.add("u", 1)
    dgX = DgSpace(X)
    dgY = two_step("y", 1)
    T = dg_tensor(dgX, dgY)
    img = T.d.apply_label(tensor_label("u", "ya"))
    assert img == {tensor_label("u", "yb"): QQ.of(-1)}
    assert check_square_zero(T).passed


def test_dg_tensor_square_zero_random():
    rng = random.Random(2)
    for k in range(5):
        A = random_complex(rng, f"p{k}_")
        B = random_complex(rng, f"q{k}_")
        assert check_square_zero(dg_tensor(A, B)).passed


def test_dg_hom_differential_and_square_zero():
    rng = random.Random(3)
    for k in range(4):
        A = random_complex(rng, f"h{k}_")
        B = random_complex(rng, f"g{k}_")
        H = dg_hom(A, B)
        assert check_square_zero(H).passed


def test_chain_maps_are_zero_cycles():
    dgX = two_step("x", 1)
    dgY = two_step("y", 1)
    H = dg_hom(dgX, dgY)
    # the chain map a↦a, b↦b is a 0-cycle
    f = {hom_label("xa", "ya"): QQ.one(), hom_label("xb", "yb"): QQ.one()}
    assert not H.d(f)
    # a non-chain map of degree 0 is not a cycle
    g = {hom_label("xa", "ya"): QQ.one()}
    assert H.d(g)


def test_dg_hom_degree_minus_one_sign():
    # |f| = -1: d(f) = d_Y f + f d_X
    dgX = two_step("x", 1)
    dgY = two_step("y", 1)
    H = dg_hom(dgX, dgY)
    f = {hom_label("xa", "yb"): QQ.one()}
    df = H.d(f)
    # d(f)(xa) = d_Y(f(xa)) + f(d_X xa) = d_Y(yb) + f(xb) = 0
    assert df == {}


def test_not_a_complex_raises():
    X = GradedSpace(QQ, TR)
    X.add("a", 2)
    X.add("b", 1)
    X.add("c", 0)
    d = GradedMap(X, X, -1)
    d.set("a", {"b": QQ.one()})
    d.set("b", {"c": QQ.one()})       # d² ≠ 0
    dg = DgSpace(X, d)
    rep = check_square_zero(dg)
    assert not rep.passed
    assert rep.witnesses[0][0] == "a"
    with pytest.raises(NotAComplex):
        homology(dg)


def test_shifted_homology_is_shifted():
    rng = random.Random(4)
    dg = random_complex(rng, "s_")
    h = {n: e.dim for n, e in homology(dg).items()}
    hs = {n: e.dim for n, e in homology(shift_complex(dg, 2)).items()}
    assert hs == {n + 2: d for n, d in h.items()}


# -- homology ranks against the copying path ------------------------------------
#
# homology reads d's columns in place.  Its ranks must equal those of the
# path it replaced, rank_of_columns over one apply_label copy per basis
# label, and those of a dense elimination that shares no code with linalg.


def _copied_ranks(X: DgSpace) -> dict:
    space = X.space
    return {n: rank_of_columns(space.field,
                               {lab: X.d.apply_label(lab)
                                for lab in space.basis(n)},
                               space.basis(n), space.basis(n - 1))
            for n in space.degrees()}


def _dense_rank(field, rows: list) -> int:
    """Rank of a list of equal-length coefficient lists."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows))
                    if not field.is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        for i in range(len(rows)):
            if i != rank and not field.is_zero(rows[i][col]):
                c = field.neg(field.mul(inv, rows[i][col]))
                rows[i] = [field.add(a, field.mul(c, b))
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _dense_ranks(X: DgSpace) -> dict:
    space, zero = X.space, X.field.zero()
    return {n: _dense_rank(X.field, [[X.d.columns.get(lab, {}).get(t, zero)
                                      for t in space.basis(n - 1)]
                                     for lab in space.basis(n)])
            for n in space.degrees()}


def _assert_homology_matches(X: DgSpace):
    ranks = _copied_ranks(X)
    assert ranks == _dense_ranks(X)
    h = homology(X)
    assert {n: e.dim for n, e in h.items()} == {
        n: X.space.dim(n) - ranks[n] - ranks.get(n + 1, 0)
        for n in X.space.degrees()}


def _random_sparse_complex(rng, field) -> DgSpace:
    """A complex on -2:3 with an empty degree, zero columns and dependent
    ones.  Each column of d is a combination of kernel vectors of the d
    below it, so d² = 0.  The lowest degree -2 is filled; its d would
    leave the window."""
    tr = Truncation(-2, 3, 4)
    X = GradedSpace(field, tr)
    empty = rng.randint(-1, 3)
    for n in range(-2, 4):
        if n != empty:
            for i in range(rng.randint(1, 4)):
                X.add(f"v{n}_{i}", n)
    d = GradedMap(X, X, -1)
    for n in X.degrees():
        cycles_below = kernel_basis(field, d.columns, X.basis(n - 1),
                                    X.basis(n - 2))
        made = []
        for lab in X.basis(n):
            if not cycles_below or rng.random() < 0.25:
                continue            # a zero column
            col = {}
            pool = made if made and rng.random() < 0.3 else cycles_below
            for z in rng.sample(pool, rng.randint(1, len(pool))):
                col = vaddmul(field, col, field.of(rng.randint(-2, 2)), z)
            d.set(lab, col)
            made.append(d.apply_label(lab))
    return DgSpace(X, d)


def test_homology_ranks_match_copying_path_on_random_complexes():
    rng = random.Random(1958)
    ranked = 0
    for field in (QQ, Field(5), Field(2)):
        for _ in range(40):
            X = _random_sparse_complex(rng, field)
            assert -2 in X.space.degrees()
            _assert_homology_matches(X)
            ranked += any(_copied_ranks(X).values())
    assert ranked >= 100


@pytest.mark.parametrize("field", [QQ, Field(5), Field(2)])
def test_homology_ranks_match_copying_path_on_bar_and_cobar(field):
    tr = Truncation(-4, 0, 4)
    for preset in ("diagonal-coalgebra:3", "primitive-coalgebra:-1"):
        C = load_preset(preset).build(field, tr)
        _assert_homology_matches(cobar(C, tr).algebra.dg)
    tr = Truncation(-1, 5, 5)
    for preset in ("dual-numbers", "free-algebra:x=1"):
        A = load_preset(preset).build(field, tr)
        _assert_homology_matches(bar(A, tr).coalgebra.dg)


def test_homology_asks_d_reliable_at_most_once_per_degree(monkeypatch):
    # the loop it replaced asked d_reliable(n) and d_reliable(n + 1) for
    # each degree n with both exact flags set, so inner degrees twice
    rng = random.Random(7)
    complexes = [_random_sparse_complex(rng, QQ) for _ in range(20)]
    tr = Truncation(-4, 0, 4)
    complexes.append(cobar(load_preset("diagonal-coalgebra:3").build(QQ, tr),
                           tr).algebra.dg)
    tr = Truncation(-1, 5, 5)
    complexes.append(bar(load_preset("free-algebra:x=1").build(QQ, tr),
                         tr).coalgebra.dg)
    flags, wanted = [], []
    for X in complexes:
        space = X.space
        exact = [n for n in space.degrees()
                 if space.is_exact(n) and space.is_exact(n + 1)]
        wanted.append({m for n in exact for m in (n, n + 1)})
        flags.append({n: n in exact and X.d_reliable(n) and X.d_reliable(n + 1)
                      for n in space.degrees()})
    assert any(False in f.values() for f in flags)
    assert any(True in f.values() for f in flags)
    asked = []
    reliable = DgSpace.d_reliable
    monkeypatch.setattr(DgSpace, "d_reliable", lambda self, n: (
        asked.append(n), reliable(self, n))[1])
    for X, want, degrees in zip(complexes, flags, wanted):
        asked.clear()
        assert {n: e.trusted for n, e in homology(X).items()} == want
        assert len(asked) == len(set(asked))
        assert set(asked) <= degrees
