"""The graded-space protocol: every kind of space answers every accessor as
an eager `GradedSpace` with the same labels, degrees, weights and marks.

`GradedSpace` writes the accessors once, over three primitives that each
kind of space supplies: a label's degree, a degree's labels and the dims.
Eager spaces, word spaces and tensor spaces (of eager spaces, of word
spaces, and of tensor spaces themselves) are each compared with an eager
copy built from a plain reference: what `add` was given, the words over
the letters by brute force, the pairs of the factors.  Each accessor is
asked before the space lists a degree, after, and again after that.
"""

import itertools
import random

from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedError,
                             tensor_label, tensor_space)
from sweedler.algebras import WordSpace, free_word_space, word_label

FIELDS = (QQ, Field(5), Field(2))


def eager_copy(field, window, bases, weight, inexact):
    """An eager space with these bases (degree -> labels in basis order),
    weights and marks, added degree by degree."""
    E = GradedSpace(field, window)
    for n, labels in bases.items():
        for label in labels:
            assert E.add(label, n, weight=weight.get(label))
    E.mark_inexact(*inexact)
    # the shared accessors against the plain reference, so that a fault in
    # them cannot hide behind both sides of the comparison
    order = sorted(bases)
    assert E.degrees() == order
    assert list(E.dims().items()) == [(n, len(bases[n])) for n in order]
    assert [E.dim(n) for n in span(E)] == \
        [len(bases.get(n, ())) for n in span(E)]
    assert E.total_dim() == sum(map(len, bases.values()))
    assert E.labels() == [w for n in order for w in bases[n]]
    assert all(E.basis(n) == bases[n] for n in order)
    assert all(w in E and E.degree_of(w) == n and
               E.weight_of(w, "none") == weight.get(w, "none")
               for n in order for w in bases[n])
    assert E.inexact_degrees() == set(inexact)
    return E


def answer(fn, *args):
    """fn(*args), or the text of the GradedError it raises."""
    try:
        return fn(*args)
    except GradedError as err:
        return ("GradedError", str(err))


def span(space):
    w = space.window
    return range(w.degree_min - 2, w.degree_max + 3)


def counted_answers(space, candidates):
    """What a space answers without listing a degree."""
    return (space.degrees(), list(space.dims().items()), space.total_dim(),
            [space.dim(n) for n in span(space)], space.inexact_degrees(),
            [space.is_exact(n) for n in span(space)],
            [(w in space, answer(space.degree_of, w),
              space.weight_of(w, "none")) for w in candidates])


def listed_answers(space, candidates):
    """The answers that read a degree's labels."""
    field = space.field
    members = [w for w in candidates if w in space]
    vec = {w: field.of(k + 1) for k, w in enumerate(members)}
    vec = {w: c for w, c in vec.items() if not field.is_zero(c)}
    homogeneous = [{w: field.one() for w in space.basis(n)[:3]}
                   for n in span(space)]
    lookup = space._degree_lookup()
    return ([space.basis(n) for n in span(space)], space.labels(),
            [space.basis_within(n, cap) for n in span(space)
             for cap in range(-1, space.window.weight_cap + 2)],
            [lookup(w) for w in candidates],
            list(space.project({w: field.one() for w in candidates}).items()),
            [answer(space.degree_of_vector, v) for v in homogeneous],
            answer(space.degree_of_vector, vec),
            answer(space.degree_of_vector, {candidates[-1]: field.one()}),
            space.render(vec), space.render({}))


def assert_protocol(space, eager, candidates):
    assert candidates[-1] not in eager     # degree_of_vector's unknown label
    before = counted_answers(space, candidates)
    assert before == counted_answers(eager, candidates)
    listed = listed_answers(space, candidates)
    assert listed == listed_answers(eager, candidates)
    assert counted_answers(space, candidates) == before
    assert listed_answers(space, candidates) == listed


JUNK = ["x", 42, None, ("w",), ("w", "g0"), ("t", "a"), ("s", 1, "x"),
        ("t", ("w", ()), ("w", ())), word_label(("unknown",))]


def random_eager(rng, field, prefix, tr):
    """A random eager space and the plain reference of what it was given."""
    X = GradedSpace(field, tr)
    bases, weight = {}, {}
    for k in range(rng.randint(0, 8)):
        label = f"{prefix}{k}"
        n = rng.randint(tr.degree_min - 1, tr.degree_max + 1)
        w = rng.choice([None, 0, 1, 2, 3])
        assert X.add(label, n, weight=w) == tr.contains(n)
        if tr.contains(n):
            bases.setdefault(n, []).append(label)
            if w is not None:
                weight[label] = w
    for _ in range(rng.randint(0, 2)):
        X.mark_inexact(rng.randint(tr.degree_min, tr.degree_max))
    return X, dict(sorted(bases.items())), weight


def random_window(rng):
    """A window with 0, one above 0 or one below it."""
    cap = rng.randint(1, 4)
    lo, hi = sorted(rng.sample(range(1, 6), 2))
    return rng.choice([Truncation(-lo, hi, cap), Truncation(lo, hi, cap),
                       Truncation(-hi, -lo, cap)])


def word_reference(generators, tr):
    """The window words by brute force: by length, then in the
    lexicographic order of the generator list."""
    degree_of = dict(generators)
    bases, weight = {}, {}
    for length in range(tr.weight_cap + 1):
        for syms in itertools.product([g for g, _ in generators],
                                      repeat=length):
            n = sum(degree_of[g] for g in syms)
            if tr.contains(n):
                bases.setdefault(n, []).append(word_label(syms))
                weight[word_label(syms)] = length
    return dict(sorted(bases.items())), weight


def tensor_reference(X, Y):
    """The pairs of X⊗Y in basis order, their weights and marks."""
    tr, bases, weight = X.window, {}, {}
    for i in X.degrees():
        for x in X.basis(i):
            for j in Y.degrees():
                if tr.contains(i + j):
                    for y in Y.basis(j):
                        label = tensor_label(x, y)
                        bases.setdefault(i + j, []).append(label)
                        wx, wy = X.weight_of(x), Y.weight_of(y)
                        if wx is not None and wy is not None:
                            weight[label] = wx + wy
    inexact = {i + j for i in X.inexact_degrees() for j in Y.degrees()
               if tr.contains(i + j)}
    inexact |= {i + j for j in Y.inexact_degrees() for i in X.degrees()
                if tr.contains(i + j)}
    return dict(sorted(bases.items())), weight, inexact


def tensor_candidates(X, Y, extra_x, extra_y):
    """Pairs of factor labels in and out of the window, and pairs with a
    non-member factor."""
    xs = X.labels() + extra_x
    ys = Y.labels() + extra_y
    return [tensor_label(x, y) for x in xs for y in ys][:300] + JUNK


def test_eager_spaces_follow_the_protocol():
    rng = random.Random(71)
    for trial in range(60):
        field = FIELDS[trial % 3]
        tr = random_window(rng)
        X, bases, weight = random_eager(rng, field, "x", tr)
        eager = eager_copy(field, tr, bases, weight, X.inexact_degrees())
        candidates = [*X.labels(), "x99", "x0x", *JUNK]
        assert_protocol(X, eager, candidates)


def test_word_spaces_follow_the_protocol():
    rng = random.Random(72)
    seen = {"with 0": 0, "above 0": 0, "below 0": 0, "mixed": 0,
            "empty": 0}
    for trial in range(90):
        field = FIELDS[trial % 3]
        tr = random_window(rng)
        gens = [(f"g{i}", rng.randint(-3, 3))
                for i in range(rng.randint(1, 3))]
        space = (free_word_space if trial % 2 else WordSpace)(field, gens, tr)
        bases, weight = word_reference(gens, tr)
        eager = eager_copy(field, tr, bases, weight, space.inexact_degrees())
        wide = Truncation(tr.degree_min - 2, tr.degree_max + 2,
                          tr.weight_cap + 1)
        outside = [w for ws in word_reference(gens, wide)[0].values()
                   for w in ws if w not in eager]
        assert_protocol(space, eager, [*eager.labels(), *outside[:60], *JUNK])
        signs = {d > 0 for _, d in gens if d}
        seen["with 0" if tr.contains(0) else
             "above 0" if tr.degree_min > 0 else "below 0"] += 1
        seen["mixed"] += len(signs) == 2
        seen["empty"] += not bases
    assert min(seen.values()) >= 5, seen


def test_tensor_spaces_follow_the_protocol():
    rng = random.Random(73)
    for trial in range(40):
        field = FIELDS[trial % 3]
        tr = random_window(rng)
        X, _, _ = random_eager(rng, field, "x", tr)
        Y, _, _ = random_eager(rng, field, "y", tr)
        gens = [(f"g{i}", rng.randint(-2, 2)) for i in range(2)]
        C = free_word_space(field, gens, tr)
        D = free_word_space(field, [("h", rng.choice([-1, 1]))], tr)
        CD = tensor_space(C, D)
        for left, right in ((X, Y), (X, C), (C, D), (CD, CD)):
            T = tensor_space(left, right)
            eager = eager_copy(field, tr, *tensor_reference(left, right))
            candidates = tensor_candidates(
                left, right, ["x99", word_label(("g0",) * 9)],
                ["y99", tensor_label("x", "y")])
            assert_protocol(T, eager, candidates)
