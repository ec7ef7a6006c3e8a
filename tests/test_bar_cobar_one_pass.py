"""One-pass bar and cobar differentials against the loops they replaced.

Each reference below is the earlier implementation, kept as it was: the
derivation and coderivation extensions that collect each image through
`vaddmul` and project it afterwards, `free_word_space` over
`itertools.product`, and `bar`/`cobar` that build d^int and d^ext in two
passes and add them.  The new maps must equal the references value for
value, with the same key order within every column.  The d² check, which
now decides once per degree which labels it can check, keeps the per-label
loop's counts and witnesses.

The word-space checks keep the parent's pruned enumeration, whose live
table ranged over the whole window (`ref_pruned_counts`), and the d-window
rule's per-label weight filter (`ref_d_checkable`).

The references count the terms they drop outside the window.  Over the
trials, terms fall below the lowest degree and past the top (of the degree
range, or of the word-length cap).  bar's d lowers the degree and never
lengthens a word, so only its low end drops terms; the generic
coextension, run with degree +1, covers its top end.
"""

import itertools
import random
import tracemalloc

import pytest

from sweedler.scalars import QQ, Field
from sweedler.graded import (Truncation, GradedSpace, GradedMap, GradedError,
                             EnumerationTooLarge, tensor_label, tensor_space,
                             koszul_sign_exponent, suspend, not_homogeneous)
from sweedler.complexes import DgSpace, SquareZeroReport, check_square_zero
from sweedler.algebras import (word_label, word_syms, free_word_space,
                               extend_derivation, tensor_algebra,
                               normal_forms, PresentedAlgebra, UNIT_WORD,
                               WordSpace, _mark_overflow_degrees,
                               _word_counts)
import sweedler.algebras as algebras
from sweedler.coalgebras import (DgCoalgebra, coextend_coderivation,
                                 tensor_coalgebra, coshuffle_coalgebra,
                                 ReducedCoalgebra, coshuffle_comult,
                                 _word_comult)
from sweedler.barcobar import (bar, cobar, s_label, s_inv_label, MINUS,
                               PLUS)
from sweedler.presets import load_preset
from sweedler.linalg import vaddmul, vscale

FIELDS = (QQ, Field(5), Field(2))


def columns(f: GradedMap) -> list:
    return [(k, list(v.items())) for k, v in f.columns.items()]


def columns_by_label(f: GradedMap, space) -> list:
    """The columns in label order, each compared as a dict."""
    return [(k, f.columns.get(k, {})) for k in space.labels()]


def column_dicts(f: GradedMap) -> list:
    """The columns in order, each compared as a dict: its key order is
    whatever the build wrote."""
    return list(f.columns.items())


def count_drops(space, degree_of, formal: dict, drops: dict) -> None:
    """Tally the in-cap words of a formal image that leave the degree range."""
    for k in formal:
        if k not in space:
            degree = sum(degree_of[s] for s in word_syms(k))
            drops["low" if degree < space.window.degree_min else "high"] += 1


# -- the earlier loops ------------------------------------------------------


def ref_free_word_space(field, generators, trunc):
    space = GradedSpace(field, trunc)
    degree_of = dict(generators)
    names = [g for g, _ in generators]
    space.add(UNIT_WORD, 0, weight=0)
    for length in range(1, trunc.weight_cap + 1):
        for combo in itertools.product(names, repeat=length):
            degree = sum(degree_of[g] for g in combo)
            if trunc.contains(degree):
                space.add(word_label(combo), degree, weight=length)
    _mark_overflow_degrees(space, [d for _, d in generators],
                           trunc.weight_cap)
    return space


def ref_extend_derivation(generators, phi, space, degree, drops=None):
    D = GradedMap(space, space, degree)
    if not any(phi.values()):
        return D
    degree_of = dict(generators)
    field = space.field
    one, cap = field.one(), space.window.weight_cap
    signs = (one, field.sign(1))
    images = {g: [(word_syms(t), c) for t, c in v.items()]
              for g, v in phi.items()}
    for label in space.labels():
        syms = word_syms(label)
        img: dict = {}
        prefix_deg = 0
        for i, sym in enumerate(syms):
            for tsyms, coeff in images.get(sym, ()):
                spliced = syms[:i] + tsyms + syms[i + 1:]
                if len(spliced) <= cap:
                    img = vaddmul(field, img, field.mul(
                        signs[degree * prefix_deg % 2], coeff),
                        {word_label(spliced): one})
                elif drops is not None:
                    drops["high"] += 1
            prefix_deg += degree_of[sym]
        if drops is not None:
            count_drops(space, degree_of, img, drops)
        D.set(label, space.project(img))
    return D


def ref_coextend_coderivation(space, generators, phi, degree, drops=None):
    degree_of = dict(generators)
    field = space.field
    D = GradedMap(space, space, degree)
    cap = space.window.weight_cap
    for lab in space.labels():
        syms = word_syms(lab)
        k = len(syms)
        img: dict = {}
        prefix = 0
        for i in range(k + 1):
            sign = field.sign(degree * prefix)
            for j in range(i + 1, k + 1):
                chunk = word_label(syms[i:j])
                val = phi.get(chunk)
                if val:
                    for sym, coeff in val.items():
                        new = word_label(syms[:i] + (sym,) + syms[j:])
                        if len(word_syms(new)) <= cap:
                            img = vaddmul(field, img,
                                          field.mul(sign, coeff),
                                          {new: field.one()})
                        elif drops is not None:
                            drops["high"] += 1
            if i < k:
                prefix += degree_of[syms[i]]
        if drops is not None:
            count_drops(space, degree_of, img, drops)
        D.set(lab, space.project(img))
    return D


def ref_bar(A, space, generators, convention, drops):
    """(d, d_int, d_ext) of the two-pass bar on the space of B A."""
    field = A.field
    reduced = A.reduced_basis()
    phi_int: dict = {}
    phi_ext: dict = {}
    for a in reduced:
        w = word_label((s_label(a),))
        val = {s_label(a2): coeff
               for a2, coeff in A.d.apply_label(a).items()}
        if val:
            phi_int[w] = vscale(field, field.of(-1), val)
    reduced_set = set(reduced)
    for a in reduced:
        for b in reduced:
            w = word_label((s_label(a), s_label(b)))
            prod = A._pair(a, b)
            val = {}
            sign = field.sign(A.space.degree_of(a))
            for m, coeff in prod.items():
                if m in reduced_set:
                    val[s_label(m)] = field.mul(sign, coeff)
            if val:
                phi_ext[w] = val
    d_int = ref_coextend_coderivation(space, generators, phi_int, -1,
                                      drops=drops)
    d_ext = ref_coextend_coderivation(space, generators, phi_ext, -1,
                                      drops=drops)
    sign = field.of(-1) if convention == MINUS else field.one()
    return d_int.add(d_ext.scale(sign)), d_int, d_ext


def ref_cobar(C, space, convention, drops):
    """(d, d_int, d_ext) of the two-pass cobar on the space of Ω C."""
    R = ReducedCoalgebra(C)
    field = C.field
    gens = []
    for lab in R.space.labels():
        x = lab[1]
        gens.append((s_inv_label(x), C.space.degree_of(x) - 1))
    phi_int: dict = {}
    phi_ext: dict = {}
    for lab in R.space.labels():
        x = lab[1]
        val_int: dict = {}
        for lab2, coeff in R.d.apply_label(lab).items():
            val_int[word_label((s_inv_label(lab2[1]),))] = field.neg(coeff)
        if val_int:
            phi_int[s_inv_label(x)] = val_int
        val_ext: dict = {}
        for t, coeff in R.comult.apply_label(lab).items():
            _, r1, r2 = t
            c1, c2 = r1[1], r2[1]
            sign = field.sign(1 + C.space.degree_of(c1))
            w = word_label((s_inv_label(c1), s_inv_label(c2)))
            val_ext = vaddmul(field, val_ext, field.mul(sign, coeff),
                              {w: field.one()})
        if val_ext:
            phi_ext[s_inv_label(x)] = val_ext
    d_int = ref_extend_derivation(gens, phi_int, space, -1, drops)
    d_ext = ref_extend_derivation(gens, phi_ext, space, -1, drops)
    sign = field.one() if convention == PLUS else field.of(-1)
    return d_int.add(d_ext.scale(sign)), d_int, d_ext


def ref_check_square_zero(X):
    def d2_checkable(label):
        degree = X.space.degree_of(label)
        if degree - 2 < X.window.degree_min:
            return False
        if X.d_raises:
            w = X.space.weight_of(label)
            if w is not None and w + 2 * X.d_raises > X.window.weight_cap:
                return False
        return True

    report = SquareZeroReport()
    for label in X.space.labels():
        if not d2_checkable(label):
            report.skipped += 1
            continue
        report.checked += 1
        residue = X.d(X.d.apply_label(label))
        if residue:
            report.witnesses.append((label, residue))
    return report


def square_zero_fails(X) -> bool:
    """Check that the d² report matches the per-label loop; True when d²
    has witnesses."""
    new, ref = check_square_zero(X), ref_check_square_zero(X)
    assert (new.checked, new.skipped) == (ref.checked, ref.skipped)
    assert [(k, list(v.items())) for k, v in new.witnesses] == \
        [(k, list(v.items())) for k, v in ref.witnesses]
    return bool(ref.witnesses)


# -- random inputs ------------------------------------------------------------


def random_generators(rng, prefix, degrees=(-2, -1, 0, 1, 2)):
    return [(f"{prefix}{i}", rng.choice(degrees))
            for i in range(rng.randint(1, 3))]


def random_word_vector(rng, field, space, degree, max_len):
    """A random vector over the words of `space` in one degree."""
    words = [w for w in space.basis(degree)
             if 0 < len(word_syms(w)) <= max_len]
    vec: dict = {}
    for w in rng.sample(words, min(len(words), rng.randint(0, 3))):
        c = field.of(rng.choice([-2, -1, 1, 2, 3]))
        if not field.is_zero(c):
            vec[w] = c
    return vec


def random_free_dg_algebra(rng, field, tr):
    """T(X) with a random degree -1 map on generators (d² need not vanish):
    every product of two words is nonzero, so bar gets both parts."""
    gens = random_generators(rng, "x", (0, 1, 2))
    wide = Truncation(-2 * tr.weight_cap - 2, 2 * tr.weight_cap + 2,
                      tr.weight_cap)
    words = free_word_space(field, gens, wide)
    d_gen = {g: random_word_vector(rng, field, words, deg - 1, 2)
             for g, deg in gens}
    return tensor_algebra(field, gens, tr, d_gen=d_gen, augmented=True)


def random_monomial_algebra(rng, field, tr):
    """T(X)/I for random quadratic monomials, with d = 0 or a partner d."""
    gens = random_generators(rng, "y", (0, 1, 2))
    d_gen = {}
    if rng.random() < 0.5:
        g, deg = gens[0]
        gens.append(("z", deg - 1))
        d_gen[g] = {word_label(("z",)): field.one()}
    names = [g for g, _ in gens]
    rels = [{word_label((a, b)): field.one()} for a in names for b in names
            if rng.random() < 0.4 or "z" in (a, b)]
    return normal_forms(PresentedAlgebra(
        field, gens, rels, d_gen, tr,
        aug_gen={g: field.zero() for g in names}))


def random_partnered_generators(rng, field):
    """1-3 generators, each with a partner one degree lower that its d
    hits with probability 0.6: (generators, [(c, partner, coeff)])."""
    gens, pairs = [], []
    for i in range(rng.randint(1, 3)):
        deg = rng.randint(-1, 2)
        gens.append((f"c{i}", deg))
        if rng.random() < 0.6:
            gens.append((f"z{i}", deg - 1))
            pairs.append((f"c{i}", f"z{i}", field.of(rng.choice([1, -1, 2]))))
    return gens, pairs


def random_dg_coalgebra(rng, field, tr):
    """T^c(X) or T^csh(X) with d from generators to partners, or a pointed
    coalgebra whose non-atom elements are all primitive."""
    kind = rng.choice(["tensor", "coshuffle", "primitive"])
    gens, pairs = random_partnered_generators(rng, field)
    if kind == "primitive":
        space = GradedSpace(field, tr)
        space.add("e", 0)
        for nm, deg in gens:
            space.add(nm, deg)
        TT = tensor_space(space, space)
        comult = GradedMap(space, TT, 0)
        comult.set("e", {tensor_label("e", "e"): field.one()})
        for nm, _ in gens:
            comult.set(nm, {tensor_label(nm, "e"): field.one(),
                            tensor_label("e", nm): field.one()})
        d = GradedMap(space, space, -1)
        for a, b, c in pairs:
            d.set(a, {b: c})
        return DgCoalgebra(DgSpace(space, d), comult, {"e": field.one()},
                           atom="e")
    d_gen = {a: {word_label((b,)): c} for a, b, c in pairs}
    make = tensor_coalgebra if kind == "tensor" else coshuffle_coalgebra
    return make(field, gens, tr, d_gen=d_gen)


# -- the tests ----------------------------------------------------------------


def test_free_word_space_matches_product_reference():
    rng = random.Random(5)
    for trial in range(80):
        field = FIELDS[trial % 3]
        gens = random_generators(rng, "g")
        tr = Truncation(-rng.randint(0, 4), rng.randint(0, 5),
                        rng.randint(1, 4))
        new = free_word_space(field, gens, tr)
        ref = ref_free_word_space(field, gens, tr)
        assert new.labels() == ref.labels()
        assert [new.degree_of(w) for w in new.labels()] == \
            [ref.degree_of(w) for w in ref.labels()]
        assert [new.weight_of(w) for w in new.labels()] == \
            [ref.weight_of(w) for w in ref.labels()]
        assert new.inexact_degrees() == ref.inexact_degrees()


def test_extend_derivation_matches_reference_loop():
    rng = random.Random(11)
    drops = {"low": 0, "high": 0}
    for trial in range(60):
        field = FIELDS[trial % 3]
        gens = random_generators(rng, "g")
        tr = Truncation(-rng.randint(1, 4), rng.randint(1, 4),
                        rng.randint(2, 4))
        space = free_word_space(field, gens, tr)
        degree = rng.choice([-2, -1, 1, 2])
        wide = Truncation(-12, 12, 3)
        words = free_word_space(field, gens, wide)
        phi = {g: random_word_vector(rng, field, words, deg + degree, 3)
               for g, deg in gens}
        new = extend_derivation(gens, phi, space, degree)
        ref = ref_extend_derivation(gens, phi, space, degree, drops)
        assert columns(new) == columns(ref)
    assert drops["low"] > 0 and drops["high"] > 0


def test_coextend_coderivation_matches_reference_loop():
    rng = random.Random(13)
    drops = {"low": 0, "high": 0}
    for trial in range(60):
        field = FIELDS[trial % 3]
        gens = random_generators(rng, "g")
        names = [g for g, _ in gens]
        degree_of = dict(gens)
        tr = Truncation(-rng.randint(1, 4), rng.randint(1, 4),
                        rng.randint(2, 4))
        space = free_word_space(field, gens, tr)
        degree = rng.choice([-1, 1, 2])
        phi = {}
        for length in range(1, 4):
            for chunk in itertools.product(names, repeat=length):
                if rng.random() < 0.5:
                    continue
                want = sum(degree_of[g] for g in chunk) + degree
                val = {g: field.of(rng.choice([-1, 1, 2]))
                       for g in names if degree_of[g] == want}
                phi[word_label(chunk)] = {g: c for g, c in val.items()
                                          if not field.is_zero(c)}
        new = coextend_coderivation(space, gens, phi, degree)
        ref = ref_coextend_coderivation(space, gens, phi, degree, drops)
        assert columns(new) == columns(ref)
    assert drops["low"] > 0 and drops["high"] > 0


def test_coextension_keeps_a_tuple_letter_apart_from_its_chunk():
    # the letter t = ("a", "b") equals the chunk a⊗b as a tuple; φ differs
    # on the word a⊗b and on the one-letter word t
    a, b, t = "a", "b", ("a", "b")
    gens = [(a, 1), (b, 1), (t, 2)]
    for field in FIELDS:
        space = free_word_space(field, gens, Truncation(-1, 6, 4))
        assert word_label((a, b)) in space and word_label((t,)) in space
        for degree, phi in (
                (0, {word_label((a, b)): {t: 2},
                     word_label((t,)): {t: 3},
                     word_label((a,)): {b: 1}}),
                (-1, {word_label((t,)): {a: 1, b: 4},
                      word_label((a, b)): {a: 1},
                      word_label((a, t)): {t: 1},
                      word_label((t, a)): {t: 5}})):
            new = coextend_coderivation(space, gens, phi, degree)
            assert new.columns
            assert columns(new) == columns(
                ref_coextend_coderivation(space, gens, phi, degree))
            assert columns(new) == columns(
                ref_set_coextend_coderivation(space, gens, phi, degree))


def assert_same_parts(construction, d_new, space, ref):
    """d label by label (its columns come in label order, the reference's
    with the labels of d_int first), d_int and d_ext column by column."""
    d, d_int, d_ext = ref
    assert columns_by_label(d_new, space) == columns_by_label(d, space)
    assert set(d_new.columns) == set(d.columns)
    assert column_dicts(construction.d_int) == column_dicts(d_int)
    assert column_dicts(construction.d_ext) == column_dicts(d_ext)


def test_bar_matches_two_pass_reference():
    rng = random.Random(23)
    drops = {"low": 0, "high": 0}
    both = failing = 0
    presets = ["dual-numbers", "free-algebra:x=1", "free-algebra:x=1,y=2",
               "mc"]
    for trial in range(24):
        field = FIELDS[trial % 3]
        convention = (MINUS, PLUS)[trial // 3 % 2]
        tr = Truncation(rng.randint(-3, 0), rng.randint(3, 6),
                        rng.randint(2, 3))
        pick = trial % 4
        if pick == 0:
            A = random_free_dg_algebra(rng, field, tr)
        elif pick == 1:
            A = random_monomial_algebra(rng, field, tr)
        else:
            A = load_preset(rng.choice(presets)).build(field, tr)
        b = bar(A, tr, convention)
        space = b.coalgebra.space
        ref = ref_bar(A, space, b.generators, convention, drops)
        assert_same_parts(b, b.coalgebra.d, space, ref)
        both += bool(ref[1].columns and ref[2].columns)
        failing += square_zero_fails(b.coalgebra.dg)
    assert drops["low"] > 0
    assert both >= 6 and failing >= 2


def test_cobar_matches_two_pass_reference():
    rng = random.Random(29)
    drops = {"low": 0, "high": 0}
    both = 0
    for trial in range(30):
        field = FIELDS[trial % 3]
        convention = (PLUS, MINUS)[trial // 3 % 2]
        trC = Truncation(-3, 3, 2)
        if trial % 5 == 4:
            C = load_preset(rng.choice(["primitive-coalgebra:1",
                                        "diagonal-coalgebra:2"])
                            ).build(field, trC)
        else:
            C = random_dg_coalgebra(rng, field, trC)
        tr = Truncation(rng.randint(-5, -1), rng.randint(1, 5),
                        rng.randint(2, 3))
        cb = cobar(C, tr, convention)
        space = cb.algebra.space
        ref = ref_cobar(C, space, convention, drops)
        assert_same_parts(cb, cb.algebra.d, space, ref)
        both += bool(ref[1].columns and ref[2].columns)
        assert not square_zero_fails(cb.algebra.dg)
    assert drops["low"] > 0 and drops["high"] > 0
    assert both >= 6


# -- word spaces that cost what they keep -------------------------------------
#
# The loops below are the ones that pruning and the one-lookup writes
# replaced: `free_word_space` extending every prefix level by level, and the
# splice loops writing each finished column through `GradedMap.set`.


def ref_level_word_space(field, generators, trunc):
    space = GradedSpace(field, trunc)
    degree_of = dict(generators)
    letters = [(g, degree_of[g]) for g, _ in generators]
    space.add(UNIT_WORD, 0, weight=0)
    level = [((), 0)]
    for length in range(1, trunc.weight_cap + 1):
        words = ((syms + (g,), degree + dg)
                 for syms, degree in level for g, dg in letters)
        if length < trunc.weight_cap:   # words of length cap are not kept
            words = level = list(words)
        for syms, degree in words:
            if trunc.contains(degree):
                space.add(word_label(syms), degree, weight=length)
    _mark_overflow_degrees(space, [d for _, d in generators], trunc.weight_cap)
    return space


def ref_pruned_counts(generators, trunc):
    """(length, degree) -> words listed by the pruned enumeration whose live
    table ranged over the whole window, prefixes outside the window
    included."""
    degree_of = dict(generators)
    letters = [(g, degree_of[g]) for g, _ in generators]
    cap, dmin, dmax = trunc.weight_cap, trunc.degree_min, trunc.degree_max
    shifts = set(degree_of.values())
    live = [set(range(dmin, dmax + 1))]
    for _ in range(cap - 1):
        live.append(live[-1] | {n - s for n in live[-1] for s in shifts})
    counts = {(0, 0): 1}
    level = [((), 0)]
    for length in range(1, cap + 1):
        alive = live[cap - length]
        level = [(syms + (g,), degree + dg) for syms, degree in level
                 for g, dg in letters if degree + dg in alive]
        for _, degree in level:
            key = (length, degree)
            counts[key] = counts.get(key, 0) + 1
    return counts


def ref_d_checkable(X, degree, times):
    """DgSpace.d_checkable as it filtered every label through weight_of."""
    if degree - times < X.window.degree_min:
        return []
    basis = X.space.basis(degree)
    if not X.d_raises:
        return basis
    top = X.window.weight_cap - times * X.d_raises
    return [label for label in basis
            if (w := X.space.weight_of(label)) is None or w <= top]


def assert_d_checkable_as_filter(new, ref):
    """d_checkable on `new` equals the per-label filter on `ref` (the same
    space, or its reference build) for every degree, d_raises 0-3 and
    times 1, 2.  Returns how many cases had a negative top, and in how many
    degrees the filter kept some labels but not all."""
    negative = cut = 0
    for raises in range(4):
        for times in (1, 2):
            top = new.window.weight_cap - times * raises
            negative += raises and top < 0
            X, R = DgSpace(new, d_raises=raises), DgSpace(ref, d_raises=raises)
            for n in ref.degrees():
                kept = ref_d_checkable(R, n, times)
                assert X.d_checkable(n, times) == kept
                cut += 0 < len(kept) < ref.dim(n)
    return negative, cut


NOT_WORDS = ("x", ("t", UNIT_WORD, UNIT_WORD), ("s", 1, UNIT_WORD))


def ref_set_extend_derivation(generators, phi, space, degree):
    D = GradedMap(space, space, degree)
    if not any(phi.values()):
        return D
    field = space.field
    add, is_zero, zero = field.add, field.is_zero, field.zero()
    one, minus = field.one(), field.sign(1)
    flips = {g: degree * d % 2 for g, d in generators}
    images = {g: [(word_syms(t), field.mul(one, c), field.mul(minus, c))
                  for t, c in v.items()]
              for g, v in phi.items()}
    inside = space._degree_lookup()
    for label in space.labels():
        syms = word_syms(label)
        img: dict = {}
        odd = 0
        for i, sym in enumerate(syms):
            terms = images.get(sym)
            if terms:
                head, tail = syms[:i], syms[i + 1:]
                for tsyms, even_c, odd_c in terms:
                    new = word_label(head + tsyms + tail)
                    if inside(new) is None:
                        continue
                    s = add(img.get(new, zero), odd_c if odd else even_c)
                    if is_zero(s):
                        img.pop(new, None)
                    else:
                        img[new] = s
            odd ^= flips[sym]
        if img:
            D.set(label, img)
    return D


def ref_set_coextend_coderivation(space, generators, phi, degree):
    field = space.field
    D = GradedMap(space, space, degree)
    add, is_zero, zero = field.add, field.is_zero, field.zero()
    one, minus = field.one(), field.sign(1)
    flips = {g: degree * d % 2 for g, d in generators}
    images = {w: [(sym, field.mul(one, c), field.mul(minus, c))
                  for sym, c in v.items()]
              for w, v in phi.items() if v}
    lengths = sorted({len(word_syms(w)) for w in images if word_syms(w)})
    inside = space._degree_lookup()
    for lab in space.labels():
        syms = word_syms(lab)
        k = len(syms)
        img: dict = {}
        odd = 0
        for i in range(k + 1):
            for n in lengths:
                if i + n > k:
                    break
                terms = images.get(word_label(syms[i:i + n]))
                if not terms:
                    continue
                head, tail = syms[:i], syms[i + n:]
                for sym, even_c, odd_c in terms:
                    new = word_label(head + (sym,) + tail)
                    if inside(new) is None:
                        continue
                    s = add(img.get(new, zero), odd_c if odd else even_c)
                    if is_zero(s):
                        img.pop(new, None)
                    else:
                        img[new] = s
            if i < k:
                odd ^= flips[syms[i]]
        if img:
            D.set(lab, img)
    return D


def ref_set_word_comult(space, splits):
    field = space.field
    TT = tensor_space(space, space)
    comult = GradedMap(space, TT, 0)
    for lab in space.labels():
        img: dict = {}
        for u, v, c in splits(word_syms(lab)):
            t = tensor_label(word_label(u), word_label(v))
            if t not in TT:
                space.mark_inexact(space.degree_of(lab))
            elif t in img:
                s = field.add(img[t], c)
                if field.is_zero(s):
                    del img[t]
                else:
                    img[t] = s
            else:
                img[t] = c
        comult.set(lab, img)
    return comult


def deconcat_splits(field):
    one = field.one()
    return lambda syms: ((syms[:i], syms[i:], one)
                         for i in range(len(syms) + 1))


def unshuffle_splits(field, degree_of):
    def unshuffles(syms):
        k = len(syms)
        degrees = [degree_of[s] for s in syms]
        for size in range(k + 1):
            for subset in itertools.combinations(range(k), size):
                rest = [i for i in range(k) if i not in subset]
                exp = koszul_sign_exponent(degrees, list(subset) + rest)
                yield (tuple(syms[i] for i in subset),
                       tuple(syms[i] for i in rest), field.sign(exp))
    return unshuffles


def random_word_space_input(rng, trial):
    """Generators and a window, cycling through the cases pruning must
    get right: mixed signs, a degree-0 letter, all letters positive, all
    negative, a window without 0; caps 1-6; sometimes a repeated name."""
    kind = trial % 5
    degrees = {0: range(-3, 4), 1: range(-3, 4), 2: range(1, 4),
               3: range(-3, 0), 4: range(-3, 4)}[kind]
    k = rng.randint(1, 4)
    cap = 1 + trial % 6
    gens = [(f"g{i}", rng.choice(degrees)) for i in range(k)]
    if kind == 1:
        i = rng.randrange(k)
        gens[i] = (gens[i][0], 0)
    if k > 1 and rng.random() < 0.15:
        gens[-1] = (gens[0][0], gens[-1][1])
    if kind == 4:
        lo = rng.randint(1, 5)
        dmin, dmax = rng.choice([(lo, lo + rng.randint(0, 4)),
                                 (-lo - rng.randint(0, 4), -lo)])
    else:
        dmin, dmax = rng.randint(-6, 0), rng.randint(0, 6)
    return gens, Truncation(dmin, dmax, cap)


def build_or_error(make, *args):
    try:
        return make(*args)
    except GradedError as exc:
        return str(exc)


def test_pruned_word_space_matches_level_loop():
    rng = random.Random(37)
    seen = {"zero": 0, "positive": 0, "negative": 0, "no 0": 0,
            "repeated": 0, "raised": 0, "dropped": 0, "pruned": 0,
            "negative top": 0, "cut": 0}
    for trial in range(660):
        field = FIELDS[trial % 3]
        gens, tr = random_word_space_input(rng, trial)
        new = build_or_error(free_word_space, field, gens, tr)
        ref = build_or_error(ref_level_word_space, field, gens, tr)
        degrees = [d for _, d in gens]
        seen["zero"] += 0 in degrees
        seen["positive"] += min(degrees) > 0
        seen["negative"] += max(degrees) < 0
        seen["no 0"] += not tr.contains(0)
        seen["repeated"] += len(dict(gens)) < len(gens)
        # the counts of the words and prefixes listed, before any is listed
        degree_of = dict(gens)
        counts = _word_counts([(g, degree_of[g]) for g, _ in gens], tr)
        assert {(length, n): c for length, row in enumerate(counts)
                for n, c in row.items()} == ref_pruned_counts(gens, tr)
        for length, row in enumerate(counts):
            assert len(row) <= length * (max(degrees) - min(degrees)) + 1
        if isinstance(ref, str):
            seen["raised"] += 1
            assert new == ref
            assert new.startswith("duplicate basis label ")
            continue
        assert type(new) is WordSpace
        assert new.degrees() == ref.degrees()
        for n in ref.degrees():
            assert new.basis(n) == ref.basis(n)
            assert [new.weight_of(w) for w in new.basis(n)] == \
                [ref.weight_of(w) for w in ref.basis(n)]
            # the counts that fill the space's table are its words
            lengths = [len(word_syms(w)) for w in new.basis(n)]
            assert [row.get(n, 0) for row in counts] == \
                [lengths.count(length) for length in range(len(counts))]
        assert new.inexact_degrees() == ref.inexact_degrees()
        # words the window drops, and non-members, weigh the default
        outside = word_label(tuple(g for g, _ in gens) * (tr.weight_cap + 1))
        for label in (outside, *NOT_WORDS):
            assert new.weight_of(label) is None
            assert new.weight_of(label, "none") == ref.weight_of(label, "none")
        with pytest.raises(GradedError, match="^a word space is read-only$"):
            new.add(word_label(("fresh",)), 0, weight=1)
        negative, cut = assert_d_checkable_as_filter(new, ref)
        seen["negative top"] += negative
        seen["cut"] += cut > 0
        # the window keeps fewer words than the cap allows
        seen["dropped"] += ref.total_dim() < sum(
            len(gens) ** length for length in range(tr.weight_cap + 1))
        seen["pruned"] += sum(sum(row.values()) for row in counts) < sum(
            len(gens) ** length for length in range(tr.weight_cap + 1))
    assert min(seen.values()) >= 20, seen


def test_d_checkable_keeps_the_label_filter_on_other_spaces():
    # tensor, suspended and normal-form spaces still filter label by label
    rng = random.Random(39)
    cut = {"tensor": 0, "suspended": 0, "normal forms": 0}
    for trial in range(120):
        field = FIELDS[trial % 3]
        gens, tr = random_word_space_input(rng, trial)
        gens = list(dict(gens).items())
        tr = Truncation(tr.degree_min, tr.degree_max, min(tr.weight_cap, 3))
        words = free_word_space(field, gens, tr)
        # the windows of test_bar_matches_two_pass_reference
        A = random_monomial_algebra(rng, field, Truncation(
            rng.randint(-3, 0), rng.randint(3, 6), rng.randint(2, 3)))
        spaces = {"tensor": tensor_space(words, words),
                  "suspended": suspend(words, 1), "normal forms": A.space}
        for kind, space in spaces.items():
            assert not isinstance(space, WordSpace)
            cut[kind] += assert_d_checkable_as_filter(space, space)[1] > 0
    assert min(cut.values()) >= 20, cut


def test_word_limit_refuses_before_listing(monkeypatch):
    # 126 letters of degree 1 (B A of k<x, y>, |x| = |y| = 0, at -1:6:6)
    # give about 4·10¹² words; the count refuses them with nothing listed
    letters = [(f"a{i}", 1) for i in range(126)]
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationTooLarge) as exc:
            free_word_space(QQ, letters, Truncation(-1, 6, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == \
        "4033516174507 words in window -1:6:6 exceed the limit 1000000"
    assert peak < 200_000
    # the limit counts listed prefixes too: x and y lie outside the window
    gens, tr = [("x", -1), ("y", 1)], Truncation(0, 0, 2)
    assert ref_pruned_counts(gens, tr) == {(0, 0): 1, (1, -1): 1, (1, 1): 1,
                                           (2, 0): 2}
    monkeypatch.setattr(algebras, "WORD_LIMIT", 5)
    assert free_word_space(QQ, gens, tr).labels() == [
        UNIT_WORD, word_label(("x", "y")), word_label(("y", "x"))]
    monkeypatch.setattr(algebras, "WORD_LIMIT", 4)
    with pytest.raises(EnumerationTooLarge,
                       match="^5 words in window 0:0:2 exceed the limit 4$"):
        free_word_space(QQ, gens, tr)


def test_wide_window_lists_only_what_its_words_reach():
    # the live degrees follow the words, not the window: |x| = 1 at a
    # width of 10⁶ keeps 4 words and a table of at most L + 1 degrees
    gens = [("x", 1)]
    wide = Truncation(-1, 1_000_000, 3)
    tracemalloc.start()
    try:
        counts = _word_counts(gens, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]
    assert peak < 50_000
    for gens, tr in [([("x", 1)], Truncation(-1, 200_000, 3)),
                     ([("x", 2), ("y", -1), ("z", 0)],
                      Truncation(-150_000, 150_000, 4))]:
        new, ref = free_word_space(QQ, gens, tr), ref_level_word_space(
            QQ, gens, tr)
        assert new.labels() == ref.labels()
        assert new.inexact_degrees() == ref.inexact_degrees()


def test_pruned_word_space_repeated_names_raise_as_before():
    # at construction, although a word space lists its words on request
    for gens, tr in [([("x", 1), ("x", 2)], Truncation(0, 4, 3)),
                     ([("x", 5), ("x", 1)], Truncation(0, 4, 3)),
                     ([("x", 5), ("y", 1), ("x", -1)], Truncation(-2, 2, 2))]:
        with pytest.raises(GradedError) as new:
            free_word_space(QQ, gens, tr)
        with pytest.raises(GradedError) as bare:
            WordSpace(QQ, gens, tr)
        with pytest.raises(GradedError) as ref:
            ref_level_word_space(QQ, gens, tr)
        assert str(new.value) == str(bare.value) == str(ref.value)
        assert str(new.value).startswith("duplicate basis label ")


@pytest.fixture
def listings(monkeypatch):
    """The word spaces whose words get listed, one entry per listing: a
    request that finds the words listed already is not counted."""
    seen = []
    listed = WordSpace._list

    def spy(self):
        if self._by_degree is None:
            seen.append(self)
        return listed(self)

    monkeypatch.setattr(WordSpace, "_list", spy)
    return seen


def counted_view(space, candidates):
    """What a word space answers from its counts: degrees, dims, marks,
    and the membership, degree and weight of each candidate label."""
    return (space.degrees(), space.dims(), space.total_dim(),
            [space.dim(n) for n in range(space.window.degree_min - 1,
                                         space.window.degree_max + 2)],
            space.inexact_degrees(),
            [(w in space, space.weight_of(w),
              space.degree_of(w) if w in space else None)
             for w in candidates])


def test_word_space_answers_from_its_counts_before_listing(listings):
    # candidates: the window's words, words of a wider window, words one
    # letter past the cap, an unknown letter and labels that are no words
    rng = random.Random(53)
    seen = {"listed": 0, "outside": 0, "raised": 0}
    for trial in range(330):
        field = FIELDS[trial % 3]
        gens, tr = random_word_space_input(rng, trial)
        ref = build_or_error(ref_level_word_space, field, gens, tr)
        listings.clear()
        space = build_or_error(free_word_space, field, gens, tr)
        if len(dict(gens)) < len(gens):
            # listed at construction, to raise there if a word repeats
            assert len(listings) == 1
            seen["raised"] += isinstance(ref, str)
            assert space == ref if isinstance(ref, str) else \
                space.labels() == ref.labels()
            continue
        assert listings == []
        cap = tr.weight_cap
        wide = ref_level_word_space(field, gens, Truncation(
            tr.degree_min - 2, tr.degree_max + 2, min(cap, 4)))
        candidates = [*ref.labels(), *wide.labels(), *NOT_WORDS,
                      word_label(("unknown",)), ("w", "g0"),
                      *[word_label(word_syms(w) + (gens[0][0],))
                        for w in ref.labels()
                        if len(word_syms(w)) == cap][:50]]
        before = counted_view(space, candidates)
        assert listings == []
        assert space.labels() == ref.labels()
        # a space with no window word has no degree to list
        nonempty = bool(ref.labels())
        assert len(listings) == nonempty
        # listing fills the degree lists only; the word -> degree map is
        # built from them at the first question after listing
        assert space._degree_of is None
        listed = counted_view(space, candidates)
        assert (space._degree_of is not None) == nonempty
        lookup = space._degree_lookup()
        assert [lookup(w) for w in candidates] == \
            [ref.degree_of(w) if w in ref else None for w in candidates]
        assert counted_view(space, candidates) == listed == before == \
            counted_view(ref, candidates)
        seen["listed"] += nonempty
        seen["outside"] += any(w not in ref for w in wide.labels())
    assert min(seen.values()) >= 20, seen


def test_an_oversized_window_raises_before_any_word_is_listed(listings):
    # normal_forms counts the free space's words before it lists any
    letters = [(f"a{i}", 1) for i in range(126)]
    P = PresentedAlgebra(QQ, letters, [{word_label(("a0", "a1")): 1}], {},
                         Truncation(-1, 6, 6))
    with pytest.raises(EnumerationTooLarge, match="^4033516174507 words "):
        normal_forms(P)
    assert listings == []


def with_coefficient_p(rng, field, space, degree, vec):
    """vec plus one term whose raw coefficient is p (zero in F_p), at a
    word of `degree` when the space has one."""
    words = space.basis(degree)
    if words:
        vec = dict(vec)
        vec[rng.choice(words)] = field.p or 5
    return vec


def reduced_and_nonzero(f: GradedMap) -> bool:
    field = f.field
    return all(c == field.mul(field.one(), c) and not field.is_zero(c)
               for col in f.columns.values() for c in col.values())


def test_one_lookup_writes_match_set_loops():
    rng = random.Random(41)
    for trial in range(90):
        field = FIELDS[trial % 3]
        gens = random_generators(rng, "g")
        names = [g for g, _ in gens]
        degree_of = dict(gens)
        tr = Truncation(-rng.randint(1, 4), rng.randint(1, 4),
                        rng.randint(2, 4))
        space = free_word_space(field, gens, tr)
        degree = rng.choice([-2, -1, 1, 2])
        words = free_word_space(field, gens, Truncation(-12, 12, 3))
        phi = {g: with_coefficient_p(
                   rng, field, words, deg + degree,
                   random_word_vector(rng, field, words, deg + degree, 3))
               for g, deg in gens}
        new = extend_derivation(gens, phi, space, degree)
        assert columns(new) == columns(
            ref_set_extend_derivation(gens, phi, space, degree))
        assert reduced_and_nonzero(new)
        cophi = {}
        for length in range(1, 4):
            for chunk in itertools.product(names, repeat=length):
                want = sum(degree_of[g] for g in chunk) + degree
                val = {g: rng.choice([-1, 1, 2, field.p or 5])
                       for g in names if degree_of[g] == want}
                if val and rng.random() < 0.6:
                    cophi[word_label(chunk)] = val
        new = coextend_coderivation(space, gens, cophi, degree)
        assert columns(new) == columns(
            ref_set_coextend_coderivation(space, gens, cophi, degree))
        assert reduced_and_nonzero(new)
        assert column_dicts(coshuffle_comult(space, degree_of)[0]) == \
            column_dicts(ref_set_word_comult(
                free_word_space(field, gens, tr),
                unshuffle_splits(field, degree_of)))


def test_one_lookup_word_comult_matches_set_loop():
    # windows without 0 drop splits u⊗v whose u or v lies below the window,
    # so the comult marks degrees that free_word_space left exact
    rng = random.Random(43)
    marked = 0
    for trial in range(200):
        field = FIELDS[trial % 3]
        gens, tr = random_word_space_input(rng, trial)
        gens = list(dict(gens).items())
        tr = Truncation(tr.degree_min, tr.degree_max, min(tr.weight_cap, 4))
        degree_of = dict(gens)
        for splits in (deconcat_splits(field),
                       unshuffle_splits(field, degree_of)):
            mine = free_word_space(field, gens, tr)
            theirs = free_word_space(field, gens, tr)
            before = mine.inexact_degrees()
            new, leaves = _word_comult(mine, splits)
            mine.mark_inexact(*leaves)
            assert columns(new) == columns(ref_set_word_comult(theirs, splits))
            assert mine.inexact_degrees() == theirs.inexact_degrees()
            assert reduced_and_nonzero(new)
            marked += mine.inexact_degrees() != before
    assert marked >= 10


def test_one_lookup_writes_refuse_non_homogeneous_images():
    # |x| = 1, |y| = 2: a degree +1 map must send x into degree 2
    gens = [("x", 1), ("y", 2)]
    for field in FIELDS:
        space = free_word_space(field, gens, Truncation(-4, 4, 3))
        x, y = word_label(("x",)), word_label(("y",))
        message = "image of x not homogeneous: x has degree 1, want 2"
        cases = [
            (extend_derivation, ref_set_extend_derivation,
             (gens, {"x": {y: 1, x: 1}}, space, 1)),
            (coextend_coderivation, ref_set_coextend_coderivation,
             (space, gens, {x: {"y": 1, "x": 1}}, 1))]
        for new, ref, args in cases:
            for make in (new, ref):
                with pytest.raises(GradedError) as exc:
                    make(*args)
                assert str(exc.value) == message
        # a zero coefficient is dropped before its degree is checked
        zero = field.p or 0
        assert columns(extend_derivation(gens, {"x": {y: 1, x: zero}},
                                         space, 1)) == \
            columns(extend_derivation(gens, {"x": {y: 1}}, space, 1))
        assert columns(coextend_coderivation(space, gens,
                                             {x: {"y": 1, "x": zero}}, 1)) \
            == columns(coextend_coderivation(space, gens, {x: {"y": 1}}, 1))
        def twice(syms):
            # x ↦ x⊗x has degree 2 where Δ(x) needs degree 1
            return [(syms, syms, field.one())] if syms else []

        for make in (_word_comult, ref_set_word_comult):
            with pytest.raises(GradedError) as exc:
                make(free_word_space(field, gens, Truncation(-4, 4, 3)),
                     twice)
            assert str(exc.value) == (
                "image of x not homogeneous: (x)⊗(x) has degree 2, want 1")


# -- the splice at the window's edges -----------------------------------------
#
# The splice decides where a spliced word lands from its chunk term's length
# change and degree shift, without looking the word up.  These inputs reach
# every edge of that rule, against the set loops above, which look up each
# spliced word.  The set loops leave the degree check to `GradedMap.set`,
# on the summed column, so they miss a wrong-degree term that cancels in
# its column (2·t over F2); the splice refuses each such term as it meets
# it, so its error is the first that `first_wrong_term` finds.

EDGE_FIELDS = (QQ, Field(2), Field(3))


def splice_or_error(make, *args):
    """The columns of a splice, or the text of the GradedError it raises."""
    try:
        return columns(make(*args))
    except GradedError as exc:
        return str(exc)


def random_edge_window(rng):
    """A window with or without 0, with a cap of 1-4."""
    if rng.random() < 0.3:
        lo = rng.randint(1, 3)
        dmin, dmax = rng.choice([(lo, lo + rng.randint(0, 3)),
                                 (-lo - rng.randint(0, 3), -lo)])
    else:
        dmin, dmax = rng.randint(-4, 0), rng.randint(0, 4)
    return Truncation(dmin, dmax, rng.randint(1, 4))


def random_edge_syms(rng, names, max_len):
    """A random letter tuple of length 0..max_len, now and then holding the
    letter q, which is no generator."""
    return tuple(rng.choice(names + ["q"] if rng.random() < 0.15 else names)
                 for _ in range(rng.randint(0, max_len)))


def first_wrong_term(space, chunks: dict, degree):
    """The error text for the first term of the wrong degree that lands in
    the window, in the splice's order: words in label order, then chunk
    start, chunk length and term; None when there is none.  `chunks` maps
    letter tuples to vectors over word labels."""
    field = space.field
    lengths = sorted({len(chunk) for chunk in chunks})
    for label in space.labels():
        syms = word_syms(label)
        want = space.degree_of(label) + degree
        for i in range(len(syms)):
            for n in lengths:
                if i + n > len(syms):
                    break
                for t, c in chunks.get(syms[i:i + n], {}).items():
                    if field.is_zero(field.mul(field.one(), c)):
                        continue
                    new = word_label(syms[:i] + word_syms(t) + syms[i + n:])
                    if new in space and space.degree_of(new) != want:
                        return str(not_homogeneous(
                            label, new, space.degree_of(new), want))
    return None


def edge_landings(space, degree_of: dict, chunks: dict, degree) -> dict:
    """Over every word w of `space` and every nonzero term of `chunks`
    (letter tuples to vectors over word labels) whose letters are
    generators and whose chunk w holds, where the spliced word lands when
    it fits under the cap: in the window with the right degree, in it with
    a wrong one, or outside by a wrong degree."""
    field, cap = space.field, space.window.weight_cap
    seen = {"right": 0, "wrong inside": 0, "wrong outside": 0}
    for m in space.degrees():
        for w in space.basis(m):
            syms = word_syms(w)
            for chunk, vec in chunks.items():
                n = len(chunk)
                if not any(syms[i:i + n] == chunk
                           for i in range(len(syms) - n + 1)):
                    continue
                for t, c in vec.items():
                    tsyms = word_syms(t)
                    if field.is_zero(field.of(c)) or len(tsyms) - n + \
                            len(syms) > cap or not all(
                                s in degree_of for s in tsyms):
                        continue
                    shift = sum(degree_of[s] for s in tsyms) - sum(
                        degree_of[s] for s in chunk)
                    if not space.window.contains(m + shift):
                        seen["wrong outside"] += shift != degree
                    elif shift == degree:
                        seen["right"] += 1
                    else:
                        seen["wrong inside"] += 1
    return seen


def test_splice_matches_the_set_loops_at_the_window_edges():
    rng = random.Random(61)
    seen = {"raised": 0, "wrong outside only": 0, "not generators": 0,
            "empty term, 0 in window": 0, "empty term, no 0": 0,
            "past the cap": 0, "chunk past the cap": 0, "zero coefficient": 0}
    cancelled = 0
    for trial in range(360):
        field = EDGE_FIELDS[trial % 3]
        gens = random_generators(rng, "g", (-2, -1, 0, 1, 2))
        names = [g for g, _ in gens]
        degree_of = dict(gens)
        tr = random_edge_window(rng)
        cap = tr.weight_cap
        space = free_word_space(field, gens, tr)
        degree = rng.choice([-2, -1, 0, 1, 2])

        def term(chunk, tsyms):
            """A random coefficient for the term tsyms of chunk, tallied."""
            c = field.of(rng.choice([-2, -1, 1, 2, 3]))
            seen["zero coefficient"] += field.is_zero(c)
            seen["not generators"] += not all(s in degree_of for s in tsyms)
            seen["past the cap"] += len(tsyms) - len(chunk) >= cap
            if not tsyms:
                seen["empty term, 0 in window" if tr.contains(0)
                     else "empty term, no 0"] += 1
            return c

        # a derivation: images over random letter tuples, up to cap + 1
        # long, the empty word and wrong degrees included; and a
        # coderivation: chunks up to cap + 1 long, images over letters
        phi = {g: {word_label(tsyms): term((g,), tsyms)
                   for tsyms in (random_edge_syms(rng, names, cap + 1)
                                 for _ in range(rng.randint(0, 4)))}
               for g in names}
        cophi = {}
        for _ in range(rng.randint(1, 6)):
            chunk = random_edge_syms(rng, names, cap + 1) or (names[0],)
            seen["chunk past the cap"] += len(chunk) > cap
            cophi[word_label(chunk)] = {
                sym: term(chunk, (sym,))
                for sym in rng.sample(names + ["q"], rng.randint(1, 2))}
        cases = [
            (extend_derivation, ref_set_extend_derivation,
             (gens, phi, space, degree),
             {(g,): v for g, v in phi.items()}),
            (coextend_coderivation, ref_set_coextend_coderivation,
             (space, gens, cophi, degree),
             {word_syms(w): {word_label((sym,)): c for sym, c in v.items()}
              for w, v in cophi.items()})]
        for make, make_ref, args, chunks in cases:
            new = splice_or_error(make, *args)
            ref = splice_or_error(make_ref, *args)
            assert new == (first_wrong_term(space, chunks, degree) or ref)
            landed = edge_landings(space, degree_of, chunks, degree)
            assert isinstance(new, str) == (landed["wrong inside"] > 0)
            seen["raised"] += new == ref and isinstance(ref, str)
            cancelled += new != ref
            seen["wrong outside only"] += landed["wrong outside"] > 0 and \
                not landed["wrong inside"]
    assert min(seen.values()) >= 20 and cancelled >= 5, (seen, cancelled)
