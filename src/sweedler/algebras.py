"""dg-algebras: free, presented-with-truncated-normal-forms, and derived ones.

An algebra carrier is a GradedSpace; the product is kept as a pair-product
on basis labels (bilinear extension), so quotients, convolution algebras and
tensor products share one interface.  Products that would overflow the word
cap return zero and mark the target degree truncation-affected.  A free
word space counts its words per (degree, length) when it is built, lists
them by degree only when asked, and builds its word -> degree map only for
a caller that looks words up (`WordSpace`).  The derivations of T(X) and
the coderivations of T^c(X) share one word-splicing loop, `splice_map`,
whose splice `normal_forms` also runs, on the words it reads.  The splice
places each spliced word by the length change and degree shift of the
chunk term it comes from, so it looks no word up.

Quotients by two-sided ideals are computed degreewise: the ideal slice of
a degree is spanned by the u·r·v of level |u| + maxlen(r) + |v| ≤ cap, and
the deterministic pivot order (longer words first) makes the normal-form
basis reproducible.  There are two ways to the same slice.  Where the
window cuts no multiplier of a relation (`_cuts_no_multiplier`), the slice
is that of the length-truncated ideal, and normal forms come from
rewriting by a Gröbner basis of it, completed level by level through the
overlaps of its tips (`_groebner_rules`); the normal words are grown from
prefixes free of the tips that rewrite every word holding them, and the
free space is never listed.  Elsewhere each slice is a
per-degree Macaulay matrix whose rows u·r·v are built by one-letter
closure, x·I and I·x, skipping an extension of an element that added no
row when the rows it depends on stay inside the window; `_ideal_slices`
gives the rule and why the span is unchanged.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import accumulate
from dataclasses import dataclass, field as dc_field

from .scalars import Field
from .graded import (GradedSpace, GradedMap, GradedError, Truncation,
                     EnumerationTooLarge, tensor_space, tensor_label,
                     label_str, not_homogeneous)
from .complexes import DgSpace, check_square_zero, dg_tensor
from .linalg import (RowSpace, vaddmul, vaddmul_into, vscale, kernel_basis,
                     solve_membership)


class AlgebraError(Exception):
    pass


class InconsistentDifferential(AlgebraError):
    pass


def word_label(syms: tuple) -> tuple:
    return ("w", tuple(syms))


def word_syms(label) -> tuple:
    return label[1]


UNIT_WORD = word_label(())


class DgAlgebra:
    """Carrier + product + optional unit/augmentation + differential."""

    def __init__(self, dg: DgSpace, pair_product, unit: dict | None,
                 aug: dict | None = None, name: str = ""):
        self.dg = dg
        self._pair = pair_product
        self.unit = unit
        self.aug = aug            # basis label -> scalar, linear functional
        self.name = name

    # -- basics ---------------------------------------------------------------
    @property
    def space(self) -> GradedSpace:
        return self.dg.space

    @property
    def field(self) -> Field:
        return self.space.field

    @property
    def d(self) -> GradedMap:
        return self.dg.d

    def product(self, u: dict, v: dict) -> dict:
        field = self.field
        out: dict = {}
        for a, ca in u.items():
            for b, cb in v.items():
                vaddmul_into(field, out, field.mul(ca, cb), self._pair(a, b))
        return out

    def augmentation(self, vec: dict):
        if self.aug is None:
            raise AlgebraError(f"algebra {self.name or '?'} not augmented")
        field = self.field
        total = field.zero()
        for k, c in vec.items():
            a = self.aug.get(k, field.zero())
            total = field.add(total, field.mul(c, a))
        return total

    def reduced_basis(self) -> list:
        """Basis of A_- = ker(aug): requires aug to kill all non-unit labels."""
        if self.aug is None:
            raise AlgebraError("not augmented")
        out = []
        for label in self.space.labels():
            a = self.aug.get(label, self.field.zero())
            if self.field.is_zero(a):
                out.append(label)
            elif self.unit is None or label not in self.unit:
                raise AlgebraError(
                    f"augmentation not aligned with basis at {label_str(label)}")
        return out

    def mult_map(self) -> GradedMap:
        """The product as a graded map A⊗A → A (window-projected)."""
        T = tensor_space(self.space, self.space)
        m = GradedMap(T, self.space, 0)
        for label in T.labels():
            _, a, b = label
            m.set(label, self.space.project(self._pair(a, b)))
        return m

    # -- verification ------------------------------------------------------------
    def window_tuples(self, k: int):
        """The k-tuples of basis labels whose product the window can hold,
        streamed in itertools.product order: every run of consecutive
        degrees sums into the window and, when every weight in the tuple is
        known, the weights sum to at most the cap.  Labels are listed by
        degree, so the labels that keep each run of a prefix in the window
        are one slice of them."""
        space = self.space
        win = space.window
        labels = space.labels()
        degs = [space.degree_of(x) for x in labels]
        weights = [space.weight_of(x) for x in labels]

        def grow(prefix, lo, hi, weight, left):
            # lo, hi: least and greatest sum of a run ending the prefix, or 0
            for i in range(bisect_left(degs, win.degree_min - lo),
                           bisect_right(degs, win.degree_max - hi)):
                n, wi = degs[i], weights[i]
                total = None if weight is None or wi is None else weight + wi
                if left > 1:
                    yield from grow(prefix + (labels[i],), min(0, lo + n),
                                    max(0, hi + n), total, left - 1)
                elif total is None or total <= win.weight_cap:
                    yield prefix + (labels[i],)

        return grow((), 0, 0, 0, k)

    def verify(self, check_d_squared: bool = True) -> list[str]:
        """Associativity, unit, Leibniz and d² on the window; [] means pass.

        Associativity, Leibniz and the augmentation are checked on the tuples
        of `window_tuples`: one whose (sub)products overflow the window is
        skipped, since the truncated product is honestly non-associative
        there, which the truncation flags already record.
        """
        issues: list[str] = []
        field = self.field
        one = field.one()
        # associativity
        for a, b, c in self.window_tuples(3):
            lhs = self.product(self._pair(a, b), {c: one})
            rhs = self.product({a: one}, self._pair(b, c))
            if lhs != rhs:
                issues.append(
                    f"associativity fails at ({label_str(a)},{label_str(b)},"
                    f"{label_str(c)})")
                break
        # unit laws
        if self.unit is not None:
            for a in self.space.labels():
                if self.product(self.unit, {a: one}) != {a: one} or \
                        self.product({a: one}, self.unit) != {a: one}:
                    issues.append(f"unit law fails at {label_str(a)}")
                    break
        # Leibniz
        for a, b in self.window_tuples(2):
            lhs = self.d(self._pair(a, b))
            rhs = self.product(self.d.apply_label(a), {b: one})
            sign = field.sign(self.space.degree_of(a))
            vaddmul_into(field, rhs, sign,
                         self.product({a: one}, self.d.apply_label(b)))
            if lhs != rhs:
                issues.append(
                    f"Leibniz fails at ({label_str(a)},{label_str(b)})")
                break
        # augmentation is an algebra map
        if self.aug is not None and self.unit is not None:
            if not field.is_one(self.augmentation(self.unit)):
                issues.append("augmentation does not send 1 to 1")
            for a, b in self.window_tuples(2):
                lhs = self.augmentation(self._pair(a, b))
                rhs = field.mul(self.augmentation({a: one}),
                                self.augmentation({b: one}))
                if lhs != rhs:
                    issues.append(
                        f"augmentation not multiplicative at "
                        f"({label_str(a)},{label_str(b)})")
                    break
        if check_d_squared:
            report = check_square_zero(self.dg)
            if not report.passed:
                issues.append(report.describe(self.space))
        return issues


# -- free (tensor) algebras -------------------------------------------------------


def _mark_overflow_degrees(space: GradedSpace, gen_degrees: list[int],
                           cap: int) -> None:
    """Flag window degrees where words longer than the cap could land."""
    if not gen_degrees:
        return
    gmin, gmax = min(gen_degrees), max(gen_degrees)
    w = space.window
    if gmin > 0:
        low = (cap + 1) * gmin
        space.mark_inexact(*range(max(low, w.degree_min), w.degree_max + 1))
    elif gmax < 0:
        high = (cap + 1) * gmax
        space.mark_inexact(*range(w.degree_min, min(high, w.degree_max) + 1))
    else:
        # generators of degree 0 (or mixed signs): every degree a long word
        # could reach is suspect
        for n in range(w.degree_min, w.degree_max + 1):
            if (cap + 1) * gmin <= n <= (cap + 1) * gmax or gmin == gmax == 0 and n == 0:
                space.mark_inexact(n)


# the most words (window words and the prefixes kept to reach them) that
# free_word_space lists; a larger window raises EnumerationTooLarge
WORD_LIMIT = 1_000_000


def _word_counts(letters: list[tuple], trunc: Truncation) -> list[dict]:
    """counts[L]: degree -> number of words of length L that the pruned
    enumeration lists, for L = 0..weight_cap.

    A word of length L is listed when some completion of at most cap - L
    more letters lands in the window.  Its degree lies in reach[L], the sums
    of L letter degrees (at most L·(gmax - gmin) + 1 of them), so each
    length's live degrees are found inside reach[L], from the top length
    down, and never range over the whole window.
    """
    cap, dmin, dmax = trunc.weight_cap, trunc.degree_min, trunc.degree_max
    mult: dict[int, int] = {}          # letter degree -> letters of it
    for _, dg in letters:
        mult[dg] = mult.get(dg, 0) + 1
    reach = [{0}]
    for _ in range(cap):
        reach.append({n + s for n in reach[-1] for s in mult})
    live = [set() for _ in range(cap + 1)]
    live[cap] = {n for n in reach[cap] if dmin <= n <= dmax}
    for length in range(cap - 1, 0, -1):
        after = live[length + 1]
        live[length] = {n for n in reach[length] if dmin <= n <= dmax
                        or any(n + s in after for s in mult)}
    counts = [{0: 1}]                  # the empty word is always listed
    for length in range(1, cap + 1):
        prev = counts[-1]
        counts.append({n: c for n in live[length]
                       if (c := sum(k * prev.get(n - s, 0)
                                    for s, k in mult.items()))})
    return counts


class WordSpace(GradedSpace):
    """The tensor words of length ≤ weight_cap over graded generators that
    lie in the window; read-only, listed on request.

    The number of words of each (degree, length) is counted when the space
    is built (`_word_counts`), and a window that needs more than WORD_LIMIT
    words raises EnumerationTooLarge then.  Degrees, dimensions, inexact
    marks, membership and a word's degree and weight come from the counts
    and the letters: ("w", syms) is a member when it has at most weight_cap
    letters, each a generator, and its degree lies in the window.  A
    word's weight is its length.

    The words are listed on the first call of `basis`, `labels`,
    `basis_within` or `_degree_lookup`: by length, and within a length in
    the lexicographic order of the generator list.  The words of length L
    and their degrees come from the listed words of length L-1; a prefix is
    listed only when some completion within the cap lands in the window.
    Listing fills only the degree lists.  The word -> degree map is built
    from them on the first `_degree_lookup` (tensor spaces and
    `GradedMap.set` call it) or the first question about a word once the
    space is listed; from then on membership, degree and weight read it,
    and before, the letters, with the same answers.  The splice of
    `splice_map` reads the letter table and asks no question.  A
    generator name given twice spells words twice, so such a space is
    listed when it is built, and raises there at the first window word
    spelled twice.
    """

    def __init__(self, field: Field, generators: list[tuple],
                 trunc: Truncation):
        # GradedSpace.__init__ is skipped on purpose: a word's weight is its
        # length, so there is no weight dict to fill
        self.field = field
        self.window = trunc
        self._inexact: set[int] = set()
        self._letter_degree = degree_of = dict(generators)
        self._letters = [(g, degree_of[g]) for g, _ in generators]
        cap, dmin, dmax = trunc.weight_cap, trunc.degree_min, trunc.degree_max
        self._counts = counts = _word_counts(self._letters, trunc)
        listed = sum(sum(c.values()) for c in counts)
        if listed > WORD_LIMIT:
            raise EnumerationTooLarge(
                f"{listed} words in window {trunc} exceed the limit "
                f"{WORD_LIMIT}")
        by_length: dict[int, list[int]] = {}
        for length, row in enumerate(counts):
            for n, c in row.items():
                if dmin <= n <= dmax:
                    by_length.setdefault(n, [0] * (cap + 1))[length] = c
        # degree -> number of its words of length at most L, for L = 0..cap
        self._upto = {n: list(accumulate(by_length[n]))
                      for n in sorted(by_length)}
        # degree -> its words, once listed; word -> degree, once asked for
        self._by_degree: dict[int, list] | None = None
        self._degree_of: dict | None = None
        if len(degree_of) < len(generators):
            self._list()    # raises at the first window word spelled twice

    def _list(self) -> dict[int, list]:
        """The degree lists, listing the words on first call."""
        if self._by_degree is not None:
            return self._by_degree
        letters, counts = self._letters, self._counts
        cap, dmin, dmax = (self.window.weight_cap, self.window.degree_min,
                           self.window.degree_max)
        repeated = len(self._letter_degree) < len(letters)
        lists = {n: [] for n in self._upto}
        if 0 in lists:
            lists[0].append(UNIT_WORD)
        level = [((), 0)]
        for length in range(1, cap + 1):
            live = counts[length]
            if repeated:
                self._raise_duplicate(level, letters, live)
            words = ((syms + (g,), n + dg) for syms, n in level
                     for g, dg in letters if n + dg in live)
            if length < cap:    # words of length cap are not extended
                words = list(words)
            for syms, n in words:
                if dmin <= n <= dmax:
                    lists[n].append(("w", syms))
            level = words
        self._by_degree = lists
        return lists

    def _raise_duplicate(self, level, letters, live):
        """Raise at the first window word of the next length spelled twice:
        a generator name given twice spells the same words twice."""
        seen = set()
        window = self.window
        for syms, n in level:
            for g, dg in letters:
                word = syms + (g,)
                if n + dg in live and window.contains(n + dg):
                    if word in seen:
                        raise GradedError(
                            f"duplicate basis label {label_str(word_label(word))}")
                    seen.add(word)

    def _degree(self, label) -> int | None:
        """Degree of a member label, None for anything else; from the
        degree map once built, from the letters before.  A listed space
        builds the map at its first question: a caller that lists the
        words and then asks about them asks about many."""
        if self._degree_of is None and self._by_degree is not None:
            self._degree_lookup()
        if self._degree_of is not None:
            return self._degree_of.get(label)
        if type(label) is not tuple or len(label) != 2 or label[0] != "w" \
                or type(label[1]) is not tuple \
                or len(label[1]) > self.window.weight_cap:
            return None
        n = 0
        degree_of = self._letter_degree
        for sym in label[1]:
            if sym not in degree_of:
                return None
            n += degree_of[sym]
        return n if self.window.contains(n) else None

    def add(self, label, degree: int, weight: int | None = None) -> bool:
        raise GradedError("a word space is read-only")

    def degrees(self) -> list[int]:
        return list(self._upto)

    def basis(self, degree: int) -> list:
        return list(self._list().get(degree, []))

    def labels(self) -> list:
        out = []
        for words in self._list().values():
            out.extend(words)
        return out

    def __contains__(self, label) -> bool:
        return self._degree(label) is not None

    def _degree_lookup(self):
        # tensor spaces and GradedMap.set call it per term: the map's own
        # get, the map built from the degree lists on first call
        if self._degree_of is None:
            self._degree_of = {w: n for n, words in self._list().items()
                               for w in words}
        return self._degree_of.get

    def degree_of(self, label) -> int:
        n = self._degree(label)
        if n is None:
            raise GradedError(f"unknown basis label {label_str(label)}")
        return n

    def weight_of(self, label, default=None):
        return len(label[1]) if self._degree(label) is not None else default

    def basis_within(self, degree: int, weight_cap: int) -> list:
        # a degree's words are listed by length: a prefix of its basis
        upto = self._upto.get(degree)
        if upto is None or weight_cap < 0:
            return []
        return self._list()[degree][:upto[min(weight_cap, len(upto) - 1)]]

    def dim(self, degree: int) -> int:
        upto = self._upto.get(degree)
        return upto[-1] if upto else 0

    def dims(self) -> dict[int, int]:
        return {n: upto[-1] for n, upto in self._upto.items()}

    def total_dim(self) -> int:
        return sum(upto[-1] for upto in self._upto.values())


def free_word_space(field: Field, generators: list[tuple],
                    trunc: Truncation) -> WordSpace:
    """All tensor words of length ≤ weight_cap over graded generators that
    lie in the window (see `WordSpace`), with the degrees that longer words
    could reach marked inexact."""
    space = WordSpace(field, generators, trunc)
    _mark_overflow_degrees(space, [d for _, d in generators], trunc.weight_cap)
    return space


def _splicer(space: WordSpace, generators: list[tuple], chunks: dict,
             degree: int):
    """The splice of `splice_map`, from its chunk tables: splice(words, m)
    maps each of `words`, words of `space` of degree m, whose image is
    nonzero to that image, in the order of `words`.  None when no chunk has
    a nonzero image.

    A spliced word's place follows from its letters, so no spliced word is
    looked up.  Each chunk term keeps its length change and its degree
    shift, the letter degrees of the term minus those of the chunk, read
    from the letter table of `space`; a term with a letter that is no
    generator is dropped here.  From a word w of degree m a term lands in
    the window when |w| + length change ≤ cap and m + shift lies in the
    window, and it must then have shift = `degree`.
    """
    field, trunc = space.field, space.window
    letter_degree = space._letter_degree
    cap, dmin, dmax = trunc.weight_cap, trunc.degree_min, trunc.degree_max
    one, minus, p = field.one(), field.sign(1), field.p
    # each letter -> {n: what it starts}: for n = 1 its own image terms, for
    # n > 1 the table of the chunks of length n, so a letter that is itself a
    # tuple never meets a chunk equal to it; each term nonzero in the field,
    # as (letters, c, -c, length change, degree shift)
    tables: dict = {}
    starts: dict = {}
    shifts: set = set()
    for chunk, v in chunks.items():
        if not all(x in letter_degree for x in chunk):
            continue        # no word of the space holds it
        n = len(chunk)
        base = sum(letter_degree[x] for x in chunk)
        terms = []
        for t, c in vaddmul(field, {}, one, v).items():
            tsyms = word_syms(t)
            if all(x in letter_degree for x in tsyms):
                shift = sum(letter_degree[x] for x in tsyms) - base
                shifts.add(shift)
                terms.append((tsyms, c, field.mul(minus, c),
                              len(tsyms) - n, shift))
        if terms:
            table = tables.setdefault(n, {})
            table[chunk] = terms
            starts.setdefault(chunk[0], {})[n] = terms if n == 1 else table
    if not starts:
        return None
    heads = frozenset(starts)
    # each generator x -> (the Koszul sign's flip past x, degree·|x| mod 2;
    # what x starts, by increasing n)
    letters = {g: (degree * d % 2, sorted(starts.get(g, {}).items()))
               for g, d in generators}

    def splice(words, m: int) -> dict:
        want = m + degree
        lands = {s for s in shifts if dmin <= m + s <= dmax}
        images: dict = {}
        if not lands:
            return images
        for label in words:
            syms = label[1]
            if heads.isdisjoint(syms):
                continue
            room = cap - len(syms)
            img: dict = {}
            odd = 0
            for i, sym in enumerate(syms):
                flip, found = letters[sym]
                if found:
                    for n, terms in found:
                        if n > 1:
                            # a slice cut short by the word's end is no key
                            terms = terms.get(syms[i:i + n])
                            if not terms:
                                continue
                        head, tail = syms[:i], syms[i + n:]
                        for tsyms, even_c, odd_c, grow, shift in terms:
                            if grow > room or shift not in lands:
                                continue
                            new = ("w", head + tsyms + tail)
                            if shift != degree:
                                raise not_homogeneous(label, new, m + shift,
                                                      want)
                            s = img.get(new, 0) + (odd_c if odd else even_c)
                            if p is not None:
                                s %= p
                            if s:
                                img[new] = s
                            else:
                                del img[new]
                odd ^= flip
            if img:
                images[label] = img
        return images

    return splice


def splice_map(space: WordSpace, generators: list[tuple], chunks: dict,
               degree: int) -> GradedMap:
    """The map of `degree` on a word space that replaces each chunk of a word
    by its image: x1⊗…⊗xk ↦ Σ_{i,n} (-1)^{degree·(|x1|+…+|xi|)}
    x1…xi ⊗ image(x_{i+1}…x_{i+n}) ⊗ x_{i+n+1}…xk.

    `space` must be a `WordSpace`: the splice reads its letter table.
    `chunks` maps each chunk, a tuple of n ≥ 1 letters, to its image, a
    vector over word labels.  Components outside the window are dropped.
    The splice of `_splicer` runs over the basis, one degree at a time:
    each column is summed in place, in (i, n) order, and each spliced
    word's degree and window membership come from its chunk term, not from
    a lookup.  When no chunk has a nonzero image, the map is zero and the
    space is not listed.
    """
    D = GradedMap(space, space, degree)
    splice = _splicer(space, generators, chunks, degree)
    if splice is not None:
        for m in space.degrees():
            D.columns.update(splice(space.basis(m), m))
    return D


def extend_derivation(generators: list[tuple], phi: dict, space: GradedSpace,
                      degree: int) -> GradedMap:
    """Unique derivation of T(X) with D(x) = phi[x] on generators.

    D(x1⊗…⊗xk) = Σ_i (-1)^{n(|x1|+…+|x_{i-1}|)} x1⊗…⊗phi(x_i)⊗…⊗xk,
    spliced as words by `splice_map` with phi as its one-letter chunks.
    """
    return splice_map(space, generators, {(g,): v for g, v in phi.items()},
                      degree)


def _length_raise(d_gen: dict) -> int:
    """How far the derivation extending `d_gen` can raise word length."""
    return max([0, *(len(word_syms(w)) - 1
                     for vec in d_gen.values() for w in vec)])


def tensor_algebra(field: Field, generators: list[tuple], trunc: Truncation,
                   d_gen: dict | None = None, augmented: bool = False,
                   name: str = "") -> DgAlgebra:
    """T(X) with concatenation product and the extended differential.

    `d_gen` maps generator names to degree -1 vectors over word labels
    (default zero).  With `augmented`, the projection onto the empty word
    augments the algebra.
    """
    space = free_word_space(field, generators, trunc)
    phi = d_gen or {}
    D = extend_derivation(generators, phi, space, -1)
    raises = _length_raise(phi)
    one = field.one()

    def pair(a, b):
        # the space holds no word longer than the cap
        lab = word_label(word_syms(a) + word_syms(b))
        return {lab: one} if lab in space else {}

    aug = {UNIT_WORD: one} if augmented else None
    return DgAlgebra(DgSpace(space, D, d_raises=raises), pair,
                     unit={UNIT_WORD: one}, aug=aug, name=name or "T(X)")


# -- presented algebras -------------------------------------------------------------


@dataclass
class PresentedAlgebra:
    """Generators, homogeneous relations and a differential on generators."""
    field: Field
    generators: list        # (label, degree) pairs
    relations: list         # vectors over free word labels
    d_gen: dict             # generator label -> vector over word labels
    trunc: Truncation
    aug_gen: dict | None = None   # generator -> scalar, or None
    name: str = ""
    gen_weights: dict = dc_field(default_factory=dict)


def _parent_kind(p: int, n_p: int, letter: int, grow: dict,
                 trunc: Truncation) -> int:
    """A parent triple of `_ideal_slices`, through the word id p and its
    degree n_p: 0 when it is not in S, 1 when it is safe to extend by a
    letter of degree `letter`, 2 when it is not.  `grow` maps a degree to
    the letter degrees that keep its spread in the window."""
    if p < 0 or not trunc.degree_min <= n_p <= trunc.degree_max:
        return 0
    lo, hi = grow.get(n_p, (letter, letter))
    return 1 if lo <= letter <= hi else 2


def _ideal_slices(free: GradedSpace, gen_degree: dict, relations: list
                  ) -> tuple[dict[int, RowSpace], dict, list]:
    """The ideal slices of `normal_forms`, one RowSpace per degree of `free`,
    with the word numbering they are keyed by: (slices, index, labels).

    A slice is keyed by word ids, not words: `index` numbers the words of
    `free` in the order of `labels` = `free.labels()`, and the slice of
    degree n has the ids of `free.basis(n)[::-1]` as its ambient order, so
    long words are killed first.  Each term of u·r·v is then hashed once as
    a word, to find its id, and the elimination hashes ints.  The caller
    maps pivots and reduced vectors back to words through `labels`.

    `relations` holds (relation, degree) pairs whose terms all lie in `free`,
    each coefficient reduced and nonzero (`_screen_relations`).
    The slice I_n is spanned by the set S of triples (u, r, v) with u, v
    words of `free`, |u| + |v| + maxlen(r) ≤ cap and deg(u·r·v) = n; each
    triple stands for the element u·r·v.  S is walked level by level, the
    level of a triple being |u| + maxlen(r) + |v|, from 0 (a scalar
    relation has maxlen 0) to the cap.  The parents of (u, r, v) are
    (u[1:], r, v) and (u, r, v[:-1]) when they lie in S.  A triple is
    skipped, not built, when it has a parent and every parent p
      - added no row, and
      - is safe to extend: over the row-adding triples of p's degree of
        level < ℓ, the range of deg(u) (deg(v) for the v-parent), shifted by
        the degree of the added letter, stays inside the window.
    Every other triple is built and reduced into its slice.

    Why the span is unchanged: a parent p at level ℓ-1 that added no row is
    Σ cᵢ gᵢ over row-adding triples gᵢ of its degree and of level ≤ ℓ-1.
    With x the added letter, safety puts every x·gᵢ in S, and x·gᵢ has the
    row-adding parent gᵢ, so it is built; hence x·p = Σ cᵢ x·gᵢ is in the
    span already.  Skip decisions at level ℓ read only levels < ℓ.  When
    mixed-sign letters take an intermediate x·uᵢ out of the window, the
    safety test fails and the triple is built as before.  The pivots and
    the residue of a vector depend only on the span and the pivot order,
    so they are those of building every triple; the echelon rows
    themselves may differ, and nothing reads them.
    """
    field = free.field
    trunc = free.window
    cap, dmin, dmax = trunc.weight_cap, trunc.degree_min, trunc.degree_max
    # integer word ids, the keys of the slices
    labels = free.labels()
    index = {w: i for i, w in enumerate(labels)}
    # long words are killed first
    reducers = {n: RowSpace(field, [index[w] for w in free.basis(n)[::-1]])
                for n in free.degrees()}
    syms = [word_syms(w) for w in labels]
    degree = [free.degree_of(w) for w in labels]
    # tail / init: the id without the first / last letter, -1 when that
    # word leaves the window or the word is empty
    tail = [index.get(word_label(s[1:]), -1) if s else -1 for s in syms]
    init = [index.get(word_label(s[:-1]), -1) if s else -1 for s in syms]
    first = [gen_degree[s[0]] if s else 0 for s in syms]
    last = [gen_degree[s[-1]] if s else 0 for s in syms]
    buckets: list[dict] = [{} for _ in range(cap + 1)]   # length -> degree
    for i, s in enumerate(syms):
        buckets[len(s)].setdefault(degree[i], []).append(i)
    rels = []
    for rel, rel_deg in relations:
        terms = [(word_syms(w), c) for w, c in rel.items()]
        rels.append((terms, rel_deg, max(len(s) for s, _ in terms)))

    def blocks(level: int):
        """(r, terms, n, us, vs) over the triples of S at this level: u in
        us, v in vs, all of the same lengths and degrees, deg u·r·v = n."""
        for r, (terms, rel_deg, maxlen) in enumerate(rels):
            k = level - maxlen
            for a in range(k + 1):
                for du, us in buckets[a].items():
                    for dv, vs in buckets[k - a].items():
                        n = du + rel_deg + dv
                        if dmin <= n <= dmax:
                            yield r, terms, n, us, vs

    nw = len(labels)
    added = set()       # (r·nw + u)·nw + v of each row-adding triple
    u_degs: dict = {}   # degree -> deg u over its row-adding triples
    v_degs: dict = {}   # degree -> deg v over its row-adding triples
    for level in range(cap + 1):
        # the letter degrees that keep each degree's spread in the window
        grow_u = {n: (dmin - min(ds), dmax - max(ds))
                  for n, ds in u_degs.items()}
        grow_v = {n: (dmin - min(ds), dmax - max(ds))
                  for n, ds in v_degs.items()}
        for r, terms, n, us, vs in blocks(level):
            rs = reducers[n]
            vinfo = [(v, init[v], _parent_kind(init[v], n - last[v], last[v],
                                               grow_v, trunc)) for v in vs]
            for u in us:
                pu = tail[u]
                u_kind = _parent_kind(pu, n - first[u], first[u], grow_u,
                                      trunc)
                u_key = (r * nw + u) * nw
                pu_key = (r * nw + pu) * nw
                for v, pv, v_kind in vinfo:
                    # skipped: some parent, none unsafe (the kinds or to 1),
                    # and none added a row
                    if u_kind | v_kind == 1 \
                            and not (u_kind and pu_key + v in added) \
                            and not (v_kind and u_key + pv in added):
                        continue
                    us_, vs_ = syms[u], syms[v]
                    if rs.add({index[word_label(us_ + ws + vs_)]: c
                               for ws, c in terms}) is not None:
                        added.add(u_key + v)
                        u_degs.setdefault(n, set()).add(degree[u])
                        v_degs.setdefault(n, set()).add(degree[v])
    return reducers, index, labels


def _cuts_no_multiplier(gen_degrees, relations: list, trunc: Truncation
                        ) -> bool:
    """Whether the window cuts no multiplier: every triple (u, r, v) of
    words and a relation with |u| + maxlen(r) + |v| ≤ cap and deg u·r·v in
    the window has u and v in the window and r usable.  Then each window
    slice of `_ideal_slices` is that of the length-truncated ideal.

    `relations` holds (degree, maxlen) pairs; a relation with maxlen ≤ cap
    is usable exactly when its degree lies in the window.  Two cases are
    decided: generators of one sign with 0 in the window, where deg u and
    deg r lie between 0 and deg u·r·v; and, per relation, a window that
    holds every degree of a word of length ≤ cap − maxlen(r), where r is
    usable or no such u·r·v lands in the window.
    """
    cap, dmin, dmax = trunc.weight_cap, trunc.degree_min, trunc.degree_max
    lo, hi = min(0, *gen_degrees), max(0, *gen_degrees)
    if (lo == 0 or hi == 0) and dmin <= 0 <= dmax:
        return True
    for rel_deg, maxlen in relations:
        k = cap - maxlen
        if k >= 0 and not (dmin <= k * lo and k * hi <= dmax and (
                dmin <= rel_deg <= dmax or rel_deg + k * lo > dmax
                or rel_deg + k * hi < dmin)):
            return False
    return True


def _groebner_rules(field: Field, letter_degree: dict, relations: list,
                    trunc: Truncation) -> list:
    """A Gröbner basis of the length-truncated ideal of `relations`, as
    rewriting rules (tip, slack, tail): tip ≡ tail.

    Words are coded as strings, one character per generator, in generator
    order, so (length, string) is the pivot order of `normal_forms`.  The
    ideal is homogenized by level: u·r·v has level |u| + maxlen(r) + |v|,
    and an element of level D is a vector whose word w stands for
    w·t^(D − |w|) with t central.  A rule of level D has slack D − |tip|;
    it rewrites a word w at level D' when tip is a factor of w and
    slack ≤ D' − |w|.
    Elements are completed level by level up to the cap by the overlap
    and inclusion ambiguities of the tips (Buchberger's criterion for the
    homogeneous ideal); one whose u·g·v, |u| + |v| ≤ cap − level, cannot
    reach the window is never needed there and is dropped.
    """
    cap, dmin, dmax = trunc.weight_cap, trunc.degree_min, trunc.degree_max
    lo = min(0, *letter_degree.values())
    hi = max(0, *letter_degree.values())
    minus = field.sign(1)

    def reaches(w: str, level: int) -> bool:
        n = sum(letter_degree[ch] for ch in w)
        return n + (cap - level) * lo <= dmax and \
            n + (cap - level) * hi >= dmin

    rules: list = []

    def rewrite(el: dict, level: int) -> str | None:
        """Rewrite the leading words of `el` in place; its reduced leading
        word, or None when `el` reduces to zero."""
        while el:
            w = max(el, key=lambda x: (len(x), x))
            slack = level - len(w)
            for tip, i, tail in rules:
                if i <= slack and tip in w:
                    c = el.pop(w)
                    p = w.find(tip)
                    u, v = w[:p], w[p + len(tip):]
                    vaddmul_into(field, el, c,
                                 {u + s + v: a for s, a in tail.items()})
                    break
            else:
                return w
        return None

    todo: list[list] = [[] for _ in range(cap + 1)]
    for rel in relations:
        level = max(map(len, rel))
        if reaches(next(iter(rel)), level):
            todo[level].append(dict(rel))
    for level in range(cap + 1):
        for el in todo[level]:
            tip = rewrite(el, level)
            if tip is None:
                continue
            scale = field.mul(minus, field.inv(el.pop(tip)))
            g = (tip, level - len(tip),
                 {s: field.mul(scale, a) for s, a in el.items()})
            rules.append(g)
            for h in rules:
                for w, at, s_poly in _ambiguities(field, g, h):
                    if at <= cap and reaches(w, at):
                        todo[at].append(s_poly)
    return rules


def _ambiguities(field: Field, g: tuple, h: tuple):
    """(word, level, S-polynomial) of each overlap and inclusion of the
    tips of two rules; the level is always above both rules' levels.
    Two monomial rules (both tails empty) have none but zero ones."""
    if not g[2] and not h[2]:
        return
    minus = field.sign(1)
    pairs = ((g, h), (h, g)) if g is not h else ((g, g),)
    for (a, ia, ta), (b, ib, tb) in pairs:
        # a = u·o, b = o·v: a·v − u·b is u·tb − ta·v
        for n in range(1, min(len(a), len(b))):
            if a[-n:] == b[:n]:
                u, v = a[:-n], b[n:]
                s_poly = {u + s: c for s, c in tb.items()}
                vaddmul_into(field, s_poly, minus,
                             {s + v: c for s, c in ta.items()})
                yield a + v, len(a) + len(v) + max(ia, ib), s_poly
        if b != a:
            # a = u·b·v: a − u·b·v is u·tb·v − ta (then ib > ia)
            p = a.find(b)
            while p >= 0:
                u, v = a[:p], a[p + len(b):]
                s_poly = {u + s + v: c for s, c in tb.items()}
                vaddmul_into(field, s_poly, minus, ta)
                yield a, len(a) + max(ia, ib), s_poly
                p = a.find(b, p + 1)


def _rewriting(free: WordSpace, generators: list, relations: list):
    """(normal, residue) of `normal_forms` from `_groebner_rules`.

    A word of `free` stands at level cap, so it is normal when no rule of
    slack ≤ cap − |w| has its tip as a factor; a prefix that is rewritten
    says nothing about the word, except by a tip of slack 0, which
    rewrites every word that holds it.  So the normal words are listed as
    `free` lists its words, by length and in generator order under the
    same reach pruning (`_word_counts`), but a prefix that holds a slack-0
    tip is never extended; the words of `free` are never listed.  A word's
    residue is the sum of its rewrites' residues, computed once per word
    and kept.
    """
    field, trunc = free.field, free.window
    cap, one = trunc.weight_cap, field.one()
    code = {g: chr(i) for i, (g, _) in enumerate(generators)}

    def encode(w) -> str:
        return "".join([code[x] for x in word_syms(w)])

    rules = _groebner_rules(
        field, {code[g]: d for g, d in generators},
        [{encode(w): c for w, c in rel.items()} for rel, _ in relations],
        trunc)
    tails = {tip: tail for tip, _, tail in rules}
    # finds[k]: the search for a tip whose rule rewrites a word of length
    # cap - k, or None
    finds = [re.compile("|".join(re.escape(tip) for tip, i, _ in rules
                                 if i <= k)).search
             if any(i <= k for _, i, _ in rules) else None
             for k in range(cap + 1)]
    known: dict = {}    # coded word -> its residue over labels
    # the normal words by degree: by length, then in generator order; a
    # grown word holds a slack-0 tip only as a suffix
    normal: dict = {n: [] for n in free.degrees()}
    dead = tuple(tip for tip, i, _ in rules if i == 0)
    names = [g for g, _ in generators]
    letters = [(code[g], d) for g, d in generators]
    level = [("", 0)]
    for length in range(cap + 1):
        find = finds[cap - length]
        for s, n in level:
            if n in normal and (find is None or find(s) is None):
                w = word_label(tuple([names[ord(ch)] for ch in s]))
                normal[n].append(w)
                known[s] = {w: one}
        if length < cap:
            live = free._counts[length + 1]
            level = [(s + ch, n + dg) for s, n in level
                     if not s.endswith(dead)
                     for ch, dg in letters if n + dg in live]

    def of_word(s: str) -> dict:
        stack = [s]
        while stack:
            w = stack[-1]
            if w in known:
                stack.pop()
                continue
            m = finds[cap - len(w)](w)
            u, v = w[:m.start()], w[m.end():]
            terms = [(u + t + v, a) for t, a in tails[m.group()].items()]
            missing = [t for t, _ in terms if t not in known]
            if missing:
                stack.extend(missing)
                continue
            out: dict = {}
            for t, a in terms:
                vaddmul_into(field, out, a, known[t])
            known[w] = out
            stack.pop()
        return known[s]

    def residue(vec: dict) -> dict:
        out: dict = {}
        for w, c in vec.items():
            vaddmul_into(field, out, c, of_word(encode(w)))
        return out

    return normal, residue


def _closure(free: GradedSpace, gen_degree: dict, relations: list):
    """(normal, residue) of `normal_forms` from `_ideal_slices`."""
    reducers, index, labels = _ideal_slices(free, gen_degree, relations)
    field, one = free.field, free.field.one()

    def residue(vec: dict) -> dict:
        out: dict = {}
        by_deg: dict[int, dict] = {}
        for w, c in vec.items():
            by_deg.setdefault(free.degree_of(w), {})[index[w]] = c
        for deg, part in by_deg.items():
            vaddmul_into(field, out, one, reducers[deg].reduce(part))
        return {labels[i]: c for i, c in out.items()}

    normal = {}
    for n, rs in reducers.items():
        pivots = rs.pivots()
        normal[n] = [w for w in free.basis(n) if index[w] not in pivots]
    return normal, residue


def _screen_relations(free: GradedSpace, gen_degree: dict, relations: list
                      ) -> tuple[list, list, bool]:
    """(usable, shapes, dropped): the (relation, degree) pairs whose terms
    all lie in `free`; the (degree, maxlen) of every nonempty relation; and
    whether a relation of a window degree was dropped because some term
    lies past the cap.  Each coefficient is first reduced into the field
    and the terms that vanish there are dropped, so both ways to the ideal
    read the same relation; one with no term left is dropped like an empty
    one."""
    field, trunc = free.field, free.window
    usable, shapes, dropped = [], [], False
    for rel in relations:
        rel = {w: r for w, c in rel.items()
               if not field.is_zero(r := field.of(c))}
        if not rel:
            continue
        degs = {sum(gen_degree[s] for s in word_syms(w)) for w in rel}
        if len(degs) != 1:
            raise AlgebraError("relation not degree-homogeneous")
        rel_deg = degs.pop()
        shapes.append((rel_deg, max(len(word_syms(w)) for w in rel)))
        if all(w in free for w in rel):
            usable.append((rel, rel_deg))
        elif trunc.contains(rel_deg):
            # partially representable: imposing only the visible part would
            # be wrong, so drop it (the caller distrusts every degree)
            dropped = True
        # else: the relation lives entirely outside the window
    return usable, shapes, dropped


def _check_letters(P: PresentedAlgebra) -> None:
    """Raise AlgebraError at the first letter of a relation, or of d on a
    generator, that is no generator of P, naming the letter and where it
    appeared: relations count from 1, in the order given.  d given on a
    letter that is no generator raises too."""
    gens = {g for g, _ in P.generators}
    for g in P.d_gen:
        if g not in gens:
            raise AlgebraError(f"d is given on {g!r}, which is no generator")
    places = [(f"relation {i}", rel)
              for i, rel in enumerate(P.relations, start=1)]
    places += [(f"d({g})", vec) for g, vec in P.d_gen.items()]
    for place, vec in places:
        for w in vec:
            for s in word_syms(w):
                if s not in gens:
                    raise AlgebraError(
                        f"{place} uses {s!r}, which is no generator")


def normal_forms(P: PresentedAlgebra) -> DgAlgebra:
    """Quotient of the free algebra by the two-sided ideal of the relations.

    Per degree, the ideal slice is spanned by u·r·v over free words u, v in
    the window and usable relations r with |u| + maxlen(r) + |v| ≤ cap.
    The normal-form basis is the set of non-pivot words under elimination
    that prefers killing long words, and a vector's normal form is its
    residue modulo the slice.  Both depend only on the slice and the pivot
    order, so two ways to the same slice give the same algebra, values and
    key order included:
      - when the window cuts no multiplier (`_cuts_no_multiplier`), the
        slice is that of the length-truncated ideal, and normal forms come
        from rewriting by a truncated Gröbner basis (`_rewriting`), which
        lists the normal words without listing the free space;
      - otherwise the slices are eliminated from their u·r·v elements by
        one-letter closure (`_ideal_slices`, which gives the proof).
    Reduced vectors list their words in the quotient basis order.  The
    induced product and differential are re-normalized.  d is spliced only
    on the words it is read on: the terms of the relations, to check that
    it preserves the ideal (InconsistentDifferential if not, rendered in
    the quotient basis), and the quotient words.  A letter of a relation or
    of d that is no generator raises AlgebraError first (`_check_letters`).
    """
    _check_letters(P)
    field = P.field
    free = free_word_space(field, P.generators, P.trunc)
    cap = P.trunc.weight_cap
    gen_degree = dict(P.generators)
    usable_relations, shapes, dropped_partial = _screen_relations(
        free, gen_degree, P.relations)
    if dropped_partial:
        free.mark_inexact(*free.degrees())
    if _cuts_no_multiplier(gen_degree.values(), shapes, P.trunc):
        normal, residue = _rewriting(free, P.generators, usable_relations)
    else:
        normal, residue = _closure(free, gen_degree, usable_relations)

    def reduce(vec: dict) -> dict:
        """Normal form of vec, its words in the quotient basis order."""
        out = residue(vec)
        return {w: out[w] for w in sorted(out, key=position.__getitem__)}

    # quotient carrier: the normal words, in free's order
    space = GradedSpace(field, P.trunc)
    weight_of = {}
    for g, _ in P.generators:
        weight_of[g] = P.gen_weights.get(g, 1)
    for n, words in normal.items():
        for w in words:
            wt = sum(weight_of[s] for s in word_syms(w))
            space.add(w, n, weight=wt)
    position = {w: i for i, w in enumerate(space.labels())}
    # stabilization certificate: when normal words are so short that any
    # product of two of them still leaves room for a relation application,
    # raising the cap cannot add new normal forms (desk-scale certificate,
    # not a confluence proof); a certified quotient takes none of free's marks
    max_norm = max((len(word_syms(w)) for w in space.labels()), default=0)
    max_rel = max((len(word_syms(t)) for rel, _ in usable_relations
                   for t in rel), default=1)
    if not (usable_relations and not dropped_partial
            and 2 * max_norm + max_rel <= cap):
        space.mark_inexact(*(n for n in free.inexact_degrees()
                             if P.trunc.contains(n)))

    # differential: spliced on the words read, the relation terms (to check
    # the ideal) and the quotient words (to induce d), never on the rest
    D = GradedMap(space, space, -1)
    raises = _length_raise(P.d_gen)
    splice = _splicer(free, P.generators,
                      {(g,): v for g, v in P.d_gen.items()}, -1)
    if splice is not None:
        if any(all(s in gen_degree for s in word_syms(t))
               and sum(gen_degree[s] for s in word_syms(t)) != dg - 1
               for g, dg in P.generators for t in P.d_gen.get(g, ())):
            # a term of the wrong degree raises at the free word where the
            # extension over every free word meets it first, if anywhere
            extend_derivation(P.generators, P.d_gen, free, -1)
        for rel, rel_deg in usable_relations:
            if max(len(word_syms(w)) for w in rel) + raises > cap:
                continue   # not checkable in this window
            images = splice(rel, rel_deg)
            image: dict = {}
            for w, c in rel.items():
                vaddmul_into(field, image, c, images.get(w, {}))
            image = reduce(image)
            if image:
                raise InconsistentDifferential(
                    f"d does not preserve the ideal: d(relation) ≡ "
                    f"{space.render(image)}")
        for n, words in normal.items():
            images = splice(words, n)
            for w in words:
                D.set(w, space.project(reduce(images.get(w, {}))))

    one = field.one()

    def pair(a, b):
        # the free space holds no word longer than the cap
        lab = word_label(word_syms(a) + word_syms(b))
        return space.project(reduce({lab: one})) if lab in free else {}

    aug = None
    if P.aug_gen is not None:
        aug = {UNIT_WORD: one}
        for w in space.labels():
            if w == UNIT_WORD:
                continue
            val = one
            for s in word_syms(w):
                val = field.mul(val, P.aug_gen.get(s, field.zero()))
            if not field.is_zero(val):
                aug[w] = val
        for rel in P.relations:
            total = field.zero()
            for w, c in rel.items():
                val = c
                for s in word_syms(w):
                    val = field.mul(val, P.aug_gen.get(s, field.zero()))
                total = field.add(total, val)
            if not field.is_zero(total):
                raise AlgebraError("augmentation does not kill a relation")

    return DgAlgebra(DgSpace(space, D, d_raises=raises), pair,
                     unit={UNIT_WORD: one}, aug=aug,
                     name=P.name or "presented")


# -- constructions on algebras ----------------------------------------------------


def tensor_pair(A: DgAlgebra, B: DgAlgebra, T: GradedSpace):
    """The pair product of A⊗B on the labels of T = A⊗B:
    (a⊗b)(a'⊗b') = (-1)^{|b||a'|} (aa')⊗(bb'), terms outside T dropped."""
    field = T.field

    def pair(x, y):
        _, a, b = x
        _, a2, b2 = y
        sign = field.sign(B.space.degree_of(b) * A.space.degree_of(a2))
        out: dict = {}
        pa = A._pair(a, a2)
        pb = B._pair(b, b2)
        for ra, ca in pa.items():
            for rb, cb in pb.items():
                lab = tensor_label(ra, rb)
                if lab in T:
                    vaddmul_into(field, out,
                                 field.mul(sign, field.mul(ca, cb)),
                                 {lab: field.one()})
        return out

    return pair


def algebra_tensor(A: DgAlgebra, B: DgAlgebra) -> DgAlgebra:
    """(a⊗b)(a'⊗b') = (-1)^{|b||a'|} (aa')⊗(bb'), with the tensor d."""
    dg = dg_tensor(A.dg, B.dg)
    T = dg.space
    field = T.field
    pair = tensor_pair(A, B, T)
    unit = None
    if A.unit is not None and B.unit is not None:
        unit = {}
        for a, ca in A.unit.items():
            for b, cb in B.unit.items():
                unit[tensor_label(a, b)] = field.mul(ca, cb)
    aug = None
    if A.aug is not None and B.aug is not None:
        aug = {}
        for x in T.labels():
            _, a, b = x
            v = field.mul(A.aug.get(a, field.zero()),
                          B.aug.get(b, field.zero()))
            if not field.is_zero(v):
                aug[x] = v
    return DgAlgebra(dg, pair, unit, aug, name=f"{A.name}⊗{B.name}")


def opposite(A: DgAlgebra) -> DgAlgebra:
    """Same carrier, product aᵒbᵒ = (-1)^{|a||b|} (ba)ᵒ."""
    field = A.field
    space = A.space

    def pair(a, b):
        sign = field.sign(space.degree_of(a) * space.degree_of(b))
        return vscale(field, sign, A._pair(b, a))

    return DgAlgebra(A.dg, pair, A.unit, A.aug, name=f"{A.name}ᵒ")


# -- the bimodule of differentials --------------------------------------------------


def omega_label(degree: int, i: int) -> tuple:
    return ("om", degree, i)


class OmegaBimodule:
    """Ω_A realized as ker(m: A⊗A → A), with d(x) = 1⊗x - x⊗1."""

    def __init__(self, A: DgAlgebra):
        if A.unit is None:
            raise AlgebraError("Ω via ker(m) needs a unital algebra")
        self.A = A
        field = A.field
        self.T = tensor_space(A.space, A.space)
        m = A.mult_map()
        space = GradedSpace(field, A.space.window)
        self.embed: dict = {}           # omega label -> vector in T coords
        for n in self.T.degrees():
            cols = {lab: m.apply_label(lab) for lab in self.T.basis(n)}
            ker = kernel_basis(field, cols, self.T.basis(n),
                               A.space.basis(n))
            for i, vec in enumerate(ker):
                lab = omega_label(n, i)
                space.add(lab, n)
                self.embed[lab] = vec
        space.mark_inexact(*(n for n in A.space.inexact_degrees()
                             if space.window.contains(n)))
        self.space = space
        self._member_cache: dict[int, list] = {}

    @property
    def field(self):
        return self.A.field

    def express(self, tvec: dict) -> dict:
        """Rewrite a kernel vector of A⊗A in the Ω basis."""
        if not tvec:
            return {}
        deg = self.T.degree_of_vector(tvec)
        basis = [lab for lab in self.space.basis(deg)]
        vecs = [self.embed[lab] for lab in basis]
        combo = solve_membership(self.field, tvec, vecs, self.T.basis(deg))
        if combo is None:
            raise AlgebraError("vector not in ker(m)")
        return {basis[i]: c for i, c in combo.items()}

    def universal_derivation(self) -> GradedMap:
        """d: A → Ω, x ↦ 1⊗x - x⊗1."""
        A, field = self.A, self.field
        d = GradedMap(A.space, self.space, 0)
        one = field.one()
        for x in A.space.labels():
            tvec: dict = {}
            for u, cu in A.unit.items():
                vaddmul_into(field, tvec, cu, {tensor_label(u, x): one})
                vaddmul_into(field, tvec, field.neg(cu),
                             {tensor_label(x, u): one})
            d.set(x, self.express(self.T.project(tvec)))
        return d

    def act_left(self, a_label, om: dict) -> dict:
        """a·(x⊗y) = (ax)⊗y, expressed back in the Ω basis."""
        field = self.field
        out: dict = {}
        for lab, c in om.items():
            for t, ct in self.embed[lab].items():
                _, x, y = t
                for x2, cx in self.A._pair(a_label, x).items():
                    t2 = tensor_label(x2, y)
                    if t2 in self.T:
                        vaddmul_into(field, out, field.mul(c, field.mul(ct, cx)),
                                     {t2: field.one()})
        return self.express(self.T.project(out))

    def act_right(self, om: dict, a_label) -> dict:
        field = self.field
        out: dict = {}
        for lab, c in om.items():
            for t, ct in self.embed[lab].items():
                _, x, y = t
                for y2, cy in self.A._pair(y, a_label).items():
                    t2 = tensor_label(x, y2)
                    if t2 in self.T:
                        vaddmul_into(field, out, field.mul(c, field.mul(ct, cy)),
                                     {t2: field.one()})
        return self.express(self.T.project(out))

    def factor_derivation(self, D: GradedMap) -> GradedMap:
        """The bimodule map f: Ω → A with f∘d = D, f(Σx⊗y) = Σ ±x·D(y).

        The sign is (-1)^{|D||x|}, the Koszul cost of moving D past x.
        """
        A, field = self.A, self.field
        f = GradedMap(self.space, A.space, D.degree)
        for lab, tvec in self.embed.items():
            img: dict = {}
            for t, c in tvec.items():
                _, x, y = t
                sign = field.sign(D.degree * A.space.degree_of(x))
                vaddmul_into(field, img, field.mul(c, sign),
                             A.product({x: field.one()}, D.apply_label(y)))
            f.set(lab, A.space.project(img))
        return f

    def generation_check(self) -> bool:
        """Ω is spanned by a·d(x)·b over basis triples (uniqueness backstop)."""
        field = self.field
        d = self.universal_derivation()
        for n in self.space.degrees():
            rs = RowSpace(field, self.space.basis(n))
            for x in self.A.space.labels():
                base = d.apply_label(x)
                if not base:
                    continue
                for a in self.A.space.labels():
                    left = self.act_left(a, base)
                    if not left:
                        continue
                    for b in self.A.space.labels():
                        vec = self.act_right(left, b)
                        deg = self.space.degree_of_vector(vec) if vec else None
                        if deg == n:
                            rs.add(vec)
            if rs.rank != self.space.dim(n):
                return False
        return True


def omega_bimodule(A: DgAlgebra) -> OmegaBimodule:
    return OmegaBimodule(A)
