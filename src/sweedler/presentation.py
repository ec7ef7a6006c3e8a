"""Line-oriented presentation format for algebras, coalgebras and maps.

The format is diff-friendly structured text with explicit section lines:

    sweedler-presentation v1
    field Q                       # or Fp:<p>
    kind algebra                  # algebra | coalgebra | map
    trunc -6:6:6
    gen eps 0                     # generator <name> <degree>
    rel 1/1 eps.eps               # Σ coeff word; words are .-joined, 1 = unit
    d eps 0                       # d <gen> = term list (0 for zero)
    aug eps 0/1                   # augmentation value on a generator

    basis delta 1                 # coalgebra: basis <name> <degree>
    delta delta 1/1 delta,e ...   # Δ <name> = Σ coeff pair (x,y)
    counit e 1/1
    atom e

    degree -1                     # map: degree + source/target files
    source coalg.swp              # a coalgebra
    target alg.swp                # an algebra
    entry delta 1/1 u             # image of a source element, term list

Coefficients are "p/q" strings over Q and integer residues over F_p.
Names must avoid whitespace and the separators "." and ",".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field

from .scalars import Field, ParseError, QQ
from .graded import (GradedSpace, GradedMap, GradedError, Truncation,
                     tensor_label, tensor_space)
from .complexes import DgSpace
from .algebras import (DgAlgebra, PresentedAlgebra, normal_forms,
                       word_label)
from .coalgebras import DgCoalgebra
from .linalg import vaddmul_into

HEADER = "sweedler-presentation v1"


class UnknownName(ParseError):
    pass


class DegreeMismatch(ParseError):
    pass


@dataclass
class PresentationFile:
    field: Field = QQ
    kind: str = "algebra"
    trunc: Truncation = Truncation(-6, 6, 6)
    generators: list = dc_field(default_factory=list)   # (name, degree)
    relations: list = dc_field(default_factory=list)    # term lists
    d_table: dict = dc_field(default_factory=dict)      # name -> term list
    aug: dict = dc_field(default_factory=dict)          # name -> scalar
    comult: dict = dc_field(default_factory=dict)       # name -> pair terms
    counit: dict = dc_field(default_factory=dict)       # name -> scalar
    atom: str | None = None
    map_degree: int = 0
    source_path: str | None = None
    target_path: str | None = None
    entries: dict = dc_field(default_factory=dict)      # name -> term list
    path: str | None = None

    # -- building ------------------------------------------------------------
    def names(self) -> set[str]:
        return {g for g, _ in self.generators}

    def declare(self, name: str, degree: int) -> None:
        """Add a generator or basis element; so that `serialize` reads back,
        its name is new, non-empty and free of whitespace, "." "," and "#"."""
        if not name or any(c.isspace() or c in ".,#" for c in name):
            raise ParseError(f"bad generator name {name!r}")
        if name in self.names():
            raise ParseError(f"duplicate name {name!r}")
        self.generators.append((name, degree))

    def build(self, field: Field | None = None,
              trunc: Truncation | None = None):
        field = field or self.field
        trunc = trunc or self.trunc
        noun = "generator" if self.kind == "algebra" else "basis element"
        for directive, table in (("aug", self.aug), ("delta", self.comult),
                                 ("counit", self.counit)):
            for name in table:
                if name not in self.names():
                    raise UnknownName(f"{directive} of unknown {noun} {name!r}")
        if self.kind == "algebra":
            return self._build_algebra(field, trunc)
        if self.kind == "coalgebra":
            return self._build_coalgebra(field, trunc)
        if self.kind == "map":
            return self._build_map(field, trunc)
        raise ParseError(f"unknown kind {self.kind!r}")

    def _build_algebra(self, field: Field, trunc: Truncation) -> DgAlgebra:
        names = self.names()

        def word(text):
            syms = () if text == "1" else tuple(text.split("."))
            for s in syms:
                if s not in names:
                    raise UnknownName(f"unknown generator {s!r}")
            return word_label(syms)

        relations = [_read_terms(field, r, word) for r in self.relations]
        d_gen = {g: _read_terms(field, t, word)
                 for g, t in self.d_table.items()}
        aug_gen = None
        if self.aug:
            aug_gen = {g: field.parse(v) for g, v in self.aug.items()}
        P = PresentedAlgebra(field, list(self.generators), relations, d_gen,
                             trunc, aug_gen=aug_gen,
                             name=self.path or "presented")
        return normal_forms(P)

    def _build_coalgebra(self, field: Field, trunc: Truncation) -> DgCoalgebra:
        space = GradedSpace(field, trunc)
        for name, degree in self.generators:
            if not space.add(name, degree):
                raise GradedError(
                    f"basis element {name} of degree {degree} lies outside "
                    f"the window {trunc}")
        names = self.names()
        TT = tensor_space(space, space)

        def element(text):
            if text not in names:
                raise UnknownName(f"unknown basis element {text!r}")
            return text

        def pair(text):
            xy = text.split(",")
            if len(xy) != 2:
                raise ParseError(f"bad pair {text!r}, want x,y")
            lab = tensor_label(*map(element, xy))
            return lab if lab in TT else None

        comult = GradedMap(space, TT, 0)
        for name, _ in self.generators:
            comult.set(name, _read_terms(field, self.comult.get(name, []),
                                         pair))
        counit = {n: field.parse(v) for n, v in self.counit.items()} or None
        d = GradedMap(space, space, -1)
        for name, terms in self.d_table.items():
            d.set(name, _read_terms(field, terms, element))
        if self.atom is not None and self.atom not in names:
            raise UnknownName(f"atom {self.atom!r} not declared")
        return DgCoalgebra(DgSpace(space, d), comult, counit, self.atom,
                           name=self.path or "coalgebra")

    def _build_map(self, field: Field, trunc: Truncation):
        if self.source_path is None or self.target_path is None:
            raise ParseError("map presentation needs source and target")
        base = os.path.dirname(self.path) if self.path else "."
        src_file = parse_file(os.path.join(base, self.source_path))
        tgt_file = parse_file(os.path.join(base, self.target_path))
        if (src_file.kind, tgt_file.kind) != ("coalgebra", "algebra"):
            raise ParseError("a map goes from a coalgebra to an algebra, "
                             f"not from {src_file.kind} to {tgt_file.kind}")
        source = src_file.build(field, trunc)
        target = tgt_file.build(field, trunc)
        tgt_space = target.space

        def word(text):
            lab = word_label(() if text == "1" else tuple(text.split(".")))
            if lab not in tgt_space:
                raise UnknownName(f"target element {text!r} not in the window")
            return lab

        f = GradedMap(source.space, tgt_space, self.map_degree)
        for name, terms in self.entries.items():
            if name not in src_file.names():
                raise UnknownName(f"unknown source element {name!r}")
            vec = _read_terms(field, terms, word)
            try:
                f.set(name, vec)
            except Exception as exc:
                raise DegreeMismatch(str(exc)) from None
        return f, source, target

    # -- serialization ----------------------------------------------------------
    def serialize(self) -> str:
        lines = [HEADER, f"field {self.field.name}", f"kind {self.kind}",
                 f"trunc {self.trunc}"]
        key = "gen" if self.kind == "algebra" else "basis"
        if self.kind == "map":
            lines.append(f"degree {self.map_degree}")
            lines.append(f"source {self.source_path}")
            lines.append(f"target {self.target_path}")
            for name in sorted(self.entries):
                lines.append("entry " + name + " " +
                             _terms_text(self.entries[name]))
        else:
            for name, degree in self.generators:
                lines.append(f"{key} {name} {degree}")
        if self.kind == "algebra":
            for rel in self.relations:
                lines.append("rel " + _terms_text(rel))
            for name, terms in sorted(self.d_table.items()):
                lines.append(f"d {name} " + _terms_text(terms))
            for name, v in sorted(self.aug.items()):
                lines.append(f"aug {name} {v}")
        if self.kind == "coalgebra":
            for name, terms in sorted(self.comult.items()):
                lines.append(f"delta {name} " + _terms_text(terms))
            for name, v in sorted(self.counit.items()):
                lines.append(f"counit {name} {v}")
            if self.atom is not None:
                lines.append(f"atom {self.atom}")
            for name, terms in sorted(self.d_table.items()):
                lines.append(f"d {name} " + _terms_text(terms))
        return "\n".join(lines) + "\n"


def _read_terms(field: Field, terms: list, label) -> dict:
    """Σ coeff·label(word) over a term list, each coefficient parsed before
    its word is read.  `label` gives the word's basis label, or None for a
    term to drop, and raises UnknownName for a word it does not know."""
    vec: dict = {}
    for coeff_text, word in terms:
        coeff = field.parse(coeff_text)
        lab = label(word)
        if lab is not None:
            vaddmul_into(field, vec, coeff, {lab: field.one()})
    return vec


def _terms_text(terms: list) -> str:
    if not terms:
        return "0"
    return " ".join(f"{c} {w}" for c, w in terms)


def _parse_terms(tokens: list[str], line_no: int) -> list:
    if tokens == ["0"]:
        return []
    if len(tokens) % 2:
        raise ParseError(f"line {line_no}: term list needs coeff/word pairs")
    return [(tokens[i], tokens[i + 1]) for i in range(0, len(tokens), 2)]


def parse_text(text: str, path: str | None = None) -> PresentationFile:
    pf = PresentationFile(path=path)
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(f"missing header line {HEADER!r}")
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        try:
            if head == "field":
                pf.field = Field.parse_name(rest[0])
            elif head == "kind":
                if rest[0] not in ("algebra", "coalgebra", "map"):
                    raise ParseError(f"unknown kind {rest[0]!r}")
                pf.kind = rest[0]
            elif head == "trunc":
                pf.trunc = Truncation.parse(rest[0])
            elif head in ("gen", "basis"):
                pf.declare(rest[0], int(rest[1]))
            elif head == "rel":
                pf.relations.append(_parse_terms(rest, no))
            elif head == "d":
                pf.d_table[rest[0]] = _parse_terms(rest[1:], no)
            elif head == "aug":
                pf.aug[rest[0]] = rest[1]
            elif head == "delta":
                pf.comult[rest[0]] = _parse_terms(rest[1:], no)
            elif head == "counit":
                pf.counit[rest[0]] = rest[1]
            elif head == "atom":
                pf.atom = rest[0]
            elif head == "degree":
                pf.map_degree = int(rest[0])
            elif head == "source":
                pf.source_path = rest[0]
            elif head == "target":
                pf.target_path = rest[0]
            elif head == "entry":
                pf.entries[rest[0]] = _parse_terms(rest[1:], no)
            else:
                raise ParseError(f"unknown directive {head!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"line {no}: {exc}") from None
        except ParseError as exc:
            raise ParseError(f"line {no}: {exc}") from None
    # parse all scalar literals now so bad coefficients fail at parse time
    probe = pf.field
    for terms in ([*pf.relations, *pf.d_table.values(),
                   *pf.comult.values(), *pf.entries.values()]):
        for coeff, _ in terms:
            probe.parse(coeff)
    for v in [*pf.aug.values(), *pf.counit.values()]:
        probe.parse(v)
    return pf


def parse_file(path: str) -> PresentationFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read(), path=path)
