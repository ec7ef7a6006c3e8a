import re

import pytest

from sweedler.scalars import QQ, Field, ParseError, DivisionByZero
from sweedler.graded import Truncation
from sweedler.presentation import (parse_text, parse_file, UnknownName,
                                   DegreeMismatch, HEADER)
from sweedler.presets import load_preset
from sweedler.algebras import word_label


MC_TEXT = """sweedler-presentation v1
field Q
kind algebra
trunc -10:0:10
gen u -1
d u -1/1 u.u
aug u 0/1
"""

COALG_TEXT = """sweedler-presentation v1
field Q
kind coalgebra
trunc -6:6:6
basis e 0
basis delta 1
delta delta 1/1 delta,e 1/1 e,delta
delta e 1/1 e,e
counit e 1/1
atom e
d delta 0
"""


def test_parse_and_build_mc():
    pf = parse_text(MC_TEXT)
    A = pf.build()
    assert A.space.dims() == {-n: 1 for n in range(11)}
    assert A.verify() == []


def test_parse_and_build_coalgebra():
    pf = parse_text(COALG_TEXT)
    C = pf.build()
    assert C.verify() == []
    assert C.atom == "e"


def test_roundtrip_serialize_parse():
    for text in (MC_TEXT, COALG_TEXT):
        pf = parse_text(text)
        again = parse_text(pf.serialize())
        assert again.serialize() == pf.serialize()
        assert again.generators == pf.generators
        assert again.kind == pf.kind


def test_preset_roundtrip():
    for name in ["mc", "dual-numbers", "diagonal-coalgebra:3",
                 "primitive-coalgebra:2", "matrix-coalgebra:2",
                 "free-algebra:x=1,y=-2"]:
        pf = load_preset(name)
        again = parse_text(pf.serialize())
        assert again.serialize() == pf.serialize()
        obj = again.build()
        issues = obj.verify()
        assert issues == []


@pytest.mark.parametrize("name", ["x.y", "x,y", "", "x y", "x#"])
def test_generator_names_have_one_rule(name):
    message = f"bad generator name {name!r}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_preset("dual-numbers").declare(name, 1)
    if "," not in name:     # a preset item ends at ","
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_preset(f"free-algebra:{name}=1")
    if name and not any(c.isspace() or c == "#" for c in name):
        # a name a file line can carry as one token
        text = MC_TEXT.replace("gen u -1", f"gen u -1\ngen {name} 1")
        with pytest.raises(ParseError, match=f"^line 6: {re.escape(message)}$"):
            parse_text(text)


def test_free_algebra_preset_reads_back():
    with pytest.raises(ParseError, match="^duplicate name 'x'$"):
        load_preset("free-algebra:x=1,x=2")
    pf = load_preset("free-algebra: x=1, y_2=-2")
    again = parse_text(pf.serialize())
    assert again.generators == pf.generators == [("x", 1), ("y_2", -2)]


def test_missing_header():
    with pytest.raises(ParseError):
        parse_text("field Q\n")


def test_bad_coefficient_is_parse_error():
    bad = MC_TEXT.replace("-1/1 u.u", "1/0 u.u")
    with pytest.raises(ParseError):
        parse_text(bad)


def test_unknown_generator_in_relation():
    bad = MC_TEXT.replace("d u -1/1 u.u", "d u -1/1 v.v")
    pf = parse_text(bad)
    with pytest.raises(UnknownName):
        pf.build()


MAP_TEXT = """sweedler-presentation v1
field Q
kind map
trunc -6:6:6
degree -1
source c.swp
target a.swp
entry delta 1/1 u
"""


def write_map_files(tmp_path, entry="1/1 u"):
    # δ of degree 0 so that a degree -1 map can hit u
    (tmp_path / "c.swp").write_text(COALG_TEXT.replace("basis delta 1",
                                                       "basis delta 0"))
    (tmp_path / "a.swp").write_text(MC_TEXT.replace("-10:0:10", "-6:6:6"))
    path = tmp_path / "m.swp"
    path.write_text(MAP_TEXT.replace("entry delta 1/1 u",
                                     f"entry delta {entry}"))
    return str(path)


@pytest.mark.parametrize("text, old, new, message", [
    (MC_TEXT, "d u -1/1 u.u", "d u -1/1 u.v", "unknown generator 'v'"),
    (MC_TEXT, "aug u 0/1", "rel 1/1 v.u 1/1 u.u", "unknown generator 'v'"),
    (COALG_TEXT, "1/1 e,delta", "1/1 e,z", "unknown basis element 'z'"),
    (COALG_TEXT, "d delta 0", "d delta 1/1 z", "unknown basis element 'z'"),
])
def test_term_reader_messages(text, old, new, message):
    pf = parse_text(text.replace(old, new))
    with pytest.raises(UnknownName, match=f"^{re.escape(message)}$"):
        pf.build()
    # the coefficient is read before the word: 1/5 fails first over F_5
    pf = parse_text(text.replace(old, new.replace("1/1 ", "1/5 ")))
    with pytest.raises(DivisionByZero):
        pf.build(Field(5))


@pytest.mark.parametrize("entry", ["w", "u.u.u.u.u.u.u"])
def test_map_entry_outside_the_window(tmp_path, entry):
    pf = parse_file(write_map_files(tmp_path, f"1/1 {entry}"))
    message = f"target element {entry!r} not in the window"
    with pytest.raises(UnknownName, match=f"^{re.escape(message)}$"):
        pf.build()
    pf = parse_file(write_map_files(tmp_path, f"1/5 {entry}"))
    with pytest.raises(DivisionByZero):
        pf.build(Field(5))


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_text(HEADER + "\nfrobnicate yes\n")


def test_map_presentation_roundtrip(tmp_path):
    path = write_map_files(tmp_path)
    pf = parse_file(path)
    alpha, C, A = pf.build()
    assert alpha.apply_label("delta") == {word_label(("u",)): QQ.one()}
    again = parse_text(pf.serialize(), path=str(path))
    assert again.build()[0].apply_label("delta") == \
        alpha.apply_label("delta")


def test_map_degree_mismatch(tmp_path):
    (tmp_path / "c.swp").write_text(COALG_TEXT)
    (tmp_path / "a.swp").write_text(MC_TEXT.replace("-10:0:10", "-6:6:6"))
    map_text = """sweedler-presentation v1
field Q
kind map
degree -1
source c.swp
target a.swp
entry delta 1/1 u
"""
    path = tmp_path / "m.swp"
    path.write_text(map_text)
    with pytest.raises(DegreeMismatch):
        parse_file(str(path)).build()


def test_field_override_on_build():
    pf = load_preset("dual-numbers")
    A = pf.build(Field(5), Truncation(-2, 2, 4))
    assert A.field.p == 5
    assert A.verify() == []
