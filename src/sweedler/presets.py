"""Built-in presentation presets, so every CLI check runs without files.

Names: mc, dual-numbers, diagonal-coalgebra:<n>, primitive-coalgebra:<degree>,
matrix-coalgebra:<n>, free-algebra:<name=degree,...>.
"""

from __future__ import annotations

from .scalars import ParseError
from .graded import Truncation
from .presentation import PresentationFile


def _mc() -> PresentationFile:
    pf = PresentationFile(kind="algebra", trunc=Truncation(-10, 0, 10))
    pf.generators = [("u", -1)]
    pf.d_table = {"u": [("-1/1", "u.u")]}
    pf.aug = {"u": "0/1"}
    return pf


def _dual_numbers() -> PresentationFile:
    pf = PresentationFile(kind="algebra", trunc=Truncation(-6, 6, 6))
    pf.generators = [("eps", 0)]
    pf.relations = [[("1/1", "eps.eps")]]
    pf.aug = {"eps": "0/1"}
    return pf


def _diagonal(n: int) -> PresentationFile:
    pf = PresentationFile(kind="coalgebra", trunc=Truncation(-6, 6, 6))
    for i in range(1, n + 1):
        name = f"e{i}"
        pf.generators.append((name, 0))
        pf.comult[name] = [("1/1", f"{name},{name}")]
        pf.counit[name] = "1/1"
    pf.atom = "e1"
    return pf


def _primitive(degree: int) -> PresentationFile:
    pf = PresentationFile(kind="coalgebra", trunc=Truncation(-6, 6, 6))
    pf.generators = [("e", 0), ("delta", degree)]
    pf.comult = {"e": [("1/1", "e,e")],
                 "delta": [("1/1", "delta,e"), ("1/1", "e,delta")]}
    pf.counit = {"e": "1/1"}
    pf.atom = "e"
    return pf


def matrix_label(i: int, j: int, n: int) -> str:
    """The name of e_ij in n×n matrices: e{i}{j} while every index is one
    digit, e{i}_{j} from n = 10 on, so e_1,11 and e_11,1 stay apart."""
    return f"e{i}{j}" if n < 10 else f"e{i}_{j}"


def _matrix(n: int) -> PresentationFile:
    pf = PresentationFile(kind="coalgebra", trunc=Truncation(-6, 6, 6))
    e = {(i, j): matrix_label(i, j, n) for i in range(1, n + 1)
         for j in range(1, n + 1)}
    for (i, j), name in e.items():
        pf.generators.append((name, 0))
        pf.comult[name] = [("1/1", f"{e[i, k]},{e[k, j]}")
                           for k in range(1, n + 1)]
        pf.counit[name] = "1/1" if i == j else "0/1"
    if n == 1:
        pf.atom = e[1, 1]
    return pf


def _free_algebra(spec: str) -> PresentationFile:
    pf = PresentationFile(kind="algebra", trunc=Truncation(-6, 6, 6))
    for item in spec.split(","):
        if "=" not in item:
            raise ParseError(f"free-algebra wants name=degree, got {item!r}")
        name, degree = item.split("=", 1)
        name = name.strip()
        pf.declare(name, _integer(f"free-algebra degree of {name!r}", degree))
    pf.aug = {name: "0/1" for name, _ in pf.generators}
    return pf


def _integer(what: str, text: str, least: int | None = None) -> int:
    """text as an int, or a ParseError naming the parameter."""
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}") from None
    if least is not None and value < least:
        raise ParseError(f"{what} must be ≥ {least}, got {value}")
    return value


def load_preset(name: str) -> PresentationFile:
    base, _, param = name.partition(":")
    if base == "mc":
        return _mc()
    if base == "dual-numbers":
        return _dual_numbers()
    if base == "diagonal-coalgebra":
        return _diagonal(_integer(f"{base} n", param or "2", least=1))
    if base == "primitive-coalgebra":
        return _primitive(_integer(f"{base} degree", param or "1"))
    if base == "matrix-coalgebra":
        return _matrix(_integer(f"{base} n", param or "2", least=1))
    if base == "free-algebra":
        if not param:
            raise ParseError("free-algebra needs generators, e.g. "
                             "free-algebra:x=1,y=-1")
        return _free_algebra(param)
    raise ParseError(f"unknown preset {name!r}")


PRESET_NAMES = ["mc", "dual-numbers", "diagonal-coalgebra:<n>",
                "primitive-coalgebra:<degree>", "matrix-coalgebra:<n>",
                "free-algebra:<name=degree,...>"]
