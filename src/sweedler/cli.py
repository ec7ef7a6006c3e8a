"""Command-line harness: build objects from presets or files, verify, report.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from .scalars import Field, ParseError, ScalarError
from .graded import Truncation, label_str, GradedError, EnumerationTooLarge
from .complexes import check_square_zero, homology
from .algebras import DgAlgebra, AlgebraError
from .coalgebras import DgCoalgebra, CoalgebraError
from .sweedler_ops import (convolution_algebra, sweedler_product,
                           verify_measuring, sweedler_dual)
from .barcobar import (mc_algebra, verify_mc, bar, cobar, MINUS, PLUS,
                       verify_twisting_cochain, adjunction_transforms,
                       anticommutator_issues, sign_convention_report,
                       enumerate_twisting_cochains, universal_bar_cochain,
                       universal_cobar_cochain)
from .presentation import parse_file, PresentationFile
from .presets import load_preset, PRESET_NAMES
from .reports import Report


class UsageError(Exception):
    pass


def _load_pf(source: str) -> PresentationFile:
    if source.startswith("preset:"):
        return load_preset(source[len("preset:"):])
    return parse_file(source)


NOUNS = {"algebra": "an algebra", "coalgebra": "a coalgebra", "map": "a map"}


def _resolve(args, role: str | None = None,
             kinds=("algebra", "coalgebra")) -> PresentationFile:
    """The presentation of a role's input, of the role's kind, or without a
    role the --preset/--file one, of one of `kinds`."""
    if role is not None:
        if getattr(args, role, None) is None:
            raise UsageError(f"missing --{role}")
        pf, kinds = _load_pf(getattr(args, role)), (role,)
    elif getattr(args, "preset", None):
        pf = load_preset(args.preset)
    elif getattr(args, "file", None):
        pf = parse_file(args.file)
    else:
        raise UsageError("need --preset NAME or --file PATH")
    if pf.kind not in kinds:
        raise UsageError(f"{args.command if role is None else '--' + role} "
                         f"needs {' or '.join(map(NOUNS.get, kinds))} "
                         "presentation")
    return pf


def _field_trunc(args, pf: PresentationFile):
    field = Field.parse_name(args.field) if args.field else pf.field
    trunc = Truncation.parse(args.trunc) if args.trunc else pf.trunc
    return field, trunc


def _build(args, *roles, kinds=("algebra", "coalgebra")):
    """(field, trunc, *objects): resolve every input (--preset/--file, of
    one of `kinds`, when no role is named), take field and window from the
    first, build each."""
    pfs = [_resolve(args, role, kinds) for role in roles or (None,)]
    field, trunc = _field_trunc(args, pfs[0])
    return (field, trunc, *(pf.build(field, trunc) for pf in pfs))


def _strict_window_check(report: Report, args, space) -> None:
    if args.strict_window:
        bad = sorted(space.inexact_degrees())
        report.check("strict window: no truncation-affected degrees",
                     not bad, f"affected degrees {bad}" if bad else "")


def _dims_table(report: Report, title: str, space) -> None:
    rows = [[n, space.dim(n), "exact" if space.is_exact(n) else "truncated"]
            for n in space.degrees()]
    report.table(title, ["degree", "dim", "trust"], rows)


def _square_zero_check(report: Report, name: str, dg) -> bool:
    """Add the d² check to the report; True when d² = 0."""
    square = check_square_zero(dg)
    report.check_issues(name, [] if square.passed
                        else [square.describe(dg.space)])
    return square.passed


def _homology_table(report: Report, dg) -> None:
    """Homology table of a complex whose d² = 0 is already checked."""
    rows = [[n, e.dim, "trusted" if e.trusted else "unreliable"]
            for n, e in sorted(homology(dg, check=False).items())]
    report.table("homology", ["degree", "dim", "trust"], rows)


def _emit(report: Report, args) -> int:
    text = report.render()
    sys.stdout.write(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if report.passed else 1


def _verify_object(obj, report: Report) -> None:
    if isinstance(obj, DgAlgebra):
        report.check_issues("algebra axioms (assoc/unit/Leibniz/d²)",
                            obj.verify())
    elif isinstance(obj, DgCoalgebra):
        report.check_issues("coalgebra axioms (coassoc/counit/co-Leibniz/d²)",
                            obj.verify())
    else:
        report.check("object built", True)


# -- subcommands -------------------------------------------------------------------


def cmd_verify(args) -> int:
    field, trunc, obj = _build(args, kinds=tuple(NOUNS))
    report = Report("verify", field.name, str(trunc))
    _verify_object(obj, report)
    space = obj.space if hasattr(obj, "space") else None
    if space is not None:
        _strict_window_check(report, args, space)
        _dims_table(report, "dimensions", space)
    return _emit(report, args)


def cmd_dims(args) -> int:
    field, trunc, obj = _build(args)
    report = Report("dims", field.name, str(trunc))
    _dims_table(report, "dimensions", obj.space)
    if args.basis:
        rows = []
        for lab in obj.space.labels():
            w = obj.space.weight_of(lab)
            rows.append([label_str(lab), obj.space.degree_of(lab),
                         "" if w is None else w])
        report.table("basis", ["element", "degree", "weight"], rows)
    return _emit(report, args)


def cmd_homology(args) -> int:
    field, trunc, obj = _build(args)
    report = Report("homology", field.name, str(trunc))
    if _square_zero_check(report, "d² = 0", obj.dg):
        _homology_table(report, obj.dg)
    return _emit(report, args)


def cmd_mc(args) -> int:
    field = Field.parse_name(args.field) if args.field else \
        Field.parse_name("Q")
    trunc = Truncation.parse(args.trunc) if args.trunc else \
        Truncation(-10, 0, 10)
    mc = mc_algebra(field, trunc)
    report = Report("mc", field.name, str(trunc))
    report.check_issues("mc invariants (du+u²=0, parity, Hopf, antipode)",
                        verify_mc(mc))
    _dims_table(report, "dimensions", mc.space)
    if args.homology:
        _homology_table(report, mc.algebra.dg)
    return _emit(report, args)


def _bar_cobar_report(args, name: str, kind: str, construct,
                      convention: str) -> int:
    """d², d^int/d^ext, dimensions and homology of bar or cobar."""
    field, trunc, obj = _build(args, kinds=(kind,))
    convention = args.convention or convention
    c = construct(obj, trunc, convention)
    dg = (c.coalgebra if kind == "algebra" else c.algebra).dg
    report = Report(name, field.name, str(trunc), convention)
    square_zero = _square_zero_check(report, "d² = 0 on the checkable window",
                                     dg)
    anti = anticommutator_issues(c.d_int, c.d_ext, dg.space)
    report.check("d^int/d^ext anticommute", not anti,
                 label_str(anti[0]) if anti else "")
    _strict_window_check(report, args, dg.space)
    _dims_table(report, f"{name} dimensions", dg.space)
    if args.homology and square_zero:
        _homology_table(report, dg)
    return _emit(report, args)


def cmd_bar(args) -> int:
    return _bar_cobar_report(args, "bar", "algebra", bar, MINUS)


def cmd_cobar(args) -> int:
    return _bar_cobar_report(args, "cobar", "coalgebra", cobar, PLUS)


def cmd_convolve(args) -> int:
    field, trunc, C, A = _build(args, "coalgebra", "algebra")
    conv = convolution_algebra(C, A)
    report = Report("convolve", field.name, str(trunc))
    report.check_issues("convolution algebra axioms", conv.verify())
    _dims_table(report, "[C,A] dimensions", conv.space)
    return _emit(report, args)


def cmd_sweedler_product(args) -> int:
    field, trunc, C, A = _build(args, "coalgebra", "algebra")
    sp = sweedler_product(C, A, trunc, pointed=args.pointed)
    report = Report("sweedler-product", field.name, str(trunc))
    rep = verify_measuring(sp.measuring, C, A, sp.algebra,
                           pointed=args.pointed)
    report.check(f"universal measuring certificate "
                 f"({rep.checked} conditions)", rep.passed,
                 rep.first_failure())
    report.check_issues("C▷A algebra axioms",
                        sp.algebra.verify(check_d_squared=False))
    _dims_table(report, "C▷A dimensions", sp.algebra.space)
    return _emit(report, args)


def cmd_sweedler_dual(args) -> int:
    field, trunc, A = _build(args, "algebra")
    D = sweedler_dual(A)
    report = Report("sweedler-dual", field.name, str(trunc))
    report.check_issues("A∨ coalgebra axioms", D.verify())
    rows = []
    for lab in D.space.labels():
        rows.append([label_str(lab), D.space.degree_of(lab),
                     D.TT.render(D.comult.apply_label(lab))])
    report.table("coproduct", ["element", "degree", "Δ"], rows)
    return _emit(report, args)


def cmd_twist(args) -> int:
    if args.action == "verify":
        field, trunc, (alpha, C, A) = _build(args, "map")
        report = Report("twist verify", field.name, str(trunc),
                        f"{MINUS}/{PLUS}")
        rep = verify_twisting_cochain(alpha, C, A, pointed=args.pointed)
        report.check(f"Maurer-Cartan equation ({rep.checked} basis elements)",
                     rep.passed,
                     rep.first_failure())
        return _emit(report, args)
    if args.action == "enumerate":
        field, trunc, C, A = _build(args, "coalgebra", "algebra")
        if field.p is None:
            raise UsageError("twist enumerate needs --field Fp:<p>")
        found = enumerate_twisting_cochains(C, A, pointed=args.pointed)
        report = Report("twist enumerate", field.name, str(trunc))
        report.check("enumeration completed", True, f"{len(found)} cochains")
        rows = []
        for i, alpha in enumerate(found):
            desc = "; ".join(
                f"{label_str(c)} ↦ {A.space.render(alpha.apply_label(c))}"
                for c in C.space.labels() if alpha.apply_label(c)) or "0"
            rows.append([i, desc])
        report.table("twisting cochains", ["#", "α"], rows)
        return _emit(report, args)
    raise UsageError("twist needs an action: verify | enumerate")


def cmd_adjoint(args) -> int:
    field, trunc, (alpha, C, A) = _build(args, "map")
    # --convention selects the coherent pair: "minus" is the default
    # (bar d^int - d^ext with cobar d^int + d^ext); "plus" the π-conjugate
    pair = args.convention or MINUS
    bar_sign = MINUS if pair == MINUS else PLUS
    cobar_sign = PLUS if pair == MINUS else MINUS
    report = Report("adjoint", field.name, str(trunc),
                    f"bar:{bar_sign} cobar:{cobar_sign}")
    rep = verify_twisting_cochain(alpha, C, A, pointed=True)
    report.check("α is a pointed twisting cochain", rep.passed,
                 rep.first_failure())
    if rep.passed:
        b = bar(A, trunc, bar_sign)
        cb = cobar(C, trunc, cobar_sign)
        res = adjunction_transforms(alpha, C, A, b, cb)
        report.check_issues(
            "adjunction transforms (dg maps + extract roundtrips)",
            res.issues)
    return _emit(report, args)


def cmd_signs(args) -> int:
    if args.action != "compare":
        raise UsageError("signs needs the action: compare")
    field, trunc, obj = _build(args)
    report = Report("signs compare", field.name, str(trunc))
    if isinstance(obj, DgAlgebra):
        b = bar(obj, trunc, MINUS)
        wit = sign_convention_report(b.d_int, b.d_ext, b.coalgebra.dg)
        report.check("π conjugates bar conventions (π⁻¹(dint+dext)π = dint-dext)",
                     not wit, label_str(wit[0]) if wit else "")
        beta = universal_bar_cochain(b)
        rep = verify_twisting_cochain(beta, b.coalgebra, obj, pointed=True)
        report.check("β is a pointed twisting cochain (minus convention)",
                     rep.passed, rep.first_failure())
        b_plus = bar(obj, trunc, PLUS)
        rep_neg = verify_twisting_cochain(beta.neg(), b_plus.coalgebra, obj,
                                          pointed=True)
        report.check("-β passes under the plus convention", rep_neg.passed,
                     rep_neg.first_failure())
    else:
        c = cobar(obj, trunc, PLUS)
        wit = sign_convention_report(c.d_int, c.d_ext, c.algebra.dg)
        report.check("π conjugates cobar conventions", not wit,
                     label_str(wit[0]) if wit else "")
        omega = universal_cobar_cochain(c)
        rep = verify_twisting_cochain(omega, obj, c.algebra, pointed=True)
        report.check("ω is a pointed twisting cochain (plus convention)",
                     rep.passed, rep.first_failure())
    return _emit(report, args)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweedler",
        description="Exact kernel for dg-(co)algebras: Sweedler operations "
                    "and bar/cobar constructions inside truncation windows.",
        epilog="presets: " + ", ".join(PRESET_NAMES))
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset=True):
        p.add_argument("--field", help="Q or Fp:<p>")
        p.add_argument("--trunc", help="dmin:dmax:L")
        p.add_argument("--out", help="also write the report to this path")
        if preset:
            p.add_argument("--preset")
            p.add_argument("--file")

    def strict_window(p):
        p.add_argument("--strict-window", action="store_true",
                       help="FAIL when a degree is truncation-affected")

    p = sub.add_parser("verify", help="build an object and run its axioms")
    common(p)
    strict_window(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dims", help="dimension table")
    common(p)
    p.add_argument("--basis", action="store_true",
                   help="also list every basis element with its degree")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("homology", help="exact homology table")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("mc", help="the Maurer-Cartan algebra")
    common(p, preset=False)
    p.add_argument("--homology", action="store_true")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("bar", help="bar construction of an algebra")
    common(p)
    strict_window(p)
    p.add_argument("--convention", choices=[MINUS, PLUS])
    p.add_argument("--homology", action="store_true")
    p.set_defaults(func=cmd_bar)

    p = sub.add_parser("cobar", help="cobar construction of a coalgebra")
    common(p)
    strict_window(p)
    p.add_argument("--convention", choices=[MINUS, PLUS])
    p.add_argument("--homology", action="store_true")
    p.set_defaults(func=cmd_cobar)

    p = sub.add_parser("convolve", help="convolution algebra [C,A]")
    common(p, preset=False)
    p.add_argument("--coalgebra", required=True,
                   help="preset:NAME or a presentation file")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("sweedler-product", help="C▷A via the relation engine")
    common(p, preset=False)
    p.add_argument("--coalgebra", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--pointed", action="store_true")
    p.set_defaults(func=cmd_sweedler_product)

    p = sub.add_parser("sweedler-dual", help="A∨ = A* in the finite regime")
    common(p, preset=False)
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_sweedler_dual)

    p = sub.add_parser("twist", help="twisting cochains")
    p.add_argument("action", choices=["verify", "enumerate"])
    common(p, preset=False)
    p.add_argument("--map", help="map presentation file (for verify)")
    p.add_argument("--coalgebra")
    p.add_argument("--algebra")
    p.add_argument("--pointed", action="store_true")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("adjoint", help="bar-cobar adjunction transforms")
    common(p, preset=False)
    p.add_argument("--convention", choices=[MINUS, PLUS],
                   help="minus = default pair (bar -, cobar +); plus = the "
                        "π-conjugate pair")
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("signs", help="compare sign conventions via π")
    p.add_argument("action", choices=["compare"])
    common(p)
    p.set_defaults(func=cmd_signs)

    return parser


VALUE_FLAGS = {"--trunc", "--field", "--out", "--preset", "--file",
               "--coalgebra", "--algebra", "--map", "--convention"}


def _normalize(argv):
    """Join flag/value pairs so values like "-1:6:6" survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ParseError, ScalarError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (GradedError, AlgebraError, CoalgebraError,
            EnumerationTooLarge) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        # the frames that held the allocation have unwound, which frees
        # room for this line
        sys.stderr.write("error: out of memory; try a smaller --trunc "
                         "window\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
