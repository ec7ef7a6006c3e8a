import io
import contextlib
import os
import pathlib
import subprocess
import sys

import pytest

from sweedler.cli import main


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_mc_homology_command():
    code, out = run_cli(["mc", "--homology", "--trunc", "-8:0:8"])
    assert code == 0
    assert "PASS mc invariants" in out
    assert "result: PASS" in out
    # H = F in degree 0, zero elsewhere on trusted degrees
    for line in out.splitlines():
        cells = line.split()
        if len(cells) == 3 and cells[2] == "trusted":
            degree, dim = int(cells[0]), int(cells[1])
            assert dim == (1 if degree == 0 else 0)


def test_bar_dual_numbers_homology_all_one():
    code, out = run_cli(["bar", "--preset", "dual-numbers",
                         "--trunc", "-1:6:6", "--homology"])
    assert code == 0
    assert "convention: minus" in out
    rows = [line.split() for line in out.splitlines()]
    dims = {int(r[0]): int(r[1]) for r in rows
            if len(r) == 3 and r[2] in ("trusted", "unreliable")}
    assert dims == {n: 1 for n in range(7)}


def test_cobar_command():
    code, out = run_cli(["cobar", "--preset", "primitive-coalgebra:1",
                         "--trunc", "-4:4:4"])
    assert code == 0
    assert "convention: plus" in out
    assert "PASS d^int/d^ext anticommute" in out


def test_verify_and_dims_and_homology_commands():
    for argv in (["verify", "--preset", "dual-numbers"],
                 ["dims", "--preset", "mc"],
                 ["homology", "--preset", "dual-numbers"]):
        code, out = run_cli(argv)
        assert code == 0, out


def test_convolve_command():
    code, out = run_cli(["convolve", "--coalgebra",
                         "preset:diagonal-coalgebra:2",
                         "--algebra", "preset:dual-numbers"])
    assert code == 0
    assert "PASS convolution algebra axioms" in out


def test_sweedler_product_command():
    code, out = run_cli(["sweedler-product",
                         "--coalgebra", "preset:diagonal-coalgebra:2",
                         "--algebra", "preset:dual-numbers",
                         "--trunc", "-3:3:3"])
    assert code == 0
    assert "universal measuring certificate" in out


def test_sweedler_dual_command():
    code, out = run_cli(["sweedler-dual", "--algebra",
                         "preset:dual-numbers"])
    assert code == 0
    assert "A∨ coalgebra axioms" in out
    assert "Δ" in out


def test_sweedler_dual_outside_the_window_fails_cleanly(capsys):
    # mc lives in degrees -10..0 of -10:0:10; its dual would need 1..10
    code, out = run_cli(["sweedler-dual", "--algebra", "preset:mc",
                         "--field", "Fp:5"])
    assert code == 2
    assert out == ""
    # one error line, no traceback
    assert capsys.readouterr().err == (
        "error: dual leaves the window -10:0:10: degrees -10, -9, -8, -7, "
        "-6, -5, -4, -3, -2, -1 dualize outside it\n")


@pytest.mark.parametrize("argv, message", [
    (["cobar", "--preset", "primitive-coalgebra:1", "--trunc", "1:1:1"],
     "error: basis element e of degree 0 lies outside the window 1:1:1"),
    (["convolve", "--coalgebra", "preset:diagonal-coalgebra:1",
      "--algebra", "preset:dual-numbers", "--trunc", "3:3:1"],
     "error: basis element e1 of degree 0 lies outside the window 3:3:1"),
])
def test_coalgebra_basis_outside_the_window_fails_cleanly(argv, message,
                                                          capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    # one error line, no traceback
    assert capsys.readouterr().err == message + "\n"


def test_signs_compare_command():
    code, out = run_cli(["signs", "compare", "--preset", "dual-numbers",
                         "--trunc", "-1:6:6"])
    assert code == 0
    assert "π conjugates bar conventions" in out
    code2, out2 = run_cli(["signs", "compare",
                           "--preset", "primitive-coalgebra:1",
                           "--trunc", "-4:4:4"])
    assert code2 == 0
    assert "π conjugates cobar conventions" in out2


def test_twist_enumerate_command():
    code, out = run_cli(["twist", "enumerate", "--field", "Fp:2",
                         "--coalgebra", "preset:primitive-coalgebra:1",
                         "--algebra", "preset:dual-numbers",
                         "--trunc", "-3:3:3", "--pointed"])
    assert code == 0
    assert "2 cochains" in out


def test_twist_verify_and_adjoint_commands(tmp_path):
    coalg = """sweedler-presentation v1
field Q
kind coalgebra
trunc -3:3:4
basis e 0
basis delta 1
delta delta 1/1 delta,e 1/1 e,delta
delta e 1/1 e,e
counit e 1/1
atom e
"""
    alg = """sweedler-presentation v1
field Q
kind algebra
trunc -3:3:4
gen eps 0
rel 1/1 eps.eps
aug eps 0/1
"""
    (tmp_path / "c.swp").write_text(coalg)
    (tmp_path / "a.swp").write_text(alg)
    m = tmp_path / "m.swp"
    m.write_text("""sweedler-presentation v1
field Q
kind map
trunc -3:3:4
degree -1
source c.swp
target a.swp
entry delta 1/1 eps
""")
    code, out = run_cli(["twist", "verify", "--map", str(m), "--pointed"])
    assert code == 0
    assert "Maurer-Cartan equation" in out
    code2, out2 = run_cli(["adjoint", "--map", str(m)])
    assert code2 == 0, out2
    assert "adjunction transforms" in out2


def test_exit_code_on_parse_error(tmp_path):
    bad = tmp_path / "bad.swp"
    bad.write_text("sweedler-presentation v1\nfield Q\nkind algebra\n"
                   "gen x 0\nrel 1/0 x.x\n")
    code, _ = run_cli(["verify", "--file", str(bad)])
    assert code == 2


def test_pointed_product_of_a_coalgebra_without_counit_exits_2(tmp_path,
                                                               capsys):
    coalg = tmp_path / "c.swp"
    coalg.write_text("sweedler-presentation v1\nfield Q\nkind coalgebra\n"
                     "trunc -2:2:2\nbasis e 0\ndelta e 1/1 e,e\natom e\n")
    code, _ = run_cli(["sweedler-product", "--coalgebra", str(coalg),
                       "--algebra", "preset:dual-numbers", "--pointed"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: pointed Sweedler product needs pointed data\n"


def test_exit_code_on_missing_args():
    code, _ = run_cli(["verify"])
    assert code == 2


def test_exit_code_on_check_failure(tmp_path):
    # an algebra whose differential does not preserve the relation ideal
    bad = tmp_path / "bad.swp"
    bad.write_text("""sweedler-presentation v1
field Q
kind algebra
trunc 0:4:4
gen x 1
gen y 0
rel 1/1 x.x
d x 1/1 y
""")
    code, _ = run_cli(["verify", "--file", str(bad)])
    assert code == 2     # construction error (inconsistent differential)


def test_homology_of_a_non_complex_fails_cleanly(tmp_path, capsys):
    # d²x = z ≠ 0: a FAIL line and exit 1, no homology table, no traceback
    bad = tmp_path / "bad.swp"
    bad.write_text("""sweedler-presentation v1
field Q
kind algebra
trunc 0:4:4
gen x 2
gen y 1
gen z 0
d x 1/1 y
d y 1/1 z
""")
    code, out = run_cli(["homology", "--file", str(bad)])
    assert code == 1
    assert "FAIL d² = 0  [d²≠0 at x: d²(x) = 1/1·z" in out
    assert "table: homology" not in out
    assert "result: FAIL" in out
    assert capsys.readouterr().err == ""


def test_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    run_cli(["bar", "--preset", "dual-numbers", "--trunc", "-1:5:5",
             "--out", str(out1)])
    run_cli(["bar", "--preset", "dual-numbers", "--trunc", "-1:5:5",
             "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_strict_window_flag():
    code, out = run_cli(["bar", "--preset", "dual-numbers",
                         "--trunc", "-1:6:6", "--strict-window"])
    assert code == 0
    # a free algebra on a degree-0 generator is truncation-affected
    code2, out2 = run_cli(["verify", "--preset", "free-algebra:x=0",
                           "--strict-window"])
    assert code2 == 1
    assert "affected degrees" in out2


# flags a command would only parse and ignore: mc and twist have no sign
# convention, and only verify, bar and cobar run the strict-window check
@pytest.mark.parametrize("argv,flag", [
    (["mc", "--convention", "plus"], "--convention=plus"),
    (["twist", "verify", "--map", "my_cochain.swp", "--pointed",
      "--convention", "plus"], "--convention=plus"),
    (["homology", "--preset", "dual-numbers", "--strict-window"],
     "--strict-window"),
    (["dims", "--preset", "mc", "--strict-window"], "--strict-window"),
    (["convolve", "--coalgebra", "preset:diagonal-coalgebra:2",
      "--algebra", "preset:dual-numbers", "--strict-window"],
     "--strict-window"),
], ids=["mc-convention", "twist-convention", "homology-strict-window",
        "dims-strict-window", "convolve-strict-window"])
def test_removed_flags_are_usage_errors(argv, flag, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: sweedler ")
    assert err.endswith(f"error: unrecognized arguments: {flag}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["bar", "--preset", "dual-numbers", "--trunc", "a:b:c"],
     "error: bad truncation 'a:b:c', want dmin:dmax:L"),
    (["bar", "--preset", "dual-numbers", "--trunc", "1:2"],
     "error: bad truncation '1:2', want dmin:dmax:L"),
    (["dims", "--preset", "free-algebra:x=y"],
     "error: free-algebra degree of 'x' must be an integer, got 'y'"),
    (["cobar", "--preset", "primitive-coalgebra:x"],
     "error: primitive-coalgebra degree must be an integer, got 'x'"),
    (["dims", "--preset", "diagonal-coalgebra:x"],
     "error: diagonal-coalgebra n must be an integer, got 'x'"),
    (["dims", "--preset", "diagonal-coalgebra:0"],
     "error: diagonal-coalgebra n must be ≥ 1, got 0"),
    (["dims", "--preset", "matrix-coalgebra:0"],
     "error: matrix-coalgebra n must be ≥ 1, got 0"),
])
def test_bad_numbers_fail_cleanly(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    # one error line, no traceback
    assert capsys.readouterr().err == message + "\n"


DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv,message", [
    (["convolve", "--coalgebra", "preset:mc", "--algebra",
      "preset:dual-numbers"], "--coalgebra needs a coalgebra presentation"),
    (["sweedler-dual", "--algebra", "preset:primitive-coalgebra:1"],
     "--algebra needs an algebra presentation"),
    (["sweedler-product", "--coalgebra", "preset:dual-numbers", "--algebra",
      "preset:diagonal-coalgebra:2"],
     "--coalgebra needs a coalgebra presentation"),
    (["twist", "enumerate", "--field", "Fp:2", "--coalgebra",
      "preset:primitive-coalgebra:1", "--algebra",
      "preset:primitive-coalgebra:1"],
     "--algebra needs an algebra presentation"),
    (["twist", "verify", "--map", str(DATA / "a.swp")],
     "--map needs a map presentation"),
    (["adjoint", "--map", str(DATA / "c.swp")],
     "--map needs a map presentation"),
    (["dims", "--file", str(DATA / "my_cochain.swp")],
     "dims needs an algebra or a coalgebra presentation"),
    (["homology", "--file", str(DATA / "my_cochain.swp")],
     "homology needs an algebra or a coalgebra presentation"),
    (["signs", "compare", "--file", str(DATA / "my_cochain.swp")],
     "signs needs an algebra or a coalgebra presentation"),
    (["bar", "--file", str(DATA / "c.swp")],
     "bar needs an algebra presentation"),
    (["cobar", "--preset", "mc"], "cobar needs a coalgebra presentation"),
    (["dims", "--preset", "free-algebra:x.y=1"],
     "bad generator name 'x.y'"),
], ids=["convolve", "sweedler-dual", "sweedler-product", "twist-enumerate",
        "twist-verify", "adjoint", "dims", "homology", "signs", "bar",
        "cobar", "preset-name"])
def test_inputs_of_the_wrong_kind_fail_cleanly(argv, message, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    # one error line, no traceback
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("source,target,kinds", [
    ("a.swp", "c.swp", "algebra to coalgebra"),
    ("my_cochain.swp", "a.swp", "map to algebra"),
])
def test_a_map_between_the_wrong_kinds_fails_cleanly(source, target, kinds,
                                                      tmp_path, capsys):
    m = tmp_path / "m.swp"
    m.write_text("sweedler-presentation v1\nkind map\ntrunc -3:3:4\n"
                 f"degree -1\nsource {DATA / source}\n"
                 f"target {DATA / target}\n")
    for argv in (["twist", "verify", "--map", str(m)],
                 ["adjoint", "--map", str(m)], ["verify", "--file", str(m)]):
        code, out = run_cli(argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: a map goes from a coalgebra to an algebra, not from "
            f"{kinds}\n")


def test_a_map_file_still_verifies_as_built():
    code, out = run_cli(["verify", "--file", str(DATA / "my_cochain.swp")])
    assert code == 0
    assert "PASS object built" in out


def test_a_directory_is_one_error_line():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sweedler.cli", "dims", "--file", str(DATA)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=60, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_out_of_memory_is_one_error_line():
    # 2¹⁹ - 1 words of degree 0, under the word limit, need a few hundred
    # MB; under a 200 MB address-space cap the child runs out of memory
    # within seconds
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sweedler.cli", "dims", "--preset",
         "free-algebra:x=0,y=0", "--trunc", "0:0:18"],
        env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=cap_memory,
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == \
        "error: out of memory; try a smaller --trunc window\n"


@pytest.mark.parametrize("capped", [False, True])
def test_too_many_words_are_refused_before_listing(capped):
    # B A of k<x, y> with |x| = |y| = 0 at -1:6:6 has 126 letters of
    # degree 1, so about 4·10¹² words; the count refuses it at once, with
    # or without an address-space cap
    resource = pytest.importorskip("resource")

    def cap_memory():
        if capped:
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        ["timeout", "60", sys.executable, "-m", "sweedler.cli", "bar",
         "--preset", "free-algebra:x=0,y=0", "--trunc", "-1:6:6"],
        env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=cap_memory,
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: 4033516174507 words in window -1:6:6 "
                           "exceed the limit 1000000\n")


def test_bar_work_follows_the_answer_not_the_window():
    # B A of T(x, y) with |x| = 1, |y| = 2 at -1:8:6 keeps a few thousand
    # words; listing every word up to the cap first ran past 300 s
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "sweedler.cli", "bar", "--preset",
         "free-algebra:x=1,y=2", "--trunc", "-1:8:6", "--homology"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "table: homology" in proc.stdout


def homology_table(out: str) -> dict:
    """degree -> (dim, trust) from the homology table of a report."""
    table = {}
    for line in out.split("table: homology", 1)[1].splitlines():
        cells = line.split()
        if len(cells) == 3 and cells[2] in ("trusted", "unreliable"):
            table[int(cells[0])] = (int(cells[1]), cells[2])
    return table


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: B T(V) is a complex, but the input product y·y lies "
    "below the window, so d² looks nonzero on s[y]⊗s[y]⊗s[x]"))
def test_bar_of_a_free_algebra_passes_d_squared_in_a_narrow_window():
    code, out = run_cli(["bar", "--preset", "free-algebra:x=1,y=-1",
                         "--trunc", "-1:2:3"])
    assert "FAIL d² = 0" not in out
    assert code == 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the top window degree is trusted although it never "
    "sees the boundaries coming from degree dmax+1"))
def test_trusted_bar_homology_survives_a_wider_window():
    tables = []
    for trunc in ("-1:6:4", "-1:7:4"):
        code, out = run_cli(["bar", "--preset", "free-algebra:x=1,y=1",
                             "--trunc", trunc, "--homology"])
        assert code == 0
        tables.append(homology_table(out))
    narrow, wide = tables
    assert 6 in narrow and 6 in wide
    for n, (dim, trust) in narrow.items():
        if trust == "trusted" and wide[n][1] == "trusted":
            assert dim == wide[n][0], f"H_{n}"
