"""Golden CLI reports: stdout and exit code of every README CLI command.

Each report must match its file under tests/golden/ byte for byte.  The
commands run in tests/data/, where `my_cochain.swp` and the presentations
it names live.  After a deliberate change of a report, regenerate the
files from fresh processes with

    PYTHONPATH=src python tests/test_golden.py

and compare every report and exit code with them, rewriting nothing, with

    PYTHONPATH=src python tests/test_golden.py --check

Both script modes need only the standard library: the tests are
parametrized by the `pytest_generate_tests` hook, so this module never
imports pytest.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

from sweedler.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
DATA = TESTS / "data"

# (name, arguments after `sweedler`): the README CLI section, then the
# plus-convention adjunction, homology over 𝔽3, a dual over 𝔽5, a
# Sweedler product whose presented algebra has many u·r·v elements, a
# coalgebra that fails co-Leibniz, an algebra whose d² ≠ 0 has a
# non-integral coefficient and an integral one reached through 1/2·2, the
# axioms of a free algebra on generators of mixed sign, the cobar of a
# coalgebra whose non-atoms split (its external d) and the bar of T(x),
# whose d_ext splices chunks of several letters (no homology: its top
# degree H₅ reads "trusted" wrongly)
COMMANDS = [
    ("mc-homology", "mc --homology"),
    ("bar-dual-numbers", "bar --preset dual-numbers --trunc -1:6:6 --homology"),
    ("cobar-primitive", "cobar --preset primitive-coalgebra:1 --trunc -4:4:4"),
    ("convolve", "convolve --coalgebra preset:diagonal-coalgebra:2 "
                 "--algebra preset:dual-numbers"),
    ("sweedler-product", "sweedler-product --coalgebra "
                         "preset:diagonal-coalgebra:2 --algebra "
                         "preset:dual-numbers --trunc -3:3:3"),
    ("sweedler-dual", "sweedler-dual --algebra preset:dual-numbers"),
    ("twist-enumerate", "twist enumerate --field Fp:2 --coalgebra "
                        "preset:primitive-coalgebra:1 --algebra "
                        "preset:dual-numbers --trunc -3:3:3 --pointed"),
    ("twist-verify", "twist verify --map my_cochain.swp --pointed"),
    ("adjoint", "adjoint --map my_cochain.swp"),
    ("signs-compare", "signs compare --preset dual-numbers --trunc -1:6:6"),
    ("verify-mc", "verify --preset mc"),
    ("dims-mc-basis", "dims --preset mc --basis"),
    ("homology-dual-numbers", "homology --preset dual-numbers"),
    ("adjoint-plus", "adjoint --map my_cochain.swp --convention plus"),
    ("homology-free-fp3", "homology --preset free-algebra:x=1,y=2 "
                          "--field Fp:3 --trunc -1:6:4"),
    ("sweedler-dual-fp5", "sweedler-dual --algebra preset:dual-numbers "
                          "--field Fp:5"),
    ("sweedler-product-mc", "sweedler-product --coalgebra "
                            "preset:diagonal-coalgebra:2 --algebra "
                            "preset:mc --trunc -3:3:4 --pointed"),
    ("verify-not-coleibniz", "verify --file not_coleibniz.swp"),
    ("homology-d2-half", "homology --file d2_half.swp"),
    ("verify-free-mixed", "verify --preset free-algebra:x=1,y=-2"),
    ("cobar-diagonal", "cobar --preset diagonal-coalgebra:2 --trunc -3:3:4"),
    ("bar-free-x1", "bar --preset free-algebra:x=1 --trunc -1:5:4"),
]


def _manifest() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def _run_in_process(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def pytest_generate_tests(metafunc):
    if metafunc.function is test_golden_report:
        metafunc.parametrize("name,command", COMMANDS,
                             ids=[name for name, _ in COMMANDS])


def test_golden_report(name, command, monkeypatch):
    monkeypatch.chdir(DATA)
    code, out = _run_in_process(command.split())
    assert code == _manifest()[name]
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_golden_files_match_commands():
    names = {name for name, _ in COMMANDS}
    assert set(_manifest()) == names
    assert {p.stem for p in GOLDEN.glob("*.txt")} == names


def readme_cli_commands() -> list:
    """The commands of README's CLI code block, continuations joined."""
    text = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```")[1]
    commands = block.replace("\\\n", " ").strip().splitlines()
    return [line.split() for line in commands]


def test_readme_cli_block_is_the_first_commands():
    readme = readme_cli_commands()
    assert len(readme) == 13
    assert readme == [["sweedler", *command.split()]
                      for _, command in COMMANDS[:13]]


def fresh_reports() -> dict:
    """name -> (exit code, stdout bytes) of each command, run in a fresh
    `sweedler` process."""
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    out = {}
    for name, command in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "sweedler.cli",
                               *command.split()], cwd=DATA, env=env,
                              capture_output=True, check=False)
        out[name] = (proc.returncode, proc.stdout)
    return out


def regenerate() -> None:
    """Rewrite every golden file from a fresh `sweedler` process."""
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, (code, stdout) in fresh_reports().items():
        (GOLDEN / f"{name}.txt").write_bytes(stdout)
        codes[name] = code
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1) + "\n")


def check() -> int:
    """Compare every report and exit code with its golden file; 0 if all
    match byte for byte, 1 otherwise.  Rewrites nothing."""
    codes = _manifest()
    bad = 0
    for name, (code, stdout) in fresh_reports().items():
        path = GOLDEN / f"{name}.txt"
        same_text = path.exists() and stdout == path.read_bytes()
        ok = same_text and code == codes.get(name)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}"
              + ("" if same_text else " (report differs)")
              + ("" if code == codes.get(name)
                 else f" (exit {code}, golden {codes.get(name)})"))
    print(f"{len(COMMANDS) - bad} of {len(COMMANDS)} golden reports match")
    return 1 if bad else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=(
        "Regenerate the golden CLI reports, or check them with --check."))
    parser.add_argument("--check", action="store_true", help=(
        "compare reports and exit codes with the golden files and exit 1 "
        "on any difference, without rewriting them"))
    if parser.parse_args().check:
        sys.exit(check())
    regenerate()
