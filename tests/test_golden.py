"""Golden CLI reports: stdout and exit code of every README CLI command.

Each report must match its file under tests/golden/ byte for byte.  The
commands run in tests/data/, where `my_cochain.swp` and the presentations
it names live.  After a deliberate change of a report, regenerate the
files from fresh processes with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from sweedler.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
DATA = TESTS / "data"

# (name, arguments after `sweedler`): the README CLI section, then the
# plus-convention adjunction, homology over 𝔽3, a dual over 𝔽5, a
# Sweedler product whose presented algebra has many u·r·v elements, a
# coalgebra that fails co-Leibniz and an algebra whose d² ≠ 0 has a
# non-integral coefficient and an integral one reached through 1/2·2
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
]


def _manifest() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def _run_in_process(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,command", COMMANDS,
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


def regenerate() -> None:
    """Rewrite every golden file from a fresh `sweedler` process."""
    GOLDEN.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    codes = {}
    for name, command in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "sweedler.cli",
                               *command.split()], cwd=DATA, env=env,
                              capture_output=True, check=False)
        (GOLDEN / f"{name}.txt").write_bytes(proc.stdout)
        codes[name] = proc.returncode
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
