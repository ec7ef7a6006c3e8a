"""Bad input ends in an exit code, never a traceback.

Each example takes a good presentation, changes one of its lines (not
`trunc`, so every run stays in a small window) and feeds the result to
`verify`, then to `bar` or `cobar`, then to `sweedler-product --pointed`
against a good partner.  `cli.main` must return 0, 1 or 2 and raise
nothing.
"""

import contextlib
import io
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from sweedler.cli import main
from sweedler.presentation import parse_file
from sweedler.presets import load_preset

DATA = pathlib.Path(__file__).parent / "data"
TRUNC = "-2:2:2"
PRESETS = ["dual-numbers", "mc", "primitive-coalgebra:1",
           "diagonal-coalgebra:2", "matrix-coalgebra:2"]


def _inputs():
    """(name, kind, text) of every non-map data file and a few presets."""
    out = []
    for path in sorted(DATA.glob("*.swp")):
        kind = parse_file(str(path)).kind
        if kind != "map":
            out.append((path.name, kind, path.read_text()))
    for name in PRESETS:
        pf = load_preset(name)
        out.append((name, pf.kind, pf.serialize()))
    return out


INPUTS = _inputs()
MUTATIONS = ["drop line", "drop token", "swap tokens", "duplicate line",
             "add comma", "remove comma", "rename"]


def mutate(text: str, data) -> str:
    """text with one non-`trunc` line changed by a drawn mutation."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines)
            if line.strip() and not line.startswith("trunc")]
    i = data.draw(st.sampled_from(rows))
    tokens = lines[i].split()
    how = data.draw(st.sampled_from(MUTATIONS))
    if how == "drop line":
        del lines[i]
    elif how == "duplicate line":
        lines.insert(i, lines[i])
    elif how == "drop token":
        del tokens[data.draw(st.integers(0, len(tokens) - 1))]
        lines[i] = " ".join(tokens)
    elif how == "swap tokens":
        j = data.draw(st.integers(0, len(tokens) - 1))
        k = data.draw(st.integers(0, len(tokens) - 1))
        tokens[j], tokens[k] = tokens[k], tokens[j]
        lines[i] = " ".join(tokens)
    elif how == "add comma":
        j = data.draw(st.integers(0, len(tokens) - 1))
        tokens[j] += ","
        lines[i] = " ".join(tokens)
    elif how == "remove comma":
        lines[i] = lines[i].replace(",", " ", 1)
    elif len(tokens) > 1:       # rename the line's first name
        lines[i] = " ".join([tokens[0], "zz", *tokens[2:]])
    return "\n".join(lines) + "\n"


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bad_input")


@settings(max_examples=200)
@given(st.sampled_from(INPUTS), st.data())
def test_mutated_presentations_exit_cleanly(workdir, source, data):
    name, kind, text = source
    path = workdir / "mutated.swp"
    path.write_text(mutate(text, data))
    file = str(path)
    small = ["--trunc", TRUNC]
    runs = [["verify", "--file", file, *small],
            ["bar" if kind == "algebra" else "cobar", "--file", file,
             *small]]
    if kind == "algebra":
        runs.append(["sweedler-product", "--coalgebra", str(DATA / "c.swp"),
                     "--algebra", file, "--pointed", *small])
    else:
        runs.append(["sweedler-product", "--coalgebra", file,
                     "--algebra", str(DATA / "a.swp"), "--pointed", *small])
    for argv in runs:
        assert run(argv) in (0, 1, 2), argv
