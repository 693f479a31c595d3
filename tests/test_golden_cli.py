"""Replay the golden CLI corpus: exact stdout and exit code per invocation.

`tests/golden/corpus.json` lists each invocation's argv (input paths are
relative to `tests/golden/`), its exit code and its exact stdout.  The
recorded outputs are frozen: a change that alters any of them changes the
CLI's observable behaviour.
"""

import json
from pathlib import Path

import pytest

from x1points.cli import main
from x1points.errors import DEFAULT_CAP

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "corpus.json").read_text())
SUBCOMMANDS = (
    "group", "orbits", "degrees", "level", "level-bound",
    "curve", "sporadic-check", "cm", "classify", "tables",
)


def run_cli(argv) -> int:
    """Exit code of one in-process run; argparse's SystemExit counts as one."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", CORPUS, ids=[c["name"] for c in CORPUS])
def test_golden_invocation(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = run_cli(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


# A corpus invocation (exit 0) of each subcommand that prints JSON only.
JSON_ONLY = (
    "group-gl2-5",
    "orbits-gl2-5",
    "degrees-borel-7",
    "level-gl2-5",
    "level-bound-17-image-order",
    "sporadic-check-frey",
    "cm-disc-4",
    "classify-case-4",
)


@pytest.mark.parametrize("name", JSON_ONLY)
def test_format_rejected_outside_curve_and_tables(name, capsys, monkeypatch):
    case = next(c for c in CORPUS if c["name"] == name)
    assert case["exit"] == 0
    monkeypatch.chdir(GOLDEN)
    assert run_cli([*case["argv"], "--format", "csv"]) == 2
    assert capsys.readouterr().out == ""


def test_corpus_covers_every_format_of_curve_and_tables():
    covered = {
        (c["argv"][0], c["argv"][c["argv"].index("--format") + 1])
        for c in CORPUS
        if "--format" in c["argv"]
    }
    assert covered == {(cmd, fmt) for cmd in ("curve", "tables") for fmt in ("json", "csv", "markdown")}
    assert {c["argv"][0] for c in CORPUS} == set(SUBCOMMANDS)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cap_only_on_the_group_file_subcommands(command, capsys, monkeypatch):
    # the first successful corpus invocation of the subcommand
    case = next(c for c in CORPUS if c["argv"][0] == command and c["exit"] == 0)
    monkeypatch.chdir(GOLDEN)
    # no environment variable sets the cap
    monkeypatch.setenv("X1POINTS_CAP", "abc")
    assert run_cli(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
    code = run_cli([*case["argv"], "--cap", str(DEFAULT_CAP)])
    out = capsys.readouterr().out
    if command in ("group", "orbits", "degrees", "level"):
        assert (code, out) == (0, case["stdout"])
    else:
        assert (code, out) == (2, "")
