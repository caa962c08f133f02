"""The README states facts the code owns; these tests keep the two in step."""

import re
import shlex
from pathlib import Path

import pytest

from bweyl import cli
from bweyl.reports import RANKS

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_rank_table():
    """Check id -> (lo, hi) from the README rows "| `a`, `b` | LO..HI |"."""
    table = {}
    for line in README.read_text().splitlines():
        row = re.fullmatch(r"\| (`[^|]+`) \| (\d+)\.\.(\d+) \|", line)
        if row:
            for check in re.findall(r"`([^`]+)`", row.group(1)):
                assert check not in table, f"{check} listed twice"
                table[check] = (int(row.group(2)), int(row.group(3)))
    return table


def test_readme_rank_table_is_the_rank_table():
    assert readme_rank_table() == RANKS


def readme_cli_examples():
    """(argv, exit code) for each `bweyl ...` line of the CLI example block:
    1 where its comment says "exit 1", else 0."""
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] == ["bweyl"]:
            examples.append((argv[1:], 1 if "exit 1" in comment else 0))
    return examples


def test_readme_has_cli_examples():
    assert len(readme_cli_examples()) >= 10


@pytest.mark.parametrize("argv, code", readme_cli_examples(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_readme_cli_example_runs(argv, code, capsys):
    try:
        status = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments this way
        status = exc.code
    assert status == code
    assert capsys.readouterr().err == ""
