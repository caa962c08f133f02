"""The README states facts the code owns; these tests keep the two in step."""

import re
from pathlib import Path

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
