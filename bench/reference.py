"""
Regenerate reference.json: the universe sizes of the lemma checks that
have no closed form, counted by brute force from the literal definitions
in oracle.py.

    python3 bench/reference.py

Each universe restates the qualifying condition in the docstring of the
check of the same id.  The file is committed; the lemma-sweep workload
compares the package's reports against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracle

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RANKS = range(3, 7)


def last_two_top(w) -> bool:
    n = len(w)
    return {abs(w[-1]), abs(w[-2])} == {n - 1, n}


def universes(n: int) -> dict[str, int]:
    minimal = [w for w in oracle.all_windows(n) if oracle.minimal_nonseparable(w)]
    doubly = [w for w in minimal if oracle.minimal_nonseparable(oracle.inverse(w))]
    # Place (0-based) of the entry of magnitude n; the checks need it at
    # or before place n-2 counted from 1, i.e. index n-3.
    early_top = [w for w in doubly if [abs(x) for x in w].index(n) <= n - 3]
    return {
        "minimal_nonseparable": len(minimal),
        "sign-structure": sum(1 for w in early_top if abs(w[-1]) == n - 1),
        "coefficient-shift": sum(
            1 for w in early_top
            if (w[-1], w[[abs(x) for x in w].index(n)]) in ((-(n - 1), n), (n - 1, -n))
        ),
        "not-rank-symmetric": sum(1 for w in doubly if not last_two_top(w)),
        "rank-symmetry": sum(1 for w in minimal if last_two_top(w)),
    }


def main() -> int:
    table = {str(n): universes(n) for n in RANKS}
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(json.dumps(table, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
