"""Verification report records, and the ranks each check accepts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .signed_perm import format_window

#: Check id -> (lowest, highest) rank it accepts, both inclusive.
RANKS = {
    "theorem": (2, 6),
    "sign-structure": (3, 6),
    "coefficient-shift": (3, 6),
    "not-rank-symmetric": (3, 6),
    "unique-reduced-word": (2, 6),
    "factorization": (2, 6),
    "rank-symmetry": (3, 6),
    "product-identity": (2, 6),
    "classifier-equivalence": (1, 6),
    "minimality-equivalence": (1, 6),
    "interval-identity": (1, 5),
}


def require_rank(check_id: str, n: int) -> None:
    """Raise ValueError unless the check accepts rank n, an int (not a bool)."""
    lo, hi = RANKS[check_id]
    if type(n) is not int or not lo <= n <= hi:
        raise ValueError(f"{check_id} accepts ranks {lo}..{hi}, got {n}")


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one exhaustive check over a stated universe."""

    lemma_id: str
    n: int
    universe_size: int
    passed: bool
    witnesses: tuple = ()
    vacuous: bool = False
    counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "theorem": self.lemma_id,
            "n": self.n,
            "checked": self.universe_size,
            "pass": self.passed,
            "witnesses": [_jsonify(w) for w in self.witnesses],
            "vacuous": self.vacuous,
            "counts": dict(sorted(self.counts.items())),
        }


def lemma_report(lemma_id: str, n: int, found: list[dict | None],
                 counts: dict[str, int] | None = None) -> LemmaReport:
    """The report over a universe whose elements gave found, a witness or None each."""
    witnesses = tuple(x for x in found if x is not None)
    return LemmaReport(lemma_id, n, len(found), passed=not witnesses, witnesses=witnesses,
                       vacuous=not found, counts=counts or {})


@dataclass(frozen=True)
class SplittingReport:
    """Outcome of one splitting check of a pair of element sets."""

    is_splitting: bool
    size_check: bool
    counts: tuple[int, int, int]  # (#X, #Y, #group)
    failure_witness: tuple | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "splitting": self.is_splitting,
            "size_check": self.size_check,
            "counts": {
                "x": self.counts[0],
                "y": self.counts[1],
                "group": self.counts[2],
            },
            "witness": _jsonify(self.failure_witness),
        }


def _jsonify(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, tuple) and obj and all(isinstance(x, int) for x in obj):
        return format_window(obj)
    if isinstance(obj, (tuple, list)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return str(obj)
