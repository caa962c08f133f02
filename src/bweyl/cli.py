"""
Command line surface; windows are quoted strings ("-2 3 4 5 1").  Exit
status: 0 for answered queries and passing checks, 1 when a check finds
a counterexample or a split-check fails, 2 for usage errors and input
the library rejects with ValueError (a malformed window, an ideal over
its element limit), and 141 (128 + SIGPIPE, quietly) when the reader of
stdout goes away (`bweyl ... | head -1`).

`main` is the one dispatch path: it builds the parser once per process
(at its first call, through `build_parser`, which declares `--format`
once for every verb), parses a window argument before any verb runs, so
every verb that takes one refuses a malformed window, and prints the
payload the verb returns, led by the normalized window when the verb
took one, with its status.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

from . import theorems
from .catalog import CATALOGS
from .patterns import (
    PATTERN_SETS,
    _minimal,
    inverse_minimality_criterion,
    is_minimal_nonseparable_fast,
    is_separable,
)
from .quotients import splits_with_interval
from .reports import RANKS
from .signed_perm import (
    all_windows,
    format_window,
    inverse,
    length,
    parse_window,
    sort_windows,
)
from .weak_order import _levels, ideal_polynomial, iter_reduced_words, reduced_word_count

MAX_ELEMENT_RANK = 8
MAX_LISTED_WORDS = 100_000


def _window_arg(text: str):
    w = parse_window(text)
    if len(w) > MAX_ELEMENT_RANK:
        raise ValueError(f"rank {len(w)} exceeds the element limit {MAX_ELEMENT_RANK}")
    return w


def _require_n(check: str, n: int) -> None:
    lo, hi = RANKS[check]
    if not lo <= n <= hi:
        raise ValueError(f"--n must be in {lo}..{hi}")


def _plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, f"{name}."))
        else:
            rows.append((name, value))
    return rows


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for key, value in _flatten(payload):
            if isinstance(value, list):
                value = ";".join(_plain(v) for v in value)
            writer.writerow([key, _plain(value)])
        sys.stdout.write(buf.getvalue())
    else:
        for key, value in _flatten(payload):
            if isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {_plain(item)}")
            else:
                print(f"{key}: {_plain(value)}")


def _windows_payload(ws) -> list[str]:
    return [format_window(w) for w in sort_windows(ws)]


def _cmd_separable(args) -> tuple[dict, int]:
    return {"separable": is_separable(args.window)}, 0


def _cmd_minimal_nonsep(args) -> tuple[dict, int]:
    if args.list and args.window is not None:
        raise ValueError("pass a window or --list --n K, not both")
    if args.list:
        if args.n is None:
            raise ValueError("--list needs --n")
        _require_n("minimality-equivalence", args.n)  # same universe, same test
        hits = [w for w in all_windows(args.n) if _minimal(w)]
        return {"n": args.n, "count": len(hits), "windows": _windows_payload(hits)}, 0
    w = args.window
    if w is None:
        raise ValueError("pass a window or --list --n K")
    if args.n is not None:
        raise ValueError("--n needs --list")
    minimal = is_minimal_nonseparable_fast(w)
    payload = {"minimal_nonseparable": minimal}
    if minimal:
        payload["inverse_also_minimal"] = inverse_minimality_criterion(w)
    return payload, 0


def _cmd_ideal_poly(args) -> tuple[dict, int]:
    poly = ideal_polynomial("lower-right" if args.right else "lower-left", args.window)
    return {
        "order": "right" if args.right else "left",
        "size": poly(1),
        "polynomial": str(poly),
        "coefficients": poly.to_list(),
        "symmetric": poly.is_symmetric(),
        "unimodal": poly.is_unimodal(),
    }, 0


def _cmd_quotient(args) -> tuple[dict, int]:
    # L(w0 * u^-1) is the inverses of the right ideal below -u: its levels,
    # in first-descent buckets, each sorted, give the (length, window) order.
    levels = _levels(tuple(-x for x in args.window))
    windows = [format_window(x) for level in levels for x in sorted(map(inverse, level))]
    return {"size": len(windows), "windows": windows}, 0


def _cmd_split_check(args) -> tuple[dict, int]:
    report = splits_with_interval(args.window)
    return report.to_json(), 0 if report.is_splitting else 1


def _cmd_reduced_words(args) -> tuple[dict, int]:
    w = args.window
    count = reduced_word_count(w)
    if args.list and count > MAX_LISTED_WORDS:
        raise ValueError(f"{count} reduced words exceed the list limit {MAX_LISTED_WORDS}")
    payload = {"length": length(w), "count": count}
    if args.list:
        payload["words"] = [
            " ".join(str(i) for i in word) for word in iter_reduced_words(w)
        ]
    return payload, 0


def _cmd_verify(args) -> tuple[dict, int]:
    runner = theorems.CHECKS.get(args.check)
    if runner is None:
        known = ", ".join(sorted(theorems.CHECKS))
        raise ValueError(f"unknown check {args.check!r}; known: {known}")
    _require_n(args.check, args.n)
    report = runner(args.n)
    return report.to_json(), 0 if report.passed else 1


def _cmd_examples(args) -> tuple[dict, int]:
    if args.name == "b2-separable":
        data = CATALOGS["b2-separable"]
        payload = {
            "catalog": args.name,
            "windows": [format_window(w) for w in sorted(data)],
            "inversion_roots": [
                " | ".join(str(r) for r in sorted(data[w])) for w in sorted(data)
            ],
        }
    elif args.name == "b4-st-fibers":
        fibers = CATALOGS["b4-st-fibers"]
        payload = {"catalog": args.name}
        for name in sorted(fibers):
            payload[name] = _windows_payload(fibers[name])
    else:
        raise ValueError(f"unknown catalog {args.name!r}")
    return payload, 0


def _cmd_pattern_set(args) -> tuple[dict, int]:
    members = PATTERN_SETS.get(args.name)
    if members is None:
        raise ValueError(
            f"unknown pattern set {args.name!r}; known: {', '.join(sorted(PATTERN_SETS))}"
        )
    return {"name": args.name, "patterns": [format_window(p) for p in members]}, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bweyl",
        description="Signed permutation toolkit: weak order, separability, "
        "generalized quotients, and splitting verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("separable", help="test the six-pattern separability")
    p.add_argument("window")
    p.set_defaults(func=_cmd_separable)

    p = subs.add_parser(
        "minimal-nonsep", help="test or list minimal non-separable windows"
    )
    p.add_argument("window", nargs="?")
    p.add_argument("--list", action="store_true", help="list all for rank --n")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_minimal_nonsep)

    p = subs.add_parser("ideal-poly", help="rank polynomial of a principal ideal")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--left", action="store_true", default=True)
    group.add_argument("--right", action="store_true", default=False)
    p.add_argument("window")
    p.set_defaults(func=_cmd_ideal_poly)

    p = subs.add_parser(
        "quotient", help="generalized quotient of the right interval below u"
    )
    p.add_argument("window")
    p.set_defaults(func=_cmd_quotient)

    p = subs.add_parser(
        "split-check", help="check that (quotient, interval) splits the group"
    )
    p.add_argument("window")
    p.set_defaults(func=_cmd_split_check)

    p = subs.add_parser("reduced-words", help="count (or list) reduced words")
    p.add_argument("window")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_reduced_words)

    p = subs.add_parser("verify", help="run one exhaustive check")
    p.add_argument("check", help=f"one of: {', '.join(sorted(theorems.CHECKS))}")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("examples", help="print a built-in reference catalog")
    p.add_argument("name", help="b2-separable | b4-st-fibers")
    p.set_defaults(func=_cmd_examples)

    p = subs.add_parser("pattern-set", help="print a named forbidden pattern family")
    p.add_argument("name")
    p.set_defaults(func=_cmd_pattern_set)

    for p in subs.choices.values():
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )
    return parser


_parser: argparse.ArgumentParser | None = None  # built at the first main call


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        window = getattr(args, "window", None)
        if window is not None:
            args.window = _window_arg(window)
        payload, status = args.func(args)
        if window is not None:
            payload = {"window": format_window(args.window), **payload}
        _emit(payload, args.format)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of what
        # is still buffered does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:  # usage errors and input the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
