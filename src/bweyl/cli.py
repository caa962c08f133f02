"""
Command line surface; windows are quoted strings ("-2 3 4 5 1").  Exit
status: 0 for answered queries and passing checks, 1 when a check finds
a counterexample or a split-check fails, 2 for usage errors and input
the library rejects with ValueError (a malformed window, an ideal over
its element limit), and 141 (128 + SIGPIPE, quietly) when the reader of
stdout goes away (`bweyl ... | head -1`).
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
from .quotients import quotient_of_interval, splits_with_interval
from .reports import RANKS
from .signed_perm import (
    all_windows,
    format_window,
    length,
    parse_window,
    sort_windows,
)
from .weak_order import ideal_polynomial, iter_reduced_words, reduced_word_count

MAX_ELEMENT_RANK = 8
MAX_LISTED_WORDS = 100_000


class UsageError(Exception):
    pass


def _window_arg(text: str):
    w = parse_window(text)
    if len(w) > MAX_ELEMENT_RANK:
        raise UsageError(f"rank {len(w)} exceeds the element limit {MAX_ELEMENT_RANK}")
    return w


def _require_n(check: str, n: int) -> None:
    lo, hi = RANKS[check]
    if not lo <= n <= hi:
        raise UsageError(f"--n must be in {lo}..{hi}")


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


def _cmd_separable(args) -> int:
    w = _window_arg(args.window)
    _emit({"window": format_window(w), "separable": is_separable(w)}, args.format)
    return 0


def _cmd_minimal_nonsep(args) -> int:
    if args.list:
        if args.n is None:
            raise UsageError("--list needs --n")
        _require_n("minimality-equivalence", args.n)  # same universe, same test
        hits = [w for w in all_windows(args.n) if _minimal(w)]
        _emit({"n": args.n, "count": len(hits), "windows": _windows_payload(hits)},
              args.format)
        return 0
    if args.window is None:
        raise UsageError("pass a window or --list --n K")
    w = _window_arg(args.window)
    minimal = is_minimal_nonseparable_fast(w)
    payload = {"window": format_window(w), "minimal_nonseparable": minimal}
    if minimal:
        payload["inverse_also_minimal"] = inverse_minimality_criterion(w)
    _emit(payload, args.format)
    return 0


def _cmd_ideal_poly(args) -> int:
    w = _window_arg(args.window)
    poly = ideal_polynomial("lower-right" if args.right else "lower-left", w)
    _emit(
        {
            "window": format_window(w),
            "order": "right" if args.right else "left",
            "size": poly(1),
            "polynomial": str(poly),
            "coefficients": poly.to_list(),
            "symmetric": poly.is_symmetric(),
            "unimodal": poly.is_unimodal(),
        },
        args.format,
    )
    return 0


def _cmd_quotient(args) -> int:
    u = _window_arg(args.window)
    X = quotient_of_interval(u)
    _emit(
        {"window": format_window(u), "size": len(X), "windows": _windows_payload(X)},
        args.format,
    )
    return 0


def _cmd_split_check(args) -> int:
    u = _window_arg(args.window)
    report = splits_with_interval(u)
    payload = {"window": format_window(u), **report.to_json()}
    _emit(payload, args.format)
    return 0 if report.is_splitting else 1


def _cmd_reduced_words(args) -> int:
    w = _window_arg(args.window)
    count = reduced_word_count(w)
    if args.list and count > MAX_LISTED_WORDS:
        raise UsageError(f"{count} reduced words exceed the list limit {MAX_LISTED_WORDS}")
    payload = {"window": format_window(w), "length": length(w), "count": count}
    if args.list:
        payload["words"] = [
            " ".join(str(i) for i in word) for word in iter_reduced_words(w)
        ]
    _emit(payload, args.format)
    return 0


def _cmd_verify(args) -> int:
    runner = theorems.CHECKS.get(args.check)
    if runner is None:
        known = ", ".join(sorted(theorems.CHECKS))
        raise UsageError(f"unknown check {args.check!r}; known: {known}")
    _require_n(args.check, args.n)
    report = runner(args.n)
    _emit(report.to_json(), args.format)
    return 0 if report.passed else 1


def _cmd_examples(args) -> int:
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
        raise UsageError(f"unknown catalog {args.name!r}")
    _emit(payload, args.format)
    return 0


def _cmd_pattern_set(args) -> int:
    ps = PATTERN_SETS.get(args.name)
    if ps is None:
        raise UsageError(
            f"unknown pattern set {args.name!r}; known: {', '.join(sorted(PATTERN_SETS))}"
        )
    _emit(
        {"name": ps.name, "patterns": [format_window(p) for p in ps.members]},
        args.format,
    )
    return 0


def _add_format(sub) -> None:
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bweyl",
        description="Signed permutation toolkit: weak order, separability, "
        "generalized quotients, and splitting verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("separable", help="test the six-pattern separability")
    p.add_argument("window")
    _add_format(p)
    p.set_defaults(func=_cmd_separable)

    p = subs.add_parser(
        "minimal-nonsep", help="test or list minimal non-separable windows"
    )
    p.add_argument("window", nargs="?")
    p.add_argument("--list", action="store_true", help="list all for rank --n")
    p.add_argument("--n", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_minimal_nonsep)

    p = subs.add_parser("ideal-poly", help="rank polynomial of a principal ideal")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--left", action="store_true", default=True)
    group.add_argument("--right", action="store_true", default=False)
    p.add_argument("window")
    _add_format(p)
    p.set_defaults(func=_cmd_ideal_poly)

    p = subs.add_parser(
        "quotient", help="generalized quotient of the right interval below u"
    )
    p.add_argument("window")
    _add_format(p)
    p.set_defaults(func=_cmd_quotient)

    p = subs.add_parser(
        "split-check", help="check that (quotient, interval) splits the group"
    )
    p.add_argument("window")
    _add_format(p)
    p.set_defaults(func=_cmd_split_check)

    p = subs.add_parser("reduced-words", help="count (or list) reduced words")
    p.add_argument("window")
    p.add_argument("--list", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_reduced_words)

    p = subs.add_parser("verify", help="run one exhaustive check")
    p.add_argument("check", help=f"one of: {', '.join(sorted(theorems.CHECKS))}")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("examples", help="print a built-in reference catalog")
    p.add_argument("name", help="b2-separable | b4-st-fibers")
    _add_format(p)
    p.set_defaults(func=_cmd_examples)

    p = subs.add_parser("pattern-set", help="print a named forbidden pattern family")
    p.add_argument("name")
    _add_format(p)
    p.set_defaults(func=_cmd_pattern_set)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of what
        # is still buffered does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError) as exc:  # the library rejects bad input by ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
