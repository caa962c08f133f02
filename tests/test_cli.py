"""Command line behaviour: verbs, formats, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bweyl import cli, weak_order
from bweyl.cli import main
from bweyl.quotients import quotient_of_interval
from bweyl.signed_perm import all_windows, format_window, parse_window


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_separable_query(capsys):
    code, out, _ = run(capsys, "separable", "2 -4 3 -1")
    assert code == 0
    assert "separable: false" in out
    code, out, _ = run(capsys, "separable", "1 2 3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"window": "1 2 3", "separable": True}


def test_ideal_poly_text(capsys):
    code, out, _ = run(capsys, "ideal-poly", "--left", "-2 3 4 5 1")
    assert code == 0
    assert "1 + 2q + 2q^2 + 2q^3 + q^4 + q^5" in out
    code, out, _ = run(capsys, "ideal-poly", "--right", "-1 2", "--format", "json")
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 1]
    assert payload["order"] == "right"


def test_ideal_poly_csv(capsys):
    code, out, _ = run(capsys, "ideal-poly", "--left", "1 -2", "--format", "csv")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert rows["coefficients"] == "1;1;1;1"


def test_quotient_listing(capsys):
    code, out, _ = run(capsys, "quotient", "-1 2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 4
    # every listed window parses back
    for text in payload["windows"]:
        parse_window(text)


def test_quotient_listing_matches_the_sorted_ideal(capsys):
    # The listing is read off the levels of the search; it must be the
    # (length, window) order of the quotient itself.
    rng = random.Random(5)
    windows = [w for n in range(1, 5) for w in all_windows(n)]
    windows += [tuple(rng.choice((1, -1)) * x for x in rng.sample(range(1, 7), 6))
                for _ in range(30)]
    for u in windows:
        code, out, _ = run(capsys, "quotient", format_window(u), "--format", "json")
        assert code == 0
        expected = cli._windows_payload(quotient_of_interval(u))
        assert json.loads(out)["windows"] == expected, u


def test_split_check_exit_codes(capsys):
    code, out, _ = run(capsys, "split-check", "-1 2", "--format", "json")
    assert code == 0
    assert json.loads(out)["splitting"] is True
    code, out, _ = run(capsys, "split-check", "-2 1", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["splitting"] is False
    assert payload["size_check"] is False


def test_verify_theorem(capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["checked"] == 48
    assert payload["counts"] == {"non_separable": 26, "separable": 22}


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "nonsense", "--n", "3")
    assert code == 2
    assert "unknown check" in err


def test_verify_rank_guard(capsys):
    code, _, err = run(capsys, "verify", "theorem", "--n", "7")
    assert code == 2
    assert "--n" in err


def test_reduced_words(capsys):
    code, out, _ = run(capsys, "reduced-words", "1 -3 2", "--list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["words"] == ["2 1 0 1"]


def test_reduced_words_list_is_bounded(capsys):
    # w0 at rank 6 has 1,671,643,033,734,960 reduced words: refused before listing
    code, out, err = run(capsys, "reduced-words", "-1 -2 -3 -4 -5 -6", "--list")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "1671643033734960" in err
    code, out, _ = run(capsys, "reduced-words", "-1 -2 -3 -4", "--list",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["words"]) == 24024


def test_minimal_nonsep_window(capsys):
    code, out, _ = run(capsys, "minimal-nonsep", "-2 3 4 5 1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal_nonseparable"] is True
    assert payload["inverse_also_minimal"] is False


def test_minimal_nonsep_listing(capsys):
    code, out, _ = run(capsys, "minimal-nonsep", "--list", "--n", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert sorted(payload["windows"]) == ["-2 1", "2 -1"]
    code, _, err = run(capsys, "minimal-nonsep", "--list")
    assert code == 2 and "--n" in err


def test_minimal_nonsep_window_and_listing_exclude_each_other(capsys):
    # the listing used to print and the window was silently dropped
    code, out, err = run(capsys, "minimal-nonsep", "-2 3 4 5 1", "--list", "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: pass a window or --list --n K, not both\n"


def test_minimal_nonsep_window_with_n_needs_list(capsys):
    # --n used to be silently ignored next to a window
    code, out, err = run(capsys, "minimal-nonsep", "-2 3 4 5 1", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: --n needs --list\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv, window, status", [
    (["separable", "  -2  3 4   5 1 "], "-2 3 4 5 1", 0),
    (["minimal-nonsep", "-2 3  4 5 1"], "-2 3 4 5 1", 0),
    (["ideal-poly", "--right", " -1   2"], "-1 2", 0),
    (["quotient", "-1  2 "], "-1 2", 0),
    (["split-check", "\t-2 1"], "-2 1", 1),
    (["reduced-words", " 1 -3  2 ", "--list"], "1 -3 2", 0),
    (["minimal-nonsep", "--list", "--n", "2"], None, 0),
    (["verify", "theorem", "--n", "2"], None, 0),
    (["examples", "b2-separable"], None, 0),
    (["pattern-set", "sep-forbidden-6"], None, 0),
])
def test_every_verb_takes_format_and_echoes_a_given_window_first(capsys, argv, window, status, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (status, "")
    first_line = out.splitlines()[0]
    if fmt == "json":
        payload = json.loads(out)
        if window is None:
            assert "window" not in payload
        else:
            assert next(iter(payload.items())) == ("window", window)
    elif window is None:
        assert not first_line.startswith("window")
    else:
        assert first_line == {"text": f"window: {window}", "csv": f"window,{window}"}[fmt]


def test_examples_catalogs(capsys):
    code, out, _ = run(capsys, "examples", "b2-separable", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["windows"]) == 6
    code, out, _ = run(capsys, "examples", "b4-st-fibers", "--format", "json")
    payload = json.loads(out)
    assert len(payload["3142"]) == 16
    assert len(payload["2413"]) == 16
    code, _, err = run(capsys, "examples", "mystery")
    assert code == 2


def test_pattern_set_listing(capsys):
    code, out, _ = run(capsys, "pattern-set", "sep-forbidden-6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "-2 1" in payload["patterns"]
    assert len(payload["patterns"]) == 6
    code, _, _ = run(capsys, "pattern-set", "unknown")
    assert code == 2


def test_window_parse_errors_exit_two(capsys):
    # every verb that takes a window refuses a malformed one, nothing on
    # stdout; `minimal-nonsep "1 1" --list --n 3` used to list and ignore it
    verbs = (
        ["separable"], ["minimal-nonsep"], ["minimal-nonsep", "--list", "--n", "3"],
        ["ideal-poly", "--left"], ["ideal-poly", "--right"], ["quotient"],
        ["split-check"], ["reduced-words"], ["reduced-words", "--list"],
    )
    for verb in verbs:
        for bad in ("1 1", "0 2", "not numbers", "1 3"):
            code, out, err = run(capsys, *verb, bad)
            assert (code, out) == (2, ""), (verb, bad)
            assert err.startswith("error:")


def test_element_rank_guard(capsys):
    big = " ".join(str(i) for i in range(1, 10))  # rank 9
    code, _, err = run(capsys, "separable", big)
    assert code == 2
    assert "element limit" in err


def test_ideal_over_element_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 10)
    for side in ("--left", "--right"):
        code, out, err = run(capsys, "ideal-poly", side, "-1 -2 -3")
        assert code == 2
        assert out == ""
        assert err == "error: ideal exceeds the element limit 10: 16 elements reached\n"


def test_reduced_words_over_element_budget_exits_two(capsys, monkeypatch):
    # used to walk every element below w: 10,321,920 for the rank-8 w0
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 10)
    code, out, err = run(capsys, "reduced-words", "-1 -2 -3")
    assert code == 2
    assert out == ""
    assert err == "error: ideal exceeds the element limit 10: 16 elements reached\n"
    code, out, _ = run(capsys, "reduced-words", "1 -3 2")
    assert code == 0
    assert out.endswith("count: 1\n")


def test_split_check_over_element_budget_exits_two(capsys, monkeypatch):
    # R(u) or the right ideal below -u outgrows the bound: 1, 3, 5, 7 levels
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 10)
    for window in ("1 2 3", "-1 -2 -3"):
        code, out, err = run(capsys, "split-check", window)
        assert code == 2
        assert out == ""
        assert err == "error: ideal exceeds the element limit 10: 16 elements reached\n"
    # both ideals fit, |X| * |Y| = |W|, but the product walk would hold the whole group
    monkeypatch.setattr(weak_order, "MAX_IDEAL_ELEMENTS", 47)
    code, out, err = run(capsys, "split-check", "2 1 3")
    assert code == 2
    assert out == ""
    assert err == "error: rank-3 group exceeds the element limit 47: 48 elements\n"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "quotient", "-1 2 3", "--format", "json")
    _, second, _ = run(capsys, "quotient", "-1 2 3", "--format", "json")
    assert first == second
    _, first, _ = run(capsys, "verify", "minimality-equivalence", "--n", "3",
                      "--format", "json")
    _, second, _ = run(capsys, "verify", "minimality-equivalence", "--n", "3",
                       "--format", "json")
    assert first == second


def test_closed_stdout_pipe_ends_quietly():
    # `bweyl minimal-nonsep --list --n 5 | head -1` used to print a
    # BrokenPipeError traceback: here the reader is gone before any write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bweyl.cli", "minimal-nonsep", "--list", "--n", "5"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    assert run(capsys, "separable", "1 2")[0] == 0
    assert run(capsys, "pattern-set", "sep-forbidden-6")[0] == 0
    assert run(capsys, "verify", "theorem", "--n", "2")[0] == 0
    assert run(capsys, "separable", "1 1")[0] == 2
    assert built == [1]


def test_main_uses_the_build_parser_in_place_at_its_first_call(monkeypatch, capsys):
    # a wrapper installed after import (as a tracer does) sees every parse
    parser = cli.build_parser()
    parsed = []
    parse_args = parser.parse_args

    def recording(argv=None):
        parsed.append(argv)
        return parse_args(argv)

    parser.parse_args = recording
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    run(capsys, "separable", "1 2")
    run(capsys, "quotient", "-1 2")
    assert parsed == [["separable", "1 2"], ["quotient", "-1 2"]]


def test_bench_tracer_wraps_every_verb():
    # The benchmark's tracer replaces cli.build_parser after import and
    # patches parse_args on the parser it returns; parsing must be timed.
    root = Path(__file__).resolve().parents[1]
    script = """
import contextlib, io, json, sys
import bweyl.cli as cli
import tracing

tracer = tracing.Tracer()
try:
    tracing.install(tracer)
except AttributeError as exc:
    print(json.dumps({"install": repr(exc)}))
    sys.exit()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(tracer.op(argv[0], cli.main, argv + ["--format", "json"]))
print(json.dumps({"install": None, "codes": codes,
                  "parse_s": tracer.metrics()["cli.parse_s"]}))
"""
    ops = [
        ["separable", "-2 3 4 5 1"], ["minimal-nonsep", "-2 3 4 5 1"],
        ["ideal-poly", "--right", "-1 2"], ["quotient", "-1 2"], ["split-check", "-2 1"],
        ["reduced-words", "1 -3 2"], ["verify", "theorem", "--n", "3"],
        ["examples", "b2-separable"], ["pattern-set", "sep-forbidden-6"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(ops)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")])},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["install"] is None
    assert result["codes"] == [0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert result["parse_s"] > 0
