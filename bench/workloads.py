"""
The three workloads: the operations of one round, made from the seed, and
the checks on their outputs.  Nothing here imports the package under
test, so inputs are made before the timed import.

An operation is a CLI argument list, run in-process through
bweyl.cli.main with "--format json" appended.  A round is a list of
operations made from its own random generator; a run is several rounds,
each in a fresh interpreter.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

SWEEP_RANK = 5

#: The lemma checks, each at the highest rank the CLI accepts for it.
LEMMA_RANKS = {
    "sign-structure": 6,
    "coefficient-shift": 6,
    "not-rank-symmetric": 6,
    "unique-reduced-word": 6,
    "factorization": 6,
    "rank-symmetry": 6,
    "minimality-equivalence": 6,
    "product-identity": 5,
    "classifier-equivalence": 5,
    "interval-identity": 4,
}

#: Element verbs; quotient and split-check are left out at rank 7, where a
#: separable split walk makes |W_7| = 645,120 products.
VERBS = (
    ("separable",),
    ("minimal-nonsep",),
    ("ideal-poly",),
    ("ideal-poly", "--right"),
    ("quotient",),
    ("split-check",),
    ("reduced-words",),
)
RANK7_VERBS = tuple(v for v in VERBS if v[0] not in ("quotient", "split-check"))

#: Windows per round for each (kind, rank).
DRAWS = {
    ("uniform", 4): 6, ("uniform", 5): 6, ("uniform", 6): 6, ("uniform", 7): 8,
    ("separable", 4): 3, ("separable", 5): 3, ("separable", 6): 3,
    ("near-top", 4): 2, ("near-top", 5): 2, ("near-top", 6): 1,
}
NEAR_TOP_WORD = 2


def round_rng(seed: int, round_index: int) -> random.Random:
    """The generator of one round: the same (seed, round) gives the same inputs."""
    return random.Random(f"{seed}/{round_index}")


class CheckError(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def fmt(w) -> str:
    return " ".join(str(x) for x in w)


# -- sweeps -------------------------------------------------------------------


def theorem_round(rng: random.Random) -> list[tuple]:
    return [(("verify", "theorem", "--n", str(SWEEP_RANK)), None)]


def lemma_round(rng: random.Random) -> list[tuple]:
    # The seed orders the checks; each check's input is its whole universe.
    ids = sorted(LEMMA_RANKS)
    rng.shuffle(ids)
    return [(("verify", cid, "--n", str(LEMMA_RANKS[cid])), None) for cid in ids]


def check_report(argv, rc: int, report: dict) -> None:
    cid, n = argv[1], int(argv[3])
    expect(rc == 0 and report["pass"] is True, f"{cid} n={n} did not pass")
    expect(report["witnesses"] == [], f"{cid} n={n} has witnesses")
    expect(report["n"] == n and report["vacuous"] is False, f"{cid} n={n} header")
    checked, counts = report["checked"], report["counts"]
    if cid == "theorem":
        expect(checked == oracle.group_order(n), "theorem: checked != 2^n n!")
        expect(counts["separable"] == oracle.schroeder(n), "theorem: separable != S_n")
        expect(counts["non_separable"] == checked - counts["separable"], "theorem: rest")
    elif cid in ("classifier-equivalence", "minimality-equivalence", "interval-identity"):
        expect(checked == oracle.group_order(n), f"{cid}: checked != |W_n|")
    elif cid == "product-identity":
        expect(checked == oracle.schroeder(n), "product-identity: checked != S_n")
    elif cid == "factorization":
        # Windows ending (-n, n-1): any signed arrangement of the rest.
        expect(checked == oracle.group_order(n - 2), "factorization: checked != 2^(n-2)(n-2)!")
    elif cid == "unique-reduced-word":
        expect(checked == 1 and counts["length"] == 2 * n - 2, "unique-reduced-word")
    else:
        expect(checked == REFERENCE[str(n)][cid], f"{cid}: checked != reference")
    if cid == "minimality-equivalence":
        expect(counts["minimal_nonseparable"] == REFERENCE[str(n)]["minimal_nonseparable"],
               "minimality-equivalence: minimal count != reference")


# -- element queries ----------------------------------------------------------


def _uniform(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = rng.sample(range(1, n + 1), n)
    return tuple(x if rng.random() < 0.5 else -x for x in perm)


def _near_top(rng: random.Random, n: int) -> tuple[int, ...]:
    """w0 times a random word of NEAR_TOP_WORD generators, kept reduced."""
    while True:
        w = [-k for k in range(1, n + 1)]
        for _ in range(NEAR_TOP_WORD):
            i = rng.randrange(n)  # right multiplication by s_i acts on places
            if i == 0:
                w[0] = -w[0]
            else:
                w[i - 1], w[i] = w[i], w[i - 1]
        if oracle.length(w) == n * n - NEAR_TOP_WORD:
            return tuple(w)


def named_windows() -> list[tuple[str, tuple[int, ...]]]:
    out = []
    for n in (4, 5, 6, 7):
        out.append(("identity", tuple(range(1, n + 1))))
        out.append(("unique-word", tuple(range(1, n - 1)) + (-n, n - 1)))
        if n <= 6:
            out.append(("w0", tuple(range(-1, -n - 1, -1))))
    return out


def element_windows(rng: random.Random) -> list[tuple[str, tuple[int, ...]]]:
    windows = []
    for (kind, n), count in sorted(DRAWS.items()):
        for _ in range(count):
            if kind == "uniform":
                w = _uniform(rng, n)
            elif kind == "separable":
                w = _uniform(rng, n)
                while not oracle.separable(w):
                    w = _uniform(rng, n)
            else:
                w = _near_top(rng, n)
            windows.append((kind, w))
    windows += named_windows()
    rng.shuffle(windows)
    return windows


def element_round(rng: random.Random) -> list[tuple]:
    ops = []
    for kind, w in element_windows(rng):
        verbs = RANK7_VERBS if len(w) == 7 else VERBS
        for verb in verbs:
            ops.append(((verb[0], fmt(w)) + verb[1:], (kind, w)))
    return ops


def check_elements(results) -> None:
    """Check every element operation; results are (argv, tag, rc, payload)."""
    by_window: dict[tuple, dict] = {}
    for argv, (kind, w), rc, out in results:
        verb = argv[0] + (" --right" if "--right" in argv else "")
        expect(out["window"] == fmt(w), f"{verb} {fmt(w)}: window echo")
        by_window.setdefault(w, {})[verb] = out
        check_element(verb, kind, w, rc, out)
    for w, outs in by_window.items():
        order = oracle.group_order(len(w))
        if "quotient" in outs and oracle.separable(w):
            expect(outs["quotient"]["size"] * outs["ideal-poly --right"]["size"] == order,
                   f"{fmt(w)}: quotient size x interval size != |W|")
        if "split-check" in outs:
            counts = outs["split-check"]["counts"]
            expect(counts["x"] == outs["quotient"]["size"]
                   and counts["y"] == outs["ideal-poly --right"]["size"],
                   f"{fmt(w)}: split-check sizes disagree with quotient and interval")


def check_element(verb: str, kind: str, w, rc: int, out: dict) -> None:
    n, lw = len(w), oracle.length(w)
    where = f"{verb} {fmt(w)}"
    if verb == "separable":
        expect(rc == 0 and out["separable"] == oracle.separable(w), where)
    elif verb == "minimal-nonsep":
        minimal = oracle.minimal_nonseparable(w)
        expect(rc == 0 and out["minimal_nonseparable"] == minimal, where)
        if minimal:
            expect(out["inverse_also_minimal"]
                   == oracle.minimal_nonseparable(oracle.inverse(w)), where + ": inverse")
    elif verb.startswith("ideal-poly"):
        cs = out["coefficients"]
        expect(rc == 0 and out["order"] == ("right" if "--right" in verb else "left"), where)
        expect(out["size"] == sum(cs), where + ": size != sum of coefficients")
        expect(len(cs) - 1 == lw, where + ": degree != length")
        expect(cs[0] == 1 and cs[-1] == 1, where + ": end coefficients")
        expect(out["symmetric"] == (cs == cs[::-1]), where + ": symmetric")
        expect(out["unimodal"] == oracle.unimodal(cs), where + ": unimodal")
    elif verb == "quotient":
        listing = out["windows"]
        expect(rc == 0 and len(listing) == out["size"] == len(set(listing)), where + ": size")
        expect(listing[-1] == fmt(oracle.longest_times_inverse(w)), where + ": apex")
        parsed = [tuple(int(x) for x in s.split()) for s in listing]
        expect(all(oracle.is_window(x, n) for x in parsed), where + ": windows")
        lengths = [oracle.length(x) for x in parsed]
        expect(lengths == sorted(lengths) and lengths[0] == 0, where + ": order")
    elif verb == "split-check":
        sep = oracle.separable(w)
        expect(out["splitting"] == sep and rc == (0 if sep else 1), where + ": verdict")
        counts = out["counts"]
        expect(counts["group"] == oracle.group_order(n), where + ": group order")
        if sep:
            expect(counts["x"] * counts["y"] == counts["group"] and out["size_check"]
                   and out["witness"] is None, where + ": sizes")
    elif verb == "reduced-words":
        expect(rc == 0 and out["length"] == lw and out["count"] >= 1, where)
        if kind == "w0":
            expect(out["count"] == oracle.square_tableaux(n), where + ": SYT(n x n)")
        if kind == "unique-word":
            expect(out["count"] == 1, where + ": unique word")


WORKLOADS = {
    "theorem-sweep": theorem_round,
    "lemma-sweep": lemma_round,
    "element-queries": element_round,
}


def check_round(workload: str, results) -> None:
    """results: (argv, tag, rc, stdout) per operation of one round."""
    parsed = [(argv, tag, rc, json.loads(out)) for argv, tag, rc, out in results]
    if workload == "element-queries":
        check_elements(parsed)
    else:
        for argv, _, rc, report in parsed:
            check_report(argv, rc, report)
