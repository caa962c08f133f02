"""
Steadiness: two separate sets of runs of the same tree, each with RUNS
seeds per workload and BENCHMARK.json's run_seconds, and each end-to-end
metric's median and quartiles per set.  The bounds in BENCHMARK.json are
set from this output.

    python3 bench/steady.py

Set k uses seeds k*100+1 .. k*100+RUNS.  Within a set the workloads take
turns, seed by seed, so slow stretches of the machine fall on all of them.
Spread is (Q3 - Q1) / median with statistics.quantiles(values, n=4); shift
is (median of set 2 - median of set 1) / median of set 1.  Every metric,
setup_s included, passes when each set's spread and the absolute shift
are within its bound, and the failed share is the same in both sets.
Results go to bench/results/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for k in range(1, SETS + 1):
        runs: dict[str, list[dict]] = {w: [] for w in names}
        for seed in range(k * 100 + 1, k * 100 + RUNS + 1):
            for w in names:
                r = one_run(w, seed, seconds)
                runs[w].append(r)
                print(f"set {k} {w} seed {seed}: correct {r['correct']} "
                      f"attempted {r['attempted']} failed {r['failed']} "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in r["metrics"].items()),
                      flush=True)
        sets.append(runs)

    report: dict = {}
    ok = True
    print(f"\n{'workload':16s} {'metric':12s} set {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} {'shift':>7s}")
    for w in names:
        for m in bounds:
            rows = []
            for k, runs in enumerate(sets, start=1):
                s = summarize([r["metrics"][m]["value"] for r in runs[w]])
                rows.append(s)
                shift = ""
                if k > 1:
                    s["shift"] = (s["median"] - rows[0]["median"]) / rows[0]["median"]
                    shift = f"{s['shift']:+7.3f}"
                    ok = ok and abs(s["shift"]) <= bounds[m]
                ok = ok and s["spread"] <= bounds[m]
                print(f"{w:16s} {m:12s} {k:3d} {s['median']:11.5g} {s['q1']:11.5g} "
                      f"{s['q3']:11.5g} {s['spread']:7.3f} {bounds[m]:6.2f} {shift}")
            report.setdefault(w, {})[m] = rows
        shares = [sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w])
                  for runs in sets]
        report[w]["failed_share"] = shares
        print(f"{w:16s} failed share per set: {shares}")
        ok = ok and len(set(shares)) == 1
        ok = ok and all(r["correct"] for runs in sets for r in runs[w])
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    print("within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
