"""
The benchmark command: one run of one workload.

    python3 bench/run.py --workload theorem-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Every measured process is a
fresh interpreter started from this one, one at a time.  The package is
imported from a fresh copy of src/ under .bench_build/, with bytecode
writing off, so every import compiles it from source; the standard
library's own bytecode caches are used as installed.

--trace 0  end-to-end metrics: rounds run, each in a fresh interpreter
           with its own inputs drawn from (seed, round), while another
           round fits in --seconds.  Before each round and after the last,
           SETUP_PROBES interpreters only import the package.  set-up, wall and peak RSS are medians over
           interpreters and rounds; the latency percentiles cover every
           operation.
--trace 1  per-layer metrics: round 0 untraced, then round 0 traced in
           another interpreter; spans go to bench/results/.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Set-up probes at each point of the run.  The machine's speed drifts over
# seconds, so probes spread over the run average over it better than
# probes taken back to back.
SETUP_PROBES = 2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}


def revision() -> str:
    """The git revision when the checkout is a repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the only sample when there is one."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, args):
        self.args = args
        # The measured run plus its set-up probes and the last round's overshoot.
        self.deadline = time.monotonic() + 2 * args.seconds + 60
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        self.env.pop("PYTHONPATH", None)
        self.src = ROOT / ".bench_build" / f"src-{os.getpid()}"
        shutil.rmtree(self.src, ignore_errors=True)
        shutil.copytree(ROOT / "src" / "bweyl", self.src / "bweyl",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))

    def close(self) -> None:
        shutil.rmtree(self.src, ignore_errors=True)

    def worker(self, mode: str, round_index: int = 0, spans: Path | None = None) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(self.src),
               "--workload", a.workload, "--seed", str(a.seed), "--round", str(round_index),
               "--mode", mode]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("time limit reached before the run finished")
        # subprocess.run kills the worker and waits for it on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                              cwd=ROOT, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def probes(self) -> list[float]:
        return [self.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]

    def rounds(self) -> tuple[list[dict], list[float]]:
        """Fresh-interpreter rounds while another one still fits in --seconds,
        and the set-up probes taken around them."""
        start = time.monotonic()
        out, probes = [], []
        while True:
            probes += self.probes()
            out.append(self.worker("run", round_index=len(out)))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(out) > self.args.seconds:
                return out, probes + self.probes()


def merge(rounds: list[dict]) -> dict:
    """attempted, failed, correct and errors summed over the rounds."""
    return {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "correct": all(r["correct"] for r in rounds),
        "errors": [e for r in rounds for e in r["errors"]],
    }


def by_label(rounds: list[dict]) -> dict[str, float]:
    """Median latency in ms of each verb (or check) over the rounds."""
    groups: dict[str, list[float]] = {}
    for r in rounds:
        for label, ms in zip(r["op_labels"], r["op_ms"]):
            groups.setdefault(label, []).append(ms)
    return {k: statistics.median(v) for k, v in sorted(groups.items())}


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "bweyl" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'bweyl'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(args)
    try:
        if args.trace == 0:
            rounds, probes = runner.rounds()
            latencies = sorted(ms for r in rounds for ms in r["op_ms"])
            setups = probes + [r["setup_s"] for r in rounds]
            walls = [r["wall_s"] for r in rounds]
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
                "op_p50_ms": statistics.median(latencies),
                "op_p99_ms": percentile(latencies, 99),
            }
            units = E2E_UNITS
            run = merge(rounds)
            detail = {"setup_samples": setups, "walls": walls,
                      "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
                      "op_ms_by_label": by_label(rounds)}
        else:
            base = runner.worker("run")
            traced = runner.worker("trace", spans=RESULTS / f"{stem}.spans.jsonl")
            values = dict(traced["per_layer"])
            values["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
            units = {k: "s" if k.endswith("_s") else "count" for k in values}
            run = merge([base, traced])
            detail = {"untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"],
                      "untraced_op_ms_by_label": by_label([base])}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    env = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "revision": revision(),
        "machine": platform.machine(),
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"python {env['python']}  cpus {env['cpus']}  revision {env['revision']}")
    for name, value in values.items():
        print(f"{name:45s} {value:>14.6g} {units[name]}")
    print(f"operations attempted {run['attempted']}  failed {run['failed']}  "
          f"correct {str(run['correct']).lower()}")
    for err in run["errors"][:5]:
        print(f"check failed: {err}")
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(dict(result, env=env, detail=detail), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
