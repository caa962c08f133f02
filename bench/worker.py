"""
One round of one workload, measured (or traced) in a fresh interpreter.
Started by run.py; prints one JSON object on stdout.

    worker.py --src DIR --workload W --seed S --round K --mode run|trace|setup
              [--spans PATH]

The round's operations are made from (seed, round) before bweyl is
imported, so input generation is not part of set-up, and every round of a
run draws its own inputs.  Set-up runs from the import to the start of the
first operation.  Outputs are kept as text and checked after the round,
outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import workloads

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    ops = workloads.WORKLOADS[args.workload](workloads.round_rng(args.seed, args.round))

    clock = time.perf_counter
    t_import = clock()
    import bweyl
    import bweyl.cli

    if Path(bweyl.__file__).resolve().parent != src / "bweyl":
        print(f"bweyl imported from {bweyl.__file__}, not {src}", file=sys.stderr)
        return 3
    if args.mode == "setup":
        print(json.dumps({"setup_s": clock() - t_import}))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cli_main = bweyl.cli.main
    redirect = contextlib.redirect_stdout
    results = []
    latencies: list[float] = []
    labels: list[str] = []
    failed = 0
    start = None
    for argv, tag in ops:
        full = list(argv) + ["--format", "json"]
        buf = io.StringIO()
        t0 = clock()
        try:
            with redirect(buf):
                if tracer is None:
                    rc = cli_main(full)
                else:
                    rc = tracer.op(argv[0], cli_main, full)
        except Exception as exc:  # an operation that raises counts as failed
            print(f"failed: {' '.join(argv)}: {exc!r}", file=sys.stderr)
            rc = None
        t1 = clock()
        if start is None:
            start = t0
        latencies.append((t1 - t0) * 1000)
        labels.append(" ".join(argv[:2] if argv[0] == "verify" else argv[:1]))
        if rc is None or rc == 2:
            failed += 1
        else:
            results.append((argv, tag, rc, buf.getvalue()))
    wall_s = t1 - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = []
    try:
        workloads.check_round(args.workload, results)
    except (workloads.CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")

    out = {
        "attempted": len(ops),
        "failed": failed,
        "correct": not errors,
        "errors": errors,
        "setup_s": start - t_import,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "op_ms": latencies,
        "op_labels": labels,
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
