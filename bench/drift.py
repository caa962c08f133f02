"""
Machine drift: time a fixed pure-Python loop back to back for --seconds,
and report the spread of the per-block times in each 1-second block.

    python3 bench/drift.py --seconds 40

The loop does the same work every time, so any change in its time is the
machine's, not the program's.
"""

from __future__ import annotations

import argparse
import statistics
import time


def fixed_work() -> int:
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()
    blocks: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        block_start = time.perf_counter()
        samples = []
        while time.perf_counter() - block_start < 1.0:
            t0 = time.perf_counter()
            fixed_work()
            samples.append(time.perf_counter() - t0)
        blocks.append(statistics.median(samples) * 1000)
    q1, med, q3 = statistics.quantiles(blocks, n=4)
    print(f"{len(blocks)} one-second blocks; median loop time per block (ms):")
    print(" ".join(f"{b:.2f}" for b in blocks))
    print(f"min {min(blocks):.2f}  q1 {q1:.2f}  median {med:.2f}  q3 {q3:.2f}  "
          f"max {max(blocks):.2f}  (max-min)/median {(max(blocks) - min(blocks)) / med:.3f}")


if __name__ == "__main__":
    main()
