"""Samples how fast the CPU it runs on is running.

    python3 perfbench/speed.py

Every PERIOD_S it times a fixed piece of interpreter work, about a quarter
of a millisecond, and sleeps for the rest of the period, so it takes about
1% of the CPU.  When its standard input closes it prints a JSON list of
``[CLOCK_MONOTONIC at the middle of the piece, the piece's seconds]``.

On a shared VM a vCPU's speed moves by up to 1.6x within seconds and over
minutes, with other tenants' load.  Pinned to the same CPU as a measured
process, the durations follow the speed that process sees (their
one-second means correlated at 0.99 with a busy loop's on a 2-vCPU Xeon
VM; on the other vCPU, at 0.3), so run.py can scale each measured time to
one reference speed.
"""

from __future__ import annotations

import json
import selectors
import sys
import time

PERIOD_S = 0.025


def piece() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i
    return time.perf_counter() - start


def main() -> int:
    samples = []
    stdin = selectors.DefaultSelector()
    stdin.register(sys.stdin, selectors.EVENT_READ)
    while True:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        seconds = piece()
        samples.append([start + seconds / 2, seconds])
        if stdin.select(timeout=max(0.0, PERIOD_S - seconds)):
            break
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
