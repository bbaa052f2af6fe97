"""The speed of the benchmark's own process, used to scale times to a reference speed.

On the shared 2-vCPU VM this benchmark was tuned on, the speed of a vCPU
changes by 20-30 % from one second to the next, and CPU time shows it as
much as wall time does.  Six fresh processes running the same
verify_exhaustive job spread by 27 % (quartile distance over median).  A
fixed loop of exact rational arithmetic, timed in the same process right
before and after each step of about half a second, slows down with the work;
dividing by it brought that spread to 2-3 %.  Timed runs therefore report
every time as ``ns * SPEED_REF_NS / loop ns``: the time the work would take
at the reference speed, which is about the loop's typical time on that host.
The loop runs between steps, never during one, so it neither competes with
pool workers nor adds to a measured time.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

SPEED_REF_NS = 650_000


def loop_ns() -> int:
    """Time one pass of a fixed loop of Fraction sums and comparisons (about 0.65 ms)."""
    start = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        if acc > 1000:
            acc = Fraction(1, acc.denominator % 97 + 1)
    return time.perf_counter_ns() - start


def bracket_ns(repeats: int = 8) -> float:
    return statistics.median(loop_ns() for _ in range(repeats))
