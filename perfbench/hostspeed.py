"""Host speed probe, used to put timings on one scale.

The benchmark is meant to run on shared virtual machines whose CPU speed
changes under them: on a shared 2-vCPU VM the same 100-trigger storm
burst took from about 0.25 s to 0.65 s, in slow spells lasting from a
second to several minutes, so a whole run could be slower than the one
before it from start to end.  Host time alone cannot then tell a slower
program from a slower host.

The probe times a fixed pure-Python kernel (dictionary updates on small
integers; it allocates no object the garbage collector tracks and does
not touch the program) right before and after each timed slice of work.
Over two and a half minutes of alternating probes and bursts, 20 s
medians of the burst time moved by 1.6x while those of the ratio of
burst time to kernel time stayed within 4 %.  Each slice's host time is
therefore reported as *reference time*: its host time scaled by
``REFERENCE_S`` over the kernel time measured around it, i.e. what it
would have taken on a host that runs the kernel in ``REFERENCE_S``.  A
change to the program moves reference time as much as host time; a
change of host speed moves it much less.
"""

from __future__ import annotations

from time import perf_counter

#: Kernel seconds at the reference speed: a round figure inside the
#: 2.5-5 ms the kernel took on the 2-vCPU Xeon VM the benchmark was tuned
#: on.
REFERENCE_S = 0.004

#: Kernel runs per probe; the fastest one counts, so that one preemption
#: does not read as a slow host.
RUNS = 3


def kernel() -> dict[int, int]:
    table: dict[int, int] = {}
    for i in range(20000):
        key = i % 977
        table[key] = table.get(key, 0) + i
    return table


def probe() -> float:
    """Seconds the kernel takes on the host now."""
    best = float("inf")
    for _ in range(RUNS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Reference seconds per host second of a slice around which the kernel
    took *before* and *after* seconds."""
    return 2 * REFERENCE_S / (before + after)
