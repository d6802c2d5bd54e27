"""How fast the host runs, from a fixed probe loop.

On a shared host the CPU time of the same work varies by up to 2x from
one second to the next, as other tenants contend for the core and its
caches: on a 2-core x86 Xeon microVM a fixed pure-Python loop took
0.082-0.18 s from one 0.15 s sample to the next, and the fastest of six
2 s grid passes moved by 2x between runs.  The benchmark therefore
runs a probe before and after each timed unit of work (a grid pass, a
set-up) and reports the unit's CPU time divided by the probes' mean
slowdown: CPU seconds of the uncontended reference host.

The probe is a pure-Python loop of dict updates and float arithmetic,
the interpreter work the grid code mostly does, and it calls no code
of the program.  A change to the program therefore moves the rescaled
time as much as the raw one.
"""

from __future__ import annotations

import time

#: Long enough (about a third of a second) to average over the host's
#: sub-second swings: with a 0.11 s probe, the probes' own noise moved
#: single-pass exact_grid figures by up to 50%.
PROBE_ITERATIONS = 1_200_000
#: The probe's CPU time on the uncontended reference host (2-core x86
#: Xeon, Python 3.11); rescaled times are in seconds of that host.
PROBE_S = 0.33


def slowdown() -> float:
    """The probe's CPU time over :data:`PROBE_S`: 1.0 on an uncontended host."""
    start = time.process_time()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        x = (i * 2654435761) % 1000003
        table[x & 1023] = table.get(x & 1023, 0.0) + x * 1e-6
        total += x * 0.5
    return (time.process_time() - start) / PROBE_S


def rescaled(cpu_s: float, before: float, after: float) -> float:
    """``cpu_s`` in reference-host seconds, from the slowdowns around it."""
    return 2.0 * cpu_s / (before + after)
