"""Machine speed, measured by a fixed pure-Python loop between timed work.

The measuring machine shares its cores with other tenants.  Its speed
switches between two levels about 1.5x apart, at times several times a
second and at times once a minute, and the share of slow time changes from
one minute to the next (README.md has the measurements).  Work timed in one
run and in the next therefore differs by up to 1.5x with no change in the
program.

The benchmark times `probe()` right before and right after every CLI call,
and before each set-up process starts and right after its set-up ends, never
during the timed work.  It reports times scaled to one fixed speed:

    scaled seconds = measured seconds * REF_S / mean probe seconds

so that a run in a slow phase and a run in a fast phase read alike.  Both
the measured and the scaled times are printed.
"""

from __future__ import annotations

import time

# The loop's time at the fast level of the machine described in README.md;
# it fixes the unit of scaled seconds and never changes.
REF_S = 0.0035

LOOP_N = 40_000
SETUP_REPS = 10     # loops per probe beside a set-up (rarer, longer)


def _loop():
    acc = 0
    seen = {}
    for i in range(LOOP_N):
        acc += i * i
        seen[i & 255] = acc
    return acc


def probe(reps=3):
    """Mean seconds of one pass of the fixed loop over `reps` passes."""
    t = time.perf_counter()
    for _ in range(reps):
        _loop()
    return (time.perf_counter() - t) / reps


def scale(seconds, probe_s):
    """`seconds` measured while the probe took `probe_s`, at REF_S speed."""
    return seconds * REF_S / probe_s
