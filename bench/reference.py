"""A fixed piece of pure-stdlib work, timed next to every measured interval.

The reference box is a slice of a shared host: identical code runs up to
1.5x slower from one second to the next and stays slow for minutes
("Calibration" in ``README.md``), so no statistic over a run's raw
seconds is steady -- a whole run sits on one level.  What the benchmark
reports instead is time in *reference seconds*: every pass times this
module's work immediately before and after the interval it measures,
and the driver scales the interval by ``NOMINAL_S / measured``.  On the
box on a good day the factor is 1; when the box is slow, the program and
the reference slow down together and the factor takes it out.

The work imports nothing from the program and shares no state with it,
so a change to the program cannot move it.  It is shaped like the
program's own inner loops -- deep copies of nested containers, tuple and
frozenset construction, hashing into a dict, sorting, small-integer
arithmetic -- because a reference of another kind follows the box less
closely (an integer-only loop correlates 0.7-0.8 with a model-checking
pass, a mix like this one 0.83-0.84).
"""

from __future__ import annotations

import copy
import gc
import time

#: Seconds one ``reference_s()`` sample takes on the reference box on a
#: good day (it has read 0.037 to 0.068).  Only a scale: it makes
#: reference seconds read like wall seconds there.
NOMINAL_S = 0.045

_ROWS = [{f"k{j}": (j, i, [i, j]) for j in range(12)} for i in range(450)]


def _work() -> int:
    seen = {}
    total = 0
    for _ in range(2):
        for i, row in enumerate(copy.deepcopy(_ROWS)):
            key = (i, tuple(sorted(row)))
            seen[key] = frozenset(value[:2] for value in row.values())
            total += hash(key) & 0xFF
    for i in range(100_000):
        total += i * i & 7
    return total + len(seen)


def reference_s() -> float:
    """Seconds the reference work takes right now (one sample; cyclic GC
    paused so the program's heap size cannot leak into the number)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
