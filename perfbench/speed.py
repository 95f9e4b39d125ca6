"""The machine's current speed, from a fixed reference loop.

On a shared VM the same op takes up to twice as long minutes apart, on
every workload at once and with little CPU steal: the host's other
tenants change how fast this machine runs.  Wall clock alone then
measures the neighbours.  So timed items (an op, a set-up, a slice of
service load) are bracketed by two runs of a reference loop that never
touches the program, and the time of an item that is CPU work is
divided by the machine's speed factor over its bracket: the
reference's time over its nominal time.

The reference is two parts, each timed on its own:

* an interpreter loop over a small dict of short strings (no objects
  the garbage collector tracks, so the program's heap never slows it);
* numpy sorts of a fixed array (skipped where numpy is missing).

Neither part alone follows the program.  Under load the interpreter
loop slowed by about 2x while a census link slowed by about 1.5x and
a sort by about 1.4x; the geometric mean of the two parts' factors
tracks the link.  A reference must bracket the item closely: the speed
moves within seconds, and one factor for a whole 20 s window left
7-11% of spread where a bracketing one left 2%.  Over ten series-arrival
runs on a 2-core VM during heavy CPU steal, raw op latency spread 0.39
of its median and scaled op latency 0.10.

A scaled time is in the same unit as the raw one: what the item would
have taken on a machine that runs the reference in its nominal time.
The nominal times below are about the fastest the reference ran on the
2-core Xeon VM the bounds in ``BENCHMARK.json`` were measured on, so a
scaled figure reads close to a raw one taken on a quiet machine.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Callable, List, Optional, Tuple

clock = time.perf_counter

#: Nominal seconds of each reference part (see the module docstring).
NOMINAL_S = {"python": 0.02, "numpy": 0.009}

PYTHON_STEPS = 60_000
#: A small array, sorted several times: what the reference keeps alive
#: counts in the peak RSS of the process under test.
SORT_SIZE = 200_000
SORTS = 5

try:
    import numpy
except ImportError:  # the program runs without numpy; so does this
    numpy = None
    _UNSORTED = None
else:
    _UNSORTED = numpy.random.default_rng(0).random(SORT_SIZE)


def _python_part() -> int:
    counts = {}
    total = 0
    for step in range(PYTHON_STEPS):
        key = "k%d" % (step % 997)
        counts[key] = counts.get(key, 0) + step
        total += len(key)
    return total


def _numpy_part() -> float:
    return sum(float(numpy.sort(_UNSORTED)[SORT_SIZE // 2])
               for _ in range(SORTS))


def parts() -> List[Tuple[str, Callable]]:
    found = [("python", _python_part)]
    if numpy is not None:
        found.append(("numpy", _numpy_part))
    return found


def factor() -> float:
    """Run the reference once: the machine's slowdown against nominal
    (1.0 = nominal speed, 2.0 = twice as slow)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for name, part in parts():
            began = clock()
            part()
            logs.append(math.log((clock() - began) / NOMINAL_S[name]))
    finally:
        if enabled:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


class Bracket:
    """Items timed back to back, with one reference run between each
    two: each item shares its neighbours' references.

    ``after()`` is called right after each item; it runs the next
    reference and returns the item's speed factor.  ``measure`` runs
    one reference (default :func:`factor`)."""

    def __init__(self, measure: Optional[Callable[[], float]] = None) -> None:
        self.measure = measure or factor
        self.before = self.measure()

    def after(self) -> float:
        following = self.measure()
        speed = math.sqrt(self.before * following)
        self.before = following
        return speed
