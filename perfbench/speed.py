"""A fixed CPU probe that measures how fast the machine runs right now.

The 2-core machine the benchmark was defined on drifts in CPU speed under
load from outside its container: the same op's wall and CPU time vary by up
to 1.7x, over seconds to minutes, which no statistic taken within one run
removes.  The benchmark calls `measure` in its own parent process, idle
otherwise, before every measured op and once after the last, and scales each
op's times by REF_S / (mean of the measurements either side of it).  Times
are then reported in seconds at the speed where the probe takes REF_S, so
drift that slows the probe and the op alike cancels, while a change to bhlab,
which the probe does not use, does not.

The probe mixes, in about equal parts, the kinds of work the ops do:
pure-Python integer and Fraction arithmetic (identities, root counts, psi,
the sieve grid), strided numpy writes over a large float64 array (building
the Lambda table), random gathers from a table larger than the CPU caches
(Lambda lookups) and int64 Horner steps over a long array (the moments
kernel).  All four together tracked the ops' slow-downs better than any
one or two of them.
"""

import math
import statistics
import time
from fractions import Fraction

import numpy as np

# About the median of `measure` over ten runs of each workload on the machine
# the benchmark was defined on.  A constant: it only sets the scale of the
# reported times.
REF_S = 0.05

PY_STEPS = 40_000
NP_LENGTH = 3_000_000
NP_STRIDES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
GATHER_TABLE = np.random.default_rng(1).random(4_000_000)
GATHER_INDEX = np.random.default_rng(2).integers(0, len(GATHER_TABLE),
                                                 1_000_000)
HORNER_X = np.arange(1, 1_000_001, dtype=np.int64)
HORNER_COEFFS = (3, -7, 11, 5, 2, 9)
REPEATS = 5


def probe():
    """Seconds taken by a fixed mix of pure-Python and numpy work."""
    start = time.perf_counter()
    acc, total = 0, Fraction(0)
    for i in range(1, PY_STEPS):
        acc += pow(i, 3, 1_000_003) * (i % 7)
        if i % 300 == 0:
            total += Fraction(acc % 997, i)
    table = np.zeros(NP_LENGTH)
    for p in NP_STRIDES:
        table[::p] += math.log(p)
    table.sum()
    GATHER_TABLE[GATHER_INDEX].sum()
    value = np.zeros_like(HORNER_X)
    for c in HORNER_COEFFS:
        value = value * HORNER_X + c
    np.abs(value).sum()
    return time.perf_counter() - start


def measure():
    """Median of REPEATS probes: one scheduling hiccup does not move it."""
    return statistics.median(probe() for _ in range(REPEATS))
