"""A fixed unit of work that measures how fast the host runs at a moment.

On a shared host the same code runs at speeds that drift by 10-40% over
seconds to minutes.  The untraced run times this unit between consecutive
groups of calls and divides each group's time by the mean of the units on
either side of it, which cancels the drift that both see.  The unit has two
parts, like the package's calls: a compute part (short numpy array operations
on about a thousand elements and a Python loop over their results) and a
memory part (a fresh array of 10^6 floats, as at n = 10^6).  Its time is a
weighted geometric mean of the two parts' times, two thirds compute and one
third memory.  It uses no code of the package, so a change to the package
cannot move it.

Interpreter launches drift with the host too, and the unit follows them only
loosely, so set-up time has a reference of its own: a launch that imports a
fixed set of standard-library modules (``REFERENCE_IMPORT``), timed either
side of each launch that imports the package.
"""

from __future__ import annotations

import time

import numpy as np

# A unit's time on the host the benchmark was written on (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4): a normalised time is reported in these seconds.
REFERENCE_S = 0.0031

# The reference launch's code, and its time on that host.
REFERENCE_IMPORT = (
    "import asyncio, email.mime.multipart, http.client, xml.etree.ElementTree, decimal, "
    "unittest, argparse, json, logging, tarfile, zipfile, sqlite3, csv, fractions, "
    "statistics, concurrent.futures"
)
REFERENCE_IMPORT_S = 0.154

_RNG_SEED = 20161117
_STEPS = np.arange(1, 1001, dtype=np.float64)
_LARGE = np.random.default_rng(_RNG_SEED).random(10**6)


def compute_part() -> float:
    rng = np.random.default_rng(_RNG_SEED)
    total = 0.0
    for _ in range(36):
        ones = np.flatnonzero(rng.random(1000) < 0.01 + 1.0 / _STEPS)
        counts: dict[int, int] = {}
        for gap in np.diff(np.append(ones, 1001)).tolist():
            counts[gap] = counts.get(gap, 0) + 1
        angles = (_STEPS[:400] * 0.6180339887498949) % 1.0
        total += int(np.count_nonzero((angles > 0.2) & (angles < 0.7))) + len(counts)
        total += float(np.cumprod(1.0 - 1.0 / (_STEPS + 1.0))[-1])
    return total


def memory_part() -> float:
    partial = np.cumsum(_LARGE)
    partial *= 0.5
    return float(partial[-1])


def _seconds(part) -> float:
    start = time.perf_counter()
    part()
    return time.perf_counter() - start


def unit_seconds() -> float:
    """Wall time of one unit: the weighted geometric mean of its parts' times."""
    return _seconds(compute_part) ** (2 / 3) * _seconds(memory_part) ** (1 / 3)
