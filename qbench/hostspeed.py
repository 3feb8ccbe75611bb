"""Host-speed reference: a fixed loop timed next to every measured operation.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third and more over tens of seconds, for every kind of code alike: a run taken
in a slow minute reads 30% slower with no change to the program.  So each
command (and each set-up interpreter) is preceded by one call of
``reference()``, a fixed mix of interpreter bytecode and small numpy
operations that belongs to the benchmark and never calls qgamma.  A latency is
then scaled by ``REF_S`` over the median reference time around it:

    normalised = latency * REF_S / median(reference times of the 2*WINDOW+1
                                          operations nearest it)

which is the latency the operation would have had on a host where one
``reference()`` call takes exactly ``REF_S`` seconds.  A change of the
program moves the normalised value by the same factor as the raw one; a
change of host speed that hits the reference and the program alike cancels.
The raw values are printed next to the normalised ones.

Set-up time is a fresh interpreter's start and imports, which drift with the
host's process start and file access rather than with its bytecode speed, so
its reference is a fresh interpreter of its own: ``SETUP_REF_ARGS`` imports a
fixed set of standard-library modules, never qgamma or numpy, and is launched
just before each timed set-up; each set-up time is scaled by
``SETUP_REF_S`` over that launch's time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 0.002  # nominal seconds of one reference() call; timings are scaled to it
WINDOW = 10  # reference samples taken on each side of an operation

SETUP_REF_ARGS = ["-c", "import argparse, asyncio, dataclasses, decimal, email.message, "
                        "fractions, json, statistics, typing, unittest, xml.dom.minidom"]
SETUP_REF_S = 0.12  # nominal seconds of one reference interpreter launch


def reference() -> float:
    """Fixed work, about 2 ms here: a bytecode loop plus small-array numpy calls."""
    s = 0
    for i in range(20000):
        s += (i * i) % 7
    a = np.arange(2000.0)
    for _ in range(20):
        a = np.sqrt(a * 1.0001 + 1.0)
    return s + float(a[-1])


def time_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def normalise(times: list[float], refs: list[float], nominal: float = REF_S,
              window: int = WINDOW) -> list[float]:
    """Each time scaled to the nominal host speed; refs[i] was taken just before times[i].

    The scale of times[i] is ``nominal`` over the median of refs[i-window .. i+window].
    """
    if len(times) != len(refs):
        raise ValueError(f"{len(times)} times but {len(refs)} reference samples")
    return [
        t * nominal / statistics.median(refs[max(0, i - window): i + window + 1])
        for i, t in enumerate(times)
    ]
