"""Reference loop that measures how fast the host runs Python right now.

CPU speed on shared machines drifts in phases of several seconds, so every
timing the benchmark reports is also given "at reference speed":
``raw * ref_nominal / ref_measured``, with ``ref_measured`` taken from this
loop within a few milliseconds of the sample.  The loop does the same kinds
of work as a linear-scan search (dict build, ``sorted``, ``min(key=)`` and
float adds) but imports nothing from ``extinf``, so a change to the package
cannot move the yardstick it is measured with.
"""

import time

_KEYS = [f"k{i:03d}" for i in range(60)]
REPEATS = 5  # passes over _KEYS in one unit of reference work


def reference_ms() -> float:
    """Wall time of one fixed unit of reference work, in milliseconds."""
    clock = time.perf_counter
    start = clock()
    total = 0.0
    for _ in range(REPEATS):
        table = {key: (i % 7) + 0.5 for i, key in enumerate(_KEYS)}
        pending = sorted(_KEYS, reverse=True)
        while pending:
            nearest = min(pending, key=table.__getitem__)
            total += table[nearest]
            pending.remove(nearest)
    elapsed = clock() - start
    if total != REPEATS * sum((i % 7) + 0.5 for i in range(len(_KEYS))):
        raise RuntimeError("reference loop computed a wrong sum")
    return elapsed * 1e3
