"""The fixed reference slice every timing is normalised against.

On a small shared VM the same code reads 51k or 93k alerts/s depending
on what the neighbours are doing, and there is no PMU to count
instructions instead.  What does hold still is the *ratio* of the
workload's time to the time of a fixed piece of pure-Python work run
right next to it, so the runner brackets every measured segment with one
``reference_slice()`` and reports

    t_norm = t_measured * REF_NOMINAL_MS / ref_measured_ms

where ``ref_measured_ms`` is the mean of the two bracketing slices.

The slice has two parts because the machine slows down in two ways.  A
busy sibling hyperthread stretches cache-resident compute (here by up to
1.56x) but pointer chasing much less (1.15x); the gateway sits in
between (1.43x in the same phase).  So ~70 % of the slice's time is the
hot-loop mix the gateway is made of — dict probes and inserts on string
keys, list appends, float compares, small tuples — and ~30 % is a
pseudo-random walk over a pool of small objects larger than L2.  Against
the compute part alone the normalised cost of identical runs had a
coefficient of variation of 3.5 %; against this mix, 1.5 %.

The iteration counts, the pool size and ``REF_NOMINAL_MS`` are frozen:
changing any of them re-bases every normalised number and is a new
benchmark, not a tuning step.  (``BENCHMARK.json`` admits no extra keys,
so the nominal lives here.)
"""

from __future__ import annotations

import functools
import time

__all__ = [
    "REF_ITERATIONS", "REF_WALK_STEPS", "REF_NOMINAL_MS", "REF_CHECKSUM",
    "reference_slice", "timed_slice", "normalise",
]

#: Loop trips of the compute part (fixed: the slice is the unit of time).
REF_ITERATIONS = 21_000
#: Steps of the memory walk, over a pool of this many rows (~18 MB).
REF_WALK_STEPS = 6_000
REF_POOL_ROWS = 150_000
#: What one slice took on the machine the benchmark was defined on.
REF_NOMINAL_MS = 9.0
#: The slice's return value; any other value means the kernel changed.
REF_CHECKSUM = 417350646

_KEYS = tuple(f"strategy-{index:04d}" for index in range(257))


@functools.cache
def _pool() -> list:
    """The walk's working set (~18 MB, built once, never mutated)."""
    return [[index, index * 0.5] for index in range(REF_POOL_ROWS)]


def reference_slice() -> int:
    """Run the fixed work; returns a checksum that proves it ran."""
    keys = _KEYS
    n_keys = len(keys)
    table: dict[str, list] = {}
    out: list[tuple] = []
    append = out.append
    state = 12345
    watermark = 0.0
    late = 0
    for index in range(REF_ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = keys[state % n_keys]
        at = (state >> 7) * 0.001
        if at >= watermark:
            watermark = at
        else:
            late += 1
        row = table.get(key)
        if row is None:
            table[key] = row = [0, 0.0]
        row[0] += 1
        row[1] += at
        if not index & 15:
            append((key, row[0], at))
    pool = _pool()
    n_rows = len(pool)
    visited = 0
    for _ in range(REF_WALK_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        visited += pool[state % n_rows][0]
    return (state ^ late ^ len(out) ^ len(table) ^ visited) & 0xFFFFFFFF


def timed_slice() -> float:
    """One slice's wall time in milliseconds."""
    started = time.perf_counter()
    if reference_slice() != REF_CHECKSUM:
        raise RuntimeError("reference kernel checksum changed")
    return (time.perf_counter() - started) * 1e3


def normalise(measured: float, ref_before_ms: float, ref_after_ms: float) -> float:
    """``measured`` rescaled to the nominal machine (same unit back)."""
    return measured * REF_NOMINAL_MS / ((ref_before_ms + ref_after_ms) / 2.0)
