"""Host speed: a fixed reference kernel, timed next to every operation.

On a shared host the speed of one CPU drifts by up to 2x over seconds
to minutes, because other tenants contend for the physical core: the
same discovery on the same table, with no page faults and no context
switches, takes anywhere from 0.65 to 1.25 s.  Medians over a run
cannot remove a drift that outlasts the run, so every workload also
times this kernel -- fixed pure-Python and numpy loops that call no
``repro`` code -- right before each operation (outside its timed region), and
once more after the last.

An operation's *normalized* time is its measured time multiplied by
``REFERENCE_MS`` over the mean of the two kernel passes that bracket it:
the time the operation would take on a host where the kernel takes
``REFERENCE_MS``.  The host's speed also flickers from one second to
the next, so the passes closest to the operation track it best; a
median over a window of passes several seconds wide measured a wider
spread from run to run.  A change to the program moves the operation's
time but not the kernel's, so it shows in full; a slower host moves
both, so it cancels.

This fits operations that compute in one process (``discover``,
``stream``).  It does not fit served requests, whose latency is mostly
waiting (the batcher's flush window, thread and process wake-ups)
rather than computing: normalized that way their spread from run to run
measured two to three times wider than unnormalized, so ``serve`` is
measured against a stand-in server instead (``reference_server.py``).
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Normalized times read as measured times on a host where one pass of
#: the kernel takes this long; the value sets the scale only.
REFERENCE_MS = 20.0

_LOOPS = 150_000
_SWEEPS = 4


def kernel_s() -> float:
    """Wall seconds of one pass of the reference kernel.

    A pass is a pure-Python loop and then a small proportional-fitting
    loop in numpy, the two kinds of work discovery and revisions do: the
    host's contention slows each kind by its own amount.
    """
    start = time.perf_counter()
    total = 0
    for value in range(_LOOPS):
        total += value * value
    joint = (np.arange(4**8) % 7 + 1.0).reshape((4,) * 8)
    joint /= joint.sum()
    axes = tuple(range(8))
    for _ in range(_SWEEPS):
        for axis in axes:
            margin = joint.sum(axis=axes[:axis] + axes[axis + 1 :])
            shape = [1] * 8
            shape[axis] = 4
            joint = joint * (0.25 / margin).reshape(shape)
    return time.perf_counter() - start


def factors(spans: list[tuple[float, float]], passes: list[tuple[float, float]]):
    """Multiplier from measured to normalized time for operations that
    ran over ``spans`` ``(start, end)``, given kernel ``passes`` as
    ``(start, seconds)`` on the same clock, one before each operation and
    one after the last."""
    starts = [at for at, _ in passes]
    result = []
    for start, end in spans:
        after = bisect.bisect_left(starts, end)
        before = passes[after - 1][1]
        result.append(REFERENCE_MS / 1e3 / ((before + passes[after][1]) / 2))
    return result
