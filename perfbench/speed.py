"""How fast the shared machine runs right now, for scaling end-to-end times.

The host this benchmark was built on is a 4-vCPU VM whose vCPUs share
physical cores with other tenants. The same stream then runs up to 1.7x
slower from one second to the next, or on one vCPU against another, and
best-of-N over passes cannot remove a slow spell that lasts a whole run.
So every end-to-end time is scaled by ``REFERENCE_SPIN_MS / spin_ms()``,
where ``spin_ms()`` is taken right before and right after the timed work.
That gives the time the work would take on a machine where the spin takes
``REFERENCE_SPIN_MS``. A change to the program does not change the spin,
so the scaled figures still show it in full. Unscaled figures are printed
next to them.

The spin is a fixed sliding-window top list kept with ``bisect`` over
tuples and a dict, the kind of work the core's Python does. Other
tenants' load slows such code more than a plain arithmetic loop: over 24
single-stream passes spread over the VM's four vCPUs, p50 over this spin
spread 0.10 IQR/median, against 0.22 over an arithmetic loop.
"""
from __future__ import annotations

import bisect
import random
import time

#: spin time that defines the reference speed (the spin took 2.5-3.6 ms
#: on the host above)
REFERENCE_SPIN_MS = 2.5
_WINDOW = 400
#: fixed input, the same in every run whatever its seed
_RNG = random.Random(0)
_SEQ = [_RNG.random() for _ in range(2000)]


def _spin_once() -> float:
    t0 = time.perf_counter()
    seq, window, live = _SEQ, [], {}
    for t, x in enumerate(seq):
        bisect.insort(window, (x, t))
        live[t] = x
        if t >= _WINDOW:
            old = t - _WINDOW
            del window[bisect.bisect_left(window, (live.pop(old), old))]
    return time.perf_counter() - t0


def spin_ms(repeats: int = 2) -> float:
    """Best of ``repeats`` runs of the fixed spin, in ms."""
    return min(_spin_once() for _ in range(repeats)) * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor turning a time measured between two spins into reference time."""
    return 2 * REFERENCE_SPIN_MS / (before_ms + after_ms)
