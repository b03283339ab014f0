"""CPU-speed adjustment of measured times.

On a shared host the CPUs this process runs on swing between full speed and
roughly 1.6 times slower, in phases of a few to forty seconds (a neighbour
busy on the sibling hyper-thread).  Raw times then differ by that factor
from run to run.  While measuring, a fixed probe loop of dictionary lookups
runs every ``INTERVAL`` seconds from a SIGALRM handler and its duration is
recorded.  An operation's adjusted time is its raw time, less the probes
that ran inside it, scaled by ``REFERENCE`` times the mean reciprocal probe
duration around it: the time the operation would have taken with the probe
running at its reference speed.  The probe is interpreter-bound Python like
the package; on that host it tracked the package's slowdown to within a few
percent.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from array import array

INTERVAL = 0.1
REFERENCE = 8.0e-5  # seconds per probe at full speed on the reference host
WINDOW = 0.4  # probes this close to an operation also describe its speed
MIN_PROBES = 8
TRIM = 0.1

_rng = random.Random(0)
_KEYS = [(_rng.randrange(1000), _rng.randrange(1000), 7) for _ in range(1500)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_ORDER = _KEYS[:]
_rng.shuffle(_ORDER)


def _pass() -> float:
    table = _TABLE
    t0 = time.perf_counter()
    total = 0
    for key in _ORDER:
        total += table[key]
    return time.perf_counter() - t0


def probe() -> float:
    """Median duration of three passes of the fixed lookup loop, after one
    pass that brings the table back into cache."""
    _pass()
    return sorted(_pass() for _ in range(3))[1]


def scale(durations) -> float:
    """``REFERENCE`` times the trimmed mean of reciprocal probe durations."""
    inverse = sorted(1.0 / d for d in durations)
    cut = int(len(inverse) * TRIM)
    kept = inverse[cut:len(inverse) - cut] or inverse
    return REFERENCE * sum(kept) / len(kept)


class SpeedProbe:
    """Samples probe durations on a wall-clock timer between ``start`` and
    ``stop``; ``adjust`` converts a measured interval."""

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.starts = array("d")
        self.durations = array("d")
        self.costs = array("d")  # time spent in the handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.durations.append(probe())
        self.starts.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def adjust(self, t0: float, t1: float) -> float:
        """Adjusted duration of the interval ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(self.costs[lo:hi])
        a = bisect.bisect_left(self.starts, t0 - WINDOW)
        b = bisect.bisect_right(self.starts, t1 + WINDOW)
        while b - a < MIN_PROBES and (a > 0 or b < len(self.starts)):
            a, b = max(a - 1, 0), min(b + 1, len(self.starts))
        if a == b:
            raise RuntimeError("no speed probes were recorded")
        return (t1 - t0 - inside) * scale(self.durations[a:b])
