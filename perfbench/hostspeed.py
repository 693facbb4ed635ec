"""Host-speed correction of measured wall times.

The benchmark runs on a few cores of a shared host whose speed drifts
over seconds and minutes with its other tenants' load, by up to 2x.
CPU time equals wall time through these slowdowns, so the time is not
stolen by the scheduler: the same instructions run slower, and the
raw wall time of one operation varies between runs by a quarter or
more.

A :class:`SpeedProbe` measures that drift while the operation runs. A
real-time interval timer interrupts the operation every ``PERIOD_S``
seconds, and a fixed pointer chase over a few tens of MB of Python
objects is timed in the signal handler. The chase depends only on the
host, never on the program under test. Its mean over an operation says
how slow the host was during exactly that operation. The corrected time
is the operation's wall time without the probes, divided by the
slowdown ``mean probe time / NOMINAL_PROBE_S`` raised to
``SLOWDOWN_EXPONENT``: about what the operation would have taken had
the host run at the probe's nominal speed.

The chase touches memory the way an interpreter does (tuple slots, int
and float objects scattered over the heap, reference counts). On this
benchmark's host the slowdown is mostly in the memory system, and the
chase tracks it far better than arithmetic, call-heavy or
allocation-heavy probes do. The chase reacts more strongly than the
operations, which also spend time outside the memory system: the
exponent is the slope of log wall time against log probe time over
runs of the three workloads (README.md has the numbers). It shares the caches with the operation, so a change that
makes the operation's own memory traffic heavier or lighter also moves
the probe a little; the raw wall time is printed next to the corrected
one for that reason.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import statistics
import time

#: interval between two probes during an operation
PERIOD_S = 0.02
#: mean probe time that defines nominal host speed (corrected time ==
#: raw time when the probe runs this fast); measured on an idle slice
#: of the benchmark's reference host, see README.md
NOMINAL_PROBE_S = 6.0e-4
#: how an operation's time scales with the probe's time
SLOWDOWN_EXPONENT = 0.75
#: the same for a fresh interpreter's set-up, probed from the parent
#: process while the child runs
SETUP_SLOWDOWN_EXPONENT = 0.5
#: objects in the chase, and steps of one probe
CHASE_OBJECTS = 1 << 19
CHASE_STEPS = 600


def resident_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class SpeedProbe:
    def __init__(self):
        before = resident_mb()
        rng = random.Random(0)
        perm = list(range(CHASE_OBJECTS))
        rng.shuffle(perm)
        values = [float(i) for i in range(CHASE_OBJECTS)]
        rng.shuffle(values)
        # tuples of untracked atoms leave the garbage collector's lists,
        # so the probe adds nothing to the program's collections
        self._next, self._values = tuple(perm), tuple(values)
        del perm, values
        #: resident memory the probe itself holds for the whole run
        self.rss_mb = resident_mb() - before
        self._at = 0
        self.samples: list[float] = []

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        nxt, values, j, total = self._next, self._values, self._at, 0.0
        for _ in range(CHASE_STEPS):
            j = nxt[j]
            total += values[j]
        self._at = j
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        """Probe every ``PERIOD_S`` until the block ends."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        """Mean probe time of the last sampled block over nominal; 1.0
        when the block was too short to be probed."""
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / NOMINAL_PROBE_S

    def scaled(self, seconds: float,
               exponent: float = SLOWDOWN_EXPONENT) -> float:
        """``seconds`` that passed during the last sampled block, at
        nominal host speed."""
        return seconds / self.slowdown() ** exponent

    def corrected(self, seconds: float) -> float:
        """``seconds`` of the last sampled block, less the probes' own
        time, at nominal host speed."""
        return self.scaled(seconds - sum(self.samples))
