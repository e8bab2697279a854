"""Machine-speed gauge: a fixed kernel timed between operations, so that
the operations' times can be scaled to one reference speed.

The benchmark's host is a shared VM whose speed drifts by up to a half over
seconds to minutes, with CPU time moving in step with wall time; five runs
of the same inputs spread by a fifth.  The gauge times a kernel of the
benchmark's own schoolbook Laurent arithmetic (oracles.mmul: a 3 x 3 matrix
product of nine-term Laurent polynomials over Z/49, on fixed inputs), the
same kind of dict-and-integer work as hdflow's ringmath, in code that no
change to hdflow touches.  An operation's time is multiplied by
REFERENCE_S over the median kernel time of the NEIGHBOURS samples nearest
to it, which reads the time the operation would take on the VM at its usual
speed.  Garbage collection is off while the kernel runs, so the program's
heap does not reach into the gauge.
"""

import bisect
import gc
import random
import statistics
import time

from oracles import mmul

# Median kernel time on the 2-core development VM (Python 3.11) at its
# usual speed.
REFERENCE_S = 0.75e-3
# Least time between two samples: a sample follows any operation that
# ends this long after the last one.
EVERY_S = 0.02
NEIGHBOURS = 11
MODULUS = 49


def _matrix(rng, lo, hi):
    return [[{e: rng.randrange(1, MODULUS) for e in range(lo, hi)} for _ in range(3)]
            for _ in range(3)]


class Gauge:
    def __init__(self):
        rng = random.Random("gauge")
        self._a = _matrix(rng, -3, 6)
        self._b = _matrix(rng, -2, 7)
        self.at, self.walls, self.cpus = [], [], []
        self.last = float("-inf")
        for _ in range(3):
            self._kernel()

    def _kernel(self):
        enabled = gc.isenabled()
        gc.disable()
        c0, t0 = time.process_time(), time.perf_counter()
        mmul(self._a, self._b, MODULUS)
        t1, c1 = time.perf_counter(), time.process_time()
        if enabled:
            gc.enable()
        return t0, t1 - t0, c1 - c0

    def sample(self, n=1):
        for _ in range(n):
            t, wall, cpu = self._kernel()
            self.at.append(t)
            self.walls.append(wall)
            self.cpus.append(cpu)
        self.last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def factors(self, t):
        """(wall, cpu) factors that scale times measured at perf_counter t
        to the reference speed."""
        i = bisect.bisect_left(self.at, t)
        hi = min(len(self.at), max(i + NEIGHBOURS // 2, NEIGHBOURS))
        lo = max(0, hi - NEIGHBOURS)
        return (REFERENCE_S / statistics.median(self.walls[lo:hi]),
                REFERENCE_S / statistics.median(self.cpus[lo:hi]))
