"""Operation times corrected for the speed of the core they ran on.

On a shared host the speed of one core changes by up to a third from
one second to the next, as other tenants load it, and the changes on
the two cores of a machine are unrelated. Raw wall time of one
operation then moves as much as a real regression would. The clock
below runs a fixed reference loop of integer arithmetic on a profiling
timer, every PERIOD_S of process CPU time, so the loop samples the
speed of the same core while the operation runs, and reports

    wall seconds * REF_S / mean reference-loop seconds during the operation

that is, the seconds the operation would take when the reference loop
takes REF_S. REF_S only sets the unit: it is about the loop's median
time on the 2-vCPU Xeon of the baseline, so that reference seconds are
close to wall seconds there. The reference loop's own time is left out
of the operation's wall time. The loop is benchmark code and calls
nothing in kummerlat, so a change to the program moves only the
numerator.
"""

import signal
import statistics
from itertools import product
from math import gcd
from time import perf_counter

PERIOD_S = 0.02
REF_S = 7.5e-5
WINDOW = 5  # fewest samples to average; short operations borrow recent ones

_GRAM = ((2, 1, 0, -1), (1, -2, 3, 0), (0, 3, 4, 1), (-1, 0, 1, -6))
_VECTORS = tuple(product(range(-1, 2), repeat=4))[:60]


def _reference():
    """Bilinear forms of small integer vectors: no allocation the collector tracks."""
    s = 0
    for v in _VECTORS:
        for i in range(4):
            row = _GRAM[i]
            s += v[i] * (row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3])
        s += gcd(s, 360)
    return s


class Clock:
    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        start = perf_counter()
        _reference()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        for _ in range(WINDOW):
            self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def begin(self):
        """Mark the start of an operation; returns a token for seconds()."""
        self.sample()
        return len(self.samples) - 1, self.spent, perf_counter()

    def seconds(self, token):
        """Reference seconds since begin(token), reference loops excluded."""
        first, spent, start = token
        wall = perf_counter() - start - (self.spent - spent)
        self.sample()
        around = self.samples[first:]
        if len(around) < WINDOW:
            around = self.samples[-WINDOW:]
        # The slowest tenth of the samples is dropped: a reference loop hit
        # by an interrupt reads far slower than the core ran.
        kept = sorted(around)[:max(1, len(around) * 9 // 10)]
        return wall * REF_S / statistics.fmean(kept)
