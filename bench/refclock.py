"""A clock that corrects timings for the speed of a shared host.

On a shared host one core's speed changes by up to half within seconds
as other tenants come and go, and CPU time slows with it, so raw seconds
of the same work spread widely between runs.  The clock times a fixed
slice of pure-Python reference work at the start and the end of each
stretch it measures and, from a CPU-time timer signal, every
SAMPLE_SECONDS inside it.  A stretch's corrected seconds are its own
seconds, less the time spent in samples, times the mean over its samples
of REF_SECONDS / (seconds the slice took): the seconds the stretch would
have taken on a host that runs the slice in REF_SECONDS.
"""

import signal
import statistics
from time import perf_counter

# A round figure near one slice's time on an idle core of the 2-vCPU
# x86-64 VM the benchmark was built on, with Python 3.11.  It only scales
# the corrected seconds; slices taken amid the program's work run slower
# than idle ones, so corrected seconds read up to 1.7 times the raw ones.
REF_SECONDS = 0.0005
SAMPLE_SECONDS = 0.05
EDGE_SAMPLES = 3

_LABELS = ["t%d" % i for i in range(1, 600)]
_PARENT = {label: "t%d" % (i // 2) for i, label in enumerate(_LABELS, 1)}


def reference_slice():
    """Walk every label up to the root of a fixed 600-leaf tree of string
    labels: dict lookups and hashing, the program's own staple.  It
    allocates no container, so it never sets off the garbage collector."""
    steps = 0
    for label in _LABELS:
        up = _PARENT[label]
        while up in _PARENT:
            up = _PARENT[up]
            steps += 1
    return steps


class Clock:
    """Times one stretch at a time: ``start()``, the work, ``stop()``."""

    def __init__(self):
        self.inverse = []  # REF_SECONDS / slice seconds, one per sample
        self.sampled = 0.0  # seconds spent in samples inside the stretch
        self.t0 = None
        signal.signal(signal.SIGVTALRM, self._on_timer)

    def _sample(self):
        t0 = perf_counter()
        reference_slice()
        took = perf_counter() - t0
        self.inverse.append(REF_SECONDS / took)

    def _on_timer(self, signum, frame):
        t0 = perf_counter()
        self._sample()
        self.sampled += perf_counter() - t0

    def start(self):
        self.inverse, self.sampled = [], 0.0
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.t0 = perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_SECONDS, SAMPLE_SECONDS)

    def stop(self):
        """The stretch's raw and corrected seconds."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        seconds = perf_counter() - self.t0 - self.sampled
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return seconds, seconds * statistics.fmean(self.inverse)
