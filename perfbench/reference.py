"""The reference loop, and a sampler that times it while a pass runs.

The reference loop is a fixed piece of interpreter work, about 0.2 ms.
Its CPU time tracks how fast the CPU runs at that moment, so a step's
CPU time over the reference time taken during that step stays put when
a shared host slows every process down.

The sampler times the loop from a SIGALRM handler every INTERVAL seconds
of wall time.  Python runs the handler between bytecodes of the main
thread, so during a long call into C the samples wait for it to return.
The loop is timed by ``time.thread_time()``: an interval timer never
coarsens that clock, and the sampled time is the main thread's own.
"""

from __future__ import annotations

import signal
import time

REF_LOOP = 2_000  # interpreter iterations of the reference loop
REF_SECONDS = 0.0002  # reference loop time that defines "seconds at reference speed"
INTERVAL = 0.01  # wall seconds between samples


def reference_loop() -> float:
    """CPU time of one run of the reference loop."""
    t0 = time.thread_time()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.thread_time() - t0


class Sampler:
    """Samples of the reference loop, taken every INTERVAL while armed.

    ``with sampler:`` arms it; ``samples`` only grows, so a caller marks
    where a stretch of work starts with ``len(sampler.samples)``.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._old_handler = None

    def _take(self, signum, frame) -> None:
        self.samples.append(reference_loop())

    def __enter__(self) -> "Sampler":
        self._old_handler = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
