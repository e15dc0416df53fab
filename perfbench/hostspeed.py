"""Host speed, sampled while timed sections run.

On a shared host the same work takes up to twice the CPU time from one
second to the next, as other tenants contend for the cores and caches;
the benchmark's times would mostly measure them.  :class:`SpeedSampler`
runs a process that times a small fixed kernel of interpreter and NumPy
work every ``SAMPLE_PERIOD`` seconds, and a section's CPU seconds are
scaled by the kernel's reference time over its mean time during the
section.  The kernel lives here, not in the program, so no change to
the program moves it.

The sampler must run on the core the work runs on: the timed work is
pinned to one core (:func:`pin_to_one_core`), pool workers included,
before the sampler starts, and the sampler inherits the pin.  The
sampler is a process rather than a thread, so the program's pool never
forks a process with a second thread running.  It is forked, not
spawned: the spawn start method launches multiprocessing's resource
tracker, a helper process that outlives the benchmark and that no one
waits for.
"""

from __future__ import annotations

import os
import time
from multiprocessing import get_context
from typing import Tuple

import numpy as np

#: steps of one speed sample
SAMPLE_STEPS = 300
#: seconds between speed samples
SAMPLE_PERIOD = 0.02
#: CPU seconds of one speed sample on the reference host, a two-core
#: 2.1 GHz Xeon VM when no other tenant contends
REFERENCE_SAMPLE_S = 0.0008
#: longest wait for the sampler's first sample
START_TIMEOUT_S = 60.0


def _kernel() -> float:
    rng = np.random.default_rng(0)
    q = np.zeros((8, 4))
    total = 0.0
    for i in range(SAMPLE_STEPS):
        s = i % 8
        a = int(np.argmax(q[s]))
        r = rng.random()
        q[s, a] += 0.1 * (r - q[s, a])
        total += r
    return total


def _sample(totals, stop) -> None:
    """Sampler process: add each sample's CPU seconds and a count of one
    to ``totals`` until ``stop`` is set."""
    while not stop.wait(SAMPLE_PERIOD):
        begin = time.process_time()
        _kernel()
        spent = time.process_time() - begin
        with totals.get_lock():
            totals[0] += spent
            totals[1] += 1


class SpeedSampler:
    """Context manager that keeps the sampler process running."""

    def __init__(self) -> None:
        ctx = get_context("fork")
        self._totals = ctx.Array("d", 2)
        self._stop = ctx.Event()
        self._process = ctx.Process(target=_sample,
                                    args=(self._totals, self._stop),
                                    daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._process.start()
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.reading()[1] < 1:
            if time.monotonic() > deadline or not self._process.is_alive():
                self.__exit__()
                raise RuntimeError("the host-speed sampler did not start")
            time.sleep(SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._process.join(timeout=10)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()

    def reading(self) -> Tuple[float, float]:
        """Sample seconds and sample count so far."""
        with self._totals.get_lock():
            return self._totals[0], self._totals[1]

    def factor(self, since: Tuple[float, float]) -> float:
        """Reference over sampled speed since the reading ``since``:
        multiply CPU seconds spent in that time by this to get them at
        the reference speed."""
        seconds, count = self.reading()
        if count == since[1]:  # a section shorter than one period
            return 1.0
        return REFERENCE_SAMPLE_S * (count - since[1]) / (seconds - since[0])


def pin_to_one_core() -> None:
    """Keep this process (and the processes it starts) on one core, where
    the host allows it."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
