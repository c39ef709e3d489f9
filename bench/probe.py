"""Host speed probe: a fixed mini-workload timed between calls.

The shared 2-core host this benchmark was built on changes speed by up to
1.6x over minutes (a fixed pure-Python loop alone varies by +-25%), so raw
host seconds from two 30-second runs minutes apart disagree by more than any
useful bound, however many repeats a run takes.  The probe mixes the three
kinds of work the simulator does: interpreted integer arithmetic, small
frozen-object churn with a keyed sort (the access-event walk), and an int64
numpy matmul (the spiking kernels).  It runs after every call for a fixed
share of the call's time, so its mean time over a pass says how fast the host
ran during that pass; ``run.py`` scales the pass's call times by
``REFERENCE_S / mean`` so the metrics read as host seconds at the reference
speed.  The probe's code is part of the benchmark and never changes with the
program, so a faster program still reads as faster.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# Typical probe time on the reference host: 2-core Intel Xeon VM at 2.0 GHz,
# Python 3.11.7, numpy 2.4.6.  Only a unit: any constant compares the same.
REFERENCE_S = 0.0024


@dataclass(frozen=True)
class _Event:
    cycle: int
    unit: str
    words: int


class SpeedProbe:
    """Collects probe times; ``speed()`` turns them into a scale for call times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._spikes = rng.integers(0, 2, (16, 256), dtype=np.int64)
        self._weights = rng.integers(-127, 128, (256, 256), dtype=np.int64)
        self.samples: list[float] = []

    def _once(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(2500):
            acc += i * i
        events = [_Event(i % 97, "unit", i) for i in range(400)]
        events.sort(key=lambda ev: (ev.cycle, ev.unit))
        self._spikes @ self._weights
        return time.perf_counter() - start

    def sample(self, seconds: float) -> None:
        """Probe once, then again until ``seconds`` of probing have passed."""
        spent = 0.0
        while True:
            elapsed = self._once()
            self.samples.append(elapsed)
            spent += elapsed
            if spent >= seconds:
                return

    def scale(self) -> float:
        """Factor from host seconds now to host seconds at the reference speed; resets."""
        # The mean, not the median: the host flips between a fast and a slow
        # mode within seconds, and a call's time averages over both.
        factor = REFERENCE_S / statistics.fmean(self.samples)
        self.samples = []
        return factor
