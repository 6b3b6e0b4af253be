"""Host speed: a fixed loop timed between program runs.

The host's speed drifts: on the 2-CPU VM this benchmark was tuned on, the
same program run took 2.5 s in one set of runs and 4.2 s in a set made
minutes later. ``run.py`` therefore times every set-up and program run
between two calibrations, on the same CPU as the program, and scales it to a
host on which a calibration takes ``REF_S``:

    reported = measured * REF_S / c

where c is the mean of the calibrations just before and just after. A
calibration is the median of ``REPEAT`` runs of a loop that streams an 8 MB
array and runs interpreted Python. Of the loops tried (also broadcast pair
sums like the program's, BLAS, and many small numpy calls), this mix tracked
the run time of case_study_1d and oracle_1d best, with a correlation of about
0.8 over 25 to 40 runs each.

The buffers are allocated once, so no calibration pays for page faults, and
they are small: this process must stay smaller than every program run,
because on Linux a child's peak RSS starts from its parent's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.1
REPEAT = 3


class Calibration:
    def __init__(self):
        self.big = np.random.default_rng(0).random(1_000_000)
        self.out = np.empty_like(self.big)

    def loop(self) -> float:
        t0 = time.perf_counter()
        for _ in range(24):
            np.multiply(self.big, 1.0001, out=self.out)
            self.out.sum()
        n = 0
        for i in range(800_000):
            n += i * i % 7
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Seconds one calibration takes now."""
        return statistics.median(self.loop() for _ in range(REPEAT))
