"""Host-speed calibration for the benchmark's timings.

On a small shared machine the same CPU-bound pass can run 20-150% slower for
seconds to minutes at a time while neighbours load the host; that moves every
timing of a run together.  ``Calibration.time`` times a fixed piece of reference work
made of the kinds of work the workloads do (interpreter loop, numpy
element-wise arithmetic on a 2048-array, Bessel functions, a dense
matrix-vector product and real FFTs).  It uses numpy and scipy only, never
tricomi_lab, so no change to the package moves it.

Rounds of it are interleaved with the measured work, in proportion to it,
and each measured piece of work (a pass, a fresh interpreter's set-up) is
reported in *reference seconds*:

    normalised = measured * REFERENCE_S / median(rounds just before and after it)

A program change moves the measured time and not the calibration, so it
shows in full; a slower host moves both, and the ratio stays put.  Raw
seconds and every calibration sample go to the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import jv

# Seconds the reference work takes at reference speed: its median on a
# 2-vCPU Intel Xeon VM (one BLAS thread) while that host was quiet.  It only
# sets the scale, so normalised timings read close to plain seconds.
REFERENCE_S = 0.070
# Calibration time per second of measured work.  The rounds sample the host
# over the same stretch of time as the work they scale; the more of it they
# cover, the closer the two see the same host.
DUTY = 0.3


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(1611)  # fixed: the same work whatever the workload seed
        self.w = rng.uniform(0.5, 60.0, 2048)
        self.a = rng.standard_normal((512, 512))  # 2 MiB, so peak RSS barely moves
        self.v = rng.standard_normal(512)
        self.x = rng.standard_normal(8192)
        self.samples: list[float] = []

    def time(self) -> float:
        """Seconds for one round of the reference work (also kept in ``samples``)."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(120_000):
            acc += i * i % 7
        y = self.w
        for _ in range(180):
            y = np.abs(np.sin(y) * self.w) ** 0.3 + 1.0 / (y + 1.0)
        for _ in range(3):
            jv(1.0 / 3.0, self.w)
            jv(4.0 / 3.0, self.w)
        for _ in range(180):
            self.a @ self.v
        for _ in range(120):
            np.fft.rfft(self.x)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def follow(self, seconds: float) -> list[float]:
        """Rounds for ``DUTY * seconds`` (at least one), run right after ``seconds`` of measured work."""
        end = time.perf_counter() + DUTY * seconds
        rounds = [self.time()]
        while time.perf_counter() < end:
            rounds.append(self.time())
        return rounds

    @staticmethod
    def scale(rounds: list[float]) -> float:
        """Factor from measured to reference seconds for work timed among ``rounds``."""
        return REFERENCE_S / statistics.median(rounds)
