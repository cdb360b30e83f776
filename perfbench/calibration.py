"""Machine-speed calibration for the benchmark's timings.

The CPU speed of the shared machine this benchmark was tuned on swings by
up to 1.7x over spans of seconds, so the raw wall-clock median of one run
moves by more than the changes the benchmark must detect. So a fixed kernel
is timed next to every measured unit, and the unit's time is scaled by
REFERENCE_S[kind] / kernel time: the time the unit would take on a machine
where the kernel takes its reference time. The swings slow interpreted code
and array code by different factors, so there are two kernels. `array` is
numpy on (64, 16, 64) arrays and goes with training epochs; `text` is small
numpy ops and float formatting and goes with evaluation and single draws.
Within one run each kernel's time tracks its units' times with a
correlation of 0.7 to 0.96. The kernels call no cfmlab code, and the array
kernel is timed on its second run, after the first has put its arrays back
in cache, so a change to cfmlab's memory traffic does not move it either.
Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = {"array": 2.0e-3, "text": 1.3e-3}


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((64, 16, 64))
        self._w = rng.standard_normal((64, 64))
        self._a = self._x[0]
        self.array()  # first calls pay one-time dispatch costs
        self.text()

    @staticmethod
    def _median_s(body, repeats):
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            body()
            times.append(time.perf_counter() - t)
        return float(np.median(times))

    def array(self, repeats=1):
        """Seconds of the array kernel's second run; the first run puts its
        arrays back in cache, which a large training step has evicted."""
        def body():
            h = np.tanh(self._x @ self._w)
            np.exp(-np.abs(h.transpose(0, 2, 1) @ h)).mean()
        body()
        return self._median_s(body, repeats)

    def text(self, repeats=1):
        def body():
            for _ in range(40):
                y = np.exp(-np.tanh(self._a @ self._w) ** 2).sum(axis=-1)
                ",".join(repr(float(v)) for v in y)
        return self._median_s(body, repeats)


def scaled(seconds, kernel_s, kind):
    return seconds * REFERENCE_S[kind] / kernel_s
