"""A fixed reference workload that gauges how fast the CPU runs at the moment.

On a shared host the speed of the CPU changes for seconds to minutes at a
time: the same `semslam run` takes 1.4 s or 2.2 s of CPU time, and a run of
the benchmark can lie wholly in a slow spell. Timings are therefore taken
in CPU seconds of this process and scaled by how fast this probe ran just
before and just after each stretch of the timed work:

    reference seconds = CPU seconds * REFERENCE_S / median(probe times around it)

so they read as the time the work takes at the speed the probe had when
REFERENCE_S was measured. The probe is a mix of what semslam spends its time
on: interpreted arithmetic, small numpy arrays, dictionaries and sorting, and
small LAPACK solves. It uses nothing from semslam, so a change to semslam
cannot move it. A large vectorised numpy kernel was left out of the mix: it
tracked the speed of `semslam run` worse than any of these four.
"""

from __future__ import annotations

import statistics
from time import process_time
from typing import List, Tuple

import numpy as np

# median CPU time of one `probe_once` on the reference host (see README.md)
# in its fast spells. A probe of twice these iterations took 12.0-13.3 ms over
# eight 36 s windows (16-21 ms in slow ones); this one takes 0.505 of its time
# (median of 300 paired runs)
REFERENCE_S = 0.0063
# probe runs at each checkpoint
SAMPLES = 3

_V = np.ones(3)
_A = np.eye(3)
_M = np.random.default_rng(0).standard_normal((40, 40))
_SPD = _M @ _M.T + 40.0 * np.eye(40)


def _interpreted() -> int:
    s = 0
    for i in range(25000):
        s += i * i
    return s


def _small_arrays() -> float:
    acc = 0.0
    for _ in range(250):
        m = _A @ _A + np.outer(_V, _V)
        acc += float(np.linalg.norm(m @ _V))
    return acc


def _dict_sort() -> float:
    d = {}
    for i in range(10000):
        k = (i * 7) % 1000
        d[k] = d.get(k, 0.0) + i * 0.5
    return sum(sorted(d.values()))


def _small_lapack() -> float:
    acc = 0.0
    for _ in range(50):
        acc += float(np.linalg.solve(_SPD, _SPD[:, 0])[0])
        acc += float(np.linalg.cholesky(_SPD)[0, 0])
    return acc


def probe_once() -> float:
    """CPU seconds of one pass of the reference mix."""
    t0 = process_time()
    _interpreted()
    _small_arrays()
    _dict_sort()
    _small_lapack()
    return process_time() - t0


class SpeedClock:
    """Turns CPU time into reference seconds, piece by piece.

    `checkpoint` closes a segment of CPU time: it probes the CPU and gives
    the segment the scale REFERENCE_S / median(probes just before it and
    just after it). The probes' own CPU time lies in no segment. `reference`
    converts a CPU interval (two `process_time` readings) that ended before
    the last checkpoint, summing its overlap with each segment times that
    segment's scale. Checkpoints go between jobs and inside them, so a job
    that runs for seconds is scaled by the probes nearest each part of it.
    """

    def __init__(self):
        self._before = self._sample()
        # for work done before the clock existed (the import that loads numpy)
        self.first_scale = REFERENCE_S / statistics.median(self._before)
        self._start = process_time()
        self._segments: List[Tuple[float, float, float]] = []  # CPU start, CPU end, scale

    @staticmethod
    def _sample() -> List[float]:
        return [probe_once() for _ in range(SAMPLES)]

    def checkpoint(self) -> None:
        end = process_time()
        after = self._sample()
        scale = REFERENCE_S / statistics.median(self._before + after)
        self._segments.append((self._start, end, scale))
        self._before = after
        self._start = process_time()

    def reference(self, start: float, end: float) -> float:
        return sum((min(end, b) - max(start, a)) * scale for a, b, scale in self._segments if a < end and b > start)

    def forget(self) -> None:
        """Drop closed segments once every interval in them is converted."""
        self._segments.clear()
