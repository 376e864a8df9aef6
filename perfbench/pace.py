"""Timing of untraced passes, corrected for the machine's speed.

The benchmark shares a few cores of a host with other tenants. Their load
slows this process by up to half, for seconds to minutes at a time, and
the slowdown is spent on the CPU, not waiting for it: the process clock
shows it as much as the wall clock, and a run's fastest passes can all
fall inside it. So an untraced pass is cut into segments at every
run_shots call (one per cell), and a fixed calibration kernel of plain
Python work is timed at a cut whenever CAL_EVERY_S has passed since its
last reading. Dividing a segment's time by the mean of the readings at
its two ends gives the segment's cost in kernel units, which load changes
far less than either time alone. ``wall_s`` is the sum over segments of their
median cost across passes, times CAL_REF_S: the seconds the pass would
take on a machine where the kernel takes CAL_REF_S. Kernel time is left
out of every segment.
"""
from __future__ import annotations

import statistics
from time import perf_counter

from nisq_lab import experiments, noise

CAL_EVERY_S = 0.03  # at most one kernel reading per this much workload time
CAL_REF_S = 4e-4  # about the kernel's unloaded time on the 2-core machine the README describes
_CAL_LOOP = 6000


def kernel() -> float:
    """Seconds for a fixed loop of interpreter work. Load slows the
    program's Python and its small numpy calls alike; of the kernels tried
    (this loop, small and large array arithmetic, a mix) this one tracked
    the workloads' passes most closely."""
    start = perf_counter()
    total = 0
    for i in range(_CAL_LOOP):
        total += i * i
    return perf_counter() - start


def speed() -> float:
    """CAL_REF_S over the median of a few kernel readings: the factor that
    turns a time measured now into one at the reference speed."""
    kernel()
    return CAL_REF_S / statistics.median(kernel() for _ in range(5))


class CellMarks:
    """Cuts an untraced pass at its start, at every run_shots call and at
    its end while installed; ``costs()`` gives each segment's time in kernel
    units, against the mean of the readings in force at its two ends. Every
    pass on the same inputs cuts into the same segments."""

    def __init__(self):
        self._cuts: list[tuple[float, float]] = []  # (segment ends, next starts)
        self._readings: list[float] = []  # kernel reading in force after each cut
        self._last = float("-inf")
        self._saved: list[tuple] = []

    def cut(self, fresh: bool = False) -> None:
        now = perf_counter()
        if fresh or now - self._last >= CAL_EVERY_S:
            self._readings.append(kernel())
            self._last = perf_counter()
            self._cuts.append((now, self._last))
        else:
            self._readings.append(self._readings[-1])
            self._cuts.append((now, now))

    def segments(self) -> list[float]:
        """Seconds of each segment, kernel time left out."""
        return [b[0] - a[1] for a, b in zip(self._cuts, self._cuts[1:])]

    def kernel_s(self) -> float:
        """Median kernel reading of the pass."""
        return statistics.median(self._readings)

    def costs(self) -> list[float]:
        ends = zip(self._readings, self._readings[1:])
        return [s / (0.5 * (r0 + r1)) for s, (r0, r1) in zip(self.segments(), ends)]

    def __enter__(self):
        # experiments imports run_shots from noise; wide-dense calls noise's
        for owner in (experiments, noise):
            fn = owner.run_shots

            def marked(*args, _run_shots=fn, **kwargs):
                self.cut()
                return _run_shots(*args, **kwargs)

            self._saved.append((owner, fn))
            owner.run_shots = marked
        self.cut(fresh=True)
        return self

    def __exit__(self, *exc):
        self.cut(fresh=True)
        for owner, fn in reversed(self._saved):
            owner.run_shots = fn
        self._saved.clear()


def pass_wall(costs: list[list[float]]) -> float:
    """Seconds of one pass at the reference speed: the sum over segments
    of their median cost across passes, times CAL_REF_S. ``costs`` holds
    each pass's segment costs; all passes must cut into the same number."""
    counts = {len(c) for c in costs}
    if len(counts) != 1:
        raise ValueError(f"passes cut into different numbers of segments: {sorted(counts)}")
    return CAL_REF_S * sum(map(statistics.median, zip(*costs)))
