"""Correct the benchmark's times for the host's contention on its CPU.

The benchmark runs on virtual CPUs that share physical cores with other
tenants. On a 2-vCPU machine a fixed loop ran at full speed or at about
0.6 of it, switching within a tenth of a second, and the share of slow time
drifted over minutes. Raw times of one ``qsl`` command then spread by
15-25% between repetitions of the same input, and the median of ten runs
moved by more than that between two sets of the same code.

So ``run.py`` pins itself, its workers and a sampler (this file, run as a
script) to one CPU. The sampler wakes every ``PERIOD_S`` and times a fixed
probe (about 0.2 ms, so it takes about 1% of the CPU from the worker). A
time measured over an interval is corrected to a nominal core speed:

    corrected = seconds * mean over the interval's samples of (REF_PROBE_S / sample)

The probe's progress per second is proportional to ``1 / sample``, and
the worker's is taken to be too, so the corrected value is the time the
same work takes on a core that runs the probe in ``REF_PROBE_S``. That
holds only if contention slows the probe as much as it slows the solver,
so the probe does what the solver's inner loop does: scalar ``math`` calls
and 4-element numpy arrays. Fitting log(command time) against
log(mean 1/sample) over 30 repetitions of each ``optimize`` command gave a slope of -1.11 and -1.15 for this probe (-1 is exact), and
-1.6 to -1.7 for a bare float loop, which contention slows less. With this
probe the spread of a command's time over repetitions (IQR over median)
fell from 0.17-0.26 raw to 0.04.

The reference is a constant, not the run's own fastest samples: the
fastest 5% of a run's probes took 0.166 to 0.204 ms from one run to the
next, and scaling to that moved ``optimize``'s corrected time by as much
(4.7 to 6.0 s), while scaling to the constant kept it at 5.8-6.1 s.

Run as ``python3 bench/speed.py OUT`` it prints ``ready`` once warmed up,
samples until it receives SIGTERM, then writes ``start seconds`` lines to
OUT. The start times are ``time.perf_counter`` values, which on Linux
share one clock across processes, so they line up with the workers'
timestamps.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import sys
import time

#: Time between two samples.
PERIOD_S = 0.03
#: Steps of the probe; about 0.2 ms on an uncontended 2.1 GHz Xeon core.
PROBE_STEPS = 80
#: Nominal probe time: about the probe's uncontended time on a 2.1 GHz
#: Xeon core. It only sets the scale of the corrected times.
REF_PROBE_S = 2.0e-4


def _probe(np):
    z = np.zeros(4)
    a, b = 0.3, 0.7
    for _ in range(PROBE_STEPS):
        y = np.array([math.cos(a), math.sin(b), a * b, a + b])
        z = z * 0.5 + y * 0.25
        a += 0.01
        b -= 0.01
    return z


def _sample(out_path: str) -> None:
    import numpy as np

    samples = []
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    _probe(np)
    print("ready", flush=True)
    while not stop:
        time.sleep(PERIOD_S)
        start = time.perf_counter()
        _probe(np)
        samples.append((start, time.perf_counter() - start))
    with open(out_path, "w") as handle:
        handle.writelines(f"{t!r} {d!r}\n" for t, d in samples)


def read_samples(path) -> list:
    """The (start, seconds) pairs the sampler wrote, in time order."""
    with open(path) as handle:
        return [tuple(map(float, line.split())) for line in handle if line.strip()]


class Correction:
    """Corrects intervals of one run to the nominal core speed."""

    def __init__(self, samples: list) -> None:
        if not samples:
            raise ValueError("the speed sampler recorded no samples")
        self.starts = [t for t, _ in samples]
        self.times = [d for _, d in samples]
        self.overall = self._factor(self.times)

    @staticmethod
    def _factor(times) -> float:
        return statistics.fmean(REF_PROBE_S / d for d in times)

    def factor(self, start: float, end: float) -> float:
        """Mean ``REF_PROBE_S / sample`` over the samples taken in [start, end].

        An interval with no sample in it (shorter than ``PERIOD_S``) takes
        the run's overall factor.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return self._factor(self.times[lo:hi]) if hi > lo else self.overall

    def seconds(self, start: float, end: float) -> float:
        """The interval's length at the nominal core speed."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> dict:
        ordered = sorted(self.times)
        return {"samples": len(ordered), "p5_s": ordered[len(ordered) // 20],
                "median_s": statistics.median(ordered), "mean_factor": self.overall}


if __name__ == "__main__":
    _sample(sys.argv[1])
