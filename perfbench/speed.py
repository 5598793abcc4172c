"""Host-speed normalisation of op times.

On a shared machine the speed of a core drifts: the same work can take
twice as long for stretches of seconds to minutes while neighbours load
the host. Such drift would swamp the differences the benchmark exists to
show, so op times are reported at a fixed reference speed.

While ops run, SIGALRM fires every INTERVAL_S and its handler times a
fixed probe (a few hundred 3x3 numpy products in a Python loop, the kind
of work handsoff does) in the benchmark's own thread. The probe's
duration divided by REFERENCE_PROBE_S is the slowdown at that moment. An
op's normalised time is its wall time, less the probes that ran inside
it, divided by the mean slowdown of the probes taken during the op and
within WINDOW_S of it. Raw wall times are reported beside the normalised
ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PROBE_STEPS = 300
INTERVAL_S = 0.1
WINDOW_S = 0.5
# Probe duration at the reference speed: about the probe's time on a
# 2-vCPU Intel Xeon virtual machine in a quiet period (Python 3.11,
# numpy 2.4).
REFERENCE_PROBE_S = 1.0e-3

_STEP = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])


def probe() -> float:
    start = time.perf_counter()
    x = np.ones(3)
    for _ in range(PROBE_STEPS):
        x = _STEP @ x
        x = x / float(x.sum())
    return time.perf_counter() - start


def spot_slowdown(probes: int = 5) -> float:
    """Slowdown from a few probes run back to back, for short intervals
    timed without the sampler (set-up waits on a child process, and a
    probe interrupting that wait would share a core with the child)."""
    return float(np.mean([probe() for _ in range(probes)])) / REFERENCE_PROBE_S


class SpeedSampler:
    """Context manager that samples the probe on a timer while active."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe slowdown during [t0, t1] and within WINDOW_S of it."""
        near = [d for s, d in self.samples if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        if not near:  # nothing close: fall back to the nearest sample
            near = [min(self.samples, key=lambda sd: min(abs(sd[0] - t0), abs(sd[0] - t1)))[1]]
        return float(np.mean(near)) / REFERENCE_PROBE_S

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the reference speed."""
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        return (t1 - t0 - inside) / self.slowdown(t0, t1)
