"""Scaling wall times to a host of fixed speed.

The speed of a shared host drifts by up to half over minutes, and the
program's wall time with it. A fixed probe task, timed right around and
during a piece of work, gauges the speed the work ran at; the work's wall
time, scaled by the probe's time against PROBE_REF_S, is what it would
have taken on a host of the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.1  # how often the probe runs during the work
EDGE_PROBES = 3  # probes run right before and right after the work
# The probe's median time on the 2-vCPU Xeon VM the benchmark was defined
# on; it only sets the scale of the reported times.
PROBE_REF_S = 0.004


def _mix(x: int, y: int) -> int:
    return (x * 7 + y) % 64


def scale(wall: float, samples: list[float]) -> float:
    """``wall`` seconds in seconds of the reference host, given the probe times."""
    return wall * PROBE_REF_S / statistics.mean(samples)


class HostSpeed:
    """Gauges how fast the host runs while a piece of work runs.

    ``probe`` is a fixed task of about 4 ms in the kinds of work ringlab
    does, in equal parts: an integer loop with a numpy gather over a 16 KiB
    table; Python object work (calls, tuples, dicts, comprehensions); and
    many numpy calls on a 64 x 64 table, as on the corpus's small rings.
    Its data is small enough that the program's use of the caches hardly
    slows it. Between ``start`` and ``stop`` it runs every
    PROBE_INTERVAL_S from a SIGALRM handler, in the middle of the work.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 1 << 16, size=1 << 12, dtype=np.int32)
        self._index = rng.integers(0, 1 << 12, size=1 << 12, dtype=np.int32)
        self._small = rng.integers(0, 64, size=(64, 64)).astype(np.int16)
        self._np = np
        self._samples: list[float] | None = None  # None: not probing
        self._spent = 0.0
        # Installed for good: a SIGALRM already raised when the timer stops
        # may still reach the handler, which then does nothing.
        signal.signal(signal.SIGALRM, self._on_alarm)

    def probe(self) -> float:
        np, small = self._np, self._small
        start = time.perf_counter()
        acc, slots = 0, {}
        for i in range(8_000):
            acc += i * i
            slots[i & 63] = acc
        for _ in range(12):
            int(self._table[self._index].sum())
        pairs = {}
        for i in range(650):
            key = (i & 31, (i >> 5) & 31)
            pairs[key] = _mix(*key)
            frozenset([pairs.get((j, i & 31), 0) for j in range(4)])
        for i in range(100):
            row = small[i & 63]
            column = small[:, row[0]]
            np.nonzero(row == column)
            (small[row] == 0).any(axis=1)
        return time.perf_counter() - start

    def edges(self) -> list[float]:
        return [self.probe() for _ in range(EDGE_PROBES)]

    def _on_alarm(self, _signum, _frame) -> None:
        if self._samples is None:
            return
        start = time.perf_counter()
        self._samples.append(self.probe())
        self._spent += time.perf_counter() - start

    def start(self) -> None:
        self._samples, self._spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> tuple[list[float], float]:
        """Stop probing; return the probe times and the seconds the probes took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples, self._samples = self._samples or [], None
        return samples, self._spent

    def time(self, call, during: bool = True):
        """Run ``call()``; return (its result, wall seconds, scaled seconds).

        The wall time leaves out the probes run during the call. Without
        ``during`` only the probes right around the call gauge it.
        """
        samples = self.edges()
        if during:
            self.start()
        start = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            inner, spent = self.stop() if during else ([], 0.0)
        wall = elapsed - spent
        return result, wall, scale(wall, samples + inner + self.edges())
