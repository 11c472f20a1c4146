"""A yardstick run beside the workload, so that times can be stated at a
fixed host speed.

On a small shared host the same code runs 10-40 % slower for seconds to
minutes at a time (identical DES runs: 80 -> 143 ms; identical jet runs:
89 -> 128 ms), which no median inside a 10 s run removes.  The harness
therefore interleaves a fixed micro-workload of its own — interpreter work
over small objects and numpy streaming, sharing no code with the program
— with the operations it times, and reports each time multiplied by
``nominal / (the yardstick's time beside that operation)``: milliseconds
as they would read with the host at its reference speed.  Ratios between
two commits are unaffected; run-to-run spread drops three- to five-fold.
The raw walls are still printed beside the normalised ones.

This is the same-noise-ratio idea the paper-grid speedup uses (serial and
parallel reps interleaved) applied to every timed operation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The yardstick's own times, in seconds, on the 2-vCPU reference host when
#: quiet: the interpreter part and the numpy part.  Constants: changing one
#: rescales every metric normalised with it.
NOMINAL = {"py": 0.65e-3, "np": 1.15e-3}
#: Samples are taken at most this often (seconds), so short operations
#: are not drowned in yardstick runs.
MIN_GAP = 0.05
#: An operation is normalised by the samples taken within this many
#: seconds of it (at least the nearest one on either side).
REACH = 0.3


class Yardstick:
    """Two parts, because slow spells hit interpreter work (pointer
    chasing, up to +80 %) harder than numpy streaming (+20 %): a workload
    is normalised with the parts that resemble it — ``("py",)`` for
    interpreter-bound work (DES, service), ``("py", "np")`` for the solver
    runs."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = parts
        self._a = np.linspace(0.0, 1.0, 100_000)
        self._b = np.empty_like(self._a)
        self._c = np.empty_like(self._a)
        self.samples: list[tuple[float, float]] = []  # (when, seconds)
        self.spent = 0.0
        self.nominal = sum(NOMINAL[k] for k in parts)
        self._tick()

    def _tick(self) -> float:
        t0 = time.perf_counter()
        if "py" in self.parts:
            table, total = {}, 0
            for i in range(6000):
                table[i & 255] = (i, total)
                total += len(table)
        if "np" in self.parts:
            a, b, c = self._a, self._b, self._c
            for _ in range(3):
                np.multiply(a, a, out=b)
                np.add(b, 1.0, out=c)
                np.sqrt(c, out=b)
                np.subtract(b[1:], c[:-1], out=c[1:])
        return time.perf_counter() - t0

    def sample(self, force: bool = False) -> None:
        """Median of three ticks, unless a sample was taken a moment ago."""
        now = time.perf_counter()
        if not force and self.samples and now - self.samples[-1][0] < MIN_GAP:
            return
        value = statistics.median(self._tick() for _ in range(3))
        done = time.perf_counter()
        self.samples.append((done, value))
        self.spent += done - now

    def scale(self, start: float, end: float) -> float:
        """Factor that restates a time measured over ``[start, end]`` at
        the reference host speed."""
        near = [v for t, v in self.samples if start - REACH <= t <= end + REACH]
        if len(near) < 2:  # widen to the nearest sample on either side
            near += [v for t, v in self.samples if t < start - REACH][-1:]
            near += [v for t, v in self.samples if t > end + REACH][:1]
        return self.nominal / statistics.median(near) if near else 1.0
