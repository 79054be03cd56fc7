"""Host-speed probes: fixed code, apart from the program, timed between the
program's operations so that every latency can be read at one host speed.

On a shared host other tenants slow all work by up to 2x, in spells that
last from about a second to minutes.  A whole 30-second run can fall in
one, so no statistic over a run's own latencies (median, fastest) keeps
runs minutes apart comparable.  A probe does the same fixed work each time,
and how long it takes shows how fast the host ran then.  The benchmark
reads the probe between operations and scales each latency by

    reference_ns / (median of the readings within WINDOW_NS of it)

so the time metrics read as seconds on this host when the probe takes its
reference time.  The window is wide enough that bursts of a few tens of
milliseconds, which one reading can catch and the operation next to it
miss, do not set an operation's scale, and narrow enough to follow the
spells.  A change to the program moves the latencies and not the probe, so
it shows in full.

Each workload uses the probe that follows its work best (see README.md):
``interpreter`` (Python-level calls, float formatting, small numpy
arrays) for ``catalog-batch``, ``numpy`` (a splitmix64-style mix over an
8 MiB array) for ``cohort-bulk``, and ``process`` (a bare interpreter
start) for ``cli-cold``, whose fresh processes are bound by process start
much more than by the interpreter.  The ``cli-cold`` parent imports no
numpy: a child's peak memory, which that workload reports, includes the
parent's peak at the moment the child was started.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

#: Least time between two readings, in ns.  Operations longer than this
#: get a reading before and after each one.
INTERVAL_NS = 50_000_000

#: Readings within this time of an operation's midpoint, either side, set
#: its scale.
WINDOW_NS = 500_000_000


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _interpreter_probe():
    import numpy as np

    grid = np.linspace(0.0, 1.0, 101)
    parts: list[str] = []

    def run() -> int:
        parts.clear()
        for i in range(300):
            x = (i * 0.6180339887) % 1.0 + 1e-3
            p = _Point(x, 1.0 - x)
            r = math.atan(math.sqrt(p.b / p.a)) + math.log1p(x)
            parts.append(f'<path d="M {x:.6f},{r:.6f}" v="{p.a!r}"/>')
            if not i % 30:
                parts.append(",".join(str(round(v, 4)) for v in (x, r, p.b)))
        n = len("".join(parts))
        for _ in range(20):
            y = (0.3 * grid) / (0.3 * grid + 0.2 * (1.0 - grid))
            n += int(y.argmax())
        return n

    return run


def _numpy_probe():
    import numpy as np

    m1, m2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9)
    s1, s2 = np.uint64(30), np.uint64(27)

    def run() -> int:
        # Built and freed on every reading, so the probe adds nothing to the
        # memory the process holds while the program runs.
        z = np.arange(1 << 20, dtype=np.uint64)
        z *= m1
        z ^= z >> s1
        z *= m2
        z ^= z >> s2
        return int(z[-1])

    return run


def _process_probe():
    command = [sys.executable, "-I", "-S", "-c", "pass"]

    def run() -> None:
        subprocess.run(command, check=True)

    return run


#: kind -> (probe factory, reference time of one probe in ns).  The
#: reference is about the probe's median time on the machine of the
#: README's reference figures, so readings there come out near wall time.
PROBES = {
    "interpreter": (_interpreter_probe, 1_250_000),
    "numpy": (_numpy_probe, 11_000_000),
    "process": (_process_probe, 12_000_000),
}


class Speed:
    """Probe readings of one run, and the scale they give each latency."""

    def __init__(self, kind: str):
        make, self.reference_ns = PROBES[kind]
        self._probe = make()
        #: Midpoint and duration of each reading, in ns, in time order.
        self.times_ns: list[int] = []
        self.readings_ns: list[int] = []

    def read(self) -> None:
        """Take a reading now."""
        start = perf_counter_ns()
        self._probe()
        end = perf_counter_ns()
        self.times_ns.append((start + end) // 2)
        self.readings_ns.append(end - start)

    def before(self) -> None:
        """Read before an operation if the last reading is INTERVAL_NS old."""
        if not self.times_ns or perf_counter_ns() - self.times_ns[-1] >= INTERVAL_NS:
            self.read()

    def after(self, elapsed_ns: int) -> None:
        """Read after an operation long enough to deserve its own reading."""
        if elapsed_ns >= INTERVAL_NS:
            self.read()

    def scale(self, at_ns: int) -> float:
        """Factor for a latency whose midpoint is ``at_ns``."""
        times = self.times_ns
        lo = bisect_left(times, at_ns - WINDOW_NS)
        hi = bisect_right(times, at_ns + WINDOW_NS)
        if hi - lo < 2:  # too few readings near it: the two nearest
            lo = max(0, min(bisect_left(times, at_ns) - 1, len(times) - 2))
            hi = lo + 2
        return self.reference_ns / statistics.median(self.readings_ns[lo:hi])
