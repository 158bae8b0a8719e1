"""The host's speed, measured with a fixed piece of work that runs no msqaoa code.

On a shared host the other tenants slow every instruction of the benchmark's
core, by up to about half and for tens of seconds to minutes at a time, and
the guest sees none of it (it is not counted as steal time). Timings taken a
minute apart then differ by more than any change to the program would move
them. ``kernel`` times a fixed mix of interpreted Python and small numpy array
work, similar to what the operations do; the benchmark runs it after every
operation and scales each operation's latency by ``NOMINAL_S`` over the
kernel's median over the neighbouring operations. The metrics are then in
seconds of a host on which the kernel takes ``NOMINAL_S``, and a change to
the program moves them as much as it moves the raw timings, which the run
record keeps as well.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The kernel's median time on an idle 2-core Xeon (Python 3.11, numpy 2.4).
# Any fixed value would do: it only sets the scale of the metrics.
NOMINAL_S = 6.5e-4

_LOOP = 2000
_TABLE = np.random.default_rng(20210224).standard_normal(1 << 13)
_MIX = np.array([[math.cos(0.4), -1j * math.sin(0.4)], [-1j * math.sin(0.4), math.cos(0.4)]])


def kernel() -> float:
    """Seconds taken by one run of the fixed work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_LOOP):
        acc += math.cos(i * 1e-3) * (i & 7)
    psi = np.exp(-0.3j * _TABLE)
    for _ in range(3):
        psi = (psi.reshape(-1, 2) @ _MIX).reshape(-1)
    acc += float(np.abs(psi) ** 2 @ _TABLE)
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Scale that takes timings made alongside ``samples`` to the nominal host."""
    return NOMINAL_S / statistics.median(samples)


def local_factors(samples: list[float], reach: int = 3) -> list[float]:
    """Scale for the timing made just before each of ``samples``.

    The host's speed changes within a second, so each timing is scaled by the
    median of the kernel samples taken within ``reach`` operations of it.
    """
    return [factor(samples[max(0, i - reach):i + reach + 1]) for i in range(len(samples))]
