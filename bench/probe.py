"""Machine-speed probe for the timing metrics.

On the shared 2-core reference machine, host contention moved every timing
by 25-35% for many minutes at a time: all three workloads and process
start-up slowed down and sped up together, while CPU time stayed equal to
wall time.  So a run also times this fixed piece of work right before and
right after each experiment, each time in a process of its own that never
imports the program, so that the yardstick cannot depend on the code under
test.  The work mixes what the program spends its time on: 2-D DST round
trips at 32^2 and 64^2 (scipy.fft dispatch), at 128^2 (pocketfft kernels),
stencil slicing, a pure-Python loop and a streaming copy of 8 MB.

A run reports timings in seconds at reference speed: the raw figure (mean
solve time, median set-up time) * REFERENCE_S / the mean probe time, over the
same run.
"""

import time

import numpy as np
from scipy.fft import dst, idst

# About the probe time on the reference machine when uncontended; it only
# sets the scale of the reported times.
REFERENCE_S = 1.5
REPEATS = 20

_rng = np.random.default_rng(0)
_SMALL = [_rng.standard_normal((n, n)) for n in (32, 64)]
_LARGE = _rng.standard_normal((128, 128))
_STREAM = _rng.standard_normal((64, 128, 128))


def _roundtrip(a):
    b = dst(dst(a, type=2, axis=0), type=2, axis=1)
    return idst(idst(b, type=2, axis=1), type=2, axis=0)


def _work():
    for _ in range(150):
        for a in _SMALL:
            _roundtrip(a)
            g = np.pad(a, 1)
            _ = (g[2:, 1:-1] - 2.0 * a + g[:-2, 1:-1]) + (g[1:-1, 2:] - g[1:-1, :-2])
    for _ in range(40):
        _roundtrip(_LARGE)
    total = 0
    for i in range(300_000):
        total += i & 7
    for _ in range(6):
        _ = _STREAM * 2.0
    return total


def measure():
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _work()
    return time.perf_counter() - t0
