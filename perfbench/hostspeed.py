"""Host speed probe: a fixed piece of work, timed next to each measurement.

On a shared host the speed of a vCPU changes by up to 1.6x over tens of
seconds to minutes, as the neighbours' load comes and goes: on a 2-vCPU
Xeon VM, ``default`` passes took 1.55-1.65 s in a fast phase and 2.4-2.5 s
in a slow one.  Process CPU time grows with it, so no time the process
measures of itself escapes it.  ``probe()`` times a fixed mix of the three
kinds of work ``eigenlab verify`` does (an interpreted loop, small complex
matrix products, a streaming pass over a few MB), and ``host_factor`` turns
that time into the host's slowdown against ``NOMINAL_S``.  A time divided
by the host factor reads as on the host in its fast phase.  The benchmark's
own code sets the probe, so a change to eigenlab cannot move it.

In two 170 s series of ``default`` passes on that VM, the median pass of
each 20 s window had a quartile spread over windows of 0.13 and 0.28, the
median of the passes divided by their host factors one of 0.05 and 0.10.
On ``quat-scale`` the streaming part matters: over 40 s windows of one
series the spread was 0.10 without it and 0.06 with it.  The probe tracks
``quat-scale`` only in part, because in some phases the interpreted loop
slows by 1.7x while the vectorised kernels that dominate that workload do
not slow at all.
"""

from __future__ import annotations

import time

import numpy as np

# About the probe's seconds on a 2-vCPU Intel Xeon VM in its fast phase.
NOMINAL_S = 0.07

PY_STEPS = 400_000
MATMUL_STEPS = 4_000
STREAM_ELEMENTS = 1 << 19           # 4 MB of float64
STREAM_STEPS = 50

_MAT = np.linspace(0.0, 1.0, 36).reshape(6, 6) + 1j * np.eye(6)


def probe():
    """Wall seconds of the fixed work."""
    src = np.ones(STREAM_ELEMENTS)
    dst = np.empty_like(src)
    start = time.perf_counter()
    x = 0.0
    for i in range(PY_STEPS):
        x += i * 0.5
    a = _MAT
    for _ in range(MATMUL_STEPS):
        a = (a @ _MAT) / np.abs(a).max()
    for _ in range(STREAM_STEPS):
        np.multiply(src, 1.0001, out=dst)
    return time.perf_counter() - start


def host_factor(*probes):
    """The host's slowdown during a measurement, from the probes around
    it: their mean over ``NOMINAL_S``."""
    return sum(probes) / len(probes) / NOMINAL_S
