"""A yardstick for the speed of the host: small fixed probes, interleaved
with the program's own work.

The host this benchmark runs on is shared.  The speed of the same code
drifts with the load of other tenants, by up to 1.6x from one second to
the next and by tens of percent over minutes, so a pass's wall time
varies from run to run by more than any useful bound.  While a command
runs, a timer signal every `PERIOD_S` seconds runs the workload's probe in
the main thread, between two bytecodes of the program, and times it.  A
probe does the kind of work that dominates its workload, a Python loop of
small numpy products, with vectorised updates of large arrays for
`wealth-mc`, so a drift of the host slows the probe and the program alike:
the command time in units of the mean probe time (`wall_probes`) stays
put, and only a change to the program moves it.  The probes use no
meantau code, so no change to the program moves them.  Their time is
taken out of the command time, and no thread or process is started.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
_T = np.array([[0.9975, 0.0015], [-0.001, 0.995]])
_R = np.full((200, 2), 1e-4)
_NOISE = 0.03 * np.random.default_rng(20251007).standard_normal(32768)


def loop(steps=200):
    """A Python loop of 2x2 matrix-vector products, as in RK4 propagation;
    about 0.8 ms on a 2-vCPU Xeon VM."""
    out = np.empty((steps + 1, 2))
    z = out[0] = np.ones(2)
    for i in range(steps):
        z = _T @ z + _R[i]
        out[i + 1] = z
    return float(out.sum())


def loop_and_paths():
    """Half the loop, then two Euler-Maruyama-style updates of 32768
    paths; about 1 ms."""
    x = np.ones_like(_NOISE)
    for _ in range(2):
        x = x + 5e-5 * x + 0.2 * x * _NOISE
    return loop(100) + float(x.std())


# The probe whose speed follows the workload's best.  In one process that
# alternated probes pass by pass, `loop` tracked `synthesis` and `certify`
# best, and `loop_and_paths` tracked `wealth-mc`, whose work is vectorised.
PROBES = {"wealth-mc": loop_and_paths, "synthesis": loop, "certify": loop}


def warm_up(calls=50):
    """Run each probe a few times, so that no timed one pays for first calls."""
    for probe in set(PROBES.values()):
        for _ in range(calls):
            probe()


class Yardstick:
    """A probe, run every `PERIOD_S` seconds while a `with` block is open
    and once as each block opens.

    `seconds` and `count` accumulate the probes' time and number over all
    blocks.
    """

    def __init__(self, probe):
        self.probe = probe
        self.seconds = 0.0
        self.count = 0

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.probe()
        self.seconds += perf_counter() - t0
        self.count += 1

    def __enter__(self):
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def units(self, seconds):
        """`seconds` in units of the mean probe time."""
        return seconds * self.count / self.seconds
