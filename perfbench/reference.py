"""Fixed reference work that times the host, not jointmotion.

On a shared host the speed of the machine shifts by up to 2x within
seconds (it flips between a fast and a slow state that last a few seconds
each), and process CPU time shifts with it, so raw wall times of the same
work are not comparable between runs. The benchmark therefore times a
short reference block throughout every timed pass, from a ``SIGALRM``
handler in the one thread that runs the pass, and scales the pass by
``NOMINAL_S / mean block time during it``: the scaled times read as
seconds on a host where the block takes ``NOMINAL_S``. The time the
samples take is subtracted from the pass first. Each set-up probe times
the block right after its warm-up call the same way.

The block mixes the kinds of work the workloads do (interpreted Python,
JSON text, small and 128-wide dense factorizations, a memory sweep) and
uses no jointmotion code, so a change to jointmotion moves the scaled
times and not the scale. The raw wall times are reported beside them.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

from spec import NOMINAL_S

PERIOD_S = 0.2  # one sample per period; a block takes about 5% of it
PROBE_BLOCKS = 9

_rng = np.random.default_rng(0)
_small = _rng.standard_normal((8, 8))
_small = _small @ _small.T + 8 * np.eye(8)
_large = _rng.standard_normal((128, 128))
_large = _large @ _large.T + 128 * np.eye(128)
_sweep = _rng.standard_normal(1 << 18)
_scene = {"positions": [[[1.25 * t + j, -0.5 * t] for t in range(12)] for j in range(8)], "name": "scene"}


def _block():
    total = 0.0
    for k in range(125):
        total += sum(x * 0.5 for x in range(200)) + len({i: k for i in range(50)})
    for k in range(250):
        total += np.linalg.cholesky(_small)[k % 8, 0]
    for _ in range(6):
        total += len(json.dumps(_scene, indent=1))
    for _ in range(5):
        total += len(json.loads(json.dumps(_scene)))
    for _ in range(8):
        total += np.linalg.cholesky(_large)[0, 0]
    for _ in range(3):
        total += float(np.sum(_sweep * 1.5))
    return total


def _timed_block():
    t0 = time.perf_counter()
    _block()
    return time.perf_counter() - t0


def reference_s(blocks=PROBE_BLOCKS):
    """Median time of ``blocks`` reference blocks run back to back."""
    return statistics.median(_timed_block() for _ in range(blocks))


class Sampler:
    """Within ``with Sampler() as s:``, time one reference block every
    ``PERIOD_S`` of wall time; ``s.samples`` holds the block times."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(_timed_block())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
