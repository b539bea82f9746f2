"""Machine-speed calibration.

The shared 2-core host this benchmark was built on changes speed by up
to 2x over tens of seconds, and every kind of work (BLAS, numpy
element loops, Python string formatting) slows together.  A fixed
snippet of those three kinds, timed next to the jobs, tracks that
drift; job times are reported scaled by ``REFERENCE_S / calibration``,
i.e. in seconds of a machine that runs the snippet in ``REFERENCE_S``.
The snippet does not touch the program, so a change to the program
moves the scaled times exactly as it moves the raw ones.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.006       # snippet time on the reference machine (README.md)

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_T = _rng.standard_normal((8, 8, 8, 8))
_X = _rng.standard_normal(3000)


def _snippet():
    t0 = time.perf_counter()
    for _ in range(3):
        _A @ _A
    np.einsum("abcd,cd->ab", _T, _T[0, 0])
    ",".join(f"{x:.17g}" for x in _X)
    return time.perf_counter() - t0


def calibrate(reps=3):
    """Median snippet time over ``reps`` runs, in seconds."""
    return statistics.median(_snippet() for _ in range(reps))
