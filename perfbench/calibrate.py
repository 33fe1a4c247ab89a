"""A fixed reference kernel, timed on request, that tells how fast the host runs right now.

    python3 perfbench/calibrate.py      # then write N on stdin, read N kernel times

run.py keeps one of these processes (two for a two-worker workload) idle
beside the workload and asks it for a few kernel times after every timed
epe process. The host it was written on (2 shared vCPUs) changes speed by
up to half, over seconds and over stretches of minutes, whatever the load
inside the container; run.py scales the times of each phase of a run by
KERNEL_REFERENCE_S over the kernel's mean time during the phase, which
takes the slow stretches out while a change in epe's own cost passes
through unscaled.

The kernel runs the kinds of work epe does, without calling epe: a
pure-Python loop, numpy calls on one small complex matrix, Generator set-up
from a SeedSequence with a small draw, float formatting into CSV rows, and
batched 4x4 matrix products, eigenvalues and einsums. It never changes with
epe: editing it or KERNEL_REFERENCE_S changes the scale of every time
metric, so it is a change to the benchmark.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# A fixed reference: the kernel's median time in its first measurements on the
# host the benchmark was written on (2-vCPU Intel Xeon VM, Python 3.11, numpy
# 2.4, BLAS on one thread; later runs there had a median of 0.108 s). Scaled
# times are seconds as a host that runs the kernel in this time runs them.
KERNEL_REFERENCE_S = 0.12

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_BATCH = _RNG.standard_normal((200, 4, 4)) + 1j * _RNG.standard_normal((200, 4, 4))
_FLOATS = [k * 0.123456789 for k in range(20_000)]


def kernel() -> None:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(1000):
        rho = _MATRIX @ _MATRIX.conj().T
        rho /= np.trace(rho).real
        np.linalg.eigvalsh(rho)
    for i in range(500):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, i])))
        gen.standard_normal((4, 4, 2))
    "".join(f"{v:.10g},{2 * v:.10g}\n" for v in _FLOATS)
    for _ in range(20):
        rho = _BATCH @ _BATCH.conj().transpose(0, 2, 1)
        np.linalg.eigvals(rho)
        np.einsum("nij,nji->n", rho, rho)


def main() -> int:
    kernel()  # warm up: imports, caches, the first BLAS call
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        print(json.dumps(times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
