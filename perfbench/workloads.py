"""The three benchmark workloads: the epe invocations each runs and how its outputs are checked.

Names are fixed; later changes cite them. Why each one was chosen is in
NOTES.md and BENCHMARK.json.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

QUBIT_COUNT = 100_000
GAUSSIAN_COUNT = 8192

# Seed-commit maxima of the squeezed scan; truncation-independent to far below 1e-9.
SQUEEZED_CONCURRENCE_MAX = {
    0.4: 0.68115690199023549,
    0.6: 0.84499885961008003,
    0.8: 0.82697049053963245,
}


@dataclass(frozen=True)
class Invocation:
    """One epe CLI call: its arguments (after `epe`), its data file and the file's check."""

    argv: tuple
    out: str
    check: Callable[[str], list]


@dataclass(frozen=True)
class Workload:
    name: str
    # EPE_THREADS for the timed passes, None to leave it unset; traced
    # passes always run one worker.
    threads: int | None
    invocations: Callable[[int], list]


def _qubit_sample(seed):
    argv = ("sample", "--system", "qubit", "--count", str(QUBIT_COUNT), "--seed", str(seed))
    return [
        Invocation(
            argv + ("--out", "qubit.csv"),
            "qubit.csv",
            partial(checks.check_qubit_sample, count=QUBIT_COUNT),
        )
    ]


def _gaussian_sample(seed):
    argv = ("sample", "--system", "gaussian", "--count", str(GAUSSIAN_COUNT), "--seed", str(seed))
    return [
        Invocation(
            argv + ("--out", "gaussian.csv"),
            "gaussian.csv",
            partial(checks.check_gaussian_sample, count=GAUSSIAN_COUNT),
        )
    ]


def _jc_scan(seed):
    # No RNG: the scan is the same for every seed.
    del seed
    single = [(1.0, {"concurrence_max": (1.0, 1e-9), "lambda_t_max": (math.pi / 2.0, 1e-6)})]
    coherent = [(1.0, {"concurrence_max": (1.0 / (1.0 + math.e), 1e-9)})]
    squeezed = [(g, {"concurrence_max": (c, 1e-9)}) for g, c in SQUEEZED_CONCURRENCE_MAX.items()]
    return [
        Invocation(
            ("jc", "--input", "single-photon", "--out", "jc-single.csv"),
            "jc-single.csv",
            partial(checks.check_jc_scan, expected=single),
        ),
        Invocation(
            ("jc", "--input", "coherent", "--alpha", "1.0", "--out", "jc-coherent.csv"),
            "jc-coherent.csv",
            partial(checks.check_jc_scan, expected=coherent),
        ),
        Invocation(
            ("jc", "--input", "squeezed", "--gamma", "0.4:0.8:0.2", "--out", "jc-squeezed.csv"),
            "jc-squeezed.csv",
            partial(checks.check_jc_scan, expected=squeezed),
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qubit-sample", threads=1, invocations=_qubit_sample),
        Workload("gaussian-sample", threads=2, invocations=_gaussian_sample),
        Workload("jc-scan", threads=None, invocations=_jc_scan),
    )
}
