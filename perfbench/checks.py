"""Output checks for the benchmark workloads.

Each checker returns a list of problems, empty when the file passes. The
checks hold for any RNG stream and any adequate Fock truncation: sample
files are checked against row counts, containment flags, closed-form
frontiers and Hilbert-Schmidt means, and transfer scans against exact or
pinned maxima. A change that deliberately alters output bytes (a new
stream, a different truncation) still passes them.

This module imports nothing from epe, so the frontiers below are written
out independently of the code they check.
"""

from __future__ import annotations

import csv
import json
import math

# Slack for roundoff on closed-form bounds; the sampler's own flag tolerance.
TOL = 1e-9
# Standard errors a sample mean may sit from its Hilbert-Schmidt value.
MEAN_SE = 5.0
# Problems listed per file before the rest are only counted.
MAX_LISTED = 10

SAMPLE_HEADER = ["energy", "entanglement", "purity", "flags"]
JC_HEADER = [
    "param",
    "input_energy",
    "input_entropy",
    "lambda_t_max",
    "concurrence_max",
    "purity_at_max",
    "analytic_max_dev",
]
# Hilbert-Schmidt means over full-rank two-qubit states: E[Tr rho^2] = 8/17
# and, by the symmetry |00> <-> |11>, E[energy] = 1.
HS_MEAN_PURITY = 8.0 / 17.0
HS_MEAN_ENERGY = 1.0
ANALYTIC_DEV_MAX = 1e-9


class _Problems(list):
    """A problem list that keeps the first MAX_LISTED messages and counts the rest."""

    def __init__(self):
        super().__init__()
        self.dropped = 0

    def add(self, message):
        if len(self) < MAX_LISTED:
            self.append(message)
        else:
            self.dropped += 1

    def done(self):
        if self.dropped:
            self.append(f"... and {self.dropped} more")
        return list(self)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return None, []
    return rows[0], rows[1:]


def _floats(row, k, problems):
    try:
        values = [float(v) for v in row]
    except ValueError:
        problems.add(f"row {k}: not numeric: {row}")
        return None
    if not all(math.isfinite(v) for v in values):
        problems.add(f"row {k}: not finite: {row}")
        return None
    return values


def mems_concurrence_bound(purity):
    """Largest two-qubit concurrence at a given purity (the inverse MEMS curve)."""
    if purity < 1.0 / 3.0:
        return 0.0
    if purity <= 5.0 / 9.0:
        return math.sqrt(2.0 * (purity - 1.0 / 3.0))
    return (1.0 + math.sqrt(2.0 * min(purity, 1.0) - 1.0)) / 2.0


def tmsv_log_negativity(energy):
    """Log-negativity of the two-mode squeezed vacuum, the largest at a given energy."""
    return math.acosh(max(energy + 1.0, 1.0))


def _mean_within(values, expected, label, problems):
    if len(values) < 2:
        return
    n = len(values)
    mean = math.fsum(values) / n
    se = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1) / n)
    if abs(mean - expected) > MEAN_SE * se:
        problems.add(
            f"mean {label} {mean:.6g} is {abs(mean - expected) / se:.1f} standard errors "
            f"from {expected:.6g} (SE {se:.2g})"
        )


def check_manifest(path, argv):
    """The sidecar exists, parses and records the invocation's argv."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"manifest {path}: {exc}"]
    if manifest.get("argv") != list(argv):
        return [f"manifest {path}: argv {manifest.get('argv')} != {list(argv)}"]
    return []


def _sample_rows(path, count, problems):
    header, rows = _read_csv(path)
    if header != SAMPLE_HEADER:
        problems.add(f"header {header} != {SAMPLE_HEADER}")
        return []
    if len(rows) != count:
        problems.add(f"{len(rows)} rows, expected {count}")
    out = []
    for k, row in enumerate(rows):
        if len(row) != 4:
            problems.add(f"row {k}: {len(row)} fields")
            continue
        if row[3] != "111":
            problems.add(f"row {k}: flags {row[3]}")
        values = _floats(row[:3], k, problems)
        if values is not None:
            out.append((k, *values))
    return out


def check_qubit_sample(path, count):
    """Two-qubit sample file: count rows, all flags set, physical ranges,
    concurrence under the MEMS frontier, Hilbert-Schmidt mean purity and energy."""
    problems = _Problems()
    rows = _sample_rows(path, count, problems)
    for k, energy, conc, purity in rows:
        if not -TOL <= energy <= 2.0 + TOL:
            problems.add(f"row {k}: energy {energy!r} outside [0, 2]")
        if not 0.0 <= conc <= 1.0:
            problems.add(f"row {k}: concurrence {conc!r} outside [0, 1]")
        if not 0.25 - TOL <= purity <= 1.0 + TOL:
            problems.add(f"row {k}: purity {purity!r} outside [1/4, 1]")
        elif conc > mems_concurrence_bound(purity) + TOL:
            problems.add(f"row {k}: concurrence {conc!r} above the MEMS frontier at purity {purity!r}")
    _mean_within([r[3] for r in rows], HS_MEAN_PURITY, "purity", problems)
    _mean_within([r[1] for r in rows], HS_MEAN_ENERGY, "energy", problems)
    return problems.done()


def check_gaussian_sample(path, count):
    """Two-mode Gaussian sample file from the default window: count rows, all flags
    set, energy in [0, 2], purity in (0, 1], log-negativity in [0, TMSV log-negativity]."""
    problems = _Problems()
    for k, energy, logneg, purity in _sample_rows(path, count, problems):
        if not -TOL <= energy <= 2.0 + TOL:
            problems.add(f"row {k}: energy {energy!r} outside [0, 2]")
        if not 0.0 < purity <= 1.0:
            problems.add(f"row {k}: purity {purity!r} outside (0, 1]")
        if logneg < 0.0:
            problems.add(f"row {k}: entanglement {logneg!r} below 0")
        elif logneg > tmsv_log_negativity(energy) + TOL:
            problems.add(f"row {k}: entanglement {logneg!r} above the TMSV value at energy {energy!r}")
    return problems.done()


def check_jc_scan(path, expected):
    """Transfer-scan file: one row per expected parameter, with pinned values.

    `expected` is a list of (param, {column: (value, tolerance)}) in row order.
    Every row must also have a concurrence in [0, 1] and an analytic
    cross-check deviation of at most ANALYTIC_DEV_MAX.
    """
    problems = _Problems()
    header, rows = _read_csv(path)
    if header != JC_HEADER:
        problems.add(f"header {header} != {JC_HEADER}")
        return problems.done()
    if len(rows) != len(expected):
        problems.add(f"{len(rows)} rows, expected {len(expected)}")
    col = {name: i for i, name in enumerate(JC_HEADER)}
    for k, (row, (param, pinned)) in enumerate(zip(rows, expected)):
        if len(row) != len(JC_HEADER):
            problems.add(f"row {k}: {len(row)} fields")
            continue
        values = _floats(row, k, problems)
        if values is None:
            continue
        if abs(values[col["param"]] - param) > TOL:
            problems.add(f"row {k}: param {values[col['param']]!r}, expected {param!r}")
        conc = values[col["concurrence_max"]]
        if not 0.0 <= conc <= 1.0:
            problems.add(f"row {k}: concurrence_max {conc!r} outside [0, 1]")
        dev = values[col["analytic_max_dev"]]
        if not dev <= ANALYTIC_DEV_MAX:
            problems.add(f"row {k}: analytic_max_dev {dev!r} above {ANALYTIC_DEV_MAX}")
        for name, (value, tol) in pinned.items():
            got = values[col[name]]
            if not abs(got - value) <= tol:
                problems.add(f"row {k}: {name} {got!r} differs from {value!r} by more than {tol}")
    return problems.done()
