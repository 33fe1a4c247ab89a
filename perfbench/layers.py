"""Spans around epe's public functions, and the per-layer metrics derived from them.

`Recorder.install` replaces module attributes of `epe.cli`, `epe.sampling`,
`epe.gaussian`, `epe.qubit` and `epe.jc` with wrappers, from outside the
program. Calls made through the module attribute are seen; calls bound
earlier by `from module import name` are not. A wrapper either records a
span (name, start, end, parent span, value) or only counts calls, in which
case its time stays in the caller's self time.

This module imports nothing from epe: `traced_cli.py` installs it in the
process that runs the CLI, and `run.py` turns the recorded spans into
metrics.
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict

# Per-layer stages: metric prefix, the functions whose spans it sums, the fields reported.
STAGES = (
    ("cli", ("cli.main",), ("self_s",)),
    ("sampling.rng_setup", ("sampling.index_rng",), ("calls", "self_s")),
    ("sampling.state_draw", ("sampling.ginibre_state",), ("calls", "self_s")),
    (
        "sampling.batch_measures",
        ("sampling.batch_concurrence", "sampling.batch_negativity"),
        ("self_s",),
    ),
    ("sampling.qubit_chunk", ("sampling.qubit_records_chunk",), ("self_s",)),
    # keeps the per-record loop of the Gaussian chunk out of cli.self_s
    ("sampling.gaussian_chunk", ("sampling.gaussian_records_chunk",), ("self_s",)),
    ("sampling.cov_draw", ("sampling.random_covariance",), ("calls", "self_s")),
    ("sampling.gaussian_record", ("sampling.gaussian_record",), ("self_s",)),
    ("gaussian.standard_form", ("gaussian.reduce_to_standard_form",), ("calls", "self_s")),
    (
        "gaussian.measures",
        ("gaussian.energy", "gaussian.purity", "gaussian.log_negativity",
         "gaussian.negativity", "gaussian.gmems"),
        ("self_s",),
    ),
    ("qubit.concurrence", ("qubit.concurrence",), ("calls", "self_s")),
    (
        "qubit.flag_curves",
        ("qubit.mems_concurrence_bound", "qubit.separable_min_purity"),
        ("self_s",),
    ),
    ("jc.input_build", ("jc.build_input",), ("calls", "self_s")),
    ("jc.evolve", ("jc.evolve",), ("calls", "self_s")),
    ("jc.reduce", ("jc.reduce_to_qubits",), ("self_s",)),
)

# Spans used only through inclusive time or ancestry (jc.grid_eval, jc.refine, jc.analytic_check).
_STRUCTURAL = ("jc.max_transfer", "jc.minimize_scalar", "jc.analytic_qubit_state")
SPANNED = tuple(name for _, names, _ in STAGES for name in names) + _STRUCTURAL
# Counted, not timed: Gaussian candidates, physicality checks, chosen truncations.
COUNTED = ("sampling.beam_splitter", "gaussian.is_physical", "gaussian.cm_is_physical",
           "jc.resolve_n_max")

# Every per-layer metric with its unit. run.py adds the setup.*, cli.bytes_written
# and trace.* values; layer_metrics() gives the rest.
PER_LAYER = {
    "setup.import_s.epe_cli": "s",
    "setup.import_s.epe_jc": "s",
    "setup.import_s.numpy": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
for _prefix, _names, _fields in STAGES:
    for _field in _fields:
        PER_LAYER[f"{_prefix}.{_field}"] = "s" if _field == "self_s" else "count"
PER_LAYER.update({
    "sampling.cov_draw.candidates": "count",
    "sampling.cov_draw.accept_ratio": "ratio",
    "gaussian.physical_checks.calls": "count",
    "jc.truncation.n_max_sum": "count",
    "jc.evolve.bytes_computed": "bytes",
    "jc.grid_eval.s": "s",
    "jc.refine.s": "s",
    "jc.refine.candidates": "count",
    "jc.refine.evals": "count",
    "jc.analytic_check.s": "s",
})


def _state_nbytes(args, kwargs, result):
    state = args[0] if args else kwargs.get("state")
    return int(getattr(getattr(state, "amps", None), "nbytes", 0))


def _returned_int(args, kwargs, result):
    return int(result)


# Value recorded per call: computed bytes for evolve, the chosen n_max for resolve_n_max.
_VALUES = {"jc.evolve": _state_nbytes, "jc.resolve_n_max": _returned_int}


class Recorder:
    """Spans and counts of one traced CLI invocation, kept in memory until dump()."""

    def __init__(self):
        # [name, start, end, parent index or -1, value]; parents precede children
        self.spans = []
        self._open = []  # indices of spans still running, innermost last
        # (name, parent span name or "") -> [calls, summed value]
        self.counts = defaultdict(lambda: [0, 0])
        self.missing = []

    def install(self, modules):
        """Wrap every SPANNED and COUNTED function found in `modules` ({"jc": module, ...})."""
        for name in SPANNED + COUNTED:
            mod_name, attr = name.split(".", 1)
            module = modules.get(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrap = self._span if name in SPANNED else self._counter
            setattr(module, attr, wrap(name, fn, _VALUES.get(name)))

    def _span(self, name, fn, value):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
                if value is not None and result is not None:
                    span[4] = value(args, kwargs, result)

        return wrapper

    def _counter(self, name, fn, value):
        spans, stack, counts = self.spans, self._open, self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            entry = counts[(name, spans[stack[-1]][0] if stack else "")]
            entry[0] += 1
            if value is not None:
                entry[1] += value(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, **extra):
        record = {
            **extra,
            "spans": self.spans,
            "counts": [[n, p, c, v] for (n, p), (c, v) in self.counts.items()],
            "missing": self.missing,
        }
        # pickle: a JSON dump of 200k spans costs seconds, which would count as overhead
        with open(path, "wb") as fh:
            pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(records):
    """Per-layer metrics summed over the traced invocations of one pass.

    `records` are the dumps of Recorder, one per invocation. Stages a
    workload does not reach report 0, and so do functions that no longer
    exist; `missing_functions(records)` names those.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    values = defaultdict(int)
    counted = defaultdict(lambda: [0, 0])
    refine_evals = 0
    analytic_extra = 0.0
    for record in records:
        spans = record["spans"]
        for idx, (span, own) in enumerate(zip(spans, self_times(spans))):
            name, start, end = span[0], span[1], span[2]
            calls[name] += 1
            self_s[name] += own
            inclusive[name] += end - start
            values[name] += span[4]
            if name == "jc.evolve" and _has_ancestor(spans, idx, "jc.minimize_scalar"):
                refine_evals += 1
            if name in ("jc.evolve", "jc.reduce_to_qubits") and not _has_ancestor(
                spans, idx, "jc.max_transfer"
            ):
                analytic_extra += end - start
        for name, parent, n, total in record["counts"]:
            for key in (name, (name, parent)):
                counted[key][0] += n
                counted[key][1] += total

    out = {}
    for prefix, names, fields in STAGES:
        if "calls" in fields:
            out[f"{prefix}.calls"] = sum(calls[n] for n in names)
        if "self_s" in fields:
            out[f"{prefix}.self_s"] = sum(self_s[n] for n in names)
    candidates = counted["sampling.beam_splitter"][0]
    out["sampling.cov_draw.candidates"] = candidates
    out["sampling.cov_draw.accept_ratio"] = (
        out["sampling.cov_draw.calls"] / candidates if candidates else 0.0
    )
    out["gaussian.physical_checks.calls"] = (
        counted["gaussian.is_physical"][0] + counted["gaussian.cm_is_physical"][0]
    )
    # the truncation the CLI resolves once per input spec, not the internal re-resolutions
    out["jc.truncation.n_max_sum"] = counted[("jc.resolve_n_max", "cli.main")][1]
    out["jc.evolve.bytes_computed"] = values["jc.evolve"]
    out["jc.refine.s"] = inclusive["jc.minimize_scalar"]
    out["jc.grid_eval.s"] = inclusive["jc.max_transfer"] - inclusive["jc.minimize_scalar"]
    out["jc.refine.candidates"] = calls["jc.minimize_scalar"]
    out["jc.refine.evals"] = refine_evals
    out["jc.analytic_check.s"] = inclusive["jc.analytic_qubit_state"] + analytic_extra
    return out


def missing_functions(records):
    return sorted({name for record in records for name in record["missing"]})
