"""Command-line interface writing plot-ready CSV/JSON datasets.

Subcommands
-----------
sample    random EPE records for the qubit or gaussian system
boundary  closed-form boundary curves on a grid
jc        Jaynes-Cummings transfer scans over input parameters
rerun     re-execute the command stored in a manifest

Exit codes: 0 success, 2 bad flags, 3 I/O failure, 4 invariant
violation detected in command output (a containment flag, a check
inside a measure, a non-finite value), 5 grid outside a curve domain,
6 insufficient Fock truncation.  Commands raise; `main` alone prints the
`error:` line and picks the code (`EXIT_CODES`).  A flag that does not
apply or is out of range (`boundary --energy` off gmems/glems or not
positive and finite, a `jc` parameter flag of another input) exits 2,
and so does a grid that expands to no points (`boundary --grid`, `jc
--alpha`/`--gamma`).

Every file written is paired with a sidecar `<out>.manifest.json`
recording the command line, configuration, seed, version, timestamp and
the run's CPU time, peak RSS and minor page faults (`resources`);
`sample` manifests also name their system's RNG stream
(`sampling.STREAMS`), and `rerun` refuses a `sample` manifest written
with another stream than this epe's for its system, and any manifest
whose argv is not a non-empty list of strings or is a rerun.  A
rerun reproduces bytes only under the same version; `rerun` of a
manifest from another version notes both versions on stderr and replays.
The manifest is in the sidecar only, so identical invocations write
byte-identical data files regardless of --out, version or EPE_THREADS.

`_write_output` is the one writer.  It takes blocks of rows (`sample`
and `boundary` one per chunk of `sampling.CHUNK` rows, `jc` one block),
writes their digits with `csv_bytes` (a JSON record is its CSV row in
brackets) to an anonymous binary temporary file, and copies it to --out
or stdout after the last block, so memory stays bounded at any --count
or grid size in either format and a failed command writes nothing.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import shutil
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__, jc, sampling
from .errors import (
    ConfigurationError,
    DomainError,
    EPEError,
    InvariantViolation,
    TruncationError,
    UnphysicalCovarianceError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVARIANT = 4
EXIT_GRID = 5
EXIT_TRUNCATION = 6
# the exit code of each error a command may raise; main() prints its message
EXIT_CODES = {
    ConfigurationError: EXIT_USAGE,
    OSError: EXIT_IO,
    InvariantViolation: EXIT_INVARIANT,
    UnphysicalCovarianceError: EXIT_INVARIANT,
    DomainError: EXIT_GRID,
    TruncationError: EXIT_TRUNCATION,
}

_FMT = "%.17g"
# most points a start:stop:step grid spec may expand to
MAX_GRID_POINTS = 1_000_000

# --- CSV formatting ---
#
# `csv_bytes` writes `_FMT % v` for every value v without a Python float
# per value.  For +0.0 and each finite v in [1e-4, 1e15) it builds the
# digits from integers; any other value (negative, -0.0, smaller, larger,
# subnormal, inf, nan) goes through `_FMT %`.  Such a v is m 2**-r with
# a 53-bit integer m, and its decimal exponent X = floor(log10 v) lies in
# [-4, 14], so %g writes it in fixed notation.  Its 17 significant
# digits are the integer D nearest v 10**s = m 5**s / 2**t, s = 16 - X,
# t = r - s in [1, 46], ties to even.  A float estimate of D is off by
# less than 13, so the exact remainder m 5**s - estimate 2**t is below
# 2**51 in magnitude and equals the difference of the two products
# modulo 2**64; it corrects the estimate to D, the digits `%` takes from
# Gay's correctly rounded conversion ("Correctly rounded binary-decimal
# and decimal-binary conversions", 1990).  A value is laid out in 5
# little-endian uint64 words whose unused bytes are 0, and one
# `translate` deletes those:
#   0  the separator (byte 0), "0." and -X - 1 zeros when X < 0, D's digit 0 (byte 7)
#   1  those of D's digits 1-8 in the integer part
#   2  those of digits 9-14 in the integer part, "." (byte 7) if a fraction follows
#   3  those of digits 1-8 in the fraction, up to D's last nonzero digit
#   4  those of digits 9-16 in the fraction, up to D's last nonzero digit
# A `_FMT %` value takes words 1-3 (at most 24 characters).  A row ends
# in "," and its label, if it has one, and a newline.

_LE = np.dtype("<u8")
_WORDS = 5
_LOWEST, _BEYOND = 1e-4, 1e15
_X = np.arange(-4, 15)
# the nearest double to 10**x for x in -4..15; for x < 0 it is above 10**x,
# so for any double v, v >= _POW10[x + 4] iff v >= 10**x
_POW10 = np.array([float(f"1e{x}") for x in range(-4, 16)])
_POW5 = np.uint64(5) ** np.arange(21, dtype=np.uint64)
_SCALE = _POW5.astype(float) * 2.0 ** np.arange(21)
# 2**(t - 1) - 1 for t in 1..46
_HALF_DOWN = (1 << np.arange(47)) // 2 - 1
_ALL = np.uint64(2**64 - 1)


def _low_bytes(count):
    """Words whose low `count` bytes (none below 0, all above 8) are 0xFF."""
    return ((np.arange(8) < np.reshape(count, (-1, 1))) * np.uint8(0xFF)).view(_LE).ravel()


def _by_group(place_words):
    """For groups 0000..9999, the OR of place_words[p][digit p] over the 4 places."""
    a, b, c, d = place_words
    return (a[:, None, None, None] | b[:, None, None] | c[:, None] | d).ravel()


_DIGIT = np.arange(10, dtype=np.uint64)
_GROUPS = 10_000
# a group as 4 ASCII digits, the first in the low byte
_DIGITS = _by_group([_DIGIT + 48 << np.uint64(8 * p) for p in range(4)])
_DIGITS_HI = _DIGITS << np.uint64(32)
# the bytes of a group up to its last nonzero digit (none for 0000)
_TRAIL = _by_group([np.where(_DIGIT > 0, _low_bytes(p + 1), 0) for p in range(4)])
# as the high half of a word, where a nonzero group keeps the whole low
# half; at g + _GROUPS, for a group followed by nonzero digits, all of it
_TRAIL_HI = np.concatenate([
    _TRAIL << np.uint64(32) | np.where(_TRAIL > 0, _ALL >> np.uint64(32), 0),
    np.full(_GROUPS, _ALL)])
# by X + 4: the integer digits among 1-8 and 9-16
_INT_1 = _low_bytes(_X)
_INT_2 = _low_bytes(_X - 8)
# by X + 4 in the first column and X + 4 + len(_X) after it: word 0
# without digit 0, and the "." of word 2 if a fraction follows
_LEAD = np.frombuffer(b"".join(
    (sep + (b"0." + b"0" * (-x - 1) if x < 0 else b"")).ljust(8, b"\0")
    for sep in (b"\0", b",") for x in _X), dtype=_LE)
_DOT = np.tile(np.where(_X >= 0, ord(".") << 56, 0).astype(_LE), 2)
# digit 0 in byte 7
_DIGIT_0 = _DIGIT + 48 << np.uint64(56)


def _digit_words(values, words):
    """Lay out an (n, k) float array in `words`, an (n, k, 5) word array.

    Returns the mask of the values left to `_FMT %`; their words hold garbage.
    """
    fast = (values >= _LOWEST) & (values < _BEYOND)
    # the others are computed as 1.0, and D = 0 then writes +0.0
    v = np.where(fast, values, 1.0)
    bits = v.view(np.int64)
    e = bits >> 52
    # floor(log10 2**(e - 1023)), then X is it or one more
    x = (e - 1023) * 1233 >> 12
    x += v >= _POW10[x + 5]
    s = 16 - x
    t = 1075 - e - s
    m = (bits & (1 << 52) - 1 | 1 << 52).view(np.uint64)
    d = (v * _SCALE[s]).astype(np.int64)
    rest = (m * _POW5[s] - (d.view(np.uint64) << t.view(np.uint64))).view(np.int64)
    # D = floor((P + 2**(t-1) - 1 + odd) / 2**t), P = m 5**s and odd the
    # parity of floor(P / 2**t), rounds half to even
    rest += _HALF_DOWN[t] + (d + (rest >> t) & 1)
    d += rest >> t
    d *= fast
    top = d // 10**8
    low = d - top * 10**8
    d0 = top // 10**8
    top -= d0 * 10**8
    g1 = top // 10**4
    g2 = top - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    xi = x + 4
    int_1, int_2 = _INT_1[xi], _INT_2[xi]
    w1 = _DIGITS[g1] | _DIGITS_HI[g2]
    w2 = _DIGITS[g3] | _DIGITS_HI[g4]
    frac_1 = _TRAIL[g1] | _TRAIL_HI[g2 + _GROUPS * (low > 0)]
    frac_1 &= w1 & ~int_1
    frac_2 = _TRAIL[g3] | _TRAIL_HI[g4]
    frac_2 &= w2 & ~int_2
    xi[:, 1:] += len(_X)
    words[..., 0] = _DIGIT_0[d0] | _LEAD[xi]
    words[..., 1] = w1 & int_1
    words[..., 2] = w2 & int_2 | _DOT[xi] * (frac_1 | frac_2 > 0)
    words[..., 3] = frac_1
    words[..., 4] = frac_2
    return ~fast & (values.view(np.int64) != 0)


def csv_bytes(values, labels=None) -> bytes:
    """ASCII CSV lines of an (n, k) float array, every value as `_FMT % value`.

    `labels`, an (n,) array of ASCII strings or bytes of one length, adds
    a last column written as is.
    """
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    if labels is not None:
        labels = np.asarray(labels, dtype=bytes)
    end = 1 if labels is None else 2 + labels.dtype.itemsize
    width = _WORDS * k + -(-end // 8)
    buffer = bytearray(8 * n * width)
    line = np.frombuffer(buffer, _LE).reshape(n, width)
    words = line[:, :_WORDS * k].reshape(n, k, _WORDS)
    slow = _digit_words(values, words)
    if slow.any():
        rows, cols = np.nonzero(slow)
        text = [_FMT % v for v in values[rows, cols].tolist()]
        words[rows, cols] = 0
        words[rows, cols, 0] = np.minimum(cols, 1) * ord(",")
        words[rows, cols, 1:4] = np.array(text, dtype="S24").view(_LE).reshape(-1, 3)
    tail = line[:, _WORDS * k:].view(np.uint8)
    if labels is not None:
        tail[:, 0] = ord(",")
        tail[:, 1:end - 1] = labels.view(np.uint8).reshape(n, end - 2)
    tail[:, end - 1] = ord("\n")
    return bytes(buffer.translate(None, b"\0"))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one (so `taskset -c 0 epe ...` counts 1), else the core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count() -> int:
    """Sampling workers: EPE_THREADS (default: all usable CPUs), capped at
    `usable_cpus()`.  `_record_chunks` may start fewer."""
    cpus = usable_cpus()
    raw = os.environ.get("EPE_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"EPE_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ConfigurationError("EPE_THREADS must be >= 1")
        return min(n, cpus)
    return cpus


def parse_grid(spec: str) -> list:
    """Parse "start:stop:step" (inclusive) or a single value."""
    parts = spec.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        # + 0.0 reads -0 as +0, which writes as 0
        numbers = [float(p) + 0.0 for p in parts]
    except ValueError:
        raise ConfigurationError(f"bad grid spec {spec!r}; expected start:stop:step") from None
    if not np.all(np.isfinite(numbers)):
        raise ConfigurationError(f"grid spec {spec!r} has a non-finite value")
    if len(numbers) == 1:
        return numbers
    start, stop, step = numbers
    if step <= 0.0:
        raise ConfigurationError("grid step must be positive")
    tol = 1e-9 * max(1.0, abs(stop))
    # the points start + k step up to stop + tol, about floor(span) + 1 of
    # them; count them before building
    span = (stop - start + tol) / step
    if span >= MAX_GRID_POINTS:
        raise ConfigurationError(f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points")
    values = start + np.arange(int(span) + 2) * step
    values = values[values <= stop + tol]
    # snap accumulated roundoff at the endpoint
    values[np.abs(values - stop) <= tol] = stop
    return values.tolist()


def _manifest(args):
    config = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    manifest = {
        "command": args.command,
        "argv": list(getattr(args, "_argv", sys.argv[1:])),
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": [args.out],
    }
    if args.command == "sample":
        manifest["stream"] = sampling.STREAMS[args.system]
    return manifest


def _resources():
    """CPU seconds, peak RSS in MB and minor page faults of this process and
    its reaped children (the pool workers), from getrusage; None where
    the resource module does not exist (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is in bytes on macOS, KiB elsewhere
    rss_unit = 1 if sys.platform == "darwin" else 1024
    return {
        "cpu_s": round(sum(u.ru_utime + u.ru_stime for u in (own, children)), 3),
        "max_rss_mb": round(max(own.ru_maxrss, children.ru_maxrss) * rss_unit / 1e6, 1),
        "minor_faults": own.ru_minflt + children.ru_minflt,
    }


def _publish(args, data):
    """Copy the finished output in the binary file `data` to --out (or stdout),
    then write the manifest sidecar.

    Nothing is opened for writing before the output is complete, so a run
    that fails earlier leaves an existing --out as it was.
    """
    data.seek(0)
    if not args.out:
        # text already written to sys.stdout goes first
        sys.stdout.flush()
        shutil.copyfileobj(data, sys.stdout.buffer)
        return
    # OSError propagates to main(), which maps it to EXIT_IO
    with open(args.out, "wb") as fh:
        shutil.copyfileobj(data, fh)
    manifest = _manifest(args)
    manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    resources = _resources()
    if resources is not None:
        manifest["resources"] = resources
    with open(args.out + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_output(args, header, blocks):
    """Write blocks of rows as CSV or JSON to --out (or stdout) plus the manifest sidecar.

    A block is (values, flags): an (n, k) float array and None or the
    (n, 3) containment flags, written as a last column of labels such as
    "110".  A JSON record is its `csv_bytes` row in brackets, the label
    quoted, so each JSON field is the text of its CSV field.  A value
    that is not finite raises InvariantViolation naming its row.  Nothing
    is published until the last block has been read, so an error raised
    while the blocks are produced writes nothing.
    """
    as_json = args.format == "json"
    with tempfile.TemporaryFile() as spool:
        if as_json:
            spool.write(b'{"columns": %s, "records": [' % json.dumps(list(header)).encode())
        else:
            spool.write((",".join(header) + "\n").encode())
        row = 0
        for values, flags in blocks:
            finite = np.isfinite(values)
            if not finite.all():
                bad = int(np.flatnonzero(~finite.all(axis=1))[0])
                raise InvariantViolation(f"non-finite value in row {row + bad}: {values[bad].tolist()}")
            labels = None if flags is None else sampling.flag_labels(flags)
            if as_json and labels is not None:
                labels = np.char.add(np.char.add(b'"', labels), b'"')
            text = csv_bytes(values, labels)
            if as_json and text:
                text = b"%s[%s]" % (b",\n" if row else b"\n", text[:-1].replace(b"\n", b"],\n["))
            spool.write(text)
            row += len(values)
        if as_json:
            spool.write(b"\n]}\n" if row else b"]}\n")
        _publish(args, spool)


# --- sample ---


# A pool worker starts only if it gets at least this many chunks: on
# small runs the pool's imports, queues and shutdown and each worker's
# cold first chunk cost more than the pool saves.  On 2 vCPU (wall medians of 10 runs,
# EPE_THREADS 1 vs 2) one process was faster up to 4 Gaussian chunks
# (16384 records: 0.346 vs 0.367 s) and 2 qubit chunks (0.351 vs 0.400
# s); the pool first won at 6 Gaussian (0.387 vs 0.430 s) and 4 qubit
# chunks (0.418 vs 0.442 s) in one series, and only at 12 and 8 in a
# slower one.  One process always used less CPU.
MIN_CHUNKS_PER_WORKER = 2
# chunks submitted ahead of the one being consumed, per worker
CHUNKS_AHEAD_PER_WORKER = 2


def _record_chunks(cfg):
    """Yield the (values, flags) of each chunk of the run `cfg` in index order.

    The pool has min(worker_count(), chunks // MIN_CHUNKS_PER_WORKER)
    workers; with fewer than two, the chunks run in this process and no
    pool module is imported.  At most CHUNKS_AHEAD_PER_WORKER x workers
    chunks are submitted ahead of the one being consumed, so results
    waiting in memory stay bounded.  Records depend on (seed, index)
    only, so the bytes are the same either way.
    """
    starts = range(0, cfg.count, sampling.CHUNK)
    sizes = [min(sampling.CHUNK, cfg.count - s) for s in starts]
    workers = min(worker_count(), len(starts) // MIN_CHUNKS_PER_WORKER)
    if workers < 2:
        for start, size in zip(starts, sizes):
            yield sampling.records_chunk(cfg, start, size)
        return
    # imported here: it pulls in multiprocessing and logging, which no other path needs
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        for start, size in zip(starts, sizes):
            pending.append(pool.submit(sampling.records_chunk, cfg, start, size))
            if len(pending) == CHUNKS_AHEAD_PER_WORKER * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _checked_chunks(cfg):
    """Yield (values, flags) of each chunk of `_record_chunks` in index order.

    Raises InvariantViolation, naming the global index, at the first
    sample whose containment flags do not all hold.
    """
    start = 0
    for values, flags in _record_chunks(cfg):
        if not flags.all():
            bad = int(np.flatnonzero(~flags.all(axis=1))[0])
            raise InvariantViolation(
                f"containment flag violated at sample {start + bad}: "
                f"record={values[bad].tolist()} flags={flags[bad].tolist()}"
            )
        yield values, flags
        start += len(values)


def cmd_sample(args) -> int:
    cfg = sampling.SamplerConfig(
        seed=args.seed,
        count=args.count,
        system=args.system,
        rank_filter=args.rank,
        energy_window=None if args.energy_window is None else tuple(args.energy_window),
        measure=args.measure,
    )
    if args.energy_window is None:
        # manifests of either system record the default window
        args.energy_window = sampling.DEFAULT_ENERGY_WINDOW
    chunks = _checked_chunks(cfg)
    _write_output(args, ["energy", "entanglement", "purity", "flags"], chunks)
    return EXIT_OK


# --- boundary ---


def cmd_boundary(args) -> int:
    curves = sampling.QUBIT_CURVES if args.system == "qubit" else sampling.GAUSSIAN_CURVES
    if args.curve not in curves:
        raise ConfigurationError(f"unknown curve {args.curve!r} for system {args.system}")
    takes_energy = args.curve in sampling.ENERGY_CURVES
    if takes_energy and args.energy is None:
        raise ConfigurationError(f"curve {args.curve!r} requires --energy")
    if not takes_energy and args.energy is not None:
        raise ConfigurationError(f"curve {args.curve!r} takes no --energy")
    if takes_energy and not np.isfinite(args.energy):
        raise ConfigurationError(f"--energy must be finite, got {args.energy}")
    if takes_energy and not args.energy > 0.0:
        raise ConfigurationError(f"--energy must be positive, got {args.energy}")
    grid = parse_grid(args.grid)
    if not grid:
        raise ConfigurationError(f"--grid {args.grid!r} expands to no points")
    try:
        header, table = sampling.boundary_tables(args.system, grid, args.curve, args.energy)
    except EPEError as exc:
        raise DomainError(str(exc)) from exc
    # formatted a chunk of rows at a time, so the CSV text of a
    # million-point grid is never held in memory at once
    step = sampling.CHUNK
    _write_output(args, header, ((table[i:i + step], None) for i in range(0, len(table), step)))
    return EXIT_OK


# --- jc ---

_JC_INPUTS = ("single-photon", "n-photon", "coherent", "squeezed")
# the parameter flag each input takes
_JC_PARAMS = {"n-photon": "n", "coherent": "alpha", "squeezed": "gamma"}


def _jc_specs(args):
    """(param, spec) pairs for the requested input scan."""
    param = _JC_PARAMS.get(args.input)
    for name in ("n", "alpha", "gamma"):
        if getattr(args, name) is not None and name != param:
            raise ConfigurationError(f"--{name} does not apply to {args.input} input")
    if param is not None and getattr(args, param) is None:
        raise ConfigurationError(f"{args.input} input requires --{param}")
    if args.input == "single-photon":
        return [(1.0, jc.SinglePhoton())]
    if args.input == "n-photon":
        return [(float(args.n), jc.NPhoton(n=args.n))]
    values = parse_grid(getattr(args, param))
    if not values:
        raise ConfigurationError(f"--{param} {getattr(args, param)!r} expands to no points")
    spec = jc.EntangledCoherent if args.input == "coherent" else jc.TwoModeSqueezed
    return [(v, spec(v)) for v in values]


def _analytic_deviation(spec, grid, result, n_max):
    """Max entrywise gap between the analytic form and the numerical states:
    `reduced_states` at about 64 grid times, the reported state, and the
    amplitude propagation of the input's support at the optimum.  The
    analytic series are evaluated in one call, so the truncation is
    resolved once."""
    times = grid[:: max(1, len(grid) // 64)]
    support = result.input_state
    numeric = np.concatenate([
        jc.reduced_states(support, times),
        [result.qubit_state, jc.propagated_qubit_state(support, result.lambda_t)],
    ])
    analytic = jc.analytic_qubit_state(spec, np.r_[times, result.lambda_t, result.lambda_t], n_max)
    return float(np.abs(numeric - analytic).max())


def cmd_jc(args) -> int:
    # checked before np.linspace allocates 8 bytes per step
    if not 1 <= args.tsteps <= MAX_GRID_POINTS:
        raise ConfigurationError(f"--tsteps must be between 1 and {MAX_GRID_POINTS}")
    if not 0.0 < args.tmax < np.inf:
        raise ConfigurationError("--tmax must be positive and finite")
    if args.nmax is not None and args.nmax < 1:
        raise ConfigurationError("--nmax must be at least 1")
    try:
        # a spec raises DomainError for a parameter out of its domain, and
        # resolve_n_max for a truncation above jc.MAX_N_MAX, before any input is built
        specs = [(p, spec, jc.resolve_n_max(spec, args.nmax)) for p, spec in _jc_specs(args)]
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from exc

    grid = np.linspace(0.0, args.tmax, args.tsteps)
    header = [
        "param",
        "input_energy",
        "input_entropy",
        "lambda_t_max",
        "concurrence_max",
        "purity_at_max",
        "analytic_max_dev",
    ]
    rows = []
    for param, spec, n_max in specs:
        result = jc.max_transfer(spec, grid, n_max)
        rows.append((
            param,
            result.input_energy,
            result.input_entropy,
            result.lambda_t,
            result.concurrence,
            result.purity,
            _analytic_deviation(spec, grid, result, n_max),
        ))
    table = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    _write_output(args, header, [(table, None)])
    return EXIT_OK


# --- rerun ---


def cmd_rerun(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read manifest: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed manifest: {exc}") from exc
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not isinstance(argv, list) or not argv:
        raise ConfigurationError("manifest carries no argv to replay")
    if not all(isinstance(arg, str) for arg in argv):
        raise ConfigurationError("manifest argv must be a list of strings")
    # no command writes a manifest of a rerun, and replaying one could recurse
    if argv[0] == "rerun":
        raise ConfigurationError("manifest argv is itself a rerun, which cannot be replayed")
    if argv[0] == "sample":
        system = build_parser().parse_args(argv).system
        recorded, current = manifest.get("stream"), sampling.STREAMS[system]
        if recorded != current:
            raise ConfigurationError(
                f"the manifest's RNG stream is {recorded!r}, this epe's {system} stream is "
                f"{current!r}; a rerun would not reproduce its outputs"
            )
    if manifest.get("version") != __version__:
        print(
            f"note: the manifest was written by epe {manifest.get('version')}, this is epe "
            f"{__version__}; output bytes may differ",
            file=sys.stderr,
        )
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epe",
        description="Entanglement-purity-energy datasets for two qubits and two modes.",
    )
    parser.add_argument("--version", action="version", version=f"epe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample random states and write EPE records")
    p.add_argument("--system", choices=("qubit", "gaussian"), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure", choices=sorted(set(sampling.QUBIT_MEASURES) | set(sampling.GAUSSIAN_MEASURES)))
    p.add_argument("--rank", type=int, choices=(1, 2, 3, 4), help="Ginibre rank filter, qubit only")
    p.add_argument(
        "--energy-window",
        type=float,
        nargs=2,
        metavar=("LO", "HI"),
        help="energy acceptance window, gaussian only (default: 0 2)",
    )
    p.add_argument("--out", help="output path; stdout when omitted")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("boundary", help="tabulate closed-form boundary curves")
    p.add_argument("--system", choices=("qubit", "gaussian"), required=True)
    p.add_argument("--curve", required=True)
    p.add_argument("--grid", required=True, help="start:stop:step, inclusive")
    p.add_argument("--energy", type=float, help="fixed energy for gmems/glems curves")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("jc", help="Jaynes-Cummings transfer scans")
    p.add_argument("--input", choices=_JC_INPUTS, required=True)
    p.add_argument("--n", type=int, help="photon number for n-photon input")
    p.add_argument("--alpha", help="coherent amplitude, value or start:stop:step")
    p.add_argument("--gamma", help="squeezing parameter, value or start:stop:step")
    p.add_argument("--tmax", type=float, default=jc.DEFAULT_T_MAX)
    p.add_argument("--tsteps", type=int, default=jc.DEFAULT_T_STEPS)
    p.add_argument("--nmax", type=int, help="Fock truncation per mode (default: automatic)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_jc)

    p = sub.add_parser("rerun", help="replay the command recorded in a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    """Run `argv` (default `sys.argv[1:]`) and return the exit code, which `EXIT_CODES`
    maps from each error; with no `argv`, as the `epe` program, it first freezes the heap."""
    if argv is None:
        gc.freeze()  # collections, in forked workers too, and exit then skip the imports' objects
    effective = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(effective)
    args._argv = effective
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        hint = ""
        if isinstance(exc, TruncationError):
            hint = f"; rerun with --nmax {exc.required_n_max} or larger"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
