"""Command-line interface writing plot-ready CSV/JSON datasets.

Subcommands
-----------
sample    random EPE records for the qubit or gaussian system
boundary  closed-form boundary curves on a grid
jc        Jaynes-Cummings transfer scans over input parameters
rerun     re-execute the command stored in a manifest

Exit codes: 0 success, 2 bad flags, 3 I/O failure, 4 invariant
violation detected in sampler output, 5 grid outside a curve domain,
6 insufficient Fock truncation.

Every file written is paired with a sidecar `<out>.manifest.json`
recording the command line, configuration, seed, version and timestamp;
`sample` manifests also name the RNG stream (`sampling.STREAM`), and
`rerun` refuses a `sample` manifest written with another stream.  A
rerun reproduces bytes only under the same version; `rerun` of a
manifest from another version notes both versions on stderr and replays.
Data files themselves contain no timestamps, so identical invocations
are byte-identical regardless of EPE_THREADS.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, jc, sampling
from .errors import ConfigurationError, DomainError, EPEError, TruncationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVARIANT = 4
EXIT_GRID = 5
EXIT_TRUNCATION = 6

_FMT = "%.17g"


def _fmt_row(values):
    out = []
    for v in values:
        out.append(v if isinstance(v, str) else _FMT % float(v))
    return ",".join(out)


def worker_count() -> int:
    """Sampling workers: EPE_THREADS (default: all cores), capped at the core count."""
    cores = os.cpu_count() or 1
    raw = os.environ.get("EPE_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"EPE_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ConfigurationError("EPE_THREADS must be >= 1")
        return min(n, cores)
    return cores


def parse_grid(spec: str) -> list:
    """Parse "start:stop:step" (inclusive) or a single value."""
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"bad grid spec {spec!r}; expected start:stop:step") from None
    if step <= 0.0:
        raise ConfigurationError("grid step must be positive")
    values = []
    k = 0
    tol = 1e-9 * max(1.0, abs(stop))
    while True:
        v = start + k * step
        if v > stop + tol:
            break
        # snap accumulated roundoff at the endpoint
        values.append(stop if abs(v - stop) <= tol else v)
        k += 1
    return values


def _manifest(args, outputs):
    config = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    manifest = {
        "command": args.command,
        "argv": list(getattr(args, "_argv", sys.argv[1:])),
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "outputs": [str(p) for p in outputs],
    }
    if args.command == "sample":
        manifest["stream"] = sampling.STREAM
    return manifest


def _write_output(args, header, rows, records_json=None):
    """Write CSV or JSON rows to --out (or stdout) plus the manifest sidecar."""
    fmt = getattr(args, "format", "csv")
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(_fmt_row(r) for r in rows)
        payload = "\n".join(lines) + "\n"
    else:
        if records_json is None:
            records_json = [
                {k: (v if isinstance(v, str) else float(v)) for k, v in zip(header, r)}
                for r in rows
            ]
        body = {
            "manifest": _manifest(args, [args.out] if args.out else []),
            "columns": list(header),
            "records": records_json,
        }
        payload = json.dumps(body, indent=1, sort_keys=True) + "\n"

    if not args.out:
        sys.stdout.write(payload)
        return
    # OSError propagates to main(), which maps it to EXIT_IO
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    manifest = _manifest(args, [args.out])
    manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(args.out + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


# --- sample ---


def _sample_chunk_qubit(task):
    seed, start, count, rank, measure = task
    return sampling.qubit_records_chunk(seed, start, count, rank, measure)


def _sample_chunk_gaussian(task):
    seed, start, count, window, measure = task
    _, values, flags = sampling.gaussian_records_chunk(seed, start, count, window, measure)
    return values, flags


def cmd_sample(args) -> int:
    try:
        cfg = sampling.SamplerConfig(
            seed=args.seed,
            count=args.count,
            system=args.system,
            rank_filter=args.rank,
            energy_window=None if args.energy_window is None else tuple(args.energy_window),
            measure=args.measure,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.energy_window is None:
        # manifests of either system record the default window
        args.energy_window = sampling.DEFAULT_ENERGY_WINDOW

    starts = list(range(0, cfg.count, sampling.CHUNK))
    if cfg.system == "qubit":
        rank = cfg.rank_filter or 4
        tasks = [
            (cfg.seed, s, min(sampling.CHUNK, cfg.count - s), rank, cfg.measure) for s in starts
        ]
        chunk_fn = _sample_chunk_qubit
    else:
        tasks = [
            (cfg.seed, s, min(sampling.CHUNK, cfg.count - s), cfg.energy_window, cfg.measure)
            for s in starts
        ]
        chunk_fn = _sample_chunk_gaussian

    workers = min(worker_count(), len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk_fn, tasks))
    else:
        results = [chunk_fn(t) for t in tasks]

    values = np.concatenate([r[0] for r in results])
    flags = np.concatenate([r[1] for r in results])
    if not flags.all():
        bad = int(np.flatnonzero(~flags.all(axis=1))[0])
        print(
            f"error: containment flag violated at sample {bad}: "
            f"record={values[bad].tolist()} flags={flags[bad].tolist()}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT

    header = ["energy", "entanglement", "purity", "flags"]
    flag_strs = ["".join("1" if f else "0" for f in row) for row in flags]
    rows = [(v[0], v[1], v[2], fs) for v, fs in zip(values, flag_strs)]
    _write_output(args, header, rows)
    return EXIT_OK


# --- boundary ---


def cmd_boundary(args) -> int:
    curves = sampling.QUBIT_CURVES if args.system == "qubit" else sampling.GAUSSIAN_CURVES
    if args.curve not in curves:
        print(f"error: unknown curve {args.curve!r} for system {args.system}", file=sys.stderr)
        return EXIT_USAGE
    if args.curve in ("gmems", "glems") and args.energy is None:
        print(f"error: curve {args.curve!r} requires --energy", file=sys.stderr)
        return EXIT_USAGE
    try:
        grid = parse_grid(args.grid)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not grid:
        print("error: empty grid", file=sys.stderr)
        return EXIT_GRID
    try:
        header, rows = sampling.boundary_tables(args.system, grid, args.curve, args.energy)
    except (DomainError, EPEError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRID
    _write_output(args, header, rows)
    return EXIT_OK


# --- jc ---

_JC_INPUTS = ("single-photon", "n-photon", "coherent", "squeezed")


def _jc_specs(args):
    """(param, spec) pairs for the requested input scan."""
    if args.input == "single-photon":
        return [(1.0, jc.SinglePhoton())]
    if args.input == "n-photon":
        if args.n is None:
            raise ConfigurationError("n-photon input requires --n")
        return [(float(args.n), jc.NPhoton(n=args.n))]
    if args.input == "coherent":
        if args.alpha is None:
            raise ConfigurationError("coherent input requires --alpha")
        return [(a, jc.EntangledCoherent(alpha=a)) for a in parse_grid(args.alpha)]
    if args.input == "squeezed":
        if args.gamma is None:
            raise ConfigurationError("squeezed input requires --gamma")
        values = parse_grid(args.gamma)
        for g in values:
            if not 0.0 <= g <= jc.GAMMA_CAP + 1e-12:
                raise ConfigurationError(
                    f"gamma={g} outside [0, {jc.GAMMA_CAP}]; larger values make the "
                    "Fock truncation dishonest"
                )
        return [(g, jc.TwoModeSqueezed(gamma=min(g, jc.GAMMA_CAP))) for g in values]
    raise ConfigurationError(f"unknown input {args.input!r}")


def _analytic_deviation(spec, state0, grid, result, n_max):
    """Max entrywise gap between the analytic form and the evolved state."""
    stride = max(1, len(grid) // 64)
    times = list(grid[::stride]) + [result.lambda_t]
    dev = 0.0
    for t in times:
        rho_num = jc.reduce_to_qubits(jc.evolve(state0, t))
        rho_an = jc.analytic_qubit_state(spec, t, n_max)
        dev = max(dev, float(np.abs(rho_num - rho_an).max()))
    return dev


def cmd_jc(args) -> int:
    try:
        specs = _jc_specs(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

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
    for param, spec in specs:
        try:
            n_max = jc.resolve_n_max(spec, args.nmax)
        except TruncationError as exc:
            print(
                f"error: {exc}; rerun with --nmax {exc.required_n_max} or larger",
                file=sys.stderr,
            )
            return EXIT_TRUNCATION
        result = jc.max_transfer(spec, grid, n_max)
        state0 = jc.build_input(spec, n_max)
        dev = _analytic_deviation(spec, state0, grid, result, n_max)
        rows.append(
            (
                param,
                result.input_energy,
                result.input_entropy,
                result.lambda_t,
                result.concurrence,
                result.purity,
                dev,
            )
        )
    _write_output(args, header, rows)
    return EXIT_OK


# --- rerun ---


def cmd_rerun(args) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: malformed manifest: {exc}", file=sys.stderr)
        return EXIT_USAGE
    argv = manifest.get("argv")
    if not isinstance(argv, list) or not argv:
        print("error: manifest carries no argv to replay", file=sys.stderr)
        return EXIT_USAGE
    recorded = manifest.get("stream")
    if argv[0] == "sample" and recorded != sampling.STREAM:
        print(
            f"error: the manifest's RNG stream is {recorded!r}, this epe's is "
            f"{sampling.STREAM!r}; a rerun would not reproduce its outputs",
            file=sys.stderr,
        )
        return EXIT_USAGE
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
    p.add_argument("--tmax", type=float, default=4.0 * np.pi)
    p.add_argument("--tsteps", type=int, default=2000)
    p.add_argument("--nmax", type=int, help="Fock truncation per mode (default: automatic)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_jc)

    p = sub.add_parser("rerun", help="replay the command recorded in a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    effective = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(effective)
    args._argv = effective
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TruncationError as exc:
        print(f"error: {exc}; rerun with --nmax {exc.required_n_max}", file=sys.stderr)
        return EXIT_TRUNCATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
