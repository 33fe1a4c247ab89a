"""Run one epe CLI invocation in-process, with spans around epe's public functions.

    python3 perfbench/traced_cli.py --pass-id N --spans FILE -- EPE_ARGS...

Behaves like `epe EPE_ARGS...` (same exit code) and, when the CLI returns,
writes the recorded spans and counts to FILE (a pickle, read back by
run.py). epe must be
importable, for instance with PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import sys

import layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pass-id", type=int, required=True)
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("epe_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    epe_args = args.epe_args[1:] if args.epe_args[:1] == ["--"] else args.epe_args

    from epe import cli, gaussian, jc, qubit, sampling

    recorder = layers.Recorder()
    recorder.install(
        {"cli": cli, "sampling": sampling, "gaussian": gaussian, "qubit": qubit, "jc": jc}
    )
    try:
        code = cli.main(epe_args)
    except SystemExit as exc:  # argparse exits on bad flags
        code = exc.code if isinstance(exc.code, int) else 1
    recorder.dump(args.spans, pass_id=args.pass_id, argv=epe_args, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
