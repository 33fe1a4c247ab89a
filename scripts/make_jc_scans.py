#!/usr/bin/env python3
"""Regenerate the Jaynes-Cummings entanglement-transfer scan datasets.

One CSV per input family: maximum transferred concurrence (and the
purity at that time) against the input parameter, plus the
analytic-versus-numeric deviation column.
"""

import argparse
import pathlib
import sys

from epe import cli, jc


def run(argv):
    code = cli.main(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/jc_scans")
    ap.add_argument("--tsteps", type=int, default=jc.DEFAULT_T_STEPS)
    args = ap.parse_args()

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    t = str(args.tsteps)

    run(["jc", "--input", "single-photon", "--tsteps", t,
         "--out", str(out / "single_photon.csv")])
    for n in (1, 2, 3, 4):
        run(["jc", "--input", "n-photon", "--n", str(n), "--tsteps", t,
             "--out", str(out / f"n_photon_{n}.csv")])
    run(["jc", "--input", "coherent", "--alpha", "0.1:2.0:0.05", "--tsteps", t,
         "--out", str(out / "coherent_scan.csv")])
    run(["jc", "--input", "squeezed", "--gamma", "0.05:0.95:0.05", "--tsteps", t,
         "--out", str(out / "squeezed_scan.csv")])

    print(f"transfer-scan datasets written to {out}")


if __name__ == "__main__":
    main()
