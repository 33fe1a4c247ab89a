"""CLI subcommands, exit codes, manifests and output determinism."""

import concurrent.futures
import functools
import gc
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epe import __version__, cli, gaussian, sampling
import oracles


def run_cli(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# a CSV field that reads -0
NEGATIVE_ZERO = re.compile(r"(^|,)-0(,|$)", re.M)


class TestGridParsing:
    def test_triple(self):
        assert cli.parse_grid("0:2:0.5") == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_degenerate(self):
        assert cli.parse_grid("1:1:1") == [1.0]

    def test_single_value(self):
        assert cli.parse_grid("0.7") == [0.7]

    def test_negative_zero_reads_plus_zero(self, tmp_path):
        # a stop of -0 is snapped onto the last point
        for spec in ("-0", "-1:-0:0.5"):
            assert np.copysign(1.0, cli.parse_grid(spec)[-1]) == 1.0
        boundary = tmp_path / "boundary.csv"
        assert run_cli(["boundary", "--system", "qubit", "--curve", "separable",
                        "--grid", "-0", "--out", str(boundary)]) == 0
        outs = {}
        for alpha in ("-0", "0"):
            outs[alpha] = tmp_path / f"jc{alpha}.csv"
            assert run_cli(["jc", "--input", "coherent", "--alpha", alpha, "--tsteps", "50",
                            "--out", str(outs[alpha])]) == 0
        assert not NEGATIVE_ZERO.search(boundary.read_text() + outs["-0"].read_text())
        assert read(outs["-0"]) == read(outs["0"])

    def test_reversed_is_empty(self):
        assert cli.parse_grid("2:1:1") == []

    def test_bad_specs(self):
        from epe.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            cli.parse_grid("0:1:0")
        with pytest.raises(ConfigurationError):
            cli.parse_grid("a:b:c")

    def test_two_part_grid_exit_2(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run_cli(["boundary", "--system", "qubit", "--curve", "separable",
                        "--grid", "1:2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad grid spec '1:2'; expected start:stop:step\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["0:nan:0.1", "0:inf:0.1", "-inf:1:0.1", "0:1:inf", "nan"])
    def test_non_finite_specs_rejected(self, spec):
        from epe.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="non-finite"):
            cli.parse_grid(spec)

    def test_point_cap(self):
        from epe.errors import ConfigurationError

        top = cli.MAX_GRID_POINTS - 1
        assert len(cli.parse_grid(f"0:{top}:1")) == cli.MAX_GRID_POINTS
        with pytest.raises(ConfigurationError, match="points"):
            cli.parse_grid(f"0:{top + 1}:1")

    @pytest.mark.parametrize("call", [
        "cli.parse_grid('0:1e6:1e-9')",
        "sys.exit(cli.main(['boundary', '--system', 'qubit', '--curve', 'separable',"
        " '--grid', '0:1e6:1e-9']))",
    ])
    def test_huge_grid_refused_before_it_is_built(self, call):
        # 1e15 points: a regression runs out of a 1 GB address space or the
        # timeout instead of growing until the machine does
        code = (
            "import resource, sys\n"
            "from epe import cli\n"
            "from epe.errors import ConfigurationError\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "try:\n"
            f"    {call}\n"
            "except ConfigurationError as exc:\n"
            "    print(f'error: {exc}', file=sys.stderr)\n"
            "    sys.exit(2)\n"
        )
        env = dict(_src_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "more than 1000000 points" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["boundary", "--system", "gaussian", "--curve", "band", "--grid", "0:nan:0.1"],
        ["boundary", "--system", "qubit", "--curve", "separable", "--grid", "0:inf:0.1"],
        ["jc", "--input", "coherent", "--alpha", "0:nan:0.1"],
        ["jc", "--input", "squeezed", "--gamma", "0:inf:0.1"],
    ])
    def test_non_finite_grids_exit_2(self, capsys, argv):
        assert run_cli(argv) == 2
        assert "non-finite" in capsys.readouterr().err


class TestBoundary:
    def test_qubit_separable(self, tmp_path, capsys):
        assert run_cli(["boundary", "--system", "qubit", "--curve", "separable",
                        "--grid", "0:2:0.5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "energy,min_purity"
        purities = [float(line.split(",")[1]) for line in out[1:]]
        assert purities == pytest.approx([1.0, 3.0 / 8.0, 0.25, 3.0 / 8.0, 1.0])

    def test_gaussian_band(self, capsys):
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "band",
                        "--grid", "1:1:1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[1] == "1,0.25,0.33333333333333331"

    def test_unknown_curve_exit_2(self, capsys):
        assert run_cli(["boundary", "--system", "qubit", "--curve", "band",
                        "--grid", "0:1:1"]) == 2

    def test_empty_grid_exit_2(self, capsys):
        # an empty grid is a bad flag, exit 2, with the wording of `jc --alpha`
        assert run_cli(["boundary", "--system", "qubit", "--curve", "separable",
                        "--grid", "2:1:1"]) == 2
        assert capsys.readouterr().err == "error: --grid '2:1:1' expands to no points\n"

    @pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
    def test_non_finite_energy_exit_2(self, tmp_path, capsys, energy):
        out = tmp_path / "b.csv"
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "gmems",
                        f"--energy={energy}", "--grid", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --energy must be finite, got {energy}\n"
        assert not out.exists()

    @pytest.mark.parametrize("curve", ["gmems", "glems"])
    @pytest.mark.parametrize("energy", ["0", "-1", "-0"])
    def test_non_positive_energy_exit_2(self, tmp_path, capsys, curve, energy):
        # no grid point is at fault, so this is a bad flag, not a domain error
        out = tmp_path / "b.csv"
        assert run_cli(["boundary", "--system", "gaussian", "--curve", curve,
                        f"--energy={energy}", "--grid", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --energy must be positive, got {float(energy)}\n")
        assert os.listdir(tmp_path) == []

    def test_domain_violation_exit_5(self, capsys):
        assert run_cli(["boundary", "--system", "qubit", "--curve", "separable",
                        "--grid", "0:3:1"]) == 5
        assert run_cli(["boundary", "--system", "qubit", "--curve", "pure", "--grid", "3"]) == 5
        capsys.readouterr()
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "glems",
                        "--energy", "1", "--grid", "0:0.5:0.25"]) == 5
        assert capsys.readouterr().err == "error: purity must lie in (0, 1]\n"

    def test_tmsv_curve_of_pure_states(self, capsys):
        # E = 2.224 once failed the nu_- >= 1 check by roundoff
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "tmsv",
                        "--grid", "0:3:0.001"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3002

    @pytest.mark.parametrize("system,curve,grid", [
        ("qubit", "separable", "0:2:0.5"), ("qubit", "pure", "0:2:0.5"),
        ("qubit", "mems", "0:1:0.5"), ("gaussian", "band", "0:2:0.5"),
        ("gaussian", "tmsv", "0:2:0.5"),
    ])
    def test_energy_rejected_for_curves_without_one(self, capsys, system, curve, grid):
        argv = ["boundary", "--system", system, "--curve", curve, "--grid", grid]
        assert run_cli([*argv, "--energy", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: curve {curve!r} takes no --energy\n"
        assert captured.out == ""
        assert run_cli(argv) == 0

    @pytest.mark.parametrize("energy", ["1000", "10000"])
    def test_tmsv_curve_at_high_energy(self, capsys, energy):
        # Delta~ - sqrt(Delta~^2 - 4 Det sigma) cancelled here: E = 1000 printed
        # 7.6017142181437514 and E = 10^4 failed the absolute nu_- >= 1 check
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "tmsv",
                        "--grid", energy]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        E, logneg = map(float, row.split(","))
        assert E == float(energy)
        assert logneg == pytest.approx(np.arccosh(E + 1.0), rel=0.0, abs=1e-7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        # arccosh(9e7 + 1) = 19.0085, but a b - c+-^2 rounds to 0 and the value to inf
        ["--curve", "tmsv", "--grid", "9e7"],
        # c c rounds to a b, so Det sigma = 0
        ["--curve", "gmems", "--energy", "1e8", "--grid", "1"],
        # the products of a row overflow
        ["--curve", "tmsv", "--grid", "1e154"],
    ])
    def test_non_finite_curve_exit_5(self, tmp_path, capsys, argv):
        out = tmp_path / "b.csv"
        assert run_cli(["boundary", "--system", "gaussian", *argv, "--out", str(out)]) == 5
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_glems_up_to_purity_one(self, capsys):
        # c+ and c- from a vanishing discriminant once made these states unphysical
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "glems",
                        "--energy", "0.01", "--grid", "0.99:1:0.001"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 12 and rows[-1].startswith("1,")

    @pytest.mark.parametrize("argv,row", [
        (["--curve", "tmsv", "--grid", "0:2:0.01"], "0,0"),
        (["--curve", "gmems", "--grid", "0.12:1:0.005", "--energy", "2"],
         "0.20000000000000001,0"),
    ])
    def test_log_negativity_of_a_separable_boundary_reads_plus_zero(self, capsys, argv, row):
        # nu~_- = 1 exactly on these rows, where -ln 1 is -0.0
        assert run_cli(["boundary", "--system", "gaussian", *argv]) == 0
        out = capsys.readouterr().out
        assert row in out.splitlines() and not NEGATIVE_ZERO.search(out)

    def test_gmems_requires_energy(self, capsys):
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "gmems",
                        "--grid", "0.5:0.9:0.1"]) == 2
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "gmems",
                        "--grid", "0.5:0.9:0.1", "--energy", "2"]) == 0


class TestSample:
    def test_csv_output_and_manifest(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run_cli(["sample", "--system", "qubit", "--count", "100", "--seed", "7",
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "energy,entanglement,purity,flags"
        assert len(lines) == 101
        assert all(line.endswith(",111") for line in lines[1:])
        manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == [str(out)]
        assert "timestamp" in manifest

    @pytest.mark.skipif(sys.platform == "win32", reason="no resource module")
    def test_manifest_records_resource_use(self, tmp_path):
        out = tmp_path / "q.json"
        assert run_cli(["sample", "--system", "qubit", "--count", "100", "--seed", "7",
                        "--format", "json", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "q.json.manifest.json").read_text())
        resources = manifest["resources"]
        assert sorted(resources) == ["cpu_s", "max_rss_mb", "minor_faults"]
        assert resources["cpu_s"] > 0 and resources["max_rss_mb"] > 0
        assert resources["minor_faults"] > 0
        # data files stay byte-identical from run to run
        assert sorted(json.loads(out.read_text())) == ["columns", "records"]

    def test_containment_on_output(self, tmp_path):
        from epe import qubit

        out = tmp_path / "q.csv"
        run_cli(["sample", "--system", "qubit", "--count", "1000", "--seed", "3",
                 "--out", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1, 2))
        C, P = rows[:, 1], rows[:, 2]
        assert np.all(C <= qubit.mems_concurrence_bound(np.clip(P, 0.25, 1.0)) + 1e-9)

    def test_gaussian_sample(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(["sample", "--system", "gaussian", "--count", "50", "--seed", "5",
                        "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(0, 1, 2))
        assert rows.shape == (50, 3)
        assert np.all(rows[:, 0] <= 2.0 + 1e-12)

    def test_energy_window_rejected_for_qubits(self, capsys):
        assert run_cli(["sample", "--system", "qubit", "--count", "5", "--seed", "1",
                        "--energy-window", "1.5", "2"]) == 2
        assert "gaussian only" in capsys.readouterr().err

    def test_rank_rejected_for_gaussian(self, capsys):
        assert run_cli(["sample", "--system", "gaussian", "--count", "3", "--seed", "1",
                        "--rank", "2"]) == 2
        assert "qubit only" in capsys.readouterr().err

    def test_default_energy_window_in_manifest(self, tmp_path):
        for system in ("qubit", "gaussian"):
            out = tmp_path / f"{system}.csv"
            assert run_cli(["sample", "--system", system, "--count", "5", "--seed", "1",
                            "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{system}.csv.manifest.json").read_text())
            assert manifest["config"]["energy_window"] == [0.0, 2.0]

    def test_sample_manifests_name_the_stream(self, tmp_path):
        from epe import sampling

        # the qubit records changed their bytes from philox-v1 and from philox-v2;
        # the Gaussian ones did not
        assert sampling.STREAMS == {"qubit": "philox-v3", "gaussian": "philox-v1"}
        for system in ("qubit", "gaussian"):
            out = tmp_path / f"{system}.json"
            assert run_cli(["sample", "--system", system, "--count", "3", "--seed", "1",
                            "--format", "json", "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{system}.json.manifest.json").read_text())
            assert manifest["stream"] == sampling.STREAMS[system]
        out = tmp_path / "band.csv"
        assert run_cli(["boundary", "--system", "gaussian", "--curve", "band", "--grid", "1:1:1",
                        "--out", str(out)]) == 0
        assert "stream" not in json.loads((tmp_path / "band.csv.manifest.json").read_text())

    def test_gaussian_window_above_zero(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(["sample", "--system", "gaussian", "--count", "200", "--seed", "3",
                        "--energy-window", "1", "2", "--out", str(out)]) == 0
        energy = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0)
        assert np.all((1.0 - 1e-12 <= energy) & (energy <= 2.0 + 1e-12))

    def test_reversed_window_exit_2(self, capsys):
        assert run_cli(["sample", "--system", "gaussian", "--count", "2", "--seed", "1",
                        "--energy-window", "2", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: energy window must satisfy 0 <= lo < hi < inf\n")

    def test_unreachable_window_exit_2(self, capsys):
        assert run_cli(["sample", "--system", "gaussian", "--count", "2", "--seed", "1",
                        "--energy-window", "1.9999999", "2"]) == 2
        assert "rejection rate above 99.9%" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--seed", str(2**64)),
                                            ("--count", str(2**40))])
    def test_seed_and_count_out_of_range_exit_2(self, capsys, flag, value):
        argv = ["sample", "--system", "qubit", "--count", "3", "--seed", "1"]
        argv[argv.index(flag) + 1] = value
        assert run_cli(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_count_zero_exit_2(self, capsys):
        assert run_cli(["sample", "--system", "qubit", "--count", "0", "--seed", "1"]) == 2

    def test_bad_measure_for_system_exit_2(self, capsys):
        assert run_cli(["sample", "--system", "gaussian", "--count", "5", "--seed", "1",
                        "--measure", "concurrence"]) == 2

    def test_io_failure_exit_3(self, capsys):
        assert run_cli(["sample", "--system", "qubit", "--count", "5", "--seed", "1",
                        "--out", "/nonexistent-dir/x.csv"]) == 3

    def test_invariant_violation_exit_4(self, capsys, monkeypatch):
        # corrupt one flag to make sure the output guard trips
        from epe import sampling

        real = sampling.records_chunk

        def corrupted(*args, **kwargs):
            values, flags = real(*args, **kwargs)
            flags[2, 1] = False
            return values, flags

        monkeypatch.setenv("EPE_THREADS", "1")
        monkeypatch.setattr(sampling, "records_chunk", corrupted)
        assert run_cli(["sample", "--system", "qubit", "--count", "10", "--seed", "1"]) == 4
        assert "sample 2" in capsys.readouterr().err

    def test_unconverged_jacobi_sweeps_exit_4(self, tmp_path, capsys, monkeypatch):
        from epe import qubit

        monkeypatch.setenv("EPE_THREADS", "1")
        monkeypatch.setattr(qubit, "JACOBI_MAX_SWEEPS", 1)
        assert run_cli(["sample", "--system", "qubit", "--count", "16", "--seed", "7",
                        "--out", str(tmp_path / "q.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: Jacobi SVD") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("rank", [3, 4])
    def test_ppt_settle_keeps_the_bytes(self, tmp_path, monkeypatch, rank):
        from epe import qubit

        monkeypatch.setenv("EPE_THREADS", "1")
        count = 2 * sampling.CHUNK + 1
        argv = ["sample", "--system", "qubit", "--count", str(count), "--seed", "7",
                "--rank", str(rank)]
        rhos, _ = sampling._qubit_states_chunk(7, 0, count, rank)
        assert (qubit._ppt_determinant(rhos) > qubit.PPT_DET_MARGIN).sum() > count // 50
        assert run_cli([*argv, "--out", str(tmp_path / "settled.csv")]) == 0
        monkeypatch.setattr(qubit, "PPT_DET_MARGIN", np.inf)
        assert run_cli([*argv, "--out", str(tmp_path / "kernel.csv")]) == 0
        assert read(tmp_path / "settled.csv") == read(tmp_path / "kernel.csv")

    def test_gaussian_chunk_builds_no_matrix(self, tmp_path, monkeypatch):
        # records come from the drawn parameters: no covariance matrix is built
        # and none is reduced
        def refused(*args, **kwargs):
            raise AssertionError("a Gaussian sample chunk built or reduced a matrix")

        monkeypatch.setenv("EPE_THREADS", "1")
        monkeypatch.setattr(sampling, "candidate_covariances", refused)
        monkeypatch.setattr(gaussian, "reduce_to_standard_form", refused)
        for extra in ([], ["--energy-window", "50", "100", "--format", "json"]):
            assert run_cli(["sample", "--system", "gaussian", "--count", "4097", "--seed", "7",
                            *extra, "--out", str(tmp_path / "g.out")]) == 0

    @pytest.mark.parametrize("window", [["20", "40"], ["50", "100"]])
    def test_wide_energy_windows_sample(self, tmp_path, monkeypatch, window):
        # the checks allow the roundoff of S^T diag(nu) S at the matrices' own
        # scale, so wide high-energy windows sample with every flag passing
        monkeypatch.setenv("EPE_THREADS", "1")
        out = tmp_path / "g.csv"
        assert run_cli(["sample", "--system", "gaussian", "--count", "4096", "--seed", "7",
                        "--energy-window", *window, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4096 and {row[3] for row in rows} == {"111"}
        lo, hi = map(float, window)
        assert all(lo <= float(row[0]) <= hi for row in rows)
        sigmas = oracles.sampled_covariances(7, 0, 4096, (lo, hi))
        assert all(oracles.cm_is_physical(sigma) for sigma in sigmas)

    @pytest.mark.parametrize("hi", ["1e8", "1e21"])
    def test_wide_window_prints_no_numpy_warning(self, tmp_path, hi):
        # the flags' family rows round at these energies (Det sigma to 0);
        # whatever the exit code, stderr holds at most the one error line
        proc = subprocess.run(
            [sys.executable, "-m", "epe.cli", "sample", "--system", "gaussian", "--count",
             "4096", "--seed", "7", "--energy-window", "0", hi, "--out", str(tmp_path / "g.csv")],
            env=dict(_src_env(), EPE_THREADS="1"), capture_output=True, text=True,
        )
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) <= 1, proc.stderr

    def test_json_format(self, tmp_path):
        out = tmp_path / "q.json"
        assert run_cli(["sample", "--system", "qubit", "--count", "10", "--seed", "7",
                        "--format", "json", "--out", str(out)]) == 0
        body = json.loads(out.read_text())
        assert sorted(body) == ["columns", "records"]  # the manifest is in the sidecar only
        assert body["columns"] == ["energy", "entanglement", "purity", "flags"]
        assert len(body["records"]) == 10
        assert json.loads((tmp_path / "q.json.manifest.json").read_text())["seed"] == 7

    def test_json_does_not_depend_on_out_or_version(self, tmp_path, monkeypatch):
        argv = ["sample", "--system", "qubit", "--count", "10", "--seed", "7", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b" / "b.json"
        b.parent.mkdir()
        assert run_cli([*argv, "--out", str(a)]) == 0
        monkeypatch.setattr(cli, "__version__", "0.0.0")
        assert run_cli([*argv, "--out", str(b)]) == 0
        assert read(a) == read(b)
        assert json.loads((b.parent / "b.json.manifest.json").read_text())["version"] == "0.0.0"

    # the draw warns of its overflows at such windows, ROADMAP item 3
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_record_exits_4(self, tmp_path, capsys, fmt):
        # windows this far up overflow the entanglement of some records to inf
        out = tmp_path / f"g.{fmt}"
        assert run_cli(["sample", "--system", "gaussian", "--count", "20", "--seed", "7",
                        "--energy-window", "1e150", "1e300", "--format", fmt,
                        "--out", str(out)]) == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: non-finite value in row 5: [5.2368"), line
        assert ", inf, " in line
        assert os.listdir(tmp_path) == []

    def test_identical_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(["sample", "--system", "qubit", "--count", "200", "--seed", "11",
                     "--out", str(path)])
        assert read(a) == read(b)

    def test_rerun_from_manifest(self, tmp_path):
        out = tmp_path / "q.csv"
        run_cli(["sample", "--system", "qubit", "--count", "50", "--seed", "2",
                 "--out", str(out)])
        first = read(out)
        out.unlink()
        assert run_cli(["rerun", str(out) + ".manifest.json"]) == 0
        assert read(out) == first


    @pytest.mark.parametrize("stream", [None, "seedsequence", "philox-v1", "philox-v2"])
    def test_rerun_refuses_another_stream(self, tmp_path, capsys, stream):
        out = tmp_path / "q.csv"
        run_cli(["sample", "--system", "qubit", "--count", "50", "--seed", "2",
                 "--out", str(out)])
        manifest_path = tmp_path / "q.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if stream is None:
            del manifest["stream"]
        else:
            manifest["stream"] = stream
        manifest_path.write_text(json.dumps(manifest))
        out.unlink()
        capsys.readouterr()
        assert run_cli(["rerun", str(manifest_path)]) == 2
        err = capsys.readouterr().err
        assert repr(stream) in err and "'philox-v3'" in err
        assert not out.exists()

    def test_rerun_of_a_gaussian_philox_v1_manifest_replays(self, tmp_path):
        # the Gaussian stream kept its name and its bytes
        out = tmp_path / "g.csv"
        assert run_cli(["sample", "--system", "gaussian", "--count", "20", "--seed", "2",
                        "--out", str(out)]) == 0
        first = read(out)
        manifest_path = tmp_path / "g.csv.manifest.json"
        assert json.loads(manifest_path.read_text())["stream"] == "philox-v1"
        out.unlink()
        assert run_cli(["rerun", str(manifest_path)]) == 0
        assert read(out) == first

    def test_rerun_notes_another_version_and_replays(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run_cli(["sample", "--system", "gaussian", "--count", "20", "--seed", "2",
                 "--out", str(out)])
        first = read(out)
        manifest_path = tmp_path / "g.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == __version__
        capsys.readouterr()
        assert run_cli(["rerun", str(manifest_path)]) == 0
        assert capsys.readouterr().err == ""
        manifest["version"] = "0.1.0"
        manifest_path.write_text(json.dumps(manifest))
        out.unlink()
        assert run_cli(["rerun", str(manifest_path)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("note:") and err.count("\n") == 1
        assert "0.1.0" in err and __version__ in err
        assert read(out) == first

    @pytest.mark.parametrize("content,message", [
        (b"[1, 2]", "error: manifest carries no argv to replay\n"),
        (b'{"argv": []}', "error: manifest carries no argv to replay\n"),
        (b"\xff\xfe{}", "error: malformed manifest: "),
        (b"{", "error: malformed manifest: "),
    ], ids=["list", "empty-argv", "not-utf8", "truncated"])
    def test_rerun_of_an_unusable_manifest_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        assert run_cli(["rerun", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (["rerun", "{path}"], "error: manifest argv is itself a rerun, which cannot be replayed\n"),
        (["boundary", "--system", "qubit", "--curve", "separable", "--grid", 1],
         "error: manifest argv must be a list of strings\n"),
    ], ids=["self-replaying", "non-string"])
    def test_rerun_of_an_unreplayable_argv_exit_2(self, tmp_path, capsys, argv, message):
        # the first recursed until RecursionError and the second raised
        # TypeError, each with a traceback and exit 1
        path = tmp_path / "m.json"
        argv = [arg.format(path=path) if isinstance(arg, str) else arg for arg in argv]
        path.write_text(json.dumps({"argv": argv, "version": __version__}))
        assert run_cli(["rerun", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""

    def test_rerun_of_a_missing_manifest_exit_3(self, tmp_path, capsys):
        assert run_cli(["rerun", str(tmp_path / "absent.manifest.json")]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read manifest: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_rerun_of_a_boundary_manifest_needs_no_stream(self, tmp_path):
        out = tmp_path / "sep.csv"
        run_cli(["boundary", "--system", "qubit", "--curve", "separable", "--grid", "0:2:0.5",
                 "--out", str(out)])
        first = read(out)
        out.unlink()
        assert run_cli(["rerun", str(out) + ".manifest.json"]) == 0
        assert read(out) == first


class TestJc:
    def test_single_photon(self, tmp_path):
        out = tmp_path / "jc.csv"
        assert run_cli(["jc", "--input", "single-photon", "--tsteps", "400",
                        "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), (float(x) for x in row.split(","))))
        assert cols["concurrence_max"] == pytest.approx(1.0, abs=1e-9)
        assert cols["lambda_t_max"] == pytest.approx(np.pi / 2.0, abs=1e-6)
        assert cols["input_energy"] == 1.0
        assert cols["analytic_max_dev"] < 1e-10

    def test_one_propagation_per_input(self, tmp_path, monkeypatch):
        # the scan, refinement and analytic check use reduced_states; the
        # amplitude propagation of the support is the oracle at each reported
        # optimum only, and the dense evolve is never called
        from epe import jc

        calls = []
        real = jc.propagated_qubit_state

        def counting(support, lambda_t):
            calls.append(lambda_t)
            return real(support, lambda_t)

        def refuse(*args, **kwargs):
            raise AssertionError("epe jc called the dense evolve")

        monkeypatch.setattr(jc, "propagated_qubit_state", counting)
        monkeypatch.setattr(jc, "evolve", refuse)
        out = tmp_path / "jc.csv"
        assert run_cli(["jc", "--input", "squeezed", "--gamma", "0.4:0.8:0.2",
                        "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert calls == [float(row[3]) for row in rows]

    @pytest.mark.parametrize("argv", [
        ["--input", "single-photon"],
        ["--input", "n-photon", "--n", "3"],
        ["--input", "coherent", "--alpha", "0.5:1.5:0.5"],
        ["--input", "squeezed", "--gamma", "0.3:0.9:0.3"],
    ])
    def test_never_builds_a_dense_input(self, tmp_path, monkeypatch, argv):
        from epe import jc

        def refuse(*args, **kwargs):
            raise AssertionError("epe jc built a dense table")

        for name in ("build_input", "evolve", "reduce_to_qubits"):
            monkeypatch.setattr(jc, name, refuse)
        out = tmp_path / "jc.csv"
        assert run_cli(["jc", *argv, "--tsteps", "300", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 1

    @pytest.mark.parametrize("argv", [
        ["--input", "n-photon", "--n", "1500"],
        ["--input", "coherent", "--alpha", "30", "--nmax", "1500", "--tsteps", "200"],
    ])
    def test_no_table_of_the_truncation_squared_at_the_cap(self, tmp_path, argv):
        # a (n_max + 1)^2 complex table at the cap takes 34 MiB; the whole run
        # allocates less than that at its peak
        import tracemalloc

        from epe import jc

        table = 16 * (jc.MAX_N_MAX + 1) ** 2
        out = tmp_path / "jc.csv"
        tracemalloc.start()
        try:
            assert run_cli(["jc", *argv, "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table

    def test_n_photon_two(self, capsys):
        assert run_cli(["jc", "--input", "n-photon", "--n", "2", "--tsteps", "150"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[4]) == 0.0

    def test_truncation_exit_6(self, capsys):
        assert run_cli(["jc", "--input", "squeezed", "--gamma", "0.9", "--nmax", "10",
                        "--tsteps", "50"]) == 6
        assert "--nmax" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--input", "single-photon", "--nmax", "-5"],
        ["--input", "squeezed", "--gamma", "0.5", "--nmax", "0"],
    ])
    def test_nonpositive_nmax_exit_2(self, capsys, argv):
        assert run_cli(["jc", *argv, "--tsteps", "50"]) == 2
        assert capsys.readouterr().err == "error: --nmax must be at least 1\n"

    @pytest.mark.parametrize("flag,value", [("--tsteps", "0"), ("--tsteps", "-3"),
                                            ("--tmax", "0"), ("--tmax", "-1"),
                                            ("--tmax", "nan")])
    def test_bad_time_grid_exit_2(self, capsys, flag, value):
        assert run_cli(["jc", "--input", "single-photon", flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be")

    def test_tsteps_above_the_grid_cap_exit_2(self, tmp_path, capsys):
        out = tmp_path / "j.csv"
        assert run_cli(["jc", "--input", "single-photon",
                        "--tsteps", str(cli.MAX_GRID_POINTS + 1), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --tsteps must be between 1 and 1000000\n"
        assert not out.exists()

    def test_gamma_above_the_truncation_cap_exit_2(self, tmp_path, capsys):
        # the squeezed tail needs n_max above jc.MAX_N_MAX from gamma = 0.9908 on
        out = tmp_path / "scan.csv"
        assert run_cli(["jc", "--input", "squeezed", "--gamma", "0.995", "--tsteps", "50",
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: the input needs a Fock truncation above the cap n_max=1500\n"
        assert not out.exists() and not tmp_path.joinpath("scan.csv.manifest.json").exists()

    def test_gamma_near_one_scans_under_the_truncation_cap(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli(["jc", "--input", "squeezed", "--gamma", "0.97", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), (float(x) for x in row.split(","))))
        assert cols["param"] == 0.97 and 0.0 < cols["concurrence_max"] <= 1.0
        assert cols["analytic_max_dev"] <= 1e-9

    @pytest.mark.parametrize("gamma", ["-0.1", "1", "1.5"])
    def test_gamma_outside_the_unit_interval_exit_2(self, tmp_path, capsys, gamma):
        out = tmp_path / "scan.csv"
        assert run_cli(["jc", "--input", "squeezed", "--gamma", gamma, "--tsteps", "50",
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: squeezing parameter gamma must lie in [0, 1)\n"
        assert not out.exists()

    def test_missing_parameter_exit_2(self, capsys):
        assert run_cli(["jc", "--input", "n-photon"]) == 2
        assert run_cli(["jc", "--input", "coherent"]) == 2

    def test_coherent_amplitude_beyond_truncation_range_exit_2(self, capsys, monkeypatch):
        from epe import jc

        monkeypatch.setattr(jc, "MAX_N_MAX", 8)
        assert run_cli(["jc", "--input", "coherent", "--alpha", "1.0", "--tsteps", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the input needs a Fock truncation above the cap n_max=8\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--input", "n-photon", "--n", "20000"],
        ["--input", "coherent", "--alpha", "60"],
        # |alpha|^2 would overflow a float
        ["--input", "coherent", "--alpha", "1e155"],
        ["--input", "single-photon", "--nmax", "20000"],
        ["--input", "squeezed", "--gamma", "0.5", "--nmax", "1000000"],
    ])
    def test_truncation_above_the_cap_exit_2_before_allocating(self, tmp_path, capsys,
                                                              monkeypatch, argv):
        from epe import jc

        def no_input(*args, **kwargs):
            raise AssertionError("a truncated input was built")

        # the cap is checked for every spec before any input is built
        monkeypatch.setattr(jc, "field_support", no_input)
        out = tmp_path / "jc.csv"
        assert run_cli(["jc", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"cap n_max={jc.MAX_N_MAX}" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["--input", "single-photon", "--gamma", "0.5"], "--gamma"),
        (["--input", "single-photon", "--n", "1"], "--n"),
        (["--input", "n-photon", "--n", "2", "--alpha", "1.0"], "--alpha"),
        (["--input", "coherent", "--alpha", "1.0", "--n", "2"], "--n"),
        (["--input", "coherent", "--alpha", "1.0", "--gamma", "0.5"], "--gamma"),
        (["--input", "squeezed", "--gamma", "0.5", "--alpha", "1.0"], "--alpha"),
    ])
    def test_parameter_flag_of_another_input_exit_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "jc.csv"
        assert run_cli(["jc", *argv, "--tsteps", "50", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} does not apply to {argv[1]} input\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--input", "coherent", "--alpha", "1:0:0.1"],
        ["--input", "squeezed", "--gamma", "0.5:0.1:0.1"],
    ])
    def test_parameter_spec_with_no_points_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "jc.csv"
        assert run_cli(["jc", *argv, "--tsteps", "50", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[2]} {argv[3]!r} expands to no points\n"
        assert captured.out == "" and not out.exists()

    def test_support_of_neither_shape_exit_4(self, tmp_path, capsys, monkeypatch):
        from epe import jc

        # entries |00>, |01>, |11>: rho_{00,01} pairs unequal parities and
        # rho_{11,11} touches |ee>, so the closed form does not hold
        unshaped = jc.FieldSupport(n_max=1, n1=np.array([0, 0, 1]), n2=np.array([0, 1, 1]),
                                   amps=np.full(3, 1.0 / np.sqrt(3.0), dtype=complex))
        monkeypatch.setattr(jc, "field_support", lambda spec, n_max=None: unshaped)
        out = tmp_path / "jc.csv"
        assert run_cli(["jc", "--input", "single-photon", "--tsteps", "50",
                        "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_refinement_ends_at_the_largest_tmax(self, tmp_path):
        # near 1e308 the sum of a bracket's ends overflows; run as a program,
        # so a refinement that never ends fails on the timeout
        out = tmp_path / "jc.csv"
        proc = subprocess.run([sys.executable, "-m", "epe.cli", "jc", "--input", "single-photon",
                               "--tmax", "1e308", "--out", str(out)],
                              env=_src_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        header, row = out.read_text().splitlines()
        lambda_t = float(row.split(",")[header.split(",").index("lambda_t_max")])
        assert 0.0 < lambda_t <= 1e308

    def test_vacuum_coherent_input_has_no_negative_zero(self, capsys):
        assert run_cli(["jc", "--input", "coherent", "--alpha", "0", "--tsteps", "50"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert row.startswith("0,0,0,0,0,1,") and not NEGATIVE_ZERO.search(row)

    def test_unsqueezed_input(self, capsys):
        # gamma = 0 is the vacuum: no energy, no entropy, nothing transferred
        assert run_cli(["jc", "--input", "squeezed", "--gamma", "0", "--tsteps", "50"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,0,0,0,0,1,0"

    def test_coherent_scan(self, tmp_path):
        out = tmp_path / "coh.csv"
        assert run_cli(["jc", "--input", "coherent", "--alpha", "0.6:1.2:0.3",
                        "--tsteps", "250", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx([0.6, 0.9, 1.2])
        devs = [float(line.split(",")[6]) for line in lines[1:]]
        assert max(devs) < 1e-8


def _fmt_row(values):
    """The per-value row formatter the CLI used before its block formatter, kept as its oracle."""
    out = []
    for v in values:
        out.append(v if isinstance(v, str) else "%.17g" % float(v))
    return ",".join(out)


def _flag_string(flags):
    """The per-row join the CLI used before `sampling.flag_labels`, kept as its oracle."""
    return "".join("1" if ok else "0" for ok in flags)


def _oracle_csv(header, rows):
    return "\n".join([",".join(header)] + [_fmt_row(r) for r in rows]) + "\n"


def _oracle_sample_csv(argv):
    """The CSV `epe sample` wrote when it built every row in memory first."""
    args = cli.build_parser().parse_args(argv)
    cfg = sampling.SamplerConfig(
        seed=args.seed, count=args.count, system=args.system, rank_filter=args.rank,
        energy_window=None if args.energy_window is None else tuple(args.energy_window),
        measure=args.measure,
    )
    starts = range(0, cfg.count, sampling.CHUNK)
    results = [sampling.records_chunk(cfg, s, min(sampling.CHUNK, cfg.count - s)) for s in starts]
    values = np.concatenate([r[0] for r in results])
    flags = np.concatenate([r[1] for r in results])
    rows = [(v[0], v[1], v[2], _flag_string(f)) for v, f in zip(values, flags)]
    return _oracle_csv(["energy", "entanglement", "purity", "flags"], rows)


def _ulps(x, steps):
    """x and its neighbours `steps` ulps away in either direction."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


# values at the edges of the CSV formatter's integer path: every power of ten
# from 1e-5 to 1e16 and the limits of the path, 1e-4 and 1e15, with their
# neighbours up to 2 ulps away; literals just below a decade, which parse to
# the power of ten or to one of its neighbours; +-0, subnormals, inf, nan
EDGE_VALUES = np.array(
    [y for x in range(-5, 17) for y in _ulps(float(f"1e{x}"), 2)]
    + [0.99999999999999999, 9.9999999999999999e-5]
    + [float(f"9.99999999999999{d}e{x}") for d in range(90, 100) for x in range(-6, 17)]
    + [0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
    + [np.inf, np.nan, 1.7976931348623157e308]
)


@st.composite
def dyadic_ties(draw):
    """j / 2**(17 - X) with j odd in [10**X, 10**(X + 1)): exactly 18 significant
    digits, the last a 5, so `%.17g` rounds a tie (half to even)."""
    x = draw(st.integers(-6, 14))
    k = 17 - x
    scale = Fraction(10) ** x * 2**k
    j = draw(st.integers(math.ceil(scale), min(math.ceil(10 * scale), 2**53) - 1))
    assume(j % 2 == 1)
    v = j / 2**k
    digits = Decimal(v).as_tuple().digits
    assert len(digits) == 18 and digits[-1] == 5
    return v


CSV_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES.tolist()),
    dyadic_ties(),
    st.floats(1e-4, 1e15, exclude_max=True),
    st.floats(allow_nan=True, allow_infinity=True),
).flatmap(lambda v: st.sampled_from([v, -v]))


class TestCsvFormatter:
    def test_matches_the_row_oracle(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-300, 300, size=(50, 3)),
            [[0.0, -0.0, 1.0], [0.1, 1 / 3, 2.0**-1074], [np.inf, -np.inf, 1e300]],
        ])
        labels = sampling.flag_labels(rng.random((len(values), 3)) < 0.5)
        rows = [(*v, label.decode()) for v, label in zip(values, labels)]
        want = _oracle_csv(["x"], rows).split("\n", 1)[1]
        assert cli.csv_bytes(values, labels).decode("ascii") == want
        want = "".join(_fmt_row(v) + "\n" for v in values[:, :2])
        assert cli.csv_bytes(values[:, :2]).decode("ascii") == want
        assert cli.csv_bytes(np.empty((0, 3))).decode("ascii") == ""

    def test_edge_families_match_the_row_oracle(self):
        values = np.concatenate([EDGE_VALUES, -EDGE_VALUES])
        for k in (1, 3, 7):
            block = np.resize(values, (-(-len(values) // k), k))
            want = "".join(_fmt_row(v) + "\n" for v in block)
            assert cli.csv_bytes(block).decode("ascii") == want

    @given(st.integers(1, 6).flatmap(
        lambda k: st.lists(st.lists(CSV_VALUES, min_size=k, max_size=k), min_size=1, max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_row_oracle(self, rows):
        values = np.array(rows, dtype=float)
        assert cli.csv_bytes(values).decode("ascii") == "".join(_fmt_row(v) + "\n" for v in values)

    def test_flag_labels_match_flag_string(self):
        triples = np.array([[b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(8)], dtype=bool)
        strings = [_flag_string(t) for t in triples]
        labels = sampling.flag_labels(triples)
        assert labels.dtype == "S3"
        assert [label.decode() for label in labels] == strings
        # a single triple, as a list, gives one label
        for t in triples:
            assert sampling.flag_labels(t.tolist()) == _flag_string(t).encode()

    @pytest.mark.parametrize("argv", [
        ["boundary", "--system", "gaussian", "--curve", "band", "--grid", "0:3:0.01"],
        ["boundary", "--system", "gaussian", "--curve", "tmsv", "--grid", "0:3:0.01"],
        ["boundary", "--system", "qubit", "--curve", "mems", "--grid", "0:1:0.01"],
    ])
    def test_boundary_bytes(self, capsys, argv):
        args = cli.build_parser().parse_args(argv)
        grid = cli.parse_grid(args.grid)
        header, table = sampling.boundary_tables(args.system, grid, args.curve)
        assert table.shape == (len(grid), len(header))
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == _oracle_csv(header, table.tolist())

    @pytest.mark.parametrize("argv", [
        ["jc", "--input", "single-photon", "--tsteps", "200"],
        ["jc", "--input", "coherent", "--alpha", "0.5:1:0.5", "--tsteps", "200"],
    ])
    def test_jc_bytes(self, capsys, monkeypatch, argv):
        # capture the one block cmd_jc hands to the writer and format it with the oracle
        seen = []
        real = cli._write_output

        def spy(args, header, blocks):
            blocks = list(blocks)
            seen.append((header, blocks))
            real(args, header, blocks)

        monkeypatch.setattr(cli, "_write_output", spy)
        assert run_cli(argv) == 0
        ((header, [(values, labels)]),) = seen
        assert labels is None and values.shape[1] == len(header)
        assert capsys.readouterr().out == _oracle_csv(header, values.tolist())

    @pytest.mark.parametrize("source", [
        pytest.param(["boundary", "--system", "gaussian", "--curve", "band", "--grid", "0:2:0.01"],
                     id="band"),
        pytest.param(["boundary", "--system", "gaussian", "--curve", "gmems",
                      "--grid", "0.12:1:0.04", "--energy", "2"], id="gmems"),
        pytest.param(["boundary", "--system", "qubit", "--curve", "mems", "--grid", "0:1:0.05"],
                     id="mems"),
        pytest.param(["jc", "--input", "coherent", "--alpha", "0.5:1:0.5", "--tsteps", "200"],
                     id="jc-coherent"),
        pytest.param(["jc", "--input", "single-photon", "--tsteps", "200"], id="jc-single-photon"),
        # block sizes, labelled or not, handed to the writer
        *[pytest.param((sizes, labelled), id=f"sizes{i}-{'labelled' if labelled else 'bare'}")
          for labelled in (False, True)
          for i, sizes in enumerate(([], [0], [1], [3, 0, 2], [5, 4096, 1]))],
    ])
    def test_json_fields_are_their_csv_fields(self, capsys, source):
        text = {}
        for fmt in ("csv", "json"):
            if isinstance(source[0], str):
                assert run_cli([*source, "--format", fmt]) == 0
            else:
                sizes, labelled = source
                rng = np.random.default_rng(len(sizes))
                blocks = [(rng.normal(size=(n, 3)), rng.random((n, 3)) < 0.5 if labelled else None)
                          for n in sizes]
                columns = ["energy", "entanglement", "purity"] + ["flags"] * labelled
                args = cli.build_parser().parse_args(
                    ["sample", "--system", "qubit", "--count", "1", "--format", fmt])
                cli._write_output(args, columns, iter(blocks))
            text[fmt] = capsys.readouterr().out
        header, *rows = [line.split(",") for line in text["csv"].splitlines()]

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        body = json.loads(text["json"], parse_float=str, parse_int=str, parse_constant=refuse)
        assert body["columns"] == header
        assert body["records"] == rows
        # the flags are JSON strings, the other fields JSON numbers
        for record in json.loads(text["json"])["records"]:
            assert [isinstance(v, str) for v in record] == [name == "flags" for name in header]


_QUBIT = ["sample", "--system", "qubit", "--seed", "13"]


@pytest.fixture(scope="module")
def qubit_oracle_lines():
    return _oracle_sample_csv([*_QUBIT, "--count", "20481"]).splitlines(keepends=True)


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand in for the process pool: record each pool's max_workers and the
    start of each chunk submitted, and run every chunk at once in this
    process; `sampling.records_chunk` returns the chunk's start."""

    class InlinePool:
        built = []
        submitted = []

        def __init__(self, max_workers):
            self.built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.submitted.append(args[1])
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sampling, "records_chunk", lambda cfg, start, count: start)
    return InlinePool


class TestStreamedSample:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("measure", sampling.QUBIT_MEASURES)
    def test_qubit_ranks_and_measures(self, tmp_path, monkeypatch, rank, measure):
        monkeypatch.setenv("EPE_THREADS", "1")
        argv = [*_QUBIT, "--count", "4100", "--rank", str(rank), "--measure", measure]
        out = tmp_path / "q.csv"
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert out.read_text() == _oracle_sample_csv(argv)

    @pytest.mark.parametrize("extra", [[], ["--energy-window", "1", "2"],
                                       ["--measure", "negativity"]])
    def test_gaussian(self, tmp_path, monkeypatch, extra):
        monkeypatch.setenv("EPE_THREADS", "1")
        argv = ["sample", "--system", "gaussian", "--count", "4100", "--seed", "3", *extra]
        out = tmp_path / "g.csv"
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert out.read_text() == _oracle_sample_csv(argv)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 10000, 20481])
    def test_counts_and_workers(self, tmp_path, capsys, monkeypatch, qubit_oracle_lines,
                                threads, count):
        # records depend on (seed, index) only, so each oracle is a prefix of the longest
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        monkeypatch.setenv("EPE_THREADS", threads)
        want = "".join(qubit_oracle_lines[: count + 1])
        argv = [*_QUBIT, "--count", str(count)]
        out = tmp_path / "q.csv"
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert out.read_text() == want
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == want

    def test_pool_runs_at_most_two_chunks_per_worker_ahead(self, monkeypatch, inline_pool):
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        monkeypatch.setenv("EPE_THREADS", "2")
        cfg = sampling.SamplerConfig(seed=1, count=10 * sampling.CHUNK + 1)
        ahead = []
        for i, start in enumerate(cli._record_chunks(cfg)):
            assert start == i * sampling.CHUNK
            ahead.append(len(inline_pool.submitted) - i)
        assert inline_pool.built == [2]
        assert len(ahead) == 11
        assert max(ahead) == 4

    @pytest.mark.parametrize("cpus", [2, 8])
    @pytest.mark.parametrize("chunks", [1, 2, 3, 4, 5, 6])
    def test_pool_size_gives_each_worker_two_chunks(self, monkeypatch, inline_pool, cpus,
                                                    chunks):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        monkeypatch.delenv("EPE_THREADS", raising=False)
        cfg = sampling.SamplerConfig(seed=1, count=(chunks - 1) * sampling.CHUNK + 1)
        starts = list(cli._record_chunks(cfg))
        assert starts == [i * sampling.CHUNK for i in range(chunks)]
        workers = min(cpus, chunks // 2)
        # a pool only where each of at least two workers gets two chunks
        assert inline_pool.built == ([workers] if workers >= 2 else [])

    @pytest.fixture
    def thread_pool(self, monkeypatch):
        """Threads stand in for the pool's worker processes; records each
        pool's max_workers."""
        built = []

        class ThreadPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPool)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        return built

    def test_pool_csv_matches_the_oracle(self, tmp_path, monkeypatch, thread_pool,
                                         qubit_oracle_lines):
        monkeypatch.setenv("EPE_THREADS", "2")
        count = 3 * sampling.CHUNK + 1
        out = tmp_path / "q.csv"
        assert run_cli([*_QUBIT, "--count", str(count), "--out", str(out)]) == 0
        assert thread_pool == [2]
        assert out.read_text() == "".join(qubit_oracle_lines[: count + 1])

    def test_pool_json_matches_one_process(self, tmp_path, monkeypatch, thread_pool):
        argv = [*_QUBIT, "--count", str(3 * sampling.CHUNK + 1), "--format", "json"]
        for workers in ("2", "1"):
            monkeypatch.setenv("EPE_THREADS", workers)
            assert run_cli([*argv, "--out", str(tmp_path / f"q{workers}.json")]) == 0
        assert thread_pool == [2]
        assert read(tmp_path / "q2.json") == read(tmp_path / "q1.json")

    @pytest.mark.parametrize("existing", [None, b"earlier bytes\n"])
    def test_violation_in_a_later_chunk_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                       existing):
        real = sampling.records_chunk

        def corrupted(cfg, start, count):
            values, flags = real(cfg, start, count)
            if start == sampling.CHUNK:
                flags[2, 0] = False
            return values, flags

        spool_dir = tmp_path / "spool"
        spool_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
        monkeypatch.setenv("EPE_THREADS", "1")
        monkeypatch.setattr(sampling, "records_chunk", corrupted)
        out = tmp_path / "data" / "q.csv"
        out.parent.mkdir()
        if existing is not None:
            out.write_bytes(existing)
        assert run_cli([*_QUBIT, "--count", "10000", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert "containment flag violated at sample 4098:" in captured.err
        assert captured.out == ""
        assert os.listdir(spool_dir) == []
        if existing is None:
            assert os.listdir(out.parent) == []
        else:
            assert os.listdir(out.parent) == ["q.csv"]
            assert out.read_bytes() == existing
        assert run_cli([*_QUBIT, "--count", "10000"]) == 4
        assert capsys.readouterr().out == ""

    def test_json_checks_every_chunk(self, capsys, monkeypatch):
        real = sampling.records_chunk

        def corrupted(cfg, start, count):
            values, flags = real(cfg, start, count)
            flags[-1, 2] = start == 0
            return values, flags

        monkeypatch.setenv("EPE_THREADS", "1")
        monkeypatch.setattr(sampling, "records_chunk", corrupted)
        assert run_cli([*_QUBIT, "--count", "5000", "--format", "json"]) == 4
        captured = capsys.readouterr()
        assert "sample 4999:" in captured.err and captured.out == ""

    @staticmethod
    def _peak_mb(tmp_path, count, fmt):
        """VmHWM in MB of a child `sample --system qubit --count count --format fmt`."""
        # VmHWM is the peak RSS of the process image itself; ru_maxrss would
        # also carry the high-water mark inherited from this process at exec
        code = (
            "import sys\n"
            "from epe import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM')]\n"
            "print(int(hwm[0].split()[1]), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        env = dict(_src_env(), EPE_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = tmp_path / f"q{count}.{fmt}"
        proc = subprocess.run([sys.executable, "-c", code, *_QUBIT, "--count", str(count),
                               "--format", fmt, "--out", str(out)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        if fmt == "csv":
            assert out.read_bytes().count(b"\n") == count + 1
        else:
            assert len(json.loads(out.read_text())["records"]) == count
        return int(proc.stderr.split()[-1]) / 1024.0

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmHWM")
    def test_peak_memory_does_not_grow_with_count(self, tmp_path):
        peaks = [self._peak_mb(tmp_path, count, "csv") for count in (20_000, 200_000)]
        # building the 200k rows in memory first cost about 100 MB more
        assert peaks[1] - peaks[0] < 5.0, peaks

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmHWM")
    def test_json_peak_memory_does_not_grow_with_count(self, tmp_path):
        peaks = [self._peak_mb(tmp_path, count, "json") for count in (20_000, 100_000)]
        # building the 100k records in memory first cost about 100 MB more
        assert peaks[1] - peaks[0] < 5.0, peaks


def test_pyproject_reads_the_package_version():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^dynamic = \["version"\]$', text, re.M)
    assert 'version = {attr = "epe.__version__"}' in text
    assert not re.search(r'^version = "', text, re.M)


def _src_env():
    import epe

    src = os.path.dirname(os.path.dirname(os.path.abspath(epe.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@functools.cache
def _openblas_core(coretype=None):
    """The "Core:" line OpenBLAS prints on import, with OPENBLAS_CORETYPE set
    to `coretype` if given, or None."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2")
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                          capture_output=True, text=True, timeout=60)
    return next((line for line in proc.stderr.splitlines() if line.startswith("Core:")), None)


@pytest.mark.parametrize("argv", [
    ["sample", "--system", "qubit", "--count", "4096", "--seed", "7", "--rank", "2"],
    ["sample", "--system", "qubit", "--count", "4096", "--seed", "7"],
    ["jc", "--input", "coherent", "--alpha", "0.5:1.5:0.5", "--tsteps", "400"],
    ["jc", "--input", "squeezed", "--gamma", "0.4:0.8:0.2", "--tsteps", "400"],
])
def test_bytes_at_the_baseline_openblas_kernel(tmp_path, argv):
    # OpenBLAS picks its kernels per CPU; OPENBLAS_CORETYPE=Prescott forces
    # its baseline ones, which round sums in another order
    default = _openblas_core()
    if default is None or default == _openblas_core("Prescott"):
        pytest.skip("numpy's BLAS does not switch kernels with OPENBLAS_CORETYPE")
    outputs = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        out = tmp_path / f"{len(outputs)}.csv"
        proc = subprocess.run([sys.executable, "-m", "epe.cli", *argv, "--out", str(out)],
                              env=dict(_src_env(), EPE_THREADS="1", **extra),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_loads_no_scipy():
    code = "import epe.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Loads numpy, then runs `epe` as the program does on argv[1:] and writes the
# modules that epe added to stderr.
_STARTUP = """
import sys
import numpy
before = set(sys.modules)
from epe import cli
code = cli.main()
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(code)
"""


def test_program_start_loads_no_costly_module():
    # each costs milliseconds per process: numpy.random 10-14 ms and
    # numpy.ma about 16 ms to import, dataclasses generated code per class
    proc = subprocess.run([sys.executable, "-c", _STARTUP, "jc", "--input", "single-photon"],
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stderr.split()
    assert "epe.cli" in added
    costly = ("dataclasses", "numpy.random", "numpy.ma", "scipy", "concurrent.futures",
              "multiprocessing")
    assert [m for m in added if m.startswith(tuple(c + "." for c in costly)) or m in costly] == []


# Imports every epe module and runs `epe` on argv[2:]; with argv[1] == "block"
# every scipy import fails. The scipy modules loaded by the end go to stderr.
_JC_WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[1] == "block":
    sys.meta_path.insert(0, BlockScipy())
import epe.cli, epe.gaussian, epe.jc, epe.qubit, epe.sampling
code = epe.cli.main(sys.argv[2:])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["jc", "--input", "coherent", "--alpha", "1.0"],
    ["jc", "--input", "squeezed", "--gamma", "0.4"],
])
def test_jc_runs_without_scipy(argv):
    outputs = []
    for mode in ("block", "open"):
        proc = subprocess.run([sys.executable, "-c", _JC_WITHOUT_SCIPY, mode, *argv],
                              env=_src_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == b"[]"
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 2


# Runs `epe` as the program does, `main()` on sys.argv, then writes the
# number of frozen objects and whether a process pool was imported to stderr.
_PROGRAM = """
import gc, sys
from epe import cli
code = cli.main()
print(gc.get_freeze_count(), "multiprocessing" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _run_program(argv, **env):
    """(stdout bytes, frozen object count, pool imported) of `_PROGRAM` on argv."""
    proc = subprocess.run([sys.executable, "-c", _PROGRAM, *argv], env=dict(_src_env(), **env),
                          capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    frozen, pooled = proc.stderr.split()[-2:]
    return proc.stdout, int(frozen), pooled == b"True"


class TestProgramEntry:
    @pytest.mark.parametrize("argv", [
        ["boundary", "--system", "qubit", "--curve", "mems", "--grid", "0:1:0.05"],
        ["jc", "--input", "coherent", "--alpha", "0.5:1:0.5", "--tsteps", "200"],
    ])
    def test_program_freezes_the_heap_and_writes_the_same_bytes(self, capsys, argv):
        out, frozen, _ = _run_program(argv)
        assert frozen > 0
        before = gc.get_freeze_count()
        assert run_cli(argv) == 0
        # a caller passing argv keeps its collector as it was
        assert gc.get_freeze_count() == before
        assert capsys.readouterr().out.encode() == out
        assert out.count(b"\n") > 1

    @pytest.mark.skipif(cli.usable_cpus() < 2, reason="a pool needs two usable CPUs")
    def test_pool_forked_from_the_frozen_program_writes_the_same_bytes(self, tmp_path):
        # 16385 records are 5 chunks, so EPE_THREADS=2 starts a 2-worker pool
        argv = ["sample", "--system", "qubit", "--count", "16385", "--seed", "11"]
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"q{workers}.csv"
            _, frozen, pooled = _run_program([*argv, "--out", str(out)], EPE_THREADS=workers)
            assert frozen > 0
            assert pooled == (workers == "2")
            outputs.append(read(out))
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 16386


# numpy's dispatch names for AVX-512; disabling them takes effect on numpy 2.4
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
# digests of a np.log1p table and of a 64-state qubit chunk's values, then
# `sample --system qubit --count 4096 --seed 7` at each rank and measure
DISPATCH_PROBE = """
import hashlib, sys
import numpy as np
from epe import cli, sampling
for data in (np.log1p(np.linspace(-0.5, 4.0, 10007)), sampling.qubit_records_chunk(7, 0, 64)[0]):
    print(hashlib.sha256(data.tobytes()).hexdigest())
for rank in "1234":
    for measure in ("concurrence", "negativity"):
        assert cli.main(["sample", "--system", "qubit", "--count", "4096", "--seed", "7",
                         "--rank", rank, "--measure", measure,
                         "--out", f"{sys.argv[1]}/rank{rank}_{measure}.csv"]) == 0
"""


@pytest.fixture(scope="module")
def dispatch_runs(tmp_path_factory):
    """{setting: (log1p digest, chunk digest, output directory)} of the probe
    with NPY_DISABLE_CPU_FEATURES unset and set to NO_AVX512; skips where
    numpy refuses the variable or it changes no np.log1p bit."""
    runs = {}
    for disabled in (None, NO_AVX512):
        env = _src_env()
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        env["EPE_THREADS"] = "1"
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = tmp_path_factory.mktemp("dispatch")
        done = subprocess.run([sys.executable, "-c", DISPATCH_PROBE, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        if done.returncode:
            pytest.skip(f"the probe failed with NPY_DISABLE_CPU_FEATURES={disabled!r}: "
                        f"{done.stderr[-200:]}")
        runs[disabled] = (*done.stdout.split(), out)
    if runs[None][0] == runs[NO_AVX512][0]:
        pytest.skip("NPY_DISABLE_CPU_FEATURES changes no np.log1p bit on this CPU")
    return runs


class TestDispatch:
    """Qubit records are the same bytes with AVX-512 on or off: the draw is
    sort, subtraction, sqrt, cos and sin, none of which changes with it.
    The logneg and eof columns still move, through log2."""

    def test_qubit_chunk_bytes_do_not_depend_on_avx512(self, dispatch_runs):
        assert dispatch_runs[None][1] == dispatch_runs[NO_AVX512][1]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("measure", ["concurrence", "negativity"])
    def test_qubit_sample_bytes_do_not_depend_on_avx512(self, dispatch_runs, rank, measure):
        name = f"rank{rank}_{measure}.csv"
        default, disabled = (read(dispatch_runs[key][2] / name) for key in (None, NO_AVX512))
        assert default.count(b"\n") == 4097
        assert default == disabled


class TestWorkers:
    # each count gives two workers at least two chunks each, so the
    # EPE_THREADS > 1 side runs the process pool where two CPUs are usable

    def test_thread_count_determinism(self, tmp_path):
        # the acceptance suite rechecks this via the installed entry point;
        # here we pin the in-process path with EPE_THREADS=1
        env = dict(os.environ)
        outputs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}.csv"
            env["EPE_THREADS"] = workers
            proc = subprocess.run(
                [sys.executable, "-m", "epe.cli", "sample", "--system", "qubit",
                 "--count", "12289", "--seed", "123", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(read(out))
        assert outputs[0] == outputs[1]

    def test_gaussian_thread_count_determinism(self, tmp_path):
        env = dict(os.environ)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"g{workers}.csv"
            env["EPE_THREADS"] = workers
            proc = subprocess.run(
                [sys.executable, "-m", "epe.cli", "sample", "--system", "gaussian",
                 "--count", "16385", "--seed", "77", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(read(out))
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 16386

    def test_two_chunk_run_starts_no_pool(self):
        # 8192 Gaussian records are two chunks: one each for two workers
        # is below MIN_CHUNKS_PER_WORKER, so the run stays in this process
        script = ("import sys; from epe import cli; rc = cli.main(sys.argv[1:]); "
                  "print(rc, 'multiprocessing' in sys.modules, file=sys.stderr)")
        argv = ["sample", "--system", "gaussian", "--count", "8192", "--seed", "5"]
        outputs = []
        for workers in ("1", "2"):
            env = dict(_src_env(), EPE_THREADS=workers)
            proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                  capture_output=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.split() == [b"0", b"False"]
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 8193

    def test_worker_count_capped_at_cores(self, monkeypatch):
        monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
        monkeypatch.setenv("EPE_THREADS", "5000")
        assert cli.worker_count() == 3
        monkeypatch.setenv("EPE_THREADS", "2")
        assert cli.worker_count() == 2
        monkeypatch.delenv("EPE_THREADS")
        assert cli.worker_count() == 3

    def test_usable_cpus_reads_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.usable_cpus() == 1
        monkeypatch.setenv("EPE_THREADS", "4")
        assert cli.worker_count() == 1
        monkeypatch.delenv("EPE_THREADS")
        assert cli.worker_count() == 1

    def test_usable_cpus_without_affinity_is_the_core_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli.usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli.usable_cpus() == 1

    def test_zero_threads_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EPE_THREADS", "0")
        out = tmp_path / "q.csv"
        assert run_cli(["sample", "--system", "qubit", "--count", "3", "--seed", "1",
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: EPE_THREADS must be >= 1\n"
        assert not out.exists()

    def test_worker_env_validation(self):
        os.environ["EPE_THREADS"] = "zero"
        try:
            from epe.errors import ConfigurationError

            with pytest.raises(ConfigurationError):
                cli.worker_count()
        finally:
            del os.environ["EPE_THREADS"]
