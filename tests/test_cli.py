"""CLI subcommands, exit codes, manifests and output determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epe import __version__, cli

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def run_cli(argv):
    return cli.main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGridParsing:
    def test_triple(self):
        assert cli.parse_grid("0:2:0.5") == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_degenerate(self):
        assert cli.parse_grid("1:1:1") == [1.0]

    def test_single_value(self):
        assert cli.parse_grid("0.7") == [0.7]

    def test_reversed_is_empty(self):
        assert cli.parse_grid("2:1:1") == []

    def test_bad_specs(self):
        from epe.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            cli.parse_grid("0:1:0")
        with pytest.raises(ConfigurationError):
            cli.parse_grid("a:b:c")


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

    def test_empty_grid_exit_5(self, capsys):
        assert run_cli(["boundary", "--system", "qubit", "--curve", "separable",
                        "--grid", "2:1:1"]) == 5

    def test_domain_violation_exit_5(self, capsys):
        assert run_cli(["boundary", "--system", "qubit", "--curve", "separable",
                        "--grid", "0:3:1"]) == 5

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

        assert sampling.STREAM == "philox-v1"
        for system in ("qubit", "gaussian"):
            out = tmp_path / f"{system}.json"
            assert run_cli(["sample", "--system", system, "--count", "3", "--seed", "1",
                            "--format", "json", "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{system}.json.manifest.json").read_text())
            assert manifest["stream"] == "philox-v1"
            assert json.loads(out.read_text())["manifest"]["stream"] == "philox-v1"
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

        real = sampling.qubit_records_chunk

        def corrupted(*args, **kwargs):
            values, flags = real(*args, **kwargs)
            flags[2, 1] = False
            return values, flags

        monkeypatch.setenv("EPE_THREADS", "1")
        monkeypatch.setattr(cli, "_sample_chunk_qubit", lambda task: corrupted(*task))
        assert run_cli(["sample", "--system", "qubit", "--count", "10", "--seed", "1"]) == 4
        assert "sample 2" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        out = tmp_path / "q.json"
        assert run_cli(["sample", "--system", "qubit", "--count", "10", "--seed", "7",
                        "--format", "json", "--out", str(out)]) == 0
        body = json.loads(out.read_text())
        assert body["columns"] == ["energy", "entanglement", "purity", "flags"]
        assert len(body["records"]) == 10
        assert body["manifest"]["seed"] == 7
        assert "timestamp" not in body["manifest"]  # data files carry no timestamps

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


    @pytest.mark.parametrize("stream", [None, "seedsequence"])
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
        assert repr(stream) in err and "'philox-v1'" in err
        assert not out.exists()

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

    def test_n_photon_two(self, capsys):
        assert run_cli(["jc", "--input", "n-photon", "--n", "2", "--tsteps", "150"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[4]) == 0.0

    def test_truncation_exit_6(self, capsys):
        assert run_cli(["jc", "--input", "squeezed", "--gamma", "0.9", "--nmax", "10",
                        "--tsteps", "50"]) == 6
        assert "--nmax" in capsys.readouterr().err

    def test_gamma_cap_enforced(self, capsys):
        assert run_cli(["jc", "--input", "squeezed", "--gamma", "0.99"]) == 2

    def test_missing_parameter_exit_2(self, capsys):
        assert run_cli(["jc", "--input", "n-photon"]) == 2
        assert run_cli(["jc", "--input", "coherent"]) == 2

    def test_coherent_scan(self, tmp_path):
        out = tmp_path / "coh.csv"
        assert run_cli(["jc", "--input", "coherent", "--alpha", "0.6:1.2:0.3",
                        "--tsteps", "250", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        devs = [float(line.split(",")[6]) for line in lines[1:]]
        assert max(devs) < 1e-8


def test_pyproject_reads_the_package_version():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^dynamic = \["version"\]$', text, re.M)
    assert 'version = {attr = "epe.__version__"}' in text
    assert not re.search(r'^version = "', text, re.M)


def test_cli_import_loads_no_scipy():
    import epe

    src = os.path.dirname(os.path.dirname(os.path.abspath(epe.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import epe.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestWorkers:
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
                 "--count", "9000", "--seed", "123", "--out", str(out)],
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
                 "--count", "8192", "--seed", "77", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(read(out))
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 8193

    def test_worker_count_capped_at_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("EPE_THREADS", "5000")
        assert cli.worker_count() == 3
        monkeypatch.setenv("EPE_THREADS", "2")
        assert cli.worker_count() == 2
        monkeypatch.delenv("EPE_THREADS")
        assert cli.worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli.worker_count() == 1

    def test_worker_env_validation(self):
        os.environ["EPE_THREADS"] = "zero"
        try:
            from epe.errors import ConfigurationError

            with pytest.raises(ConfigurationError):
                cli.worker_count()
        finally:
            del os.environ["EPE_THREADS"]
