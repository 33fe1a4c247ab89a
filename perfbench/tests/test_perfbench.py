"""Tests of the benchmark's own logic: span arithmetic, layer metrics, output checks, names.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_nested_and_sibling_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["sibling", 5.0, 7.0, 0, 0],
    ]
    assert layers.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert sum(layers.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 5.0, 0, 0], ["b", 3.0, 6.0, 0, 0]]
    assert layers.self_times(spans)[0] == pytest.approx(5.0)


def _record(spans, counts=()):
    return {"spans": spans, "counts": [list(c) for c in counts], "missing": []}


def test_jc_stage_metrics_split_grid_refine_and_analytic_check():
    spans = [
        ["cli.main", 0.0, 20.0, -1, 0],
        ["jc.max_transfer", 1.0, 11.0, 0, 0],
        ["jc.evolve", 2.0, 3.0, 1, 64],
        ["jc.minimize_scalar", 4.0, 8.0, 1, 0],
        ["jc.evolve", 5.0, 6.0, 3, 64],
        ["jc.evolve", 12.0, 13.0, 0, 64],
        ["jc.reduce_to_qubits", 13.0, 13.5, 0, 0],
        ["jc.analytic_qubit_state", 14.0, 15.0, 0, 0],
    ]
    counts = [("jc.resolve_n_max", "cli.main", 1, 40), ("jc.resolve_n_max", "jc.max_transfer", 2, 80)]
    m = layers.layer_metrics([_record(spans, counts)])
    assert m["jc.evolve.calls"] == 3
    assert m["jc.evolve.bytes_computed"] == 192
    assert m["jc.refine.candidates"] == 1
    assert m["jc.refine.evals"] == 1
    assert m["jc.refine.s"] == pytest.approx(4.0)
    assert m["jc.grid_eval.s"] == pytest.approx(6.0)
    assert m["jc.analytic_check.s"] == pytest.approx(2.5)
    assert m["jc.truncation.n_max_sum"] == 40
    assert m["cli.self_s"] == pytest.approx(20.0 - 10.0 - 1.0 - 0.5 - 1.0)


def test_missing_wrapped_function_yields_zero_calls(tmp_path):
    sampling = SimpleNamespace(beam_splitter=lambda theta: theta)

    def random_covariance():
        sampling.beam_splitter(0.0)
        sampling.beam_splitter(1.0)
        return 1

    sampling.random_covariance = random_covariance
    cli = SimpleNamespace(main=lambda argv: sum(sampling.random_covariance() for _ in range(3)))
    recorder = layers.Recorder()
    recorder.install({"cli": cli, "sampling": sampling})
    assert cli.main([]) == 3
    recorder.dump(tmp_path / "spans.pkl")
    with open(tmp_path / "spans.pkl", "rb") as fh:
        record = pickle.load(fh)

    m = layers.layer_metrics([record])
    assert m["sampling.rng_setup.calls"] == 0
    assert m["sampling.rng_setup.self_s"] == 0.0
    assert m["sampling.cov_draw.calls"] == 3
    assert m["sampling.cov_draw.candidates"] == 6
    assert m["sampling.cov_draw.accept_ratio"] == 0.5
    assert "sampling.index_rng" in layers.missing_functions([record])
    assert set(m) | {"setup.import_s.epe_cli", "setup.import_s.epe_jc", "setup.import_s.numpy",
                     "cli.bytes_written", "trace.wall_s", "trace.overhead_s"} == set(layers.PER_LAYER)


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (
        [w["name"] for w in bench["workloads"]]
        + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        + list(layers.PER_LAYER) + list(run.END_TO_END)
    )
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER


# --- output checks ---


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("samples")
    files = {}
    for system, count in (("qubit", 2000), ("gaussian", 300)):
        argv = ["sample", "--system", system, "--count", str(count), "--seed", "5",
                "--out", f"{system}.csv"]
        subprocess.run([sys.executable, *run.EPE, *argv], cwd=out, env=run.base_env(),
                       check=True, timeout=300)
        files[system] = (out / f"{system}.csv", count, argv)
    return files


def _lines(path):
    return path.read_text().splitlines(keepends=True)


def _rewrite(path, lines, tmp_path):
    bad = tmp_path / path.name
    bad.write_text("".join(lines))
    return bad


def _zero_entanglement_row(lines):
    return next(k for k, line in enumerate(lines) if k and line.split(",")[1] == "0")


SAMPLE_CHECKS = {"qubit": checks.check_qubit_sample, "gaussian": checks.check_gaussian_sample}


@pytest.mark.parametrize("system", ["qubit", "gaussian"])
def test_sample_checker_accepts_real_output(sample_files, system):
    path, count, argv = sample_files[system]
    assert SAMPLE_CHECKS[system](path, count) == []
    assert checks.check_manifest(f"{path}.manifest.json", argv) == []
    assert checks.check_manifest(f"{path}.manifest.json", argv[:-1]) != []


@pytest.mark.parametrize("system", ["qubit", "gaussian"])
@pytest.mark.parametrize("corruption", ["flipped flag", "missing row", "shifted entanglement"])
def test_sample_checker_rejects_corrupted_file(sample_files, system, corruption, tmp_path):
    path, count, _ = sample_files[system]
    lines = _lines(path)
    if corruption == "flipped flag":
        lines[7] = lines[7][:-3] + "0" + lines[7][-2:]
    elif corruption == "missing row":
        del lines[-1]
    else:
        k = _zero_entanglement_row(lines)
        fields = lines[k].split(",")
        fields[1] = repr(float(fields[1]) - 1e-6)
        lines[k] = ",".join(fields)
    assert SAMPLE_CHECKS[system](_rewrite(path, lines, tmp_path), count) != []


def test_qubit_checker_rejects_concurrence_past_mems_frontier(sample_files, tmp_path):
    path, count, _ = sample_files["qubit"]
    lines = _lines(path)
    energy, conc, purity, flags = lines[3].split(",")
    frontier = checks.mems_concurrence_bound(float(purity))
    lines[3] = ",".join([energy, repr(frontier), purity, flags])
    assert checks.check_qubit_sample(_rewrite(path, lines, tmp_path), count) == []
    lines[3] = ",".join([energy, repr(frontier + 1e-6), purity, flags])
    assert checks.check_qubit_sample(_rewrite(path, lines, tmp_path), count) != []


def _jc_file(tmp_path, expected):
    rows = [",".join(checks.JC_HEADER)]
    for param, pinned in expected:
        lt = pinned.get("lambda_t_max", (4.6, 0))[0]
        conc = pinned["concurrence_max"][0]
        rows.append(",".join(repr(v) for v in (param, 1.0, 0.5, lt, conc, 0.9, 1e-15)))
    path = tmp_path / "jc.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("k", range(3))
def test_jc_checker_rejects_missing_row_and_shifted_concurrence(tmp_path, k):
    inv = WORKLOADS["jc-scan"].invocations(0)[k]
    expected = inv.check.keywords["expected"]
    path = _jc_file(tmp_path, expected)
    assert inv.check(str(path)) == []

    lines = _lines(path)
    path.write_text("".join(lines[:-1]))
    assert inv.check(str(path)) != []

    for shift in (1e-6, -1e-6):
        fields = lines[1].rstrip("\n").split(",")
        col = checks.JC_HEADER.index("concurrence_max")
        fields[col] = repr(float(fields[col]) + shift)
        path.write_text("".join([lines[0], ",".join(fields) + "\n", *lines[2:]]))
        assert inv.check(str(path)) != [], shift


def test_jc_checker_pins_lambda_t_and_analytic_deviation(tmp_path):
    inv = WORKLOADS["jc-scan"].invocations(0)[0]
    path = _jc_file(tmp_path, inv.check.keywords["expected"])
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    for col, value in (("lambda_t_max", math.pi / 2.0 + 2e-6), ("analytic_max_dev", 2e-9)):
        bad = list(fields)
        bad[checks.JC_HEADER.index(col)] = repr(value)
        path.write_text(f"{header}\n{','.join(bad)}\n")
        assert inv.check(str(path)) != [], col


def test_harness_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jc-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scales_a_phase_by_its_mean_kernel_time(tmp_path):
    with run.HostSpeed(run.base_env(), tmp_path, 2) as host:
        assert len(host.kernel_s) == run.KERNEL_RUNS
        assert all(len(times) == 2 and min(times) > 0 for times in host.kernel_s)
        host.measure()
        assert len(host.kernel_s) == 2 * run.KERNEL_RUNS
        # the phase starts with the last KERNEL_RUNS rounds
        host.kernel_s = [[9.0, 9.0], [0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]
        mark = host.mark()
        host.kernel_s += [[0.2, 0.2], [0.25, 0.25], [0.15, 0.75]]
        assert host.scale(mark) == pytest.approx(run.KERNEL_REFERENCE_S / 0.25)
        assert host.scale(mark, slowest=True) == pytest.approx(run.KERNEL_REFERENCE_S / 0.3)
    assert [proc.returncode for proc in host.procs] == [0, 0]
