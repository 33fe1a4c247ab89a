"""Open defects of ROADMAP.md as strict expected failures.

Each test asserts the correct behaviour and is marked
`xfail(strict=True)` with the roadmap item that mends it, so tier-1
reports it as xfailed while the defect stands and fails once it is
mended, until that change removes the mark.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from epe import cli, gaussian, sampling
from epe.errors import UnphysicalCovarianceError
import oracles


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_glems_at_or_below_gmems_at_high_energy():
    # the least entangled family above the most entangled one: 2.4e-4 today
    _, glems = sampling.boundary_tables("gaussian", [0.75], "glems", energy=1e6)
    _, gmems = sampling.boundary_tables("gaussian", [0.75], "gmems", energy=1e6)
    assert glems[0, 1] <= gmems[0, 1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_tmsv_curve_at_3e7(capsys):
    # 18.0434 is written today, 0.75% above arccosh(3e7 + 1) = 17.9099
    assert cli.main(["boundary", "--system", "gaussian", "--curve", "tmsv", "--grid", "3e7"]) == 0
    _, logneg = map(float, capsys.readouterr().out.splitlines()[1].split(","))
    assert logneg == pytest.approx(np.arccosh(3e7 + 1.0), rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_gmems_flag_refuses_a_record_far_above_the_bound():
    # the exact GMEMS bound ln(P (A + sqrt(A^2 - 1/P))) at E = 1e14, P = 0.5
    # is about 32.24, but the family row's bound reads +inf, so E_N = 1000 passes
    flags = sampling._gaussian_flags(np.array([1e14]), np.array([1e3]), np.array([0.5]))
    assert not flags[0, 1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_gaussian_window_up_to_1e160_prints_only_its_error_line(tmp_path):
    # today it exits 4 after RuntimeWarnings of `_candidate_energy` and
    # `_gaussian_records`: 15 stderr lines in all
    src = os.path.dirname(os.path.dirname(os.path.abspath(sampling.__file__)))
    env = dict(os.environ, EPE_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "epe.cli", "sample", "--system", "gaussian", "--count", "4096",
         "--seed", "7", "--energy-window", "0", "1e160", "--out", str(tmp_path / "g.csv")],
        env=env, capture_output=True, text=True,
    )
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_gaussian_window_up_to_1e4_samples(tmp_path, monkeypatch):
    # record 962 sits above the GMEMS bound as the flags evaluate it (item 2)
    monkeypatch.setenv("EPE_THREADS", "1")
    assert cli.main(["sample", "--system", "gaussian", "--count", "4096", "--seed", "7",
                     "--energy-window", "0", "1e4", "--out", str(tmp_path / "g.csv")]) == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_reduction_and_measures_agree_on_a_rotated_squeezed_tmsv():
    # the pure TMSV at E = 10 with mode 1 squeezed by diag(e^3, e^-3) and
    # rotated by 0.3 rad reduces to a row with nu_- = 1 - 1.16e-10, which
    # `is_physical` refuses
    S = np.eye(4)
    c, s = np.cos(0.3), np.sin(0.3)
    S[:2, :2] = np.array([[c, s], [-s, c]]) @ np.diag([np.exp(3.0), np.exp(-3.0)])
    cm = S @ oracles.expand(gaussian.two_mode_squeezed_vacuum(10.0)) @ S.T
    try:
        row = gaussian.reduce_to_standard_form(cm)
    except UnphysicalCovarianceError:
        return
    gaussian.log_negativity(row)
