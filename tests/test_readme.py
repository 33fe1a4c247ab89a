"""The README's library quick tour runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour():
    """The value of each expression statement of the quick tour, by its source text."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```", text, re.S | re.M)[1]
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "<tour>", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "<tour>", "exec"), namespace)
    return values


def test_quick_tour_values():
    values = _tour()
    assert values["qubit.energy(qubit.apply_local_unitary(qubit.mems_state(0.9), u))"] == (
        pytest.approx(1.1, abs=1e-12))
    assert values["qubit.mems_energy_after_unitary(0.9, u)"] == pytest.approx(1.1, abs=1e-12)
    labels = values["sampling.flag_labels(flags)"]
    assert labels.shape == (1000,) and np.all(labels == b"111")
    # 8 ulp off the correctly rounded arccosh(3), through the standard-form route
    got, want = values["gaussian.log_negativity(sf)"], np.arccosh(3.0)
    assert abs(got - want) <= 16.0 * np.spacing(want)
    assert values["gaussian.separability_band(1.0)"] == pytest.approx((0.25, 1.0 / 3.0),
                                                                      rel=1e-15)
    concurrence, lambda_t = values["result.concurrence, result.lambda_t"]
    assert concurrence == pytest.approx(0.868, abs=5e-4)
    assert lambda_t == pytest.approx(4.6, abs=0.05)
