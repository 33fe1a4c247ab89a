"""The README's library quick tour runs and gives the values its comments state,
and each row of its reference tables names tests that exist."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# a cited test, as pytest names it: `tests/test_x.py::TestClass::test_name`
TEST_ID = re.compile(r"`(tests/test_\w+\.py)::(\w+(?:::\w+)?)`")
# a library reference row, whose first cell is `module.name`
LIBRARY_ROW = re.compile(r"^\| `(\w+)\.(\w+)` \|")


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


def _table_rows():
    """(heading, text) of each body row of each README table, under the
    last heading above it; a table's first line is its header."""
    heading, rows, header_seen = None, [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            heading = line
        if not line.startswith("|"):
            header_seen = False
        elif not header_seen:
            header_seen = True
        elif not set(line) <= set("|-: "):
            rows.append((heading, line))
    return rows


def _test_node(path, qualname):
    """The class or function definition a test id names, or None."""
    file = ROOT / path
    if not file.is_file():
        return None
    node = ast.parse(file.read_text(encoding="utf-8"))
    for part in qualname.split("::"):
        node = next((stmt for stmt in node.body if getattr(stmt, "name", None) == part
                     and isinstance(stmt, (ast.ClassDef, ast.FunctionDef))), None)
        if node is None:
            return None
    return node


def test_every_table_row_cites_tests_that_exist():
    rows = _table_rows()
    headings = {heading for heading, _ in rows}
    for command in ("sample", "boundary", "jc", "rerun"):
        assert any(h.startswith(f"### `epe {command}") for h in headings), command
    assert "## Library reference" in headings
    uncited = [row for _, row in rows if not TEST_ID.search(row)]
    missing = [f"{path}::{name}" for _, row in rows for path, name in TEST_ID.findall(row)
               if _test_node(path, name) is None]
    assert uncited == [] and missing == []


def test_each_library_row_cites_a_test_that_references_its_name():
    unbacked = []
    for heading, row in _table_rows():
        if heading != "## Library reference":
            continue
        module, name = LIBRARY_ROW.match(row).groups()
        nodes = [_test_node(path, test) for path, test in TEST_ID.findall(row)]
        if not any(name in {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                            if isinstance(n, (ast.Name, ast.Attribute))}
                   for node in nodes if node is not None):
            unbacked.append(f"{module}.{name}")
    assert unbacked == []
