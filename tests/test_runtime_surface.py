"""The runtime modules define only what the program or its listed API uses.

The library reference of README.md (its `## Library reference` section)
declares the public API: one table row per name, written `module.name`.
A public module-level name in `src/epe` must be a row of that table or be
referenced somewhere other than its own definition, elsewhere in
`src/epe` or in `scripts/`.  README prose, other code spans and the tests
do not count: a name that only tests call is an oracle or a test helper
and belongs in tests/oracles.py.  Each row in turn must name a public
name of its module that some test other than this guard references.
Each defaulted parameter of a public module-level function must be passed
by some call other than the function's own, in `src/epe`, `scripts/`, a
README code span or tests/test_acceptance.py: a value no caller sets is a
constant.  Each dotted name of a runtime module in a README code span or
```python block must name an attribute of that module.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# inline `...` spans and fenced ``` blocks
CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.S)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(tree):
    """(name, statement) of each public module-level definition."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, stmt


def _referenced(stmt):
    """Identifiers a statement reads, as bare names or as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}


def _modules():
    return {path: _parse(path) for path in sorted((ROOT / "src" / "epe").glob("*.py"))}


def _scripts():
    return [_parse(path) for path in sorted((ROOT / "scripts").glob("*.py"))]


def _outside():
    """The trees of the scripts and tests/test_acceptance.py."""
    return [*_scripts(), _parse(ROOT / "tests" / "test_acceptance.py")]


def _readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _readme_spans():
    return CODE_SPAN.findall(_readme())


# a row of the library reference: its first cell is `module.name`
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \|", re.M)


def _listed():
    """(module, name) of each row of the README's library reference."""
    section = re.search(r"^## Library reference\n(.*?)(?=^## |\Z)", _readme(), re.S | re.M)
    return ROW.findall(section[1]) if section else []


# a dotted name of a runtime module, such as `sampling.records_chunk`
DOTTED = re.compile(r"\b(qubit|gaussian|jc|sampling|cli|errors)\.(\w+)")


def _dangling():
    """The dotted names in README code that are no attribute of their module;
    shell blocks, whose `qubit.csv` is a file, are skipped."""
    missing = []
    for span in _readme_spans():
        if span.startswith("```") and not span.startswith("```python"):
            continue
        for module, name in DOTTED.findall(span):
            if not hasattr(importlib.import_module(f"epe.{module}"), name):
                missing.append(f"{module}.{name}")
    return missing


def _unreferenced():
    """The public names that are no table row and that no runtime module or
    script references."""
    modules = _modules()
    listed = set(_listed())
    scripts = set()
    for tree in _scripts():
        scripts |= _referenced(tree)
    per_statement = [(stmt, _referenced(stmt)) for tree in modules.values() for stmt in tree.body]
    missing = []
    for path, tree in modules.items():
        for name, own in _defined(tree):
            if (path.stem, name) in listed or name in scripts:
                continue
            if not any(name in refs for stmt, refs in per_statement if stmt is not own):
                missing.append(f"{path.stem}.{name}")
    return missing


def _unbacked():
    """The table rows that name no public name of their module, or a name
    that no test other than this guard references."""
    defined = {(path.stem, name) for path, tree in _modules().items() for name, _ in _defined(tree)}
    tested = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name != Path(__file__).name:
            tested |= _referenced(_parse(path))
    faults = []
    for module, name in _listed():
        if (module, name) not in defined:
            faults.append(f"{module}.{name}: not a public name of src/epe/{module}.py")
        elif name not in tested:
            faults.append(f"{module}.{name}: no test references it")
    return faults


def _defaulted(fn):
    """(index, name) of each defaulted parameter; keyword-only ones get index None."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield index, arg.arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passed(call):
    """(positions, names, passes_all) of the arguments a call passes; a
    `*` or `**` argument counts as passing every parameter."""
    positions, names, passes_all = set(), set(), False
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passes_all = True
        positions.add(index)
    for keyword in call.keywords:
        if keyword.arg is None:
            passes_all = True
        names.add(keyword.arg)
    return positions, names, passes_all


def _calls(tree):
    """(top-level statement, called name, call) of each call in a tree."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                yield stmt, name, node


def _code_spans():
    """The README code spans that parse as Python, as trees."""
    for span in _readme_spans():
        text = span.strip("`")
        if span.startswith("```"):
            text = text.split("\n", 1)[-1]
        try:
            yield ast.parse(text)
        except SyntaxError:
            continue


def _unpassed():
    modules = _modules()
    calls = [c for tree in [*modules.values(), *_outside(), *_code_spans()] for c in _calls(tree)]
    missing = []
    for path, tree in modules.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            passes = [_passed(call) for stmt, name, call in calls
                      if name == fn.name and stmt is not fn]
            for index, param in _defaulted(fn):
                if not any(every or param in names or index in positions
                           for positions, names, every in passes):
                    missing.append(f"{path.stem}.{fn.name}({param}=)")
    return missing


def test_every_public_runtime_name_is_used_outside_the_tests():
    assert _unreferenced() == []


def test_every_listed_name_exists_and_is_tested():
    assert _unbacked() == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert _unpassed() == []


def test_every_readme_name_exists():
    assert _dangling() == []


def test_the_guard_sees_a_dangling_readme_name(tmp_path, monkeypatch):
    (tmp_path / "README.md").write_text(
        "`sampling.records_chunk(cfg, 0, n)` and `sampling.sample_states(cfg)`\n"
        "```sh\nepe sample --system qubit > qubit.csv\n```\n"
        "```python\nfrom epe import jc\njc.max_transfer(jc.NoSuchInput())\n```\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert _dangling() == ["sampling.sample_states", "jc.NoSuchInput"]


def test_the_guard_sees_a_test_only_name(tmp_path, monkeypatch):
    # a name referenced only by its own definition, by a test (the acceptance
    # suite too), in README prose or in a README code span outside the table
    # is reported; a table row keeps a name alive, and a row whose name is
    # not defined or that no test references is reported
    src = tmp_path / "src" / "epe"
    src.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "scripts" / "make.py").write_text("from epe import m\nm.scripted()\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text("from epe import m\nm.accepted()\n")
    (tmp_path / "tests" / "test_m.py").write_text("from epe import m\nm.listed()\nm.test_only(1)\n")
    # the guard's own references back no row
    (tmp_path / "tests" / Path(__file__).name).write_text("from epe import m\nm.untested()\n")
    (tmp_path / "README.md").write_text(
        "`m.documented` and test_only in prose\n\n"
        "## Library reference\n\n"
        "| Name | Test |\n|---|---|\n"
        "| `m.listed` | `tests/test_m.py` |\n"
        "| `m.untested` | none |\n"
        "| `m.gone` | none |\n\n"
        "## Experiment scripts\n\n"
        "| `m.accepted` | a table in another section |\n"
    )
    (src / "m.py").write_text(
        "def scripted():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def listed():\n    return 2\n\n\n"
        "def untested():\n    return 3\n\n\n"
        "def accepted():\n    return 4\n\n\n"
        "def documented():\n    return 5\n\n\n"
        "def test_only(n):\n    return test_only(n - 1) if n else 0\n\n\n"
        "LIMIT = 3\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert _unreferenced() == ["m.accepted", "m.documented", "m.test_only", "m.LIMIT"]
    assert _unbacked() == ["m.untested: no test references it",
                           "m.gone: not a public name of src/epe/m.py"]


def test_the_guard_sees_a_parameter_no_caller_sets(tmp_path, monkeypatch):
    # passed by keyword, at its position, in a README span or through **:
    # set; passed only by a test or by the function's own recursion: reported
    src = tmp_path / "src" / "epe"
    src.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from epe import m\nm.f(1, 2, c=3)\nm.g(1, **{})\n"
    )
    (tmp_path / "tests" / "test_m.py").write_text("from epe import m\nm.h(0, step=2)\n")
    (tmp_path / "README.md").write_text("`m.h(1, kind='x')` and\n```python\nm.k(1, 2)\n```\n")
    (src / "m.py").write_text(
        "def f(a, b=1, *, c=2, d=3):\n    return a\n\n\n"
        "def g(a, b=1):\n    return a\n\n\n"
        "def h(n, step=1, kind=None):\n    return h(n - step, step=step) if n else kind\n\n\n"
        "def k(a, b=1, c=2):\n    return a\n\n\n"
        "def _private(a, b=1):\n    return a\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert _unpassed() == ["m.f(d=)", "m.h(step=)", "m.k(c=)"]
