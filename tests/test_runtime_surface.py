"""The runtime modules define only what the program or its documented API uses.

A public module-level name in `src/epe` must be referenced somewhere
other than its own definition: elsewhere in `src/epe`, in `scripts/`, in
a code span of README.md, or in tests/test_acceptance.py.  A name that
only the other tests call is an oracle or a test helper and belongs in
tests/oracles.py.
"""

import ast
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


def _unreferenced():
    modules = {path: _parse(path) for path in sorted((ROOT / "src" / "epe").glob("*.py"))}
    outside = set()
    for path in [*sorted((ROOT / "scripts").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _referenced(_parse(path))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for span in CODE_SPAN.findall(readme):
        outside |= set(re.findall(r"\w+", span))
    per_statement = [(stmt, _referenced(stmt)) for tree in modules.values() for stmt in tree.body]
    missing = []
    for path, tree in modules.items():
        for name, own in _defined(tree):
            if name in outside:
                continue
            if not any(name in refs for stmt, refs in per_statement if stmt is not own):
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_public_runtime_name_is_used_outside_the_tests():
    assert _unreferenced() == []


def test_the_guard_sees_a_test_only_name(tmp_path, monkeypatch):
    # a name referenced only by its own definition, or only in README prose, is reported
    src = tmp_path / "src" / "epe"
    src.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("from epe import m\nm.used()\n")
    (tmp_path / "README.md").write_text("`m.documented` and test_only in prose\n")
    (src / "m.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def documented():\n    return 2\n\n\n"
        "def test_only(n):\n    return test_only(n - 1) if n else 0\n\n\n"
        "LIMIT = 3\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert _unreferenced() == ["m.test_only", "m.LIMIT"]
