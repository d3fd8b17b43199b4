"""The suite's own config and the package's shape: a failing hypothesis
property must report its falsifying example under filterwarnings = error,
every public name in src/ must have a caller outside the tests, and no
module in src/ or scripts/ imports a private name of a package module."""

import ast
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ALWAYS_FAILS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_always_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


ROOT = PYPROJECT.parent
# Public names that no shipped code calls yet, each kept for its planned caller.
UNCALLED_ON_PURPOSE = {
    "load_surrogate": "tune --resume (ROADMAP item 2) reloads the saved surrogate",
    "read_metrics_csv": "the run report (ROADMAP item 3) reads metrics.csv back",
}


def _public_definitions(tree):
    """Each public module-level function or class, and each public method or
    property of a module-level class, as (qualified name, name, is_member)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def _referenced_names(tree):
    """Names read as an ast.Name or an import, and names read as an
    attribute, as two sets; definitions and docstrings do not count."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names, attributes


def test_every_public_src_name_has_a_non_test_caller():
    """A method or property counts as called only when read as an attribute,
    so a local variable of the same name does not hide it."""
    package = sorted((ROOT / "src" / "edsurrogate").glob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name != "test_perfbench.py"]
    callers = package + sorted((ROOT / "scripts").glob("*.py")) + bench
    names, attributes = set(), set()
    for path in callers:
        read, read_as_attribute = _referenced_names(ast.parse(path.read_bytes()))
        names |= read
        attributes |= read_as_attribute
    uncalled = [
        f"{path.stem}.{qualified}"
        for path in package
        for qualified, name, is_member in _public_definitions(ast.parse(path.read_bytes()))
        if name not in attributes
        and (is_member or name not in names)
        and name not in UNCALLED_ON_PURPOSE
    ]
    assert not uncalled, f"public names with no caller outside the tests: {uncalled}"


def test_no_src_or_script_module_imports_a_private_package_name():
    modules = sorted((ROOT / "src" / "edsurrogate").glob("*.py"))
    modules += sorted((ROOT / "scripts").glob("*.py"))
    private = [
        f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_bytes()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "edsurrogate")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"imports of private package names: {private}"
