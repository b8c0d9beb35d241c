"""The runtime stays stdlib-only: every absolute import in the package names
``cnfkit`` itself or a standard-library module.  Its syntax stays within the
oldest Python that ``pyproject.toml`` claims."""

import ast
import pathlib
import sys

import cnfkit

PACKAGE = pathlib.Path(cnfkit.__file__).parent


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_are_stdlib_only():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    foreign = [(path.relative_to(PACKAGE).as_posix(), name)
               for path in modules for name in absolute_imports(path)
               if name.partition(".")[0] != "cnfkit"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_syntax_parses_as_python_3_10():
    """``requires-python = ">=3.10"``: no module uses later syntax."""
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
