"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

from prelie2.identities import Condition

SRC = Path(__file__).resolve().parent.parent / "src" / "prelie2"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_import_is_detected():
    assert unused_imports("from a import b, c\nimport d.e\nprint(c)\n") == ["b", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def literal_tensor_conditions(source: str) -> list[Condition]:
    """The Condition of each ``tensor(tensors, variables, expression)`` call
    whose variables and expression are string literals; building one raises
    ValueError when the expression is malformed."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tensor" and len(node.args) == 3:
            variables, expression = node.args[1:]
            if all(isinstance(x, ast.Constant) and isinstance(x.value, str) for x in (variables, expression)):
                out.append(Condition(expression.value, variables.value, expression.value))
    return out


def test_malformed_tensor_line_is_detected():
    sample = 'm = tensor(t, "xy", "m00(x,y)")\nn = tensor(t, names, text)\n'
    assert [c.identity for c in literal_tensor_conditions(sample)] == ["m00(x,y)"]
    for bad in ('tensor(t, "xy", "m00(x,y) - m00(y,y)")', 'tensor(t, "xy", "m00(x,y")'):
        with pytest.raises(ValueError):
            literal_tensor_conditions(bad)


def test_every_literal_tensor_line_builds_its_condition():
    found = [c for path in MODULES for c in literal_tensor_conditions(path.read_text())]
    assert len(found) >= 30
