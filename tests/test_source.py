"""Static checks on the package source."""

import ast
from pathlib import Path

import projrep

PACKAGE = Path(projrep.__file__).resolve().parent


def test_no_assert_statements():
    # invariants raise typed errors from errors.py; python -O strips asserts
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
