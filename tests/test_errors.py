"""The package's error types: each one names a failure that the source raises."""

import ast
from pathlib import Path

import stentflow

SRC = Path(stentflow.__file__).parent


def _raised_names(tree):
    """Names of the exceptions that ``raise`` statements in ``tree`` build."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_type_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    subclasses = {node.name for node in errors.body if isinstance(node, ast.ClassDef)
                  and any(isinstance(b, ast.Name) and b.id == "StentflowError"
                          for b in node.bases)}
    assert subclasses
    raised = set()
    for path in SRC.rglob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text())))
    assert sorted(subclasses - raised) == []
