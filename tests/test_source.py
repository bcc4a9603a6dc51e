"""Rules about the source of fmrep itself."""

import ast
from pathlib import Path

import fmrep

MODULES = sorted(Path(fmrep.__file__).parent.glob("*.py"))


def test_modules_found():
    assert {"permcore.py", "chartab.py", "cli.py"} <= {m.name for m in MODULES}


def test_no_assert_statements():
    """Certificates are explicit raises: python -O strips every assert."""
    found = [
        f"{module.name}:{node.lineno}"
        for module in MODULES
        for node in ast.walk(ast.parse(module.read_text(), str(module)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_assertion_errors_raised():
    """Every failure ends in a documented exit code, never a traceback:
    an AssertionError escapes the CLI's handlers."""
    found = [
        f"{module.name}:{node.lineno}"
        for module in MODULES
        for node in ast.walk(ast.parse(module.read_text(), str(module)))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert found == []
