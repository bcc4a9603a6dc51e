"""Rules about the source of fmrep itself."""

import ast
import importlib
import re
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


def _readme_number(text):
    """A value as README writes it: "5·10^7" is 5 * 10**7, "300" is 300."""
    factor, base, exponent = re.fullmatch(r"(?:(\d+)·)?(\d+)(?:\^(\d+))?", text.strip()).groups()
    return int(factor or 1) * int(base) ** int(exponent or 1)


def test_readme_cap_table_matches_the_code():
    """Each row of README's cap table names module constants of fmrep and
    their values, in order; each constant exists with that value."""
    readme = (Path(fmrep.__file__).parents[2] / "README.md").read_text()
    rows = [line.split("|")[1:3] for line in readme.splitlines() if line.startswith("| `")]
    assert len(rows) == 6
    for names, values in rows:
        names = re.findall(r"`(\w+)\.(\w+)`", names)
        values = [_readme_number(v) for v in values.split(",")]
        assert len(names) == len(values) > 0
        for (module, name), value in zip(names, values):
            assert getattr(importlib.import_module(f"fmrep.{module}"), name) == value, (module, name)


def test_every_definition_has_a_caller():
    """Every function, class and method of fmrep is referenced by name
    somewhere else in fmrep, so there are no dead wrappers and test-only
    code lives in tests/.  Dunders are exempt, and so is every name that
    perfbench/*.py mentions: the tracer wraps names by module attribute,
    and the benchmark calls api members the pipeline may not."""
    perfbench = Path(fmrep.__file__).parents[2] / "perfbench"
    mentioned = {word for path in perfbench.glob("*.py") for word in re.findall(r"\w+", path.read_text())}
    defined, referenced = [], set()
    for module in MODULES:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [
        f"{module}:{line} {name}"
        for module, line, name in defined
        if name not in referenced and name not in mentioned and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []


TRACED = "(traced by perfbench/bench_trace.py)"


def test_unused_imports_are_traced_names():
    """A name a module imports but never uses is there for the tracer,
    which wraps it by name on that module: its import line carries the
    mark, and perfbench/bench_trace.py quotes the name."""
    trace = (Path(fmrep.__file__).parents[2] / "perfbench" / "bench_trace.py").read_text()
    unmarked, unquoted = [], []
    for module in MODULES:
        text = module.read_text()
        tree = ast.parse(text, str(module))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                where = f"{module.name}:{alias.lineno} {alias.name}"
                if TRACED in text.splitlines()[alias.lineno - 1]:
                    if f'"{alias.name}"' not in trace:
                        unquoted.append(where)
                elif (alias.asname or alias.name).split(".")[0] not in used:
                    unmarked.append(where)
    assert unmarked == []
    assert unquoted == []
