"""Every error class is raised somewhere in the package, or is the base of
one that is: a class that nothing raises cannot reach a caller."""

import ast
import inspect
from pathlib import Path

from hyperkernel import errors

SRC = Path(errors.__file__).resolve().parent


def _raised_names() -> set[str]:
    """Names of the classes in `raise X(...)`, `raise errors.X(...)` and
    `raise X` statements of the package sources."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Attribute):
                names.add(exc.attr)
            elif isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised_or_a_raised_base():
    classes = {
        name: cls
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    }
    raised = [classes[name] for name in _raised_names() if name in classes]
    unused = sorted(
        name
        for name, cls in classes.items()
        if not any(issubclass(r, cls) for r in raised)
    )
    assert unused == []
