import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import circlehold
from circlehold import errors
from circlehold.errors import CircleHoldError

MODULES = ["circlehold"] + [f"circlehold.{m.name}" for m in
                            pkgutil.iter_modules(circlehold.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _raised_names(tree):
    """Names of the exception types that ``raise`` statements construct."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Attribute):
                yield exc.attr
            elif isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_type_is_raised_in_the_package():
    raised = {name for path in Path(circlehold.__file__).parent.glob("*.py")
              for name in _raised_names(ast.parse(path.read_text()))}
    types = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, CircleHoldError)
             and obj is not CircleHoldError}
    assert types
    assert sorted(types - raised) == []
