"""The benchmark's tracing hooks name functions that exist.

``perfbench/traced_cli.py`` replaces module attributes by name with
``rec.wrap(module, "attr", ...)``, and ``perfbench/timed_cli.py`` wraps
``descriptor.extract_features``.  A renamed function would only fail in
a traced benchmark run; this test fails at once instead.
"""

import ast
import importlib
from pathlib import Path

from reid_sgm import descriptor

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def wrapped_attributes():
    """(module name, attribute) of every ``*.wrap(module, "attr", ...)`` call."""
    tree = ast.parse(TRACED_CLI.read_text(), filename=str(TRACED_CLI))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            found.append((node.args[0].id, node.args[1].value))
    return found


def test_traced_hooks_exist():
    hooks = wrapped_attributes()
    assert len(hooks) >= 20
    missing = [
        f"{module}.{attr}"
        for module, attr in hooks
        if not hasattr(importlib.import_module(f"reid_sgm.{module}"), attr)
    ]
    assert missing == []


def test_timed_hook_exists():
    assert callable(descriptor.extract_features)
