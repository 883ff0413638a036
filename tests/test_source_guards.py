"""Structural checks on the package source, parsed with ``ast``.

Every function of the package reads each of its parameters: a parameter
that no code reads is an option a caller can pass and the function
silently ignores (``self`` and ``cls`` are exempt).  No module uses a QR
factorization, each module imports exactly the package modules pinned in
``PACKAGE_IMPORTS`` and none of ``LAZY_IMPORTS`` at module level, and
``cli`` loads images and masks only through the names the benchmark's
tracer wraps.  The README names no command-line option that the parser
does not define.
"""

import ast
import re
from pathlib import Path

import pytest

from reid_sgm.cli import _commands, build_parser

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reid_sgm"
EXEMPT = {"self", "cls"}


def unread_parameters(source: str, module: str) -> list[str]:
    """``module.function(param)`` for each parameter its function never loads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{module}.{name}({param})" for param in params
                  if param not in EXEMPT and param not in read]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(), path.stem) == []


def test_guard_names_an_unread_parameter():
    source = "def build_maps(image, maps, epsilon0=1e-4):\n    return image, maps\n"
    assert unread_parameters(source, "descriptor") == ["descriptor.build_maps(epsilon0)"]


def qr_calls(source: str, module: str) -> list[str]:
    """``module:line`` for each use of a QR factorization."""
    tree = ast.parse(source)
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "qr"]
    found += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and any(alias.name == "qr" for alias in node.names)]
    return [f"{module}:{line}" for line in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_qr_factorization(path):
    """The reduced coupled solve has one path, the pair rows' Grams; the QR
    basis is the oracle in ``tests/test_ccl.py``."""
    assert qr_calls(path.read_text(), path.stem) == []


def test_guard_names_a_qr_call():
    source = "import numpy as np\nfrom numpy.linalg import qr\n\nq, r = np.linalg.qr(a)\n"
    assert qr_calls(source, "ccl") == ["ccl:2", "ccl:4"]


# The package modules each module imports.  A new cross-module import is a
# deliberate edit here: evalkit scores nothing itself, so it needs no ccl.
# ``artifact`` takes the package's own ``__version__``, set in ``__init__``
# before any module loads.
PACKAGE_IMPORTS = {
    "__init__": {"ccl", "descriptor", "evalkit", "imaging", "sgm"},
    "artifact": {"__version__", "errors"},
    "ccl": {"artifact", "errors"},
    "cli": {"ccl", "descriptor", "errors", "evalkit", "imaging", "sgm"},
    "descriptor": {"artifact", "errors", "imaging", "sgm"},
    "errors": set(),
    "evalkit": {"errors", "imaging", "sgm"},
    "imaging": {"errors"},
    "sgm": {"errors", "imaging"},
}


def package_imports(source: str) -> set[str]:
    """Names of the package modules a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "reid_sgm"):
                found.update(alias.name for alias in node.names)
            elif module.startswith((".", "reid_sgm.")):
                found.add(module.lstrip(".").removeprefix("reid_sgm.").split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("reid_sgm."))
    return found


def test_every_module_has_pinned_imports():
    assert sorted(PACKAGE_IMPORTS) == sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_package_imports_are_pinned(path):
    assert package_imports(path.read_text()) == PACKAGE_IMPORTS[path.stem]


def test_guard_names_each_import_form():
    source = ("from . import ccl, sgm\nfrom .errors import CorruptFile\n"
              "from reid_sgm.imaging import convert\nimport reid_sgm.evalkit\nimport numpy\n")
    assert package_imports(source) == {"ccl", "sgm", "errors", "imaging", "evalkit"}


def struct_imports(source: str, module: str) -> list[str]:
    """``module:line`` for each import of ``struct``, in any form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names if alias.name == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "struct":
            found.append(node.lineno)
    return [f"{module}:{line}" for line in found]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_only_the_artifact_module_packs_bytes(path):
    """The binary layout of ``.sgmd`` and ``.cclm`` lives in ``artifact``
    alone: no other module imports ``struct``."""
    found = struct_imports(path.read_text(), path.stem)
    assert bool(found) == (path.stem == "artifact"), found


def test_guard_names_each_struct_import():
    source = ("import os, struct\nfrom struct import pack\nimport numpy\n"
              "def read():\n    import struct as s\n")
    assert struct_imports(source, "ccl") == ["ccl:1", "ccl:2", "ccl:5"]


# Packages that only some commands need, imported where they are used, so
# that no command pays their start-up for the others: the thread pool
# (extract --threads > 1), scipy (no command) and Pillow (PNG images).
LAZY_IMPORTS = ("concurrent.futures", "scipy", "PIL")


def eager_imports(source: str, module: str) -> list[str]:
    """``module:line name`` for each import of a ``LAZY_IMPORTS`` package
    that runs when the module is loaded, outside every function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module] + [f"{child.module}.{alias.name}" for alias in child.names]
            lazy = [name for name in names
                    if any(name == p or name.startswith(p + ".") for p in LAZY_IMPORTS)]
            if lazy:
                found.append(f"{module}:{child.lineno} {lazy[0]}")
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_lazy_package_imported_at_module_level(path):
    assert eager_imports(path.read_text(), path.stem) == []


def test_guard_names_each_eager_import():
    source = ("import os\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "from concurrent import futures\nimport scipy.linalg as sl\n"
              "try:\n    from PIL import Image\nexcept ImportError:\n    pass\n"
              "def load(path):\n    import scipy\n    from PIL import Image\n"
              "class Reader:\n    import PIL.Image\n"
              "    def read(self):\n        from concurrent.futures import wait\n")
    assert eager_imports(source, "cli") == ["cli:2 concurrent.futures", "cli:3 concurrent.futures",
                                            "cli:4 scipy.linalg", "cli:6 PIL", "cli:13 PIL.Image"]


# ``perfbench/traced_cli.py`` times image and mask loading as ``imaging.load``
# by replacing these two attributes of the imaging module; cli code that
# reached a loader any other way would load untimed.
TRACED_LOADERS = {"load_image", "load_mask"}


def untraced_loads(source: str, module: str) -> list[str]:
    """``module:line name`` for each imaging loader the source reaches other
    than by calling ``imaging.load_image`` or ``imaging.load_mask``."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("imaging"):
            found += [(node.lineno, alias.name) for alias in node.names if "load" in alias.name]
        elif (isinstance(node, ast.Attribute) and "load" in node.attr
              and isinstance(node.value, ast.Name) and node.value.id == "imaging"
              and not (node.attr in TRACED_LOADERS and id(node) in called)):
            found.append((node.lineno, node.attr))
    return [f"{module}:{line} {name}" for line, name in sorted(found)]


def test_cli_loads_images_only_through_traced_names():
    assert untraced_loads((PACKAGE / "cli.py").read_text(), "cli") == []


def test_guard_names_each_untraced_load():
    source = ("from .imaging import load_image\nfrom . import imaging\n"
              "load = imaging.load_mask\nimaging._load_pgm(data)\nimaging.load_image(path)\n")
    assert untraced_loads(source, "cli") == ["cli:1 load_image", "cli:3 load_mask",
                                             "cli:4 _load_pgm"]


def undocumented_flags(readme: str) -> list[str]:
    """Each ``--flag`` the text names that no subcommand of the CLI defines;
    ``pip`` command lines, such as the install block's, are exempt."""
    parser = build_parser()
    defined = {option for sub in (parser, *_commands(parser).values())
               for action in sub._actions for option in action.option_strings}
    text = "\n".join(line for line in readme.splitlines() if not line.lstrip().startswith("pip "))
    return sorted(set(re.findall(r"--[A-Za-z][\w-]*", text)) - defined)


def test_readme_names_only_defined_flags():
    assert undocumented_flags((PACKAGE.parents[1] / "README.md").read_text()) == []


def test_guard_names_each_undefined_flag():
    readme = ("pip install -e . --no-build-isolation\n"
              "`extract --global-fit` and `--no-mask`; train --r 5 --rr 5 -- done\n")
    assert undocumented_flags(readme) == ["--global-fit", "--rr"]
