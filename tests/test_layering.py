"""Module boundaries: no coisokit module reaches into another's private names.

A name that starts with ``_`` belongs to the module that defines it.  The
modules ``_graded`` and ``_linalg`` are private as a whole, shared helpers
of the package, so the names they export may be imported; every other
module keeps its underscore names, and the underscore attributes of its
classes, to itself.

Every coisokit import sits at module level: an import inside a function
hides an import cycle instead of breaking it.

The stored layout of a ``Scalar`` (``_terms``, integer quads) has one owner,
``coeff_ring``: every other module reads coefficients through the public
``Scalar.terms`` view or Scalar arithmetic, whatever the object's name.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "coisokit"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _source_module(node: ast.ImportFrom):
    """The coisokit module an import reads from: "" for the package, None outside."""
    if node.level == 1:
        return node.module or ""
    name = node.module or ""
    if name == "coisokit" or name.startswith("coisokit."):
        return name[len("coisokit."):]
    return None


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def layering_violations(source: str) -> list:
    """(line, what) for each private name read across a module boundary."""
    tree = ast.parse(source)
    found = []
    imported, private_modules = set(), set()  # local names bound by coisokit imports
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        src = _source_module(node)
        if src is None:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            imported.add(local)
            if not src and _private(alias.name):
                private_modules.add(local)  # ``from . import _linalg``
            elif src and _private(alias.name) and not src.startswith("_"):
                found.append((node.lineno, f"imports {src}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported - private_modules
            and _private(node.attr)
        ):
            found.append((node.lineno, f"reads {node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_no_private_name_of_another(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert layering_violations(source) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .linfty import _per_axis_default\n", [(1, "imports linfty._per_axis_default")]),
        ("from coisokit.cli import _tokenize\n", [(1, "imports cli._tokenize")]),
        ("def f():\n    from .linfty import _grid_chunks\n", [(2, "imports linfty._grid_chunks")]),
        (
            "from .coeff_ring import RingElement\nk = RingElement._zero_key(c)\n",
            [(2, "reads RingElement._zero_key")],
        ),
        ("from . import linfty\nlinfty._GRID_CHUNK\n", [(2, "reads linfty._GRID_CHUNK")]),
        ("from ._graded import GradedTerms, merge_dirs\n", []),
        ("from ._linalg import _minor\n", []),
        ("from . import _linalg\n_linalg._minor\n", []),
        ("from .coeff_ring import RingElement\nRingElement.__init__\n", []),
        ("from numpy import _core\n", []),
    ],
    ids=[
        "private_function", "absolute_import", "lazy_import", "class_attribute",
        "module_attribute", "private_module", "private_module_name",
        "private_module_attribute", "dunder", "outside_package",
    ],
)
def test_guard_flags_what_it_should(source, expected):
    assert layering_violations(source) == expected


def function_local_imports(source: str) -> list:
    """(line, what) for each coisokit module imported inside a function."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and _source_module(node) is not None:
                found.append((node.lineno, f"imports {node.module or '.'} in {func.name}"))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "coisokit" or alias.name.startswith("coisokit."):
                        found.append((node.lineno, f"imports {alias.name} in {func.name}"))
    return sorted(set(found))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_coisokit_at_module_level_only(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert function_local_imports(source) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        (
            "def f():\n    from .symplectic_model import symplectic_to_poisson\n",
            [(2, "imports symplectic_model in f")],
        ),
        ("def f():\n    import coisokit.cli\n", [(2, "imports coisokit.cli in f")]),
        ("def f():\n    import numpy\n    from numpy import linalg\n", []),
        ("from .linfty import sample_grid\n", []),
    ],
    ids=["relative", "absolute", "outside_package", "module_level"],
)
def test_local_import_guard_flags_what_it_should(source, expected):
    assert function_local_imports(source) == expected


def layout_reads(source: str) -> list:
    """(line, what) for each read of the stored Scalar layout ``._terms``."""
    return sorted(
        (node.lineno, f"reads .{node.attr}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_terms"
    )


@pytest.mark.parametrize("module", [m for m in MODULES if m != "coeff_ring"])
def test_only_coeff_ring_reads_the_scalar_layout(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert layout_reads(source) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("n = len(s._terms)\n", [(1, "reads ._terms")]),
        ("def f(c):\n    return c.terms[0][3]._terms\n", [(2, "reads ._terms")]),
        ("s.terms\nx._terms_cache\n", []),
    ],
    ids=["local_name", "nested_attribute", "public_view"],
)
def test_layout_guard_flags_what_it_should(source, expected):
    assert layout_reads(source) == expected
