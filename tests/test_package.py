"""Package hygiene: no module imports a name it never uses, no module-level
private name goes unread, no public module-level name or dataclass field goes
unread, and every function the benchmark's span recorder wraps still
exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "negrefractor").glob("*.py"))
# every file that may read a field of the package's dataclasses
READERS = sorted(
    path for tree in ("src", "tests", "perfbench") for path in (ROOT / tree).rglob("*.py")
)


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads;
    names listed in `__all__` count as read (they are re-exports)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_the_import_guard_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from typing import Callable\n"
        "from . import fresnel as fr, ovals\n"
        "__all__ = ['ovals']\n"
        "x: np.ndarray = fr.phi\n"
    )
    assert _unused_imports(source) == ["os", "Callable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def _definitions(source: str) -> list[str]:
    """Module-level names (functions, classes and constants) that a module
    defines, dunder names excluded."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("__")]


def _private_definitions(source: str) -> list[str]:
    """Module-level private names (`_x` functions, classes and constants)
    that a module defines."""
    return [n for n in _definitions(source) if n.startswith("_")]


def _names_read(source: str) -> set[str]:
    """Names a module reads: `Name` loads plus attribute names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _dead_private_names(sources: list[str]) -> list[str]:
    """Private module-level names defined in one of the sources and read in
    none of them."""
    read = set().union(*map(_names_read, sources))
    return [n for src in sources for n in _private_definitions(src) if n not in read]


def _unread_public_names(defining: list[str], reading: list[str]) -> list[str]:
    """Public module-level names defined in `defining` that no source in
    `reading` reads, counting `Name` loads and what `_attributes_read`
    counts."""
    read = set()
    for src in reading:
        read |= _attributes_read(src)
        read |= {
            n.id for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
    return [
        n for src in defining for n in _definitions(src)
        if not n.startswith("_") and n not in read
    ]


def test_the_public_name_guard_sees_unread_public_names():
    defining = (
        "__version__ = '1'\n"
        "LIMIT = 1\n"
        "UNREAD: int = 2\n"
        "def helper():\n"
        "    return LIMIT\n"
        "def by_getattr():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
        "class Kept:\n"
        "    pass\n"
        "class Stored:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    reading = (
        "from . import a\n"
        "from .a import Kept, orphan\n"
        "a.Stored = Kept\n"
        "x = a.helper(), getattr(a, 'by_getattr')\n"
    )
    assert _unread_public_names([defining], [defining, reading]) == [
        "UNREAD", "orphan", "Stored"
    ]


def test_no_unread_public_names():
    readers = [path.read_text() for path in READERS]
    assert _unread_public_names([path.read_text() for path in MODULES], readers) == []


def test_the_dead_name_guard_sees_unread_private_names():
    defining = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Orphan:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    return name\n"
    )
    reading = "from . import a\nx = a._helper()\n"
    assert _dead_private_names([defining, reading]) == ["_UNUSED", "_Orphan"]


def test_no_dead_private_names():
    assert _dead_private_names([path.read_text() for path in MODULES]) == []


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def _dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of each `@dataclass` class."""
    return [
        (node.name, stmt.target.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _attributes_read(source: str) -> set[str]:
    """Attribute names a source reads: `Attribute` loads and the constant
    name of `getattr(obj, "name", ...)`."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
        ):
            read.add(node.args[1].value)
    return read


def _unread_fields(defining: list[str], reading: list[str]) -> list[str]:
    """`Class.field` for each dataclass field in `defining` that no source in
    `reading` reads."""
    read = set().union(*map(_attributes_read, reading))
    return [
        f"{cls}.{name}"
        for src in defining
        for cls, name in _dataclass_fields(src)
        if name not in read
    ]


def test_the_field_guard_sees_unread_dataclass_fields():
    defining = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    by_getattr: int\n"
        "    stored: int = field(init=False)\n"
        "    unread: int = 0\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    orphan: float\n"
        "class Plain:\n"
        "    ignored: int\n"
    )
    reading = (
        "def f(a):\n"
        "    a.stored = 1\n"
        "    return a.read, getattr(a, 'by_getattr', None)\n"
    )
    assert _unread_fields([defining], [defining, reading]) == [
        "A.stored", "A.unread", "B.orphan"
    ]


def test_no_unread_dataclass_fields():
    readers = [path.read_text() for path in READERS]
    assert _unread_fields([path.read_text() for path in MODULES], readers) == []


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location(
        "_tracer_under_test", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, functions in tracer.WRAPPED.items():
        module = importlib.import_module(f"negrefractor.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
