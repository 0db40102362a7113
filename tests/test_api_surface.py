"""API-surface contract: every exported name exists and docstrings are real.

These tests keep the public API honest: any name listed in a package's
``__all__`` must be importable, and public modules/classes must carry
documentation — the "doc comments on every public item" deliverable.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

# Derived from the package tree, so adding or deleting a module needs no
# edit here; ``repro.__main__`` is skipped because importing it runs the CLI.
_WALKED = [
    info
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"
]

PACKAGES = ["repro"] + sorted(info.name for info in _WALKED if info.ispkg)

MODULES = ["repro"] + sorted(info.name for info in _WALKED)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, (
        f"{module_name} lacks a real module docstring"
    )


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented at their source
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


def test_version_string():
    assert repro.__version__.count(".") == 2


ROOT = Path(__file__).resolve().parent.parent

DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted(ROOT.glob("docs/*.md"))]


def _documented_imports():
    """``(doc, module, name)`` for every ``from repro... import name`` in a
    ``python`` code block of README.md, DESIGN.md and docs/*.md."""
    block = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
    statement = re.compile(
        r"^\s*from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n]+)", re.M
    )
    found = []
    for doc in DOCS:
        for code in block.findall(doc.read_text(encoding="utf-8")):
            for module, names in statement.findall(code):
                names = re.sub(r"#[^\n]*", "", names).strip("()")
                for name in names.split(","):
                    name = name.split(" as ")[0].strip()
                    if name:
                        found.append((doc.name, module, name))
    return found


def test_documented_imports_resolve():
    found = _documented_imports()
    assert found, "no documented imports found"
    missing = [
        f"{doc}: from {module} import {name}"
        for doc, module, name in found
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing


def _resolves(dotted):
    """True when ``repro.a.b`` names a module or an attribute chain in one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_documented_names_resolve():
    """Every backticked ``repro.x.y`` name and ``repro/x/y.py`` path in
    README.md, DESIGN.md and docs/*.md still exists."""
    dotted = re.compile(r"`(repro(?:\.\w+)+)")
    path = re.compile(r"`(?:src/)?(repro/[\w/]+\.\w+)")
    checked, stale = 0, []
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for match in dotted.finditer(text):
            checked += 1
            if not _resolves(match.group(1)):
                stale.append(f"{doc.name}: {match.group(1)}")
        for match in path.finditer(text):
            checked += 1
            if not (ROOT / "src" / match.group(1)).exists():
                stale.append(f"{doc.name}: {match.group(1)}")
    assert checked, "no documented names found"
    assert not stale, stale
