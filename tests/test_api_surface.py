"""API-surface contract: every exported name exists and docstrings are real.

These tests keep the public API honest: any name listed in a package's
``__all__`` must be importable, and public modules/classes must carry
documentation — the "doc comments on every public item" deliverable.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.cnf",
    "repro.solver",
    "repro.policies",
    "repro.simplify",
    "repro.nn",
    "repro.graph",
    "repro.models",
    "repro.models.baselines",
    "repro.parallel",
    "repro.selection",
    "repro.bench",
    "repro.obs",
    "repro.fuzz",
]

MODULES = PACKAGES + [
    "repro.cli",
    "repro.cnf.formula",
    "repro.cnf.dimacs",
    "repro.cnf.generators",
    "repro.cnf.features",
    "repro.cnf.structure",
    "repro.cnf.transforms",
    "repro.cnf.encodings",
    "repro.solver.types",
    "repro.solver.solver",
    "repro.solver.arena",
    "repro.solver.decide",
    "repro.solver.vmtf",
    "repro.solver.restart",
    "repro.solver.reduce",
    "repro.solver.proof",
    "repro.solver.drat",
    "repro.solver.walksat",
    "repro.solver.reference",
    "repro.policies.score",
    "repro.policies.base",
    "repro.parallel.cache",
    "repro.parallel.journal",
    "repro.parallel.progress",
    "repro.parallel.runner",
    "repro.parallel.supervisor",
    "repro.simplify.passes",
    "repro.simplify.elimination",
    "repro.simplify.equivalence",
    "repro.simplify.vivify",
    "repro.simplify.blocked",
    "repro.simplify.xor_gauss",
    "repro.simplify.pipeline",
    "repro.nn.tensor",
    "repro.nn.layers",
    "repro.nn.optim",
    "repro.nn.loss",
    "repro.nn.schedulers",
    "repro.nn.serialization",
    "repro.graph.bipartite",
    "repro.graph.lcg",
    "repro.graph.batching",
    "repro.models.mpnn",
    "repro.models.linear_attention",
    "repro.models.hgt",
    "repro.models.neuroselect",
    "repro.selection.labeling",
    "repro.selection.dataset",
    "repro.selection.trainer",
    "repro.selection.metrics",
    "repro.selection.selector",
    "repro.selection.validation",
    "repro.selection.storage",
    "repro.bench.calibration",
    "repro.bench.runner",
    "repro.bench.tables",
    "repro.bench.experiments",
    "repro.bench.reporting",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.obs.observer",
    "repro.obs.manifest",
    "repro.obs.report",
    "repro.fuzz.oracles",
    "repro.fuzz.campaign",
    "repro.fuzz.shrink",
]


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
    import repro

    assert repro.__version__.count(".") == 2
