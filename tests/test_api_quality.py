"""Meta-tests on the public API: exports exist, are documented, and the
package surface stays coherent."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro.analysis",
    "repro.analysis.diagnostics",
    "repro.analysis.lint_trace",
    "repro.analysis.model",
    "repro.analysis.model.checker",
    "repro.analysis.model.explore",
    "repro.analysis.model.hb",
    "repro.analysis.model.lifetime",
    "repro.analysis.model.ops",
    "repro.analysis.model.record",
    "repro.analysis.verify_plan",
    "repro.arrays",
    "repro.arrays.aggregate",
    "repro.arrays.chunking",
    "repro.arrays.dataset",
    "repro.arrays.dense",
    "repro.arrays.measures",
    "repro.arrays.persist",
    "repro.arrays.sparse",
    "repro.arrays.storage",
    "repro.baselines",
    "repro.baselines.level_sync",
    "repro.baselines.naive_parallel",
    "repro.baselines.partitions",
    "repro.baselines.trees",
    "repro.cli",
    "repro.obs",
    "repro.obs.expo",
    "repro.obs.export",
    "repro.obs.live",
    "repro.obs.metrics",
    "repro.obs.profile",
    "repro.obs.report",
    "repro.obs.slo",
    "repro.obs.span",
    "repro.cluster",
    "repro.cluster.collectives",
    "repro.cluster.faults",
    "repro.cluster.machine",
    "repro.cluster.metrics",
    "repro.cluster.network",
    "repro.cluster.runtime",
    "repro.cluster.topology",
    "repro.core",
    "repro.core.aggregation_tree",
    "repro.core.comm_model",
    "repro.core.config",
    "repro.core.lattice",
    "repro.core.memory_model",
    "repro.core.ordering",
    "repro.core.parallel",
    "repro.core.partial",
    "repro.core.partition",
    "repro.core.plan",
    "repro.core.prefix_tree",
    "repro.core.sequential",
    "repro.core.spanning_tree",
    "repro.exec",
    "repro.exec.base",
    "repro.exec.chaos",
    "repro.exec.driver",
    "repro.exec.pool",
    "repro.exec.process",
    "repro.exec.registry",
    "repro.exec.shm",
    "repro.exec.sim",
    "repro.exec.supervisor",
    "repro.exec.thread",
    "repro.olap",
    "repro.olap.cube",
    "repro.olap.granularity",
    "repro.olap.maintenance",
    "repro.olap.query",
    "repro.olap.schema",
    "repro.olap.view_selection",
    "repro.olap.workload",
    "repro.sched",
    "repro.sched.base",
    "repro.sched.fig5",
    "repro.sched.marginals",
    "repro.sched.registry",
    "repro.sched.shuffle",
    "repro.serve",
    "repro.serve.batch",
    "repro.serve.cache",
    "repro.serve.replay",
    "repro.serve.service",
    "repro.tiling",
    "repro.tiling.parallel_tiled",
    "repro.tiling.tiles",
    "repro.util",
    "repro.viz",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


def test_module_list_is_complete():
    found = {"repro"}
    for pkg in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        found.add(pkg.name)
    assert found == set(MODULES), (
        f"update MODULES: missing={found - set(MODULES)}, "
        f"stale={set(MODULES) - found}"
    )


@pytest.mark.parametrize(
    "name",
    ["repro", "repro.arrays", "repro.cluster", "repro.core", "repro.exec",
     "repro.olap", "repro.sched", "repro.serve", "repro.tiling",
     "repro.baselines"],
)
def test_dunder_all_resolves(name):
    mod = importlib.import_module(name)
    for sym in mod.__all__:
        assert hasattr(mod, sym), f"{name}.__all__ lists missing {sym!r}"


CURATED_TOP_LEVEL = [
    "BuildConfig",
    "CubeService",
    "DataCube",
    "Dimension",
    "GroupByQuery",
    "QueryEngine",
    "QueryResult",
    "Schema",
    "Scheduler",
    "ServiceStats",
    "available_schedulers",
    "get_scheduler",
]


@pytest.mark.parametrize("name", CURATED_TOP_LEVEL)
def test_curated_top_level_exports(name):
    assert name in repro.__all__, f"repro.__all__ should list {name}"
    assert hasattr(repro, name)


def test_importing_packages_stays_silent():
    # A plain import of the packages (or access to a public name) must not
    # emit warnings.
    import subprocess
    import sys

    code = (
        "import warnings; warnings.simplefilter('error'); "
        "import repro, repro.olap, repro.serve; "
        "repro.olap.QueryResult"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_public_functions_have_docstrings():
    undocumented = []
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr_name, attr in vars(mod).items():
            if attr_name.startswith("_"):
                continue
            if inspect.isfunction(attr) and attr.__module__ == name:
                if not (attr.__doc__ and attr.__doc__.strip()):
                    undocumented.append(f"{name}.{attr_name}")
            if inspect.isclass(attr) and attr.__module__ == name:
                if not (attr.__doc__ and attr.__doc__.strip()):
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_version():
    # pyproject.toml is the single source of truth; the package resolves
    # its version from distribution metadata or the adjacent pyproject.
    import re
    from pathlib import Path

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
    assert match is not None
    assert repro.__version__ == match.group(1) == "15.0.0"


def test_version_fallback_names_no_release(monkeypatch):
    # With no pyproject beside the package and no distribution metadata,
    # the version must not read as a release.
    import importlib.metadata

    def missing(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(repro, "__file__", "/nonexistent/src/repro/__init__.py")
    monkeypatch.setattr(importlib.metadata, "version", missing)
    assert repro._version() == "0+unknown"
