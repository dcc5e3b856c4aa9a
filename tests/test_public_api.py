"""Public-API surface tests: documented entry points exist and the
package's advertised layering holds."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


SUBPACKAGES = [
    "repro.sim",
    "repro.gpu",
    "repro.interconnect",
    "repro.queues",
    "repro.runtime",
    "repro.apps",
    "repro.frameworks",
    "repro.graph",
    "repro.metrics",
    "repro.harness",
    "repro.faults",
    "repro.recovery",
    "repro.telemetry",
    "repro.tune",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_importable_with_all(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), name
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_public_symbols_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, name
    for symbol in module.__all__:
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_readme_quickstart_names_exist():
    # The README quickstart imports these exact names.
    from repro.config import daisy  # noqa: F401
    from repro.graph import (  # noqa: F401
        bfs_grow_partition,
        largest_component_vertex,
        rmat,
    )
    from repro.apps import AtosBFS, reference_bfs  # noqa: F401
    from repro.runtime import AtosConfig, AtosExecutor  # noqa: F401


def _imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # Resolve ``from ..gpu import x`` against repro.sim.
            base = ("repro.sim".rsplit(".", node.level - 1)[0]
                    if node.level else "")
            yield ".".join(part for part in (base, node.module) if part)


def test_sim_layer_is_domain_agnostic():
    # The DES engine must not import GPU/graph/runtime modules.
    import repro.sim

    forbidden = ("repro.gpu", "repro.graph", "repro.runtime",
                 "repro.apps", "repro.frameworks")
    modules = {
        info.name: Path(repro.sim.__path__[0]) / f"{info.name}.py"
        for info in pkgutil.iter_modules(repro.sim.__path__)
    }
    modules["__init__"] = Path(repro.sim.__file__)
    assert {"core", "equeue", "monitor", "partition"} <= set(modules)
    for name, path in modules.items():
        for imported in _imported_modules(path):
            for package in forbidden:
                assert not (imported == package
                            or imported.startswith(package + ".")), (
                    f"repro.sim.{name}", imported)


def test_errors_hierarchy():
    from repro import errors

    for name in errors.__dict__:
        obj = getattr(errors, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            if obj is errors.ReproError:
                continue
            assert issubclass(obj, errors.ReproError), name
