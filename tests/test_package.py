"""Tests for the top-level package surface."""

import importlib
import inspect
import pkgutil

import pytest

import repro

#: Every package; each resolves its exports lazily (PEP 562).
PACKAGES = (
    "repro",
    "repro.accelerator",
    "repro.analysis",
    "repro.core",
    "repro.interconnect",
    "repro.nn",
    "repro.resilience",
    "repro.service",
    "repro.sim",
    "repro.sweep",
)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_key_classes_importable_from_top_level(self):
        assert repro.Parallelism.DATA.short == "dp"
        assert repro.HierarchicalPartitioner(num_levels=4).num_accelerators == 16
        assert repro.ArrayConfig().num_accelerators == 16

    def test_subpackages_importable(self):
        import repro.accelerator
        import repro.analysis
        import repro.core
        import repro.interconnect
        import repro.nn
        import repro.sim

        for module in (
            repro.core,
            repro.nn,
            repro.accelerator,
            repro.interconnect,
            repro.sim,
            repro.analysis,
        ):
            assert module.__doc__

    def test_subpackage_all_exports_resolve(self):
        import repro.accelerator
        import repro.analysis
        import repro.core
        import repro.interconnect
        import repro.nn
        import repro.sim

        for module in (
            repro.core,
            repro.nn,
            repro.accelerator,
            repro.interconnect,
            repro.sim,
            repro.analysis,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"

    def test_public_functions_have_docstrings(self):
        """Every public callable exported at the top level carries a docstring."""
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            member = getattr(repro, name)
            if callable(member):
                assert member.__doc__, f"repro.{name} lacks a docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_lazy_exports_resolve_list_and_reject(name):
    """Every ``__all__`` name resolves and is listed; an unknown one raises."""
    package = importlib.import_module(name)
    listing = dir(package)
    for export in package.__all__:
        getattr(package, export)
        assert export in listing, f"{name}.{export} missing from dir()"
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def _functions_of(module):
    """The functions and methods ``module`` itself defines."""
    for member in vars(module).values():
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(member):
            yield member
        elif inspect.isclass(member):
            for attribute in vars(member).values():
                function = getattr(attribute, "__func__", attribute)
                if inspect.isfunction(function):
                    yield function


def test_no_function_takes_a_backend_parameter():
    """The partition search has one implementation and nothing selects another.

    ``PartitionRequest`` alone keeps a ``backend`` field: the ``/partition``
    wire format accepts ``"numpy"`` and nothing else.
    """
    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        for function in _functions_of(importlib.import_module(info.name)):
            if "backend" in inspect.signature(function).parameters:
                offenders.append(f"{function.__module__}.{function.__qualname__}")
    assert offenders == ["repro.service.schemas.PartitionRequest.__init__"]
