"""Introspection tests: the public API is complete and documented."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PUBLIC_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cgroups",
    "repro.engine",
    "repro.fabric",
    "repro.faults",
    "repro.hostmodel",
    "repro.obs",
    "repro.platforms",
    "repro.run",
    "repro.sched",
    "repro.trace",
    "repro.viz",
    "repro.workloads",
]


def _all_modules():
    out = []
    for pkg_name in PUBLIC_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                out.append(importlib.import_module(f"{pkg_name}.{info.name}"))
    return out


class TestModuleHygiene:
    @pytest.mark.parametrize(
        "module", _all_modules(), ids=lambda m: m.__name__
    )
    def test_module_has_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize(
        "module", _all_modules(), ids=lambda m: m.__name__
    )
    def test_module_declares_all(self, module):
        # every module except the private __main__ shim declares __all__
        if module.__name__.endswith("__main__"):
            pytest.skip("entry-point shim")
        assert hasattr(module, "__all__"), module.__name__

    @pytest.mark.parametrize(
        "module", _all_modules(), ids=lambda m: m.__name__
    )
    def test_all_entries_exist(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.{name}"


class TestPublicCallablesDocumented:
    def test_every_public_symbol_documented(self):
        undocumented = []
        for module in _all_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    if not (obj.__doc__ or "").strip():
                        undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_public_class_methods_documented(self):
        """Every public method of every public class carries a docstring."""
        undocumented = []
        for module in _all_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if not inspect.isclass(obj):
                    continue
                for meth_name, meth in inspect.getmembers(obj):
                    if meth_name.startswith("_"):
                        continue
                    if not callable(meth) or isinstance(meth, type):
                        continue
                    func = getattr(meth, "__func__", meth)
                    if getattr(func, "__module__", "").startswith("repro"):
                        # inspect.getdoc walks the MRO: an override of a
                        # documented base method counts as documented
                        if not (inspect.getdoc(meth) or "").strip():
                            undocumented.append(
                                f"{module.__name__}.{name}.{meth_name}"
                            )
        assert sorted(set(undocumented)) == []


class TestTopLevelApi:
    def test_core_workflow_symbols_present(self):
        for name in (
            "run_once",
            "run_platform_sweep",
            "run_colocated",
            "run_mpi_cluster",
            "run_campaign",
            "predict_overhead_ratio",
            "make_platform",
            "instance_type",
            "r830_host",
        ):
            assert name in repro.__all__

    def test_no_private_names_exported(self):
        allowed = {"__version__"}
        assert all(
            not n.startswith("_") or n in allowed for n in repro.__all__
        )


class TestRunEntryPoints:
    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.run.campaign", "run_campaign"),
            ("repro.run.experiment", "run_experiment"),
            ("repro.run.experiment", "run_platform_sweep"),
            ("repro.run.adaptive", "run_adaptive_sweep"),
        ],
    )
    def test_execution_options_live_on_the_runner(self, module, name):
        fn = getattr(importlib.import_module(module), name)
        params = set(inspect.signature(fn).parameters)
        assert "runner" in params
        dropped = {
            "jobs", "journal", "batch", "checkpoint", "resume", "faults",
            "trace",
        }
        assert not params & dropped
