"""The public API surface: imports, __all__ integrity, docstring example."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.reputation",
    "repro.paths",
    "repro.game",
    "repro.tournament",
    "repro.ga",
    "repro.sim",
    "repro.ipdrp",
    "repro.network",
    "repro.mobility",
    "repro.analysis",
    "repro.experiments",
    "repro.parallel",
    "repro.utils",
    "repro.config",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize(
        "module", ["repro.cli", "repro.experiments.runner", "repro.service.runner"]
    )
    def test_networkx_stays_out_of_the_runtime(self, module):
        """networkx is a dev dependency (the route-search reference in the
        tests); importing a front door must not load it.  A fresh
        interpreter, since this test process may hold it already."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = f"import sys, {module}; sys.exit('networkx' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}
        )
        assert done.returncode == 0, f"importing {module} loads networkx"

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackage_imports(self, module):
        importlib.import_module(module)

    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    @pytest.mark.parametrize(
        "module",
        ["repro.core", "repro.reputation", "repro.paths", "repro.game",
         "repro.tournament", "repro.ga", "repro.experiments", "repro.analysis",
         "repro.parallel", "repro.ipdrp", "repro.network", "repro.mobility",
         "repro.utils"],
    )
    def test_subpackage_all_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists {name}"


class TestDocstringExample:
    def test_quickstart_doctest(self):
        """The module docstring example must actually run."""
        from repro import ExperimentConfig, run_experiment

        config = ExperimentConfig.for_case("case1", scale="smoke")
        result = run_experiment(config, processes=1)
        assert 0.0 <= result.final_cooperation()[0] <= 1.0
