"""Package surface: the package imports, and every exported name exists."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import dpsynth

MODULES = sorted(info.name for info in pkgutil.iter_modules(dpsynth.__path__))


def test_package_imports_in_a_fresh_interpreter():
    subprocess.run([sys.executable, "-c", "import dpsynth"], check=True)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"dpsynth.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
